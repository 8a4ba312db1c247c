#!/usr/bin/env python3
"""Print the per-layer time breakdown of traced benchmark runs.

    python3 perfbench/breakdown.py [workload ...]

Reads what `run.py --trace 1` leaves in .bench_build/work/trace/<workload>/:

  spans.json        the benchmark's own spans around each op and each call
                    it makes into a layer (core, array, fft, coll);
  trace_node*.json  the runtime's span rings (Cluster::dump_trace).

For each workload it prints every layer's self time (span duration minus
the time its child spans cover), its share of op time, and the telemetry
overhead the traced run measured.  Time inside an op that no layer span
covers is listed as "bench" (argument generation is outside ops, so this
is loop and bookkeeping cost).  A second table summarizes the runtime
spans by name: count and mean duration per kind.
"""
import json
import sys
from collections import defaultdict
from pathlib import Path

TRACE = Path(__file__).resolve().parent.parent / ".bench_build" / "work" / "trace"


def self_times(names, spans):
    """Yield (name, self_ns, dur_ns) for one thread's spans."""
    child_ns = defaultdict(int)
    by_id = {}
    for sid, parent, name, start, end in spans:
        by_id[sid] = (name, start, end)
    for sid, parent, name, start, end in spans:
        if parent in by_id:
            _, pstart, pend = by_id[parent]
            child_ns[parent] += max(0, min(end, pend) - max(start, pstart))
    for sid, parent, name, start, end in spans:
        dur = end - start
        yield names[name], dur - child_ns[sid], dur


def bench_table(workload, doc):
    names = doc["names"]
    layer_ns = defaultdict(int)
    calls = defaultdict(int)
    op_ns = 0
    dropped = 0
    for thread in doc["threads"]:
        dropped += thread["dropped"]
        for name, self_ns, dur in self_times(names, thread["spans"]):
            layer = "bench" if name == "op" else name.split(".")[0]
            layer_ns[layer] += self_ns
            calls[name] += 1
            if name == "op":
                op_ns += dur
    ops = calls.get("op", 0)
    print(f"== {workload}: {ops} traced ops, {op_ns / 1e6:.1f} ms op time, "
          f"telemetry.overhead_pct {doc['overhead_pct']:.1f}%"
          + (f", {dropped} spans past the buffer" if dropped else ""))
    print(f"  {'layer':8s} {'self ms':>12s} {'share':>8s} {'us/op':>10s}")
    for layer, ns in sorted(layer_ns.items(), key=lambda kv: -kv[1]):
        share = 100.0 * ns / op_ns if op_ns else 0.0
        per_op = ns / 1e3 / ops if ops else 0.0
        print(f"  {layer:8s} {ns / 1e6:12.2f} {share:7.1f}% {per_op:10.1f}")
    print(f"  spans: " + ", ".join(f"{n} x{c}" for n, c in sorted(calls.items())))


def runtime_table(directory):
    stats = defaultdict(lambda: [0, 0])
    dropped = 0
    for f in sorted(directory.glob("trace_node*.json")):
        doc = json.loads(f.read_text())
        dropped += doc.get("dropped", 0)
        for s in doc["spans"]:
            key = (s["kind"], s["name"])
            stats[key][0] += 1
            stats[key][1] += s["end_ns"] - s["start_ns"]
    if not stats:
        return
    print(f"  runtime spans (last ring contents; {dropped} overwritten):")
    print(f"    {'kind':7s} {'name':36s} {'count':>8s} {'mean us':>10s}")
    for (kind, name), (n, ns) in sorted(stats.items(),
                                        key=lambda kv: -kv[1][1]):
        print(f"    {kind:7s} {name:36s} {n:8d} {ns / 1e3 / n:10.1f}")


def main():
    wanted = sys.argv[1:] or sorted(p.name for p in TRACE.glob("*") if p.is_dir())
    if not wanted:
        print(f"no traced runs under {TRACE}; run run.py with --trace 1 first",
              file=sys.stderr)
        return 1
    for workload in wanted:
        spans = TRACE / workload / "spans.json"
        if not spans.is_file():
            print(f"{workload}: no {spans}", file=sys.stderr)
            return 1
        bench_table(workload, json.loads(spans.read_text()))
        runtime_table(TRACE / workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
