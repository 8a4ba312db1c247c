#!/usr/bin/env python3
"""Run a set of untraced runs, one seed each, and report their spread.

    python3 perfbench/runset.py call_small 201 210 [--seconds 20]

Runs run.py once per seed in [first, last] on the workload and prints, for
every end-to-end metric, the median of the runs and the spread: the
quartile distance over the median, with the quartiles as
statistics.quantiles(values, n=4) gives them.  It also prints each run's
CPU steal, how many runs run.py marked invalid for it, and, when there are
any, the median and spread over the valid runs alone.  Every set made
is appended to .bench_build/results/runsets.jsonl, so a set that came out
wide is kept beside the one that did not.

Exit status 0 when every run passed its output checks.
"""
import argparse
import json
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import run  # noqa: E402


def median_spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q[2] - q[0]) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=run.WORKLOADS)
    ap.add_argument("first", type=int)
    ap.add_argument("last", type=int)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in run.END_TO_END}
    steal, valid, failed = [], [], 0
    seeds = range(args.first, args.last + 1)
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-800:]}")
            failed += 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        saved = json.loads(
            (run.BUILD / "results" /
             f"{args.workload}-seed{seed}-trace0.json").read_text())
        steal.append(saved["host"]["steal_pct"])
        valid.append(saved["valid"])

    invalid = valid.count(False)
    summary = {"workload": args.workload, "seeds": [args.first, args.last],
               "seconds": args.seconds, "failed_runs": failed,
               "invalid_runs": invalid,
               "steal_pct": [round(s, 2) for s in steal], "metrics": {}}
    print(f"== {args.workload} seeds {args.first}-{args.last}: "
          f"{len(steal)} runs, {invalid} invalid (steal > "
          f"{run.STEAL_LIMIT_PCT:g}%), steal % {summary['steal_pct']}")
    for name, v in values.items():
        if len(v) < 2:
            continue
        med, spread = median_spread(v)
        summary["metrics"][name] = {"median": med, "spread": spread,
                                    "values": v}
        line = (f"  {name:14s} median {med:12.4f}  spread {spread:6.3f}  "
                f"bound {bounds[name]}")
        kept = [x for x, ok in zip(v, valid) if ok]
        if invalid and len(kept) >= 2:
            vmed, vspread = median_spread(kept)
            line += f"  valid runs: median {vmed:.4f} spread {vspread:.3f}"
        print(line)
    results = run.BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / "runsets.jsonl", "a") as out:
        out.write(json.dumps(summary) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
