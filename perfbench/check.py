#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 perfbench/check.py

Runs a short mode of every workload (a fixed op count per client instead
of a time bound) and checks that:

  1. two runs with one seed give identical exact counts
     (array.pages_per_op, fft.slabs, fft.elements_moved,
     coll.iters_per_op, plus ops attempted and payload bytes);
  2. a second seed still passes every output check;
  3. a deliberately wrong expected value (--inject-wrong) makes the run
     fail: exit status 1 and correct = false;
  4. the metric names run.py prints are BENCHMARK.json's, in order;
  5. in a directory that holds only BENCHMARK.json and perfbench/ (no
     runtime sources) run.py exits non-zero without printing a result.

Exit status 0 when every check passes.
"""
import json
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import run  # noqa: E402

SHORT_OPS = {"call_small": 200, "page_stream": 80, "ooc_fft": 3,
             "cg_solve": 5}


def short(workload, seed, *extra):
    code, record = run.run_oobench(
        workload, seed, 1, 1,
        ["--ops", str(SHORT_OPS[workload]), *extra])
    if record is None:
        raise SystemExit(f"FAIL {workload}: no result (exit {code})")
    return code, record


def exact(record):
    counts = dict(record["exact"])
    counts["attempted"] = record["attempted"]
    counts["payload_bytes"] = record["payload_bytes"]
    return counts


def check_isolated():
    """run.py must refuse, quickly and without a result, with no src/."""
    iso = run.BUILD / "isolated"
    shutil.rmtree(iso, ignore_errors=True)
    iso.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", iso)
    shutil.copytree(run.HERE, iso / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload",
         "call_small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=iso, capture_output=True, text=True, timeout=170, check=False)
    shutil.rmtree(iso, ignore_errors=True)
    return done.returncode != 0 and not done.stdout.strip()


def main():
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(tuple(m["name"] for m in spec["end_to_end"]) == run.END_TO_END,
           "end-to-end metric names match BENCHMARK.json")
    expect(tuple(m["name"] for m in spec["per_layer"]) == run.PER_LAYER,
           "per-layer metric names match BENCHMARK.json")
    expect(tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS,
           "workload names match BENCHMARK.json")

    run.build()
    for workload in run.WORKLOADS:
        code1, first = short(workload, 1)
        code2, second = short(workload, 1)
        expect(code1 == 0 and code2 == 0 and first["correct"]
               and second["correct"], f"{workload}: seed 1 passes its checks")
        expect(exact(first) == exact(second),
               f"{workload}: exact counts repeat for one seed {exact(first)}")
        code, other = short(workload, 2)
        expect(code == 0 and other["correct"],
               f"{workload}: seed 2 passes its checks")
        code, wrong = short(workload, 1, "--inject-wrong")
        expect(code == 1 and not wrong["correct"] and wrong["failed"] >= 1,
               f"{workload}: a wrong expected value fails the run")
    expect(check_isolated(),
           "without src/, run.py exits non-zero and prints no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
