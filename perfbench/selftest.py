#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs a seconds-long, small-graph configuration of every workload run.py
offers (those in BENCHMARK.json and live_rw, which is left out of it; see
README.md) and checks that:

  * the untraced run emits exactly the end-to-end metrics, each with its
    declared unit, and reports no failed operation;
  * the traced run emits exactly the per-layer metrics, each with its unit;
  * a run with one deliberately corrupted expected score reports at least
    one failed operation and correct = false, so the output checks cannot
    silently stop checking.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Small graphs keep each run to seconds; the metric set does not depend on N.
SMOKE_NODES = {"aggregate": 300, "rpc_read": 300, "live_rw": 200}


def run(workload, trace, corrupt=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--nodes", str(SMOKE_NODES[workload]),
           "--corrupt_expected", str(corrupt)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=300)
    if r.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {r.returncode}:\n"
                           f"{r.stderr[-2000:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def check_metrics(result, declared, label, problems):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    for name in sorted(set(want) - set(got)):
        problems.append(f"{label}: missing metric {name}")
    for name in sorted(set(got) - set(want)):
        problems.append(f"{label}: undeclared metric {name}")
    for name in sorted(set(want) & set(got)):
        if got[name].get("unit") != want[name]:
            problems.append(f"{label}: {name} unit {got[name].get('unit')!r}"
                            f" != {want[name]!r}")
        if not isinstance(got[name].get("value"), (int, float)):
            problems.append(f"{label}: {name} has no numeric value")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in SMOKE_NODES:
        plain = run(w, 0)
        check_metrics(plain, spec["end_to_end"], f"{w} trace=0", problems)
        if not plain["correct"] or plain["failed"] != 0:
            problems.append(f"{w}: clean run reported failures: "
                            f"{plain['failed']}/{plain['attempted']}")
        traced = run(w, 1)
        check_metrics(traced, spec["per_layer"], f"{w} trace=1", problems)
        if not traced["correct"]:
            problems.append(f"{w}: traced run reported failures")
        corrupt = run(w, 0, corrupt=1)
        if corrupt["correct"] or corrupt["failed"] < 1:
            problems.append(f"{w}: a corrupted expected score was not "
                            f"counted as a failed operation")
        print(f"{w}: clean {plain['attempted']} ops, traced "
              f"{len(traced['metrics'])} metrics, corrupted run failed "
              f"{corrupt['failed']}", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
