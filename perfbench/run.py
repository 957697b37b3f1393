#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <aggregate|rpc_read|live_rw> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR or .bench_build; later calls rebuild incrementally. The
benchmark binary's output is passed through, so the last line of standard
output is the run's JSON result. Exits non-zero, without a result line,
when the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def source_rev():
    """The git revision when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench", "CMakeLists.txt", "cmake"):
        p = ROOT / top
        files = [p] if p.is_file() else sorted(q for q in p.rglob("*")
                                               if q.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def build(out):
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        log("no source tree next to perfbench/ (src/, CMakeLists.txt)")
        return False
    if not shutil.which("cmake"):
        log("cmake not found")
        return False
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", str(out), "--target",
                        "dgt_perfbench", "-j", jobs], stdout=sys.stderr)
    return r.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["aggregate", "rpc_read", "live_rw"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    # Self-test hooks: a smaller graph, and one corrupted expected answer.
    ap.add_argument("--nodes", type=int, default=0)
    ap.add_argument("--corrupt_expected", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        log("build failed")
        return 2
    traces = out / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [str(out / "dgt_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out_dir", str(traces),
           "--source_rev", source_rev(), "--nodes", str(args.nodes),
           "--corrupt_expected", str(args.corrupt_expected)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        log(f"benchmark exited with {proc.returncode}")
        return 4
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
