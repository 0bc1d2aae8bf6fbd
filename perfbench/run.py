#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the chordsim library.

    python3 perfbench/run.py --workload cold_start --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout. The first call configures and
builds an optimised copy of the library plus the benchmark driver under
`.bench_build/perfbench` (or `$CARGO_TARGET_DIR/perfbench` when that names a
directory inside the checkout); later calls reuse it. The driver's output is
passed through: its last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}, the line before it a report
with every workload figure, the determinism fingerprint and a build stamp.
A traced run writes its spans (Chrome trace JSON) to
.bench_build/perfbench/trace_<workload>_<seed>.json.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_start", "serve_zipf", "churn_oracle", "fuzz_guided")
DEADLINE_S = 175  # a run must end within 180 s once the build exists


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = os.path.abspath(os.path.join(ROOT, base))
    if os.path.commonpath([path, ROOT]) != ROOT:
        path = os.path.join(ROOT, ".bench_build")
    return os.path.join(path, "perfbench")


def build(out_dir):
    """Configure (once) and build; returns the driver path or None."""
    log = sys.stderr
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log, check=False)
        if cfg.returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    res = subprocess.run(
        ["cmake", "--build", out_dir, "-j", jobs, "--target", "chs_perfbench"],
        stdout=log, stderr=log, check=False)
    exe = os.path.join(out_dir, "chs_perfbench")
    return exe if res.returncode == 0 and os.path.exists(exe) else None


def source_id():
    """Git commit when the checkout is a repository, else a hash of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if res.returncode == 0:
            return res.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no src/ next to perfbench/; run from a source checkout",
              file=sys.stderr)
        return 2
    out_dir = build_dir()
    exe = build(out_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", "full", "--commit", source_id()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace_%s_%d.json" % (args.workload, args.seed))]
    start = time.monotonic()
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, check=False,
                             timeout=DEADLINE_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: driver exceeded %d s" % DEADLINE_S, file=sys.stderr)
        return 3
    sys.stdout.write(res.stdout.decode())
    sys.stdout.flush()
    if res.returncode != 0:
        print("perfbench: driver exited with %d after %.1f s"
              % (res.returncode, time.monotonic() - start), file=sys.stderr)
        return res.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
