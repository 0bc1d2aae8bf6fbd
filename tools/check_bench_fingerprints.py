#!/usr/bin/env python3
"""Check that the benchmark reproduces its committed determinism fingerprints.

    python3 tools/check_bench_fingerprints.py

Run from the root of a source checkout. For every workload and seed in
perfbench/reference.json's "fingerprints" table, it runs
`python3 perfbench/run.py --workload W --seed S --seconds 1 --trace 0` (full
size: run.py always passes --size full; the fingerprint does not depend on
--seconds) and compares the fingerprint in the report line with the table.
A change that only makes the program faster must reproduce every one of
them. Exits 0 when all match, 1 on any mismatch or failed run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fingerprint(workload, seed):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", seed, "--seconds", "1",
           "--trace", "0"]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False,
                         cwd=ROOT)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        return None, "run.py exited with %d" % res.returncode
    report = json.loads(lines[-2])["report"]
    return report["fingerprint"], None


def main():
    with open(os.path.join(ROOT, "perfbench", "reference.json")) as f:
        table = json.load(f)["fingerprints"]
    failures = 0
    for workload, seeds in table.items():
        for seed, want in sorted(seeds.items()):
            got, err = fingerprint(workload, seed)
            status = "ok" if got == want else "MISMATCH"
            if err:
                status = "FAILED (%s)" % err
            print("%-13s seed %-3s want %s got %s  %s"
                  % (workload, seed, want, got, status), flush=True)
            failures += got != want
    if failures:
        print("%d fingerprint(s) differ from perfbench/reference.json"
              % failures)
        return 1
    print("all fingerprints match perfbench/reference.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
