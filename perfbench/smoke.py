#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, in seconds.

    python3 perfbench/smoke.py

For each workload named in BENCHMARK.json it runs the driver untraced and
traced and checks that the result line carries exactly the contract keys,
that every metric BENCHMARK.json names is emitted with its unit, that the
output checks passed, and that a repeated run with the same seed prints the
same determinism fingerprint. Exits 0 when all of that holds.
"""

import json
import os
import subprocess
import sys

import run

SEED = 3


def drive(exe, workload, trace):
    cmd = [exe, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    if trace:
        cmd += ["--trace-out", os.path.join(run.build_dir(), "smoke_trace.json")]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False,
                         timeout=120)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        raise AssertionError("%s trace=%d: exit %d" % (workload, trace, res.returncode))
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check(bench, exe, workload):
    problems = []
    fingerprints = []
    for trace, names in ((0, bench["end_to_end"]), (1, bench["per_layer"]),
                         (0, [])):
        report, result = drive(exe, workload, trace)
        fingerprints.append(report["fingerprint"])
        where = "%s trace=%d" % (workload, trace)
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append("%s: result keys %s" % (where, sorted(result)))
            continue
        if result["correct"] is not True or result["failed"] != 0:
            problems.append("%s: check failed: %s" % (where, report["check"]))
        if result["attempted"] < 1:
            problems.append("%s: nothing attempted" % where)
        want = {m["name"]: m["unit"] for m in names}
        got = result["metrics"]
        if names and sorted(got) != sorted(want):
            problems.append("%s: metrics %s, expected %s"
                            % (where, sorted(set(got) ^ set(want)), "the BENCHMARK.json set"))
        for name, unit in want.items():
            entry = got.get(name)
            if entry is None:
                continue
            if entry.get("unit") != unit:
                problems.append("%s: %s has unit %r, expected %r"
                                % (where, name, entry.get("unit"), unit))
            if not isinstance(entry.get("value"), (int, float)):
                problems.append("%s: %s has no numeric value" % (where, name))
        for key in ("commit", "build_type", "compiler", "nproc",
                    "engine_workers", "loadavg"):
            if key not in report["stamp"]:
                problems.append("%s: stamp lacks %s" % (where, key))
    if len(set(fingerprints)) != 1:
        problems.append("%s: fingerprint differs between runs: %s"
                        % (workload, fingerprints))
    return problems


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    exe = run.build(run.build_dir())
    if exe is None:
        print("smoke: build failed", file=sys.stderr)
        return 2
    problems = []
    for w in bench["workloads"]:
        found = check(bench, exe, w["name"])
        print("%-14s %s" % (w["name"], "ok" if not found else "FAILED"))
        problems += found
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
