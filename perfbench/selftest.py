#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark contract (keys, name and unit
syntax, bounds), then runs every workload for one second with tracing off
and on, and checks that each run is correct and prints exactly the metric
names BENCHMARK.json declares, with their units.  End-to-end values must be
nonzero.  Exits non-zero on the first class of failure it finds.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(bench):
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(bench) != keys:
        errors.append(f"top-level keys {sorted(bench)}")
    names = set()
    for kind in ("workloads", "end_to_end", "per_layer"):
        for m in bench[kind]:
            if not NAME.match(m["name"]) or m["name"] in names:
                errors.append(f"bad or repeated name {m['name']}")
            names.add(m["name"])
            if kind != "workloads" and not UNIT.match(m["unit"]):
                errors.append(f"bad unit {m['unit']} of {m['name']}")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if bounds.get("setup_s") != max(bounds.values()):
        errors.append("setup_s must carry the largest bound")
    if any(b > 0.25 or b <= 0 for b in bounds.values()):
        errors.append("bounds must lie in (0, 0.25]")
    if not 1 <= bench["run_seconds"] <= 60:
        errors.append("run_seconds out of range")
    if not 2 <= len(bench["workloads"]) <= 8:
        errors.append("2 to 8 workloads")
    return errors


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = check_spec(bench)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in bench["workloads"]:
        for trace in (0, 1):
            where = f"{w['name']} --trace {trace}"
            r = run(w["name"], trace)
            if r is None:
                errors.append(f"{where}: run failed")
                continue
            if set(r) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(r)}")
                continue
            if not r["correct"] or r["attempted"] < 1 or r["failed"]:
                errors.append(f"{where}: incorrect ({r['failed']} failed)")
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                errors.append(f"{where}: metrics differ, missing {missing}, "
                              f"undeclared {extra}, or units differ")
            if trace == 0:
                zero = [k for k, v in r["metrics"].items() if not v["value"]]
                if zero:
                    errors.append(f"{where}: zero end-to-end metrics {zero}")
            print(f"selftest: {where}: {len(got)} metrics", file=sys.stderr)
    for e in errors:
        print(f"selftest: FAIL {e}", file=sys.stderr)
    print("selftest: " + ("FAIL" if errors else "OK"), file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
