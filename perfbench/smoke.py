#!/usr/bin/env python3
"""Smoke test of the benchmark.

Runs every workload named in BENCHMARK.json scaled down (one-second runs),
untraced and traced, and asserts that the result line names every metric
of BENCHMARK.json with its unit, that every output check passed
(correct, failed == 0, attempted >= 1) and that the full report line before
it carries the stamps. It asserts nothing about time.

Run from the repository root:

    python3 perfbench/smoke.py
"""

import json
import subprocess
import sys


def run(workload, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    assert p.returncode == 0, f"{cmd} exited {p.returncode}: {p.stderr[-2000:]}"
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    failures = []
    for w in bench["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            report, result = run(w["name"], trace)
            where = f"{w['name']} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                failures.append(f"{where}: checks failed: {report['failures']}")
            for m in bench[group]:
                got = result["metrics"].get(m["name"])
                if got is None:
                    failures.append(f"{where}: metric {m['name']} missing")
                elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    failures.append(f"{where}: metric {m['name']} printed as {got}")
            extra = set(result["metrics"]) - {m["name"] for m in bench[group]}
            if extra:
                failures.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
            for stamp in ("source", "nproc", "seed", "sizes", "store_fs", "reference",
                          "read_p90_ms", "write_p90_ms", "breakdown"):
                if stamp not in report:
                    failures.append(f"{where}: report lacks {stamp}")
            print(f"ok {where}: {result['attempted']} checks")
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
