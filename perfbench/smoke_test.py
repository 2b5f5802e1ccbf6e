#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny problem sizes.

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json, runs perfbench/run.py --tiny with
tracing off and on, and checks that the result line names every declared
end-to-end (resp. per-layer) metric with its declared unit, that the run
exits 0 with success_rate 1, and that the traced run wrote a Chrome trace.
Then checks that a deliberately wrong reference store is caught: the run
must report success_rate below 1 and exit non-zero.  Exits 1 on the first
failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    cmd = ["python3", str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} trace={trace}: no output\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-1])


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_metrics(label, result, declared):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    got = result["metrics"]
    for m in declared:
        if m["name"] not in got:
            fail(f"{label}: metric {m['name']} missing")
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"{label}: {m['name']} unit {got[m['name']]['unit']} "
                 f"!= {m['unit']}")
    extra = set(got) - {m["name"] for m in declared}
    if extra:
        fail(f"{label}: undeclared metrics {sorted(extra)}")


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, declared in ((0, SPEC["end_to_end"]),
                                (1, SPEC["per_layer"])):
            label = f"{name} trace={trace}"
            rc, result = run(name, trace)
            check_metrics(label, result, declared)
            if rc != 0 or not result["correct"] or result["failed"] != 0:
                fail(f"{label}: rc={rc} failed={result['failed']}")
            if trace == 0 and result["metrics"]["success_rate"]["value"] != 1:
                fail(f"{label}: success_rate != 1")
            if trace == 1:
                chrome = ROOT / ".bench_build" / "traces" / f"{name}-seed7.json"
                events = json.loads(chrome.read_text())["traceEvents"]
                if not events:
                    fail(f"{label}: empty Chrome trace")
            print(f"ok   {label}: {result['attempted']} operations")

    rc, result = run("pipeline", 0, "--corrupt-reference")
    rate = result["metrics"]["success_rate"]["value"]
    if rc == 0 or result["correct"] or not rate < 1:
        fail(f"corrupt reference not caught: rc={rc} success_rate={rate}")
    print(f"ok   corrupt reference: rc={rc} success_rate={rate:.3f}")


if __name__ == "__main__":
    main()
