"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 bench/smoke.py

For every workload it makes three runs of bench/run.py with --tiny and
the same seed and one cycle each: one untraced run, then two traced
runs. It checks that every run is correct, that the untraced run emits
exactly the end-to-end metrics of BENCHMARK.json and the traced runs
exactly the per-layer metrics, each with its unit, and that the two
traced runs give identical operation and layer counts and, like the
untraced run, byte-identical outputs. Exits 1 at the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = {"count", "B_computed"}


def bench(workload: str, trace: int, cycles: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--cycles", str(cycles), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_metrics(workload: str, result: dict, spec: list[dict]) -> None:
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload}: run not correct: {result}")
    expected = {m["name"]: m["unit"] for m in spec}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(emitted == expected, f"{workload}: metrics {emitted} != {expected}")
    for name, metric in result["metrics"].items():
        expect(isinstance(metric["value"], (int, float)), f"{workload}: {name} is not a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in [w["name"] for w in spec["workloads"]]:
        report, result = bench(workload, 0, 1)
        check_metrics(workload, result, spec["end_to_end"])
        first_report, first = bench(workload, 1, 1)
        second_report, second = bench(workload, 1, 1)
        for traced in (first, second):
            check_metrics(workload, traced, spec["per_layer"])
        expect(first["attempted"] == second["attempted"], f"{workload}: attempted differs")
        counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in COUNT_UNITS}
        counts_again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] in COUNT_UNITS}
        expect(counts == counts_again, f"{workload}: counts differ: {counts} vs {counts_again}")
        digests = {r["outputs_sha256"] for r in (report, first_report, second_report)}
        expect(len(digests) == 1, f"{workload}: outputs differ between same-seed runs")
        print(f"{workload}: ok ({result['attempted']} + 2x{first['attempted']} operations)")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"smoke test FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
