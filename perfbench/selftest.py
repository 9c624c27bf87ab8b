"""Self-test of the benchmark at tiny sizes, in a few seconds.

    python3 perfbench/selftest.py

For every workload it checks that the untraced and the traced run each
print every metric BENCHMARK.json names, with its unit, as the last
stdout line in the result format, with no failed op; and that a planted
wrong reference answer makes the run report failed ops, so the
correctness gate is live.  Exits 1 and names each problem otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402


def check_run(workload: str, trace: bool, wanted: dict[str, str]) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        bench.print_report(bench.run(workload, seed=7, seconds=0.2, trace=trace, scale="tiny"))
    result = json.loads(out.getvalue().splitlines()[-1])
    where = f"{workload} --trace {int(trace)}"
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys are {sorted(result)}")
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {wanted}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
    if result["failed"] or not result["correct"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']}/{result['attempted']} ops failed")
    return problems


def main() -> int:
    bench._import_package()
    from perfbench.workloads import WORKLOADS

    spec = bench.load_spec()
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads differ from {list(WORKLOADS)}")
    for workload in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            problems += check_run(workload, trace, {m["name"]: m["unit"] for m in spec[key]})
        planted = bench.run(workload, seed=7, seconds=0.2, trace=False, scale="tiny", plant=True)
        if planted["result"]["failed"] == 0 or planted["result"]["correct"]:
            problems.append(f"{workload}: a planted wrong reference answer went unnoticed")
        else:
            print(f"{workload}: planted wrong reference -> error_ratio {planted['provenance']['error_ratio']:.3f}")
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
