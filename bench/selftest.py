"""Self-test of the benchmark: every workload at a tiny horizon.

Run from the repository root:

    python3 bench/selftest.py

Exits 0 when every check passes and 1 otherwise, listing the failures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads

TINY_HORIZON = 10.0


def main() -> int:
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(
        {w["name"] for w in spec["workloads"]} == set(workloads.BY_NAME),
        "BENCHMARK.json names the workloads of workloads.py",
    )
    check(
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
        "BENCHMARK.json end_to_end matches run.END_TO_END",
    )
    check(
        {m["name"]: m["unit"] for m in spec["per_layer"]} == run.tracked_per_layer(),
        "BENCHMARK.json per_layer matches run.tracked_per_layer()",
    )

    for name in workloads.BY_NAME:
        for trace in (False, True):
            label = f"{name} --trace {int(trace)}"
            result, report = run.run_workload(name, 1, 0.0, trace, max_sim_time=TINY_HORIZON)
            check(result["correct"] and result["failed"] == 0, f"{label}: correct, no failed runs")
            expected = run.tracked_per_layer() if trace else run.END_TO_END
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{label}: result has every metric with its unit")
            if trace:
                check(
                    set(report.get("per_layer", {})) == set(run.per_layer_units()),
                    f"{label}: report has every per-layer metric",
                )
            check(
                report["reference_sha"] is not None and report["attempted"] >= 3,
                f"{label}: output hash of {report['attempted']} runs compared",
            )
            configs = report["shipped_configs"]
            check(
                set(configs) == set(run.SHIPPED_HASHES)
                and all(len(c["got"]) == 16 for c in configs.values()),
                f"{label}: shipped-config hashes computed",
            )

    runs = run.Runs("drop_unit", 1, TINY_HORIZON)
    runs.reference = "0" * 16
    check(
        runs.once() is None and runs.failed == 1,
        "a run whose metrics CSV differs from the reference counts as failed",
    )

    bare = run.OUT / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "drop_unit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    check(
        proc.returncode != 0 and proc.stdout == "",
        "without src/fstsim the benchmark exits non-zero and prints no result",
    )

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
