"""Pinned outputs of the benchmark workloads on a short horizon.

No shipped config trains ``tiny_mlp`` or has shards smaller than the batch
size, so the shipped hashes cannot see a bit change in those gradients or in
how such requests are trained together. None runs ``no_buffer`` with
staleness drops either, the path of ``drop_unit``. ``bench/workloads.py`` is
loaded unmodified, so the workloads are the benchmark's own. The final
models are pinned as well: an ulp in one coordinate need not reach a printed
loss.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from fstsim.harness import run_single
from fstsim.metrics import write_csv
from numeric_platform import platform_note

ROOT = Path(__file__).resolve().parents[1]

#: Short horizon, seed 1: first 16 hex of the sha256 of the metrics CSV and
#: of the final models' bytes in task order. Recorded on
#: ``numeric_platform.RECORDED``, and bound to its SIMD targets and BLAS core:
#: these workloads train classifiers.
HORIZON = 40.0
PINNED = {
    "paper_async": ("ae210af20d134257", "bbb2c39bf48d35f6"),
    "paper_sync": ("f610cafcc732366a", "e166d86adcf25e06"),
}
#: The same pair for ``drop_unit``: no_buffer with staleness drops and b=1,
#: so every server step averages one update.
DROP_UNIT_PIN = ("87a40ae5edb6d443", "72cb5a7ef534dc74")


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def output_shas(log, tmp_path) -> tuple[str, str]:
    write_csv(tmp_path / "run.csv", log.records)
    models = b"".join(log.final_models[tid].tobytes() for tid in sorted(log.final_models))
    return sha16((tmp_path / "run.csv").read_bytes()), sha16(models)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_paper_workload_outputs_are_pinned(name, tmp_path):
    cfg = load_workloads().build(name, HORIZON)
    assert {t.kind for t in cfg.tasks} == {"quadratic", "logistic", "tiny_mlp"}
    log, policy = run_single(cfg, seed=1)
    assert all(r.round > 0 for r in log.records[-len(cfg.tasks):])
    if name == "paper_async":
        assert policy.realloc_events
    assert output_shas(log, tmp_path) == PINNED[name], platform_note()


def test_drop_unit_outputs_are_pinned(tmp_path):
    cfg = load_workloads().build("drop_unit", HORIZON)
    assert (cfg.algorithm, cfg.drop_enforcement) == ("no_buffer", True)
    log, _ = run_single(cfg, seed=1)
    assert all(r.round > 0 and r.dropped > 0 for r in log.records[-len(cfg.tasks):])
    assert output_shas(log, tmp_path) == DROP_UNIT_PIN, platform_note()
