"""What ships with the repo: pinned metrics of the configs, and runnable demos."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fstsim.config import load_config
from fstsim.harness import run_experiment
from numeric_platform import RECORDED, numeric_platform, platform_note

ROOT = Path(__file__).resolve().parents[1]

#: ``cat run_*.csv | sha256sum | cut -c1-16`` after ``fstsim run`` on each
#: shipped config at its own seed, then the same for ``run_*.jsonl`` and for
#: ``summary.json``. A change that moves one must say why. Recorded on
#: ``numeric_platform.RECORDED``; the two-task configs train a classifier,
#: so theirs are bound to its SIMD targets and BLAS core as well.
SHIPPED_HASHES = {
    "quickstart": ("12722d49fd504833", "59084db463c4a157", "281345228e46e22d"),
    "two_task_async": ("67b93e51077d6eed", "7347b3ab8a0dd338", "2e1088d9f9da189f"),
    "two_task_sync": ("475ccba05a3a289c", "a2ccedecba07afab", "5beb50122ceacee9"),
    "dynamic_realloc": ("252f4d0251405eba", "d9a05cdef0eefb60", "390b3f46e17870e3"),
}


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "configs").glob("*.json")))
def test_shipped_config_metrics_are_pinned(name, tmp_path):
    run_experiment(load_config(ROOT / "configs" / f"{name}.json"), out_dir=tmp_path)
    got = tuple(
        hashlib.sha256(b"".join(p.read_bytes() for p in sorted(tmp_path.glob(pattern))))
        .hexdigest()[:16]
        for pattern in ("run_*.csv", "run_*.jsonl", "summary.json")
    )
    assert got == SHIPPED_HASHES[name], platform_note()


def test_a_pin_mismatch_names_the_recorded_and_the_running_platform():
    running = numeric_platform()
    assert running.keys() == RECORDED.keys() and running["simd"].keys() == RECORDED["simd"].keys()
    assert all(isinstance(v, str) for v in (running["numpy"], running["blas_core"],
                                            *running["simd"].values()))
    note = platform_note()
    assert str(RECORDED) in note and str(running) in note


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_cleanly(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
