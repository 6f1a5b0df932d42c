"""What ships with the repo: pinned metrics of the configs, and runnable demos."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fstsim.config import load_config
from fstsim.harness import run_experiment

ROOT = Path(__file__).resolve().parents[1]

#: ``cat run_*.csv | sha256sum | cut -c1-16`` after ``fstsim run`` on each
#: shipped config at its own seed, then the same for ``run_*.jsonl`` and for
#: ``summary.json``. A change that moves one must say why.
SHIPPED_HASHES = {
    "quickstart": ("12722d49fd504833", "59084db463c4a157", "281345228e46e22d"),
    "two_task_async": ("a9dbc7a6c1eb6a17", "f8382f48a2237ed4", "89126775e6947ec2"),
    "two_task_sync": ("54805e21b5bb48d6", "e2cc36ac77a587e8", "123a1db43419add4"),
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
    assert got == SHIPPED_HASHES[name], f"numpy {np.__version__}"


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_cleanly(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
