"""What ships with the repo: pinned metrics of the configs, and runnable demos."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fstsim.config import load_config
from fstsim.harness import run_experiment

ROOT = Path(__file__).resolve().parents[1]

#: ``cat run_*.csv | sha256sum | cut -c1-16`` after ``fstsim run`` on each
#: shipped config at its own seed. A change that moves one must say why.
SHIPPED_HASHES = {
    "quickstart": "12722d49fd504833",
    "two_task_async": "a9dbc7a6c1eb6a17",
    "two_task_sync": "54805e21b5bb48d6",
    "dynamic_realloc": "252f4d0251405eba",
}


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "configs").glob("*.json")))
def test_shipped_config_metrics_are_pinned(name, tmp_path):
    run_experiment(load_config(ROOT / "configs" / f"{name}.json"), out_dir=tmp_path)
    data = b"".join(p.read_bytes() for p in sorted(tmp_path.glob("run_*.csv")))
    assert hashlib.sha256(data).hexdigest()[:16] == SHIPPED_HASHES[name]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_cleanly(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
