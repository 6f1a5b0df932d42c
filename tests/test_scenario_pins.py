"""Pinned built scenarios: every shard, eval set and client profile.

The workload pins in ``test_workload_pins.py`` see data only through trained
outputs, and only for clients that get sampled in a short horizon. These
hash what ``build_scenario`` deals to every client of the three benchmark
workloads, and the two data paths that no workload reaches: a Dirichlet
split where empty clients take samples from a donor, and quadratic shards
with several points per client and local spread.

Every hash depends on numpy's ``Generator`` algorithms (``dirichlet``,
``shuffle``, ``permutation``, ``standard_normal``), so a mismatch names the
platform the pins were recorded on and the one it ran on.
"""

import hashlib

import numpy as np
import pytest

from fstsim.delay_model import SPEED_CLASSES
from fstsim.harness import build_scenario
from fstsim.objectives import Dataset, generate_blobs, generate_quadratic_shards, partition_dirichlet
from numeric_platform import platform_note
from test_workload_pins import load_workloads

#: Seed 1, full horizon: first 16 hex of the sha256 of every shard in task
#: and client order, of the eval sets in task order, and of the profiles.
#: Recorded on ``numeric_platform.RECORDED``; bound to its numpy version.
PINNED = {
    "drop_unit": ("df3b74dd8d57ee11", "e14ba1a752f9218e", "04c3b7be3115d080"),
    "paper_async": ("f54f7fb55a77c8bb", "e183aa6fc8fca11f", "fc322fc0f19666ba"),
    "paper_sync": ("f54f7fb55a77c8bb", "e183aa6fc8fca11f", "fc322fc0f19666ba"),
}
#: ``partition_dirichlet`` of 60 samples over 40 clients at alpha 0.01.
DONOR_PIN = "12703eb1d2acf85d"
#: ``generate_quadratic_shards`` with 4 points per client and spread 1.5:
#: the shards, then the eval set.
SPREAD_PIN = ("1f255205a6899d81", "a8920dc34829af30")


def sha16(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:16]


def dataset_bytes(ds: Dataset):
    yield repr(ds.features.shape).encode()
    yield ds.features.tobytes()
    if ds.labels is not None:
        yield ds.labels.tobytes()


def shards_sha(*tasks_shards) -> str:
    """Each client's id (its index in its task's shards) and rows, task by task."""
    return sha16(
        part for shards in tasks_shards for c, s in enumerate(shards)
        for part in (repr(c).encode(), *dataset_bytes(s))
    )


def profiles_sha(profiles) -> str:
    """Per client: its id, class name, multiplier and (task, beta) pairs."""
    return sha16(
        repr((c, SPEED_CLASSES[code].value, mult,
              sorted((tid, profiles.beta(c, tid)) for tid in profiles.base_betas))).encode()
        for c, (code, mult) in enumerate(zip(profiles.speed_classes.tolist(),
                                             profiles.multipliers))
    )


def scenario_shas(scenario) -> tuple[str, str, str]:
    tids = sorted(scenario.shards)
    return (
        shards_sha(*(scenario.shards[tid] for tid in tids)),
        sha16(part for tid in tids for part in dataset_bytes(scenario.eval_sets[tid])),
        profiles_sha(scenario.profiles),
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_built_scenario_is_pinned(name):
    cfg = load_workloads().build(name)
    assert scenario_shas(build_scenario(cfg, seed=1)) == PINNED[name], platform_note()


def test_dirichlet_donor_path_is_pinned():
    data = generate_blobs(60, 2, 3, np.random.default_rng(3))
    shards = partition_dirichlet(data, 40, 0.01, np.random.default_rng(4))
    # at this skew each class lands on about one client, so most clients
    # start empty and each takes one sample from the largest shard
    assert sum(s.size == 1 for s in shards) >= 30
    assert shards_sha(shards) == DONOR_PIN, platform_note()


def test_quadratic_spread_path_is_pinned():
    shards, eval_set = generate_quadratic_shards(
        7, 3, np.array([1.0, -2.0, 0.5]), 0.5, np.random.default_rng(5),
        points_per_client=4, local_spread=1.5,
    )
    assert [s.features.shape for s in shards] == [(4, 3)] * 7
    got = (shards_sha(shards), sha16(dataset_bytes(eval_set)))
    assert got == SPREAD_PIN, platform_note()
