"""fstsim benchmark: host throughput of the simulator on three fixed workloads.

Run from the repository root:

    python3 bench/run.py --workload paper_async --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it times repeated ``harness.run_single`` calls with
tracing off for ``--seconds`` seconds and reports the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced runs and reports the
per-layer metrics and the tracing overhead. Either way it first checks that
the four shipped configs still reproduce their recorded metrics hashes, and
that every run of the workload writes the same metrics CSV as the first.

Earlier lines of standard output are JSON reports (machine, shipped-config
hashes, the full per-layer table). The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# One BLAS thread: numpy's OpenBLAS would otherwise start a second thread on
# a 2-core machine. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import logging
import platform
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if not (SRC / "fstsim" / "__init__.py").is_file():
    sys.exit(f"bench: no fstsim sources at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np

import fstsim
import fstsim.rng
from fstsim.baselines import MmSyncServer
from fstsim.config import load_config
from fstsim.event_engine import Engine
from fstsim.harness import run_experiment, run_single
from fstsim.metrics import write_csv

if not Path(fstsim.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"bench: imported fstsim from {fstsim.__file__}, not from {SRC}")

import workloads
from spans import Tracer

#: Seeds 1-10 were used while this benchmark was written. Re-check any
#: claim made with them on this held-out seed as well.
HELDOUT_SEED = 7919

#: ``cat run_*.csv | sha256sum | cut -c1-16`` of each shipped config run at
#: its own seed. A mismatch is reported as a flag, not as a failed run: a
#: change may alter these on purpose and must then say why.
SHIPPED_HASHES = {
    "quickstart": "e9ef78fe45844827",
    "two_task_async": "bd20d2383a494b18",
    "two_task_sync": "b5f1c1849c1ae59b",
    "dynamic_realloc": "a746b431fa2fba87",
}

MIN_UNTRACED_RUNS = 3
MIN_TRACED_RUNS = 2
#: Set-ups timed on their own after each measured run, for setup_s.
SETUPS_PER_RUN = 3

END_TO_END = {
    "wall_s": "s",
    "requests_per_s": "1/s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_alloc_mb": "MB",
}

#: Layers that every workload calls. Timings of the other layers read a
#: constant 0.0 on the workloads that never call them, so they are printed
#: in the full per-layer report but left out of BENCHMARK.json.
CALLED_EVERYWHERE = {
    "rng.request_rngs",
    "delay_model.sample_duration",
    "local_trainer.local_train.quadratic",
    "objectives.evaluate",
    "event_engine.loop",
    "harness.build_scenario",
}

_FAMILIES = ("quadratic", "logistic", "tiny_mlp")
_PERCENTILE_LAYERS = (
    ["rng.request_rngs", "fedast_server.handle_update"]
    + [f"local_trainer.local_train.{f}" for f in _FAMILIES]
)
_TIMED_LAYERS = _PERCENTILE_LAYERS + [
    "delay_model.sample_duration",
    "objectives.evaluate",
    "event_engine.sample_clients",
    "event_engine.draw_available",
    "fedast_server.aggregate",
    "realloc.compute_plan",
    "baselines.handle_update",
    "baselines.handle_barrier",
]
#: Layers whose per-call self times are kept for percentiles.
_SAMPLED_LAYERS = _PERCENTILE_LAYERS + ["event_engine.sample_clients"]
_EVENT_SPANS = {
    "dispatch": ("event_engine._do_dispatch",),
    "update_arrival": ("fedast_server.handle_update", "baselines.handle_update"),
    "eval_tick": ("event_engine._do_eval",),
    "sync_round_barrier": ("baselines.handle_barrier",),
}
#: Engine spans whose self time is not heap and dispatch bookkeeping.
_ENGINE_SUBLAYERS = ("event_engine.sample_clients", "event_engine.draw_available")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer in _TIMED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for layer in _PERCENTILE_LAYERS:
        units[f"{layer}.us_p50"] = "us"
        units[f"{layer}.us_p99"] = "us"
    units["event_engine.sample_clients.us_p50"] = "us"
    units["event_engine.loop.self_s"] = "s"
    units["event_engine.loop.us_per_event"] = "us"
    for kind in _EVENT_SPANS:
        units[f"event_engine.events.{kind}"] = "count"
    units["local_trainer.useful_frac"] = "frac"
    units["realloc.compute_plan.trigger_frac"] = "frac"
    units["baselines.discard_frac"] = "frac"
    units["harness.build_scenario.s"] = "s"
    units["trace_overhead_frac"] = "frac"
    return units


def tracked_per_layer() -> dict[str, str]:
    """The per-layer metrics listed in BENCHMARK.json: counts and fractions on
    every layer, timings only on the layers that every workload calls."""
    return {
        name: unit
        for name, unit in per_layer_units().items()
        if unit in ("count", "frac") or name.rsplit(".", 1)[0] in CALLED_EVERYWHERE
    }


# -- machine and shipped-config checks -----------------------------------------


def machine_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "machine": platform.machine(),
        "blas_threads_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def csv_digest(paths: list[Path]) -> str:
    """First 16 hex digits of sha256 over the concatenated files."""
    return hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()[:16]


def check_shipped_configs() -> dict:
    """Run each shipped config once, untimed, and compare its metrics hash."""
    out = {}
    for name, expected in SHIPPED_HASHES.items():
        run_dir = OUT / "configs" / name
        try:
            run_experiment(load_config(ROOT / "configs" / f"{name}.json"), out_dir=run_dir)
            got = csv_digest(sorted(run_dir.glob("run_*.csv")))
        except Exception as exc:  # reported as a flag; the benchmark goes on
            got = f"error: {exc!r}"
        out[name] = {"expected": expected, "got": got, "match": got == expected}
    return out


# -- one workload ----------------------------------------------------------------


class Runs:
    """Runs one workload repeatedly and checks every run against the first."""

    def __init__(self, name: str, seed: int, max_sim_time: float | None = None):
        self.name = name
        self.cfg = workloads.build(name, max_sim_time)
        self.task_ids = [t.task_id for t in self.cfg.tasks]
        self.seed = seed
        self.csv_path = OUT / name / "run.csv"
        self.csv_path.parent.mkdir(parents=True, exist_ok=True)
        self.reference: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: dispatched requests and processed events of one run
        self.counts: dict[str, int] = {}

    def _sanity(self, log) -> list[str]:
        cfg = self.cfg
        ticks = int(cfg.max_sim_time // cfg.eval_interval) + 1
        problems = []
        if log.stop_reason != "max_sim_time":
            problems.append(f"stopped on {log.stop_reason}, not max_sim_time")
        if len(log.records) != ticks * len(cfg.tasks):
            problems.append(f"{len(log.records)} metrics records, expected {ticks * len(cfg.tasks)}")
        if not all(np.isfinite(r.loss) for r in log.records):
            problems.append("non-finite loss in metrics")
        if not all(np.all(np.isfinite(x)) for x in log.final_models.values()):
            problems.append("non-finite final model")
        return problems

    def once(self) -> tuple[float, object, object] | None:
        """One timed ``run_single``: (wall_s, log, policy), or None if it failed."""
        self.attempted += 1
        gc.collect()
        try:
            t0 = time.perf_counter()
            log, policy = run_single(self.cfg, self.seed)
            wall = time.perf_counter() - t0
        except Exception:  # a failed run is counted, reported, and not timed
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            return None

        write_csv(self.csv_path, log.records)
        digest = csv_digest([self.csv_path])
        problems = self._sanity(log)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append(f"metrics CSV sha {digest} differs from first run {self.reference}")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        return wall, log, policy

    def setup_only(self) -> float:
        """Seconds ``run_single`` takes to reach ``Engine.run``: build_scenario +
        build_policy + Engine(). The run itself is cut off there."""
        engine_run = Engine.run

        def stop(engine, policy):
            raise _SetupDone

        gc.collect()
        Engine.run = stop
        try:
            t0 = time.perf_counter()
            run_single(self.cfg, self.seed)
        except _SetupDone:
            return time.perf_counter() - t0
        finally:
            Engine.run = engine_run
        raise RuntimeError("run_single returned without entering Engine.run")


class _SetupDone(Exception):
    pass


def layer_metrics(
    tracer: Tracer, log, policy, task_ids: list[int]
) -> tuple[dict, dict[str, np.ndarray]]:
    """Per-layer figures of one traced run, and each timed layer's per-call self times."""
    spans = tracer.by_name()
    calls = {name: len(d) for name, (d, _) in spans.items()}
    self_s = {name: float(s.sum()) for name, (_, s) in spans.items()}
    per_call = {layer: spans[layer][1] if layer in spans else np.empty(0) for layer in _SAMPLED_LAYERS}

    m: dict[str, float] = {}
    for layer in _TIMED_LAYERS:
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    loop_self = sum(
        t for name, t in self_s.items()
        if name.startswith("event_engine.") and name not in _ENGINE_SUBLAYERS
    )
    m["event_engine.loop.self_s"] = loop_self
    m["event_engine.loop.us_per_event"] = loop_self / log.events_processed * 1e6
    for kind, names in _EVENT_SPANS.items():
        m[f"event_engine.events.{kind}"] = sum(calls.get(n, 0) for n in names)

    trained = sum(calls.get(f"local_trainer.local_train.{f}", 0) for f in _FAMILIES)
    states = [policy.state(tid) for tid in task_ids]
    if isinstance(policy, MmSyncServer):
        useful = sum(st.aggregated_total + len(st.collected) for st in states)
        m["baselines.discard_frac"] = policy.updates_discarded / max(1, policy.updates_received)
        m["realloc.compute_plan.trigger_frac"] = 0.0
    else:  # FedAstServer: an update that entered a buffer counts once in staleness_count
        useful = sum(st.staleness_count for st in states)
        m["baselines.discard_frac"] = 0.0
        plans = calls.get("realloc.compute_plan", 0)
        m["realloc.compute_plan.trigger_frac"] = len(policy.realloc_events) / plans if plans else 0.0
    m["local_trainer.useful_frac"] = useful / trained if trained else 0.0
    m["harness.build_scenario.s"] = float(spans["harness.build_scenario"][0].sum())
    return m, per_call


def _percentile_us(samples: list[np.ndarray], q: float) -> float:
    pooled = np.concatenate(samples) if samples else np.empty(0)
    return float(np.percentile(pooled, q) * 1e6) if len(pooled) else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_untraced(runs: Runs, seconds: float) -> dict:
    """End-to-end metrics from untraced runs.

    The first run is untimed: it sets the reference output hash, counts the
    dispatched requests and gives the tracemalloc peak.
    """
    requests = 0
    request_rngs = fstsim.rng.request_rngs

    def counted(*args):
        nonlocal requests
        requests += 1
        return request_rngs(*args)

    fstsim.rng.request_rngs = counted
    tracemalloc.start()
    try:
        first = runs.once()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        fstsim.rng.request_rngs = request_rngs
    if first is None:
        return {}
    runs.counts = {"requests": requests, "events": first[1].events_processed}

    walls, setups = [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_UNTRACED_RUNS or time.perf_counter() < deadline:
        result = runs.once()
        if result is not None:
            walls.append(result[0])
        elif runs.failed > 4 * MIN_UNTRACED_RUNS:
            return {}
        setups += [runs.setup_only() for _ in range(SETUPS_PER_RUN)]

    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "requests_per_s": runs.counts["requests"] / wall,
        "events_per_s": runs.counts["events"] / wall,
        "setup_s": statistics.median(setups),
        "peak_alloc_mb": peak / 2**20,
    }
    return {name: _metric(value, END_TO_END[name]) for name, value in metrics.items()}


def measure_traced(runs: Runs, seconds: float) -> dict:
    """Per-layer metrics from traced runs, alternated with untraced runs.

    The first run is traced and untimed: it sets the reference output hash
    and the exact counts every later traced run must repeat.
    """
    tracer = Tracer()
    with tracer.installed():
        first = runs.once()
    if first is None:
        return {}
    reference, _ = layer_metrics(tracer, first[1], first[2], runs.task_ids)
    events = first[1].events_processed
    runs.counts = {"requests": reference["rng.request_rngs.calls"], "events": events}
    by_kind = sum(reference[f"event_engine.events.{k}"] for k in _EVENT_SPANS)
    if by_kind != events:
        runs.failed += 1
        runs.problems.append(f"events by kind sum to {by_kind}, engine processed {events}")

    untraced_walls, traced_walls, rows = [], [], []
    per_call: dict[str, list[np.ndarray]] = {layer: [] for layer in _SAMPLED_LAYERS}
    deadline = time.perf_counter() + seconds
    while (
        min(len(untraced_walls), len(traced_walls)) < MIN_TRACED_RUNS
        or time.perf_counter() < deadline
    ):
        if runs.failed > 4 * MIN_TRACED_RUNS:
            return {}
        result = runs.once()
        if result is not None:
            untraced_walls.append(result[0])
        tracer.reset()
        with tracer.installed():
            result = runs.once()
        if result is None:
            continue
        traced_walls.append(result[0])
        row, samples = layer_metrics(tracer, result[1], result[2], runs.task_ids)
        rows.append(row)
        for layer, times in per_call.items():
            times.append(samples[layer])
    tracer.write_csv(OUT / runs.name / "spans.csv")

    units = per_layer_units()
    metrics = {}
    for name, unit in units.items():
        if name in rows[0]:
            values = [row[name] for row in rows]
            if unit in ("count", "frac"):
                if any(v != reference[name] for v in values):
                    runs.failed += 1
                    runs.problems.append(f"{name} varies between traced runs: {values}")
                metrics[name] = reference[name]
            else:
                metrics[name] = statistics.median(values)
    for layer, samples in per_call.items():
        metrics[f"{layer}.us_p50"] = _percentile_us(samples, 50)
        if f"{layer}.us_p99" in units:
            metrics[f"{layer}.us_p99"] = _percentile_us(samples, 99)
    metrics["trace_overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    return {name: _metric(metrics[name], unit) for name, unit in units.items()}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, max_sim_time: float | None = None
) -> tuple[dict, dict]:
    """Measure one workload. Returns (result line, full report)."""
    logging.getLogger("fstsim").setLevel(logging.ERROR)
    report: dict = {"workload": name, "seed": seed, "machine": machine_info()}
    started = time.perf_counter()
    report["shipped_configs"] = check_shipped_configs()
    report["shipped_configs_s"] = time.perf_counter() - started

    runs = Runs(name, seed, max_sim_time)
    report["max_sim_time"] = runs.cfg.max_sim_time

    metrics = measure_traced(runs, seconds) if trace else measure_untraced(runs, seconds)
    report.update(
        total_s=time.perf_counter() - started,
        counts=runs.counts,
        reference_sha=runs.reference,
        attempted=runs.attempted,
        failed=runs.failed,
        problems=runs.problems,
    )
    if trace and metrics:
        report["per_layer"] = {k: v["value"] for k, v in metrics.items()}
        metrics = {k: metrics[k] for k in tracked_per_layer()}
    result = {
        "correct": runs.failed == 0 and bool(metrics),
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": metrics,
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    expected = tracked_per_layer() if args.trace else END_TO_END
    if set(result["metrics"]) != set(expected):
        print(f"bench: no result; problems: {report['problems']}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
