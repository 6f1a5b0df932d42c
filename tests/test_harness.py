"""Config round-trips, experiment orchestration, comparison, CLI."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fstsim.baselines import MmSyncServer
from fstsim.cli import main as cli_main
from fstsim.config import (
    ConfigError,
    ExperimentConfig,
    TaskConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    parse_config,
    save_config,
    serialize_config,
    validate_config,
)
from fstsim.event_engine import SimulationError
from fstsim.fedast_server import FedAstServer
from fstsim.harness import (
    build_scenario,
    compare,
    learning_rate_warnings,
    run_experiment,
    run_single,
    time_gain,
)
from fstsim.metrics import FIELD_ORDER, MetricsRecord, write_csv, write_jsonl
from fstsim.objectives import Dataset
from test_workload_pins import load_workloads

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def quad_task_config(tid=0, **overrides):
    base = dict(task_id=tid, kind="quadratic", tau=1, eta_c=0.1, eta_s=1.0,
                target_metric=0.5, target_kind="loss", batch_size=1,
                base_beta=1.0, r0=4, b0=2, dim=1, mu=5.0, sigma_g=0.0)
    base.update(overrides)
    return TaskConfig(**base)


def quad_config(**overrides):
    base = dict(tasks=(quad_task_config(),), algorithm="fedast_static",
                n_clients=8, availability=1.0, eval_interval=1.0,
                seed=7, runs=1, max_rounds=200)
    base.update(overrides)
    return ExperimentConfig(**base)


def quickstart_with(task_field, field, value):
    """``configs/quickstart.json`` built in Python, with one field replaced
    (in its only task if ``task_field``)."""
    cfg = load_config(CONFIGS / "quickstart.json")
    if task_field:
        return dataclasses.replace(
            cfg, tasks=(dataclasses.replace(cfg.tasks[0], **{field: value}),))
    return dataclasses.replace(cfg, **{field: value})


class TestConfigRoundTrip:
    def test_parse_serialize_identity(self):
        cfg = quad_config()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_identity_with_optional_fields_set(self):
        cfg = quad_config(
            algorithm="fedast_dynamic", c_period=5, tau_max=3,
            drop_enforcement=True, max_sim_time=12.5, max_rounds=9,
            speed_mix=(0.2, 0.5, 0.3), speed_multipliers=(2.0, 1.0, 0.5),
            tasks=(quad_task_config(0), quad_task_config(1, kind="logistic",
                                                         target_kind="accuracy",
                                                         target_metric=0.8,
                                                         n_train=64, n_eval=16,
                                                         batch_size=4)),
            n_clients=8,
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = quad_config()
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_root_key_rejected(self):
        d = config_to_dict(quad_config())
        d["buffersize"] = 3
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict(d)
        # options that existed once are rejected too, not silently ignored
        for key, value in (("history_size", 8), ("ratio_cap", 37.0), ("strict_ratio", False)):
            d = config_to_dict(quad_config())
            d[key] = value
            with pytest.raises(ConfigError, match=rf"unknown config keys: \['{key}'\]"):
                config_from_dict(d)

    def test_unknown_task_key_rejected(self):
        d = config_to_dict(quad_config())
        d["tasks"][0]["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict(d)

    def test_task_id_required(self):
        d = config_to_dict(quad_config())
        del d["tasks"][0]["task_id"]
        with pytest.raises(ConfigError, match="task_id"):
            config_from_dict(d)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")

    def test_validation_failures(self):
        with pytest.raises(ConfigError, match="no tasks"):
            config_from_dict({"tasks": []})
        with pytest.raises(ConfigError, match="duplicate"):
            quad = config_to_dict(quad_config(tasks=(quad_task_config(0),)))
            quad["tasks"].append(dict(quad["tasks"][0]))
            config_from_dict(quad)
        with pytest.raises(ConfigError, match="algorithm"):
            config_from_dict({**config_to_dict(quad_config()), "algorithm": "fancy"})
        with pytest.raises(ConfigError, match="availability"):
            config_from_dict({**config_to_dict(quad_config()), "availability": 0.0})
        with pytest.raises(ConfigError, match="no stop condition"):
            d = config_to_dict(quad_config())
            d.update(stop_on_targets=False, max_rounds=None, max_sim_time=None)
            config_from_dict(d)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("task_field, field, message", [
        (False, "max_sim_time", "max_sim_time must be a number, not"),
        (False, "eval_interval", "eval_interval must be a number, not"),
        (True, "eta_c", "tasks[0].eta_c must be a number, not"),
        (False, "speed_mix", "speed_mix must be three numbers, not"),
    ])
    def test_non_finite_numbers_rejected(self, task_field, field, message, value):
        d = config_to_dict(quad_config(max_sim_time=5.0))
        target = d["tasks"][0] if task_field else d
        target[field] = [0.5, value, 0.5] if field == "speed_mix" else value
        with pytest.raises(ConfigError) as excinfo:
            parse_config(json.dumps(d))  # writes NaN, Infinity and -Infinity
        assert message in str(excinfo.value)

    @pytest.mark.parametrize("task_field, field, message", [
        # each was accepted in a config built in Python, where no JSON
        # parsing rejects it: every comparison with NaN is false
        (True, "eta_c", "task 0: eta_c must be a number, not nan"),
        (False, "max_sim_time", "max_sim_time must be a number, not nan"),
        (True, "base_beta", "task 0: base_beta must be a number, not nan"),
    ])
    def test_non_finite_numbers_rejected_in_python_configs(self, task_field, field, message):
        with pytest.raises(ConfigError) as excinfo:
            validate_config(quickstart_with(task_field, field, math.nan))
        assert message in str(excinfo.value)

    @pytest.mark.parametrize("task_field, field, value, message", [
        # each passed validation in a config built in Python, and the run
        # then raised TypeError
        (False, "n_clients", 8.5, "n_clients must be an integer, not 8.5"),
        (True, "tau", 1.5, "task 0: tau must be an integer, not 1.5"),
        (True, "batch_size", True, "task 0: batch_size must be an integer, not True"),
        (False, "drop_enforcement", 1, "drop_enforcement must be true or false, not 1"),
        (False, "speed_mix", (0.5, 0.5), "speed_mix must be three numbers, not (0.5, 0.5)"),
    ])
    def test_wrong_types_rejected_in_python_configs(self, task_field, field, value, message):
        with pytest.raises(ConfigError) as excinfo:
            validate_config(quickstart_with(task_field, field, value))
        assert message in str(excinfo.value)

    def test_a_valid_config_has_a_horizon(self):
        # a loss target the run never meets, and no horizon: it once
        # validated and then ran until killed
        cfg = quickstart_with(True, "target_metric", 1e-9)
        validate_config(cfg)
        for stop_on_targets in (True, False):
            with pytest.raises(ConfigError, match="set max_sim_time or max_rounds"):
                validate_config(dataclasses.replace(cfg, max_sim_time=None,
                                                    stop_on_targets=stop_on_targets))
        validate_config(dataclasses.replace(cfg, max_sim_time=None, max_rounds=50))

    def test_evaluation_ticks_are_bounded(self):
        # eval_interval=1e-12 with max_sim_time=5 once asked for 5e12 ticks
        cfg = quickstart_with(False, "max_sim_time", 5.0)
        for interval in (1e-12, 4.99e-5):
            with pytest.raises(ConfigError, match=r"eval_interval .* more than 100000"):
                validate_config(dataclasses.replace(cfg, eval_interval=interval))
        validate_config(dataclasses.replace(cfg, eval_interval=5e-5))  # exactly 100000
        validate_config(dataclasses.replace(cfg, eval_interval=1e-12, max_sim_time=None,
                                            max_rounds=3))

    @pytest.mark.parametrize("kind", ["logistic", "tiny_mlp"])
    @pytest.mark.parametrize("field", ["center_scale", "cluster_std"])
    def test_negative_blob_scales_are_config_errors(self, kind, field):
        # each validated, and build_scenario then raised numpy's bare
        # "ValueError: scale < 0"
        task = quad_task_config(kind=kind, target_kind="accuracy", target_metric=0.8,
                                n_train=64, n_eval=16, **{field: -1.0})
        with pytest.raises(ConfigError, match=rf"task 0: {field} must lie in \[0, 1e\+12\]"):
            build_scenario(quad_config(tasks=(task,)), seed=1)

    @pytest.mark.parametrize("field", ["sigma_g", "local_spread", "mu"])
    def test_overflowing_quadratic_data_is_a_config_error(self, field):
        # each validated, and the first evaluation's squared distances then
        # overflowed with a RuntimeWarning
        def config(value):
            task = quad_task_config(points_per_client=2, **{field: value})
            return quad_config(tasks=(task,), max_rounds=None, max_sim_time=3.0)

        with pytest.raises(ConfigError, match=rf"task 0: \|?{field}\|? must lie in \[0, 1e\+12\]"):
            run_single(config(-1e300 if field == "mu" else 1e300), seed=1)
        log, _ = run_single(config(-1e12 if field == "mu" else 1e12), seed=1)
        assert all(math.isfinite(r.loss) for r in log.records)

    def test_task_id_must_fit_a_counter_word(self):
        d = config_to_dict(quad_config())
        d["tasks"][0]["task_id"] = 2**64
        with pytest.raises(ConfigError) as excinfo:
            parse_config(json.dumps(d))
        assert "task_id must be below 2**64" in str(excinfo.value)
        d["tasks"][0]["task_id"] = 2**64 - 1
        assert parse_config(json.dumps(d)).tasks[0].task_id == 2**64 - 1

    def test_unreadable_config_file_is_a_config_error(self, tmp_path):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{")
        for path in (tmp_path, binary):
            with pytest.raises(ConfigError, match="cannot read config file"):
                load_config(path)
        with pytest.raises(ConfigError, match="config file not found"):
            load_config(tmp_path / "missing.json")

    def test_values_that_fit_their_field_are_kept_as_given(self):
        d = config_to_dict(quad_config(max_rounds=None, max_sim_time=50.0))
        d["tasks"][0]["eta_c"] = 1
        cfg = config_from_dict(d)
        assert type(cfg.tasks[0].eta_c) is int  # a float field takes an int, uncoerced
        assert json.loads(serialize_config(cfg)) == d

    def test_no_buffer_requires_unit_buffers(self):
        d = config_to_dict(quad_config(algorithm="no_buffer"))
        with pytest.raises(ConfigError, match="b0=1"):
            config_from_dict(d)  # task still has b0=2
        d["tasks"][0]["b0"] = 1
        assert config_from_dict(d).algorithm == "no_buffer"


class TestMetricsFiles:
    def records(self):
        return [
            MetricsRecord(0.0, 0, 0, 12.5, 0.07407407407407407, 4, 2, 0.0, 0, 0, 0),
            MetricsRecord(1.0, 0, 1, 1 / 3, 0.75, 4, 2, 1.5, 3, 17, 2),
            MetricsRecord(1.0, 1, 2, 1e-17, 1.0, 1, 1, 0.0, 0, 17, 0),
        ]

    def test_csv_round_trip(self, tmp_path):
        # one header row, then each field's repr, which float() reads back exactly
        path = tmp_path / "m.csv"
        write_csv(path, self.records())
        with open(path, newline="") as f:
            header, *rows = csv.reader(f)
        assert header == list(FIELD_ORDER)
        assert rows == [[repr(v) for v in dataclasses.astuple(r)] for r in self.records()]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_jsonl(path, self.records())
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [list(d) for d in lines] == [list(FIELD_ORDER)] * len(lines)
        assert [MetricsRecord(**d) for d in lines] == self.records()

    def test_jsonl_round_trips_non_finite_floats(self, tmp_path):
        path = tmp_path / "m.jsonl"
        diverged = MetricsRecord(2.0, 0, 3, math.inf, math.nan, 4, 2, 0.5, 1, 9, 0)
        write_jsonl(path, [diverged])
        text = path.read_text()
        assert '"loss": Infinity' in text and '"accuracy": NaN' in text
        back = MetricsRecord(**json.loads(text))
        assert back.loss == math.inf and math.isnan(back.accuracy)
        assert back == dataclasses.replace(diverged, accuracy=back.accuracy)

    def test_writes_are_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, self.records())
        write_csv(b, self.records())
        assert a.read_bytes() == b.read_bytes()


class TestScenario:
    def test_data_depends_only_on_seed_and_task(self):
        # two configs that differ in algorithm see identical data and clients
        a = build_scenario(quad_config(algorithm="fedast_static"), seed=11)
        b = build_scenario(quad_config(algorithm="mm_sync", k_sync=2), seed=11)
        for sa, sb in zip(a.shards[0], b.shards[0]):
            assert np.array_equal(sa.features, sb.features)
        assert np.array_equal(a.eval_sets[0].features, b.eval_sets[0].features)
        assert np.array_equal(a.profiles.speed_classes, b.profiles.speed_classes)

    def test_different_seeds_differ(self):
        a = build_scenario(quad_config(tasks=(quad_task_config(sigma_g=1.0),)), seed=1)
        b = build_scenario(quad_config(tasks=(quad_task_config(sigma_g=1.0),)), seed=2)
        assert not np.array_equal(a.shards[0][0].features, b.shards[0][0].features)

    @pytest.mark.parametrize("name", ["two_task_async", "two_task_sync", "paper_sync"])
    def test_eval_sets_are_read_only(self, name):
        # a classification eval set is a row slice of the task's blobs
        if name == "paper_sync":
            cfg = load_workloads().build(name)
        else:
            cfg = load_config(CONFIGS / f"{name}.json")
        assert {t.kind for t in cfg.tasks} - {"quadratic"}
        for eval_set in build_scenario(cfg, seed=1).eval_sets.values():
            for array in (eval_set.features, eval_set.labels):
                if array is not None:
                    with pytest.raises(ValueError, match="read-only"):
                        array[0] = 0

    @pytest.mark.parametrize("name", ["paper_sync", "drop_unit"])
    def test_building_constructs_no_per_client_object(self, name, monkeypatch):
        # a task's client data is a few arrays, whatever the number of clients:
        # 10 datasets for paper_sync's 3 tasks and 4 for drop_unit's 2, where
        # one object per client would make 1000 per task
        built = []
        post_init = Dataset.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Dataset, "__post_init__", counted)
        cfg = load_workloads().build(name)
        scenario = build_scenario(cfg, seed=1)
        assert 0 < len(built) <= 4 * len(cfg.tasks)
        n_built = len(built)
        scenario.shards[cfg.tasks[0].task_id][0]  # a client's view is built on demand
        assert len(built) == n_built + 1

    def test_policy_selection(self):
        _, pol = run_single(quad_config(max_rounds=1, stop_on_targets=False), seed=0)
        assert isinstance(pol, FedAstServer) and pol.option == "S"
        _, pol = run_single(quad_config(algorithm="fedast_dynamic", max_rounds=1,
                                        stop_on_targets=False), seed=0)
        assert pol.option == "D"
        _, pol = run_single(quad_config(algorithm="mm_sync", k_sync=2, max_rounds=1,
                                        stop_on_targets=False), seed=0)
        assert isinstance(pol, MmSyncServer)
        cfg = quad_config(algorithm="no_buffer",
                          tasks=(quad_task_config(b0=1),), max_rounds=1,
                          stop_on_targets=False)
        _, pol = run_single(cfg, seed=0)
        assert pol.state(0).b == 1


def traced_peak_mb(fn, *args) -> float:
    """The tracemalloc peak of one call of ``fn``, after one untraced call,
    so first-call caches and lazy imports stay out of it."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_python(code: str, timeout: float) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports fstsim from this tree."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


class TestFreshProcess:
    def test_building_a_scenario_leaves_numpy_ma_unloaded(self):
        # np.unique once imported numpy.ma on a process's first Dirichlet split
        result = run_python(
            "import sys\n"
            "from fstsim.config import load_config\n"
            "from fstsim.harness import build_scenario\n"
            "cfg = load_config('configs/two_task_async.json')\n"
            "build_scenario(cfg, cfg.seed)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n",
            timeout=60)
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout == "[]\n"

    def test_stalled_rounds_without_max_sim_time_end_with_exit_2(self, tmp_path):
        # mm_sync redraws a round that finds no client every eval_interval;
        # with only max_rounds to stop it, this run once never ended
        d = json.loads((CONFIGS / "two_task_sync.json").read_text())
        d.update(availability=1e-9, max_sim_time=None, max_rounds=5)
        cfg = tmp_path / "stalled.json"
        cfg.write_text(json.dumps(d))
        result = run_python(
            "import sys\n"
            "import fstsim.event_engine\n"
            "from fstsim.cli import main\n"
            "fstsim.event_engine.MAX_EVAL_TICKS = 1000\n"
            f"sys.exit(main(['run', '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}]))\n",
            timeout=30)
        assert result.returncode == 2, result.stderr[-2000:]
        assert "runtime error: run passed MAX_EVAL_TICKS=1000 evaluation ticks" in result.stderr


class TestMemory:
    """Exact tracemalloc peaks of the benchmark workloads at seed 1."""

    def test_drop_unit_run_keeps_no_object_per_client(self):
        # the client pool is flat per-task state: 0.57 MB with a dispatch
        # count dict keyed by (task, client) and one profile object per client
        assert traced_peak_mb(run_single, load_workloads().build("drop_unit"), 1) <= 0.30

    def test_paper_scenario_holds_each_task_data_once(self):
        # 6.1 MB while each eval set was a view of the whole drawn array,
        # which kept it alive beside the shards' sorted copy
        assert traced_peak_mb(build_scenario, load_workloads().build("paper_async"), 1) <= 5.0


class TestRunExperiment:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = quad_config(runs=2)
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        for name in ("run_000.csv", "run_000.jsonl", "run_001.csv",
                     "summary.json", "config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name).read_bytes(), name

    def test_summary_time_to_target_matches_first_crossing(self, tmp_path):
        cfg = quad_config()
        summary = run_experiment(cfg, out_dir=tmp_path)
        with open(tmp_path / "run_000.csv", newline="") as f:
            crossing = next(float(r["sim_time"]) for r in csv.DictReader(f)
                            if r["task_id"] == "0" and float(r["loss"]) <= 0.5)
        entry = summary["tasks"]["0"]["time_to_target"]
        assert entry["per_run"] == [crossing]
        assert entry["mean"] == crossing
        assert entry["all_reached"]
        assert summary["stop_reasons"] == ["targets"]

    def test_seed_and_runs_overrides(self, tmp_path):
        cfg = quad_config(seed=7, runs=1)
        summary = run_experiment(cfg, out_dir=tmp_path, seed=20, runs=2)
        assert summary["seeds"] == [20, 21]
        assert (tmp_path / "run_001.csv").exists()
        stored = json.loads((tmp_path / "config.json").read_text())
        assert stored["seed"] == 20 and stored["runs"] == 2

    def test_written_config_is_the_serialized_config(self, tmp_path):
        cfg = quad_config(algorithm="fedast_dynamic", c_period=5, seed=3)
        run_experiment(cfg, out_dir=tmp_path)
        assert (tmp_path / "config.json").read_text() == serialize_config(cfg)

    def test_unreached_target_reported_with_cap(self):
        cfg = quad_config(tasks=(quad_task_config(target_metric=1e-12),),
                          max_rounds=3)
        summary = run_experiment(cfg)
        entry = summary["tasks"]["0"]["time_to_target"]
        assert entry["reached"] == [False]
        assert not entry["all_reached"]
        assert entry["per_run"][0] > 0  # capped at the run's final time

    def test_lr_warnings_damp_the_bounds_by_buffer_skew(self):
        # b0 = 1 and 16: chi = 16 cuts task 1's server-rate bound from 4 to
        # 4 * 16**-1.5 = 0.0625, below its eta_s = 1; uniform buffers pass
        tasks = (quad_task_config(0, eta_c=1e-3, b0=1), quad_task_config(1, eta_c=1e-3, b0=16))
        assert learning_rate_warnings(quad_config(tasks=(tasks[1],))) == []
        warned = learning_rate_warnings(quad_config(tasks=tasks))
        assert "task 1: eta_s=1 exceeds the server-rate bound 0.0625 (sqrt(tau*b) term)" in warned

    def test_lr_warnings_surface_in_summary(self):
        cfg = quad_config(tasks=(quad_task_config(eta_s=100.0),), max_rounds=2,
                          stop_on_targets=False)
        summary = run_experiment(cfg)
        assert any("eta_s" in w for w in summary["lr_warnings"])


class TestCompare:
    def test_self_comparison_is_all_zero(self, tmp_path):
        cfg = quad_config()
        report = compare(cfg, cfg, paired=True, out_dir=tmp_path)
        task = report["tasks"]["0"]
        assert task["time_gain_pct"] == 0.0
        assert task["final_loss_delta"] == 0.0
        assert report["overall"]["time_gain_pct"] == 0.0
        assert report["overall"]["per_seed_gain_pct"] == [0.0]
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "curves_a.csv").read_bytes() == (
            tmp_path / "curves_b.csv").read_bytes()

    def test_task_set_mismatch_rejected(self):
        cfg_a = quad_config()
        cfg_b = quad_config(tasks=(quad_task_config(1),))
        with pytest.raises(ConfigError, match="task sets differ"):
            compare(cfg_a, cfg_b)

    def test_paired_requires_matching_seeds(self):
        with pytest.raises(ConfigError, match="paired"):
            compare(quad_config(seed=1), quad_config(seed=2), paired=True)
        # unpaired is allowed to differ
        report = compare(quad_config(seed=1), quad_config(seed=2), paired=False)
        assert report["overall"]["per_seed_gain_pct"] == []

    def test_time_gain_examples(self):
        assert time_gain(100.0, 60.0) == pytest.approx(40.0)
        assert time_gain(5.0, 5.0) == 0.0
        with pytest.raises(ValueError):
            time_gain(0.0, 1.0)


class TestCli:
    def write_cfg(self, tmp_path, cfg, name="cfg.json"):
        path = tmp_path / name
        save_config(cfg, path)
        return str(path)

    def quickstart_with(self, tmp_path, task_field, field, value, name="bad.json"):
        """The shipped quickstart config with one field set to ``value``."""
        d = json.loads((CONFIGS / "quickstart.json").read_text())
        (d["tasks"][0] if task_field else d)[field] = value
        path = tmp_path / name
        path.write_text(json.dumps(d))
        return str(path)

    def test_run_ok(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path, quad_config())
        code = cli_main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["tasks"]["0"]["time_to_target"]["all_reached"]
        assert (tmp_path / "out" / "summary.json").exists()

    def test_config_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"tasks": [{"task_id": 0}], "algorithm": "fancy"}\n')
        assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert cli_main(["validate", "--config", missing]) == 1

    def test_runtime_error_exits_2(self, tmp_path, capsys):
        # a client step size far beyond 2/L: local training diverges
        cfg = quad_config(tasks=(quad_task_config(eta_c=1e6),))
        cfg_path = self.write_cfg(tmp_path, cfg)
        code = cli_main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "runtime error" in capsys.readouterr().err

    def test_sync_config_with_fewer_clients_than_tasks_exits_1(self, tmp_path, capsys):
        # a sync round could not give each task a client of its own
        cfg = ExperimentConfig(tasks=(TaskConfig(task_id=0), TaskConfig(task_id=1)),
                               algorithm="mm_sync", n_clients=1, max_sim_time=10.0,
                               stop_on_targets=False)
        cfg_path = self.write_cfg(tmp_path, cfg)
        for argv in (["validate"], ["run", "--out", str(tmp_path / "o")]):
            assert cli_main([*argv, "--config", cfg_path]) == 1
            assert "n_clients" in capsys.readouterr().err

    def test_strict_target_exits_3(self, tmp_path, capsys):
        cfg = quad_config(tasks=(quad_task_config(target_metric=1e-12),), max_rounds=3)
        cfg_path = self.write_cfg(tmp_path, cfg)
        code = cli_main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
                         "--strict-target"])
        assert code == 3
        assert "targets not reached" in capsys.readouterr().err

    def test_validate_reports_lr_warnings(self, tmp_path, capsys):
        cfg = quad_config(tasks=(quad_task_config(eta_c=10.0),))
        cfg_path = self.write_cfg(tmp_path, cfg)
        assert cli_main(["validate", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "config ok" in out
        assert "eta_c" in out

    @pytest.mark.parametrize("name, bound", [
        # mm_sync averages the first min(k_sync, r0) = 15 updates of a round,
        # all fresh, so its unused b0 = 5 and any cap play no part
        ("two_task_sync", "0.0152145"),
        ("two_task_async", "0.0263523"),
    ])
    def test_validate_checks_each_algorithm_with_its_own_buffer(self, name, bound, capsys):
        assert cli_main(["validate", "--config", str(CONFIGS / f"{name}.json")]) == 0
        out = capsys.readouterr().out
        for tid in (0, 1):
            assert (f"task {tid}: eta_c=0.05 exceeds the client-rate bound {bound} "
                    f"(binding: buffer term)") in out

    @pytest.mark.parametrize("task_field, field, value, message", [
        # the first five once printed "config ok" and then crashed `run`
        (True, "r0", 8.0, "tasks[0].r0 must be an integer, not 8.0"),
        (True, "tau", 2.5, "tasks[0].tau must be an integer, not 2.5"),
        (False, "n_clients", 32.0, "n_clients must be an integer, not 32.0"),
        (False, "seed", 1.5, "seed must be an integer, not 1.5"),
        (True, "batch_size", True, "tasks[0].batch_size must be an integer, not True"),
        (False, "n_clients", None, "n_clients must be an integer, not None"),
        (False, "availability", True, "availability must be a number, not True"),
        (False, "stop_on_targets", 1, "stop_on_targets must be true or false, not 1"),
        (False, "speed_mix", [0.5, 0.5], "speed_mix must be three numbers, not [0.5, 0.5]"),
        # JSON has no NaN or Infinity; each of these once printed "config ok":
        # a NaN or infinite horizon without the target stop made `run` loop
        # forever, a NaN eval_interval wrote one metrics row and a NaN eta_c
        # crashed the run
        (False, "max_sim_time", math.nan, "max_sim_time must be a number, not nan"),
        (False, "max_sim_time", math.inf, "max_sim_time must be a number, not inf"),
        (False, "eval_interval", math.nan, "eval_interval must be a number, not nan"),
        (True, "eta_c", math.nan, "tasks[0].eta_c must be a number, not nan"),
        (False, "speed_multipliers", [1.3, math.inf, 0.7],
         "speed_multipliers must be three numbers, not [1.3, inf, 0.7]"),
    ])
    def test_validate_rejects_a_value_of_the_wrong_type(self, task_field, field, value,
                                                        message, tmp_path, capsys):
        bad = self.quickstart_with(tmp_path, task_field, field, value)
        assert cli_main(["validate", "--config", bad]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind, target", [("accuracy", 1.5), ("loss", -0.1)])
    def test_target_that_no_metric_meets_exits_1(self, kind, target, tmp_path, capsys):
        # an accuracy target of 1.5 once printed "config ok"
        d = json.loads((CONFIGS / "quickstart.json").read_text())
        d["tasks"][0].update(target_kind=kind, target_metric=target)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        for command in (["validate"], ["run", "--out", str(tmp_path / "o")]):
            assert cli_main([*command, "--config", str(bad)]) == 1
            assert f"task 0: no {kind} can meet target_metric" in capsys.readouterr().err
        for edge_kind, edge in (("accuracy", 1.0), ("loss", 0.0)):  # met only exactly
            d["tasks"][0].update(target_kind=edge_kind, target_metric=edge)
            bad.write_text(json.dumps(d))
            assert cli_main(["validate", "--config", str(bad)]) == 0

    def test_runaway_server_model_raises_before_evaluation(self):
        # eta_s=1e200 once took the model to |x| = 1.45e199, and evaluating it
        # overflowed; the server step now applies local training's limit
        cfg = load_config(CONFIGS / "quickstart.json")
        cfg = dataclasses.replace(cfg, tasks=(dataclasses.replace(cfg.tasks[0], eta_s=1e200),))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SimulationError, match="non-finite or runaway model on task 0"):
                run_single(cfg, seed=cfg.seed)
        assert caught == []

    def test_task_id_past_64_bits_exits_1(self, tmp_path, capsys):
        # 2**64 once printed "config ok" and then crashed `run` with exit 2:
        # the id is a word of the request streams' Philox counter
        bad = self.quickstart_with(tmp_path, True, "task_id", 2**64)
        for command in (["validate"], ["run", "--out", str(tmp_path / "o")]):
            assert cli_main([*command, "--config", bad]) == 1
            err = capsys.readouterr().err
            assert "task 18446744073709551616: task_id must be below 2**64" in err
        top = self.quickstart_with(tmp_path, True, "task_id", 2**64 - 1, name="top.json")
        assert cli_main(["run", "--config", top, "--out", str(tmp_path / "top")]) == 0

    def test_unreadable_config_path_exits_1(self, tmp_path, capsys):
        # a directory once crashed `validate` with exit 2 (IsADirectoryError)
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{")
        for path in (tmp_path, binary):
            assert cli_main(["validate", "--config", str(path)]) == 1
            assert "config error: cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("task_field, changes, message", [
        # both once printed "config ok" and then crashed `run` with exit 2
        (True, {"task_id": -1}, "task -1: task_id must be nonnegative"),
        (False, {"speed_mix": [1.5, -0.5, 0.0]}, "speed_mix fractions must be nonnegative"),
        # the task's, the delay shape's and the stop conditions' own
        # constructors decide these
        (True, {"tau": 0}, "task 0: tau must be at least 1"),
        (True, {"eta_s": -1.0}, "task 0: learning rates must be positive"),
        (True, {"batch_size": 0}, "task 0: batch_size must be at least 1"),
        (True, {"target_kind": "error"}, "task 0: target_kind must be 'accuracy' or 'loss'"),
        (False, {"scale_factor": -2.0}, "config error: delay factors must be nonnegative"),
        (False, {"shift_factor": 0.0, "scale_factor": 0.0},
         "config error: delay distribution is degenerate at zero"),
        (False, {"max_sim_time": -1.0}, "config error: max_sim_time must be positive"),
        (False, {"max_rounds": 0}, "config error: max_rounds must be at least 1"),
    ])
    def test_validate_and_run_reject_a_bad_value(self, task_field, changes, message,
                                                 tmp_path, capsys):
        d = json.loads((CONFIGS / "quickstart.json").read_text())
        (d["tasks"][0] if task_field else d).update(changes)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        assert cli_main(["validate", "--config", str(bad)]) == 1
        assert message in capsys.readouterr().err
        assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err

    def test_zero_staleness_cap_validates_and_runs(self, tmp_path, capsys):
        # a cap of 0 with drop enforcement keeps only fresh updates; the
        # learning-rate check treats it like no cap instead of failing
        cfg = dataclasses.replace(load_config(CONFIGS / "two_task_async.json"),
                                  tau_max=0, drop_enforcement=True)
        cfg_path = self.write_cfg(tmp_path, cfg)
        assert cli_main(["validate", "--config", cfg_path]) == 0
        assert "config ok" in capsys.readouterr().out
        code = cli_main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "o" / "summary.json").exists()

    def test_compare_ok(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path, quad_config())
        code = cli_main(["compare", "--a", cfg_path, "--b", cfg_path, "--paired",
                         "--out", str(tmp_path / "cmp")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["overall"]["time_gain_pct"] == 0.0
        assert (tmp_path / "cmp" / "report.json").exists()
