"""Config round-trips, experiment orchestration, comparison, CLI."""

import dataclasses
import json
import math
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
)
from fstsim.fedast_server import FedAstServer
from fstsim.harness import (
    build_scenario,
    compare,
    run_experiment,
    run_single,
    time_gain,
)
from fstsim.metrics import MetricsRecord, read_csv, read_jsonl, write_csv, write_jsonl

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
        path = tmp_path / "m.csv"
        write_csv(path, self.records())
        assert read_csv(path) == self.records()

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_jsonl(path, self.records())
        assert read_jsonl(path) == self.records()

    def test_jsonl_round_trips_non_finite_floats(self, tmp_path):
        path = tmp_path / "m.jsonl"
        diverged = MetricsRecord(2.0, 0, 3, math.inf, math.nan, 4, 2, 0.5, 1, 9, 0)
        write_jsonl(path, [diverged])
        (back,) = read_jsonl(path)
        assert back.loss == math.inf and math.isnan(back.accuracy)
        assert back == dataclasses.replace(diverged, accuracy=back.accuracy)

    def test_writes_are_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, self.records())
        write_csv(b, self.records())
        assert a.read_bytes() == b.read_bytes()

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,task\n0.0,1\n")
        with pytest.raises(ValueError, match="header"):
            read_csv(path)


class TestScenario:
    def test_data_depends_only_on_seed_and_task(self):
        # two configs that differ in algorithm see identical data and clients
        a = build_scenario(quad_config(algorithm="fedast_static"), seed=11)
        b = build_scenario(quad_config(algorithm="mm_sync", k_sync=2), seed=11)
        for sa, sb in zip(a.shards[0], b.shards[0]):
            assert np.array_equal(sa.features, sb.features)
        assert np.array_equal(a.eval_sets[0].features, b.eval_sets[0].features)
        assert [p.speed_class for p in a.profiles] == [p.speed_class for p in b.profiles]

    def test_different_seeds_differ(self):
        a = build_scenario(quad_config(tasks=(quad_task_config(sigma_g=1.0),)), seed=1)
        b = build_scenario(quad_config(tasks=(quad_task_config(sigma_g=1.0),)), seed=2)
        assert not np.array_equal(a.shards[0][0].features, b.shards[0][0].features)

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
        records = read_csv(tmp_path / "run_000.csv")
        crossing = next(r.sim_time for r in records
                        if r.task_id == 0 and r.loss <= 0.5)
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
        # two sync tasks but a single client: the round cannot be formed
        cfg = quad_config(algorithm="mm_sync", k_sync=1, n_clients=1,
                          tasks=(quad_task_config(0, r0=1, b0=1),
                                 quad_task_config(1, r0=1, b0=1)))
        cfg_path = self.write_cfg(tmp_path, cfg)
        code = cli_main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "runtime error" in capsys.readouterr().err

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
    ])
    def test_validate_rejects_a_value_of_the_wrong_type(self, task_field, field, value,
                                                        message, tmp_path, capsys):
        d = json.loads((CONFIGS / "quickstart.json").read_text())
        (d["tasks"][0] if task_field else d)[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        assert cli_main(["validate", "--config", str(bad)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("task_field, field, value, message", [
        # both once printed "config ok" and then crashed `run` with exit 2
        (True, "task_id", -1, "task -1: task_id must be nonnegative"),
        (False, "speed_mix", [1.5, -0.5, 0.0], "speed_mix fractions must be nonnegative"),
    ])
    def test_validate_and_run_reject_a_negative_value(self, task_field, field, value,
                                                      message, tmp_path, capsys):
        d = json.loads((CONFIGS / "quickstart.json").read_text())
        (d["tasks"][0] if task_field else d)[field] = value
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
