"""Declarative experiment configuration with lossless JSON round-trips.

A config fully determines a run: tasks (objective family, rates, targets,
data synthesis), the client pool, the delay distribution, the algorithm
and its allocation knobs, evaluation cadence, stop conditions, and seeds.
``parse_config(serialize_config(cfg)) == cfg`` holds exactly; unknown keys
are rejected rather than ignored.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .delay_model import DelaySpec
from .event_engine import MAX_EVAL_TICKS, StopConditions, check_eval_interval
from .fedast_server import check_allocation, check_c_period, check_tau_max
from .local_trainer import DIVERGENCE_LIMIT
from .objectives import LogisticObjective, QuadraticObjective, TaskSpec, TinyMlpObjective


class ConfigError(ValueError):
    """A configuration is malformed or internally inconsistent."""


class AlgorithmKind(str, enum.Enum):
    FEDAST_STATIC = "fedast_static"
    FEDAST_DYNAMIC = "fedast_dynamic"
    MM_SYNC = "mm_sync"
    NO_BUFFER = "no_buffer"


_OBJECTIVE_KINDS = ("quadratic", "logistic", "tiny_mlp")


@dataclass(frozen=True)
class TaskConfig:
    """One task: objective family, local training knobs, data synthesis.

    Only the parameter group matching ``kind`` is read; the rest keep their
    defaults and are ignored (but still round-trip).
    """

    task_id: int
    kind: str = "quadratic"
    tau: int = 1
    eta_c: float = 0.1
    eta_s: float = 1.0
    target_metric: float = 0.9
    target_kind: str = "accuracy"
    batch_size: int = 1
    base_beta: float = 1.0
    r0: int = 8
    b0: int = 2
    l2: float = 0.0
    smoothness: float = 1.0
    # quadratic family
    dim: int = 1
    mu: float = 0.0
    sigma_g: float = 1.0
    points_per_client: int = 1
    local_spread: float = 0.0
    # classification families (logistic, tiny_mlp)
    n_features: int = 2
    n_classes: int = 2
    hidden_units: int = 8
    n_train: int = 512
    n_eval: int = 256
    center_scale: float = 3.0
    cluster_std: float = 1.0
    alpha: float = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    tasks: tuple[TaskConfig, ...]
    algorithm: str = AlgorithmKind.FEDAST_STATIC.value
    n_clients: int = 1000
    availability: float = 0.3
    k_sync: int = 30
    shift_factor: float = 1.0
    scale_factor: float = 2.0
    speed_mix: tuple[float, float, float] = (0.25, 0.50, 0.25)
    speed_multipliers: tuple[float, float, float] = (1.3, 1.0, 0.7)
    c_period: int | None = None
    #: staleness cap: async servers drop staler updates only with
    #: drop_enforcement; either way it feeds the learning-rate check
    tau_max: int | None = None
    drop_enforcement: bool = False
    eval_interval: float = 1.0
    stop_on_targets: bool = True
    max_sim_time: float | None = None
    max_rounds: int | None = None
    seed: int = 0
    runs: int = 1


#: Most requests a config may be expected to dispatch (a run of minutes): each
#: task keeps r0 in flight, of mean duration tau * (shift + scale) * beta.
MAX_EXPECTED_REQUESTS = 10**7


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigError on any hard inconsistency. A valid config has a
    horizon (max_sim_time or max_rounds), at most MAX_EVAL_TICKS evaluation
    ticks and at most MAX_EXPECTED_REQUESTS expected requests up to
    max_sim_time."""
    if not cfg.tasks:
        raise ConfigError("config defines no tasks")
    _check_fields("", ExperimentConfig, vars(cfg))
    ids = [t.task_id for t in cfg.tasks]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate task ids: {ids}")
    try:
        AlgorithmKind(cfg.algorithm)
    except ValueError:
        raise ConfigError(
            f"unknown algorithm {cfg.algorithm!r}; choose from "
            f"{[a.value for a in AlgorithmKind]}"
        ) from None
    if cfg.n_clients < 1:
        raise ConfigError("n_clients must be at least 1")
    if cfg.algorithm == AlgorithmKind.MM_SYNC and cfg.n_clients < len(cfg.tasks):
        raise ConfigError(f"mm_sync needs n_clients at least the number of tasks, {len(cfg.tasks)}")
    if not 0.0 < cfg.availability <= 1.0:
        raise ConfigError("availability must lie in (0, 1]")
    if cfg.k_sync < 1:
        raise ConfigError("k_sync must be at least 1")
    _built("", DelaySpec, cfg.shift_factor, cfg.scale_factor)
    if len(cfg.speed_mix) != 3 or abs(sum(cfg.speed_mix) - 1.0) > 1e-9:
        raise ConfigError("speed_mix must be three fractions summing to 1")
    if any(f < 0 for f in cfg.speed_mix):
        raise ConfigError("speed_mix fractions must be nonnegative")
    if len(cfg.speed_multipliers) != 3 or any(m <= 0 for m in cfg.speed_multipliers):
        raise ConfigError("speed_multipliers must be three positive factors")
    _built("", check_c_period, cfg.c_period)
    if cfg.drop_enforcement and cfg.tau_max is None:
        raise ConfigError("drop_enforcement requires tau_max")
    _built("", check_tau_max, cfg.tau_max)
    _built("", check_eval_interval, cfg.eval_interval)
    if cfg.max_sim_time is None and cfg.max_rounds is None:
        # a target alone may never be met, and then the run never ends
        raise ConfigError("no stop condition bounds the run: set max_sim_time or max_rounds")
    _built("", StopConditions, cfg.stop_on_targets, cfg.max_sim_time, cfg.max_rounds)
    if cfg.max_sim_time is not None and cfg.max_sim_time / cfg.eval_interval > MAX_EVAL_TICKS:
        raise ConfigError(f"eval_interval {cfg.eval_interval!r} asks for more than "
                          f"{MAX_EVAL_TICKS} evaluation ticks up to max_sim_time "
                          f"{cfg.max_sim_time!r}")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")
    if cfg.runs < 1:
        raise ConfigError("runs must be at least 1")

    for t in cfg.tasks:
        where = f"task {t.task_id}"
        _check_fields(f"{where}: ", TaskConfig, vars(t))
        if t.task_id >= 2**64:
            raise ConfigError(f"{where}: task_id must be below 2**64")
        if t.kind not in _OBJECTIVE_KINDS:
            raise ConfigError(f"{where}: unknown objective kind {t.kind!r}")
        if t.kind == "quadratic":
            if t.dim < 1:
                raise ConfigError(f"{where}: dim must be at least 1")
            if t.points_per_client < 1:
                raise ConfigError(f"{where}: points_per_client must be at least 1")
            scales = {"|mu|": abs(t.mu), "sigma_g": t.sigma_g, "local_spread": t.local_spread}
        else:
            if t.n_features < 1 or t.n_classes < 2:
                raise ConfigError(f"{where}: need n_features >= 1 and n_classes >= 2")
            if t.kind == "tiny_mlp" and t.hidden_units < 1:
                raise ConfigError(f"{where}: hidden_units must be at least 1")
            if t.n_train < cfg.n_clients:
                raise ConfigError(
                    f"{where}: n_train={t.n_train} cannot cover {cfg.n_clients} clients"
                )
            if t.n_eval < 1:
                raise ConfigError(f"{where}: n_eval must be at least 1")
            if t.alpha <= 0:
                raise ConfigError(f"{where}: alpha must be positive")
            if t.n_train < t.n_classes or t.n_eval < t.n_classes:
                raise ConfigError(f"{where}: need at least one sample per class per split")
            scales = {"center_scale": t.center_scale, "cluster_std": t.cluster_std}
        for name, scale in scales.items():  # data past the iterate bound cannot be fit
            if not 0 <= scale <= DIVERGENCE_LIMIT:
                raise ConfigError(f"{where}: {name} must lie in [0, {DIVERGENCE_LIMIT:g}]")
        _built(f"{where}: ", task_spec, t)
        if t.target_metric > 1 if t.target_kind == "accuracy" else t.target_metric < 0:
            raise ConfigError(f"{where}: no {t.target_kind} can meet target_metric "
                              f"{t.target_metric!r} (accuracy is at most 1, loss at least 0)")
        if t.base_beta <= 0:
            raise ConfigError(f"{where}: base_beta must be positive")
        _built("", check_allocation, t.task_id, t.r0, t.b0)
        if t.smoothness <= 0:
            raise ConfigError(f"{where}: smoothness must be positive")
        if t.l2 < 0:
            raise ConfigError(f"{where}: l2 must be nonnegative")
        if cfg.algorithm == AlgorithmKind.NO_BUFFER.value and t.b0 != 1:
            raise ConfigError(
                f"{where}: the no-buffer baseline aggregates every update alone; set b0=1"
            )
    if cfg.max_sim_time is not None:
        expected = sum(cfg.max_sim_time * t.r0 / t.tau / (cfg.shift_factor + cfg.scale_factor)
                       / t.base_beta / min(cfg.speed_multipliers) for t in cfg.tasks)
        if not expected <= MAX_EXPECTED_REQUESTS:
            raise ConfigError(f"about {expected:.3g} requests expected up to max_sim_time "
                              f"{cfg.max_sim_time!r}, more than {MAX_EXPECTED_REQUESTS:.0e}; "
                              f"raise base_beta or lower max_sim_time or r0")


def _built(where: str, make, *args):
    """``make(*args)``, its ValueError raised again as a ConfigError after ``where``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from None


def task_spec(t: TaskConfig) -> TaskSpec:
    """The task's objective and TaskSpec, whose constructors raise ValueError
    on a bad id, step count, rate, batch size or target kind."""
    if t.kind == "quadratic":
        objective = QuadraticObjective(dim=t.dim, l2=t.l2)
    elif t.kind == "logistic":
        objective = LogisticObjective(n_features=t.n_features, n_classes=t.n_classes, l2=t.l2)
    else:
        objective = TinyMlpObjective(n_features=t.n_features, hidden_units=t.hidden_units,
                                     n_classes=t.n_classes, l2=t.l2)
    return TaskSpec(task_id=t.task_id, objective=objective, tau=t.tau, eta_c=t.eta_c,
                    eta_s=t.eta_s, target_metric=t.target_metric, target_kind=t.target_kind,
                    batch_size=t.batch_size)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["tasks"] = [dict(t) for t in d["tasks"]]
    d["speed_mix"] = list(d["speed_mix"])
    d["speed_multipliers"] = list(d["speed_multipliers"])
    return d


def _number(v) -> bool:
    return type(v) is int or type(v) is float and math.isfinite(v)


#: What value each field annotation takes: a bool is not a number here, and
#: neither is NaN or Infinity.
_ACCEPTS = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number", _number),
    "bool": ("true or false", lambda v: type(v) is bool),
    "tuple[float, float, float]": ("three numbers", lambda v: type(v) in (list, tuple)
                                   and len(v) == 3 and all(map(_number, v))),
}


def _check_fields(where: str, cls: type, d: dict) -> None:
    """Raise ConfigError naming a field of ``cls`` whose value in ``d`` has the
    wrong type or is not finite. It checks a parsed JSON object before it
    becomes a config, and ``validate_config`` checks a config's own values,
    so configs built in Python meet the same rule."""
    for f in dataclasses.fields(cls):
        kind, value = f.type.removesuffix(" | None"), d.get(f.name)
        if f.name in d and kind in _ACCEPTS and not (value is None and kind != f.type):
            if not _ACCEPTS[kind][1](value):
                raise ConfigError(f"{where}{f.name} must be {_ACCEPTS[kind][0]}, not {value!r}")


def config_from_dict(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError("config root must be an object")
    d = dict(d)
    task_dicts = d.pop("tasks", None)
    if not isinstance(task_dicts, list):
        raise ConfigError("config needs a 'tasks' list")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"tasks"}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    _check_fields("", ExperimentConfig, d)
    task_known = {f.name for f in dataclasses.fields(TaskConfig)}
    tasks = []
    for i, td in enumerate(task_dicts):
        if not isinstance(td, dict):
            raise ConfigError(f"tasks[{i}] must be an object")
        bad = set(td) - task_known
        if bad:
            raise ConfigError(f"tasks[{i}]: unknown keys {sorted(bad)}")
        if "task_id" not in td:
            raise ConfigError(f"tasks[{i}]: task_id is required")
        _check_fields(f"tasks[{i}].", TaskConfig, td)
        tasks.append(TaskConfig(**td))
    if "speed_mix" in d:
        d["speed_mix"] = tuple(d["speed_mix"])
    if "speed_multipliers" in d:
        d["speed_multipliers"] = tuple(d["speed_multipliers"])
    cfg = ExperimentConfig(tasks=tuple(tasks), **d)
    validate_config(cfg)
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2) + "\n"


def parse_config(text: str) -> ExperimentConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from None
    return parse_config(text)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(serialize_config(cfg))
