"""Client compute-time model: shifted exponentials with speed classes.

Each local step on client i for task m takes a random time with density
shifted away from zero: X = shift + Exp(scale_mean), where both knobs
default to the calibration shift = beta and scale_mean = 2 * beta. A full
request (tau steps) takes tau * X, giving mean 3 * tau * beta under the
defaults. Setting shift_factor = 0 yields a pure exponential, handy for
closed-form queueing checks.

beta combines a per-task base cost with a per-client speed multiplier;
clients split into slow / normal / fast classes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .objectives import TaskSpec
from .realloc import largest_remainder


class SpeedClass(str, enum.Enum):
    SLOW = "slow"
    NORMAL = "normal"
    FAST = "fast"


#: Fraction of clients in (slow, normal, fast) classes.
DEFAULT_SPEED_MIX = (0.25, 0.50, 0.25)
#: beta multipliers for (slow, normal, fast).
DEFAULT_SPEED_MULTIPLIERS = (1.3, 1.0, 0.7)


@dataclass(frozen=True)
class DelaySpec:
    """Shape of the per-step time distribution.

    shift = shift_factor * beta, exponential mean = scale_factor * beta.
    """

    shift_factor: float = 1.0
    scale_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.shift_factor < 0 or self.scale_factor < 0:
            raise ValueError("delay factors must be nonnegative")
        if self.shift_factor == 0 and self.scale_factor == 0:
            raise ValueError("delay distribution is degenerate at zero")


@dataclass(frozen=True)
class ClientProfile:
    client_id: int
    speed_class: SpeedClass
    speed_multiplier: float
    #: per-task step-time scale: base beta of the task times the multiplier
    beta_per_task: Mapping[int, float]

    def beta(self, task_id: int) -> float:
        try:
            return self.beta_per_task[task_id]
        except KeyError:
            raise KeyError(f"client {self.client_id} has no beta for task {task_id}") from None


def duration_quantile(u: float, beta: float, tau: int, delay: DelaySpec = DelaySpec()) -> float:
    """Request duration at uniform quantile u in [0, 1).

    Inverse CDF of the shifted exponential, scaled by tau local steps:
    tau * (shift_factor * beta - scale_factor * beta * ln(1 - u)).
    """
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    if beta <= 0:
        raise ValueError("beta must be positive")
    step = delay.shift_factor * beta - delay.scale_factor * beta * math.log1p(-u)
    return tau * step


def sample_duration(
    profile: ClientProfile,
    task: TaskSpec,
    rng: np.random.Generator,
    delay: DelaySpec = DelaySpec(),
) -> float:
    """Draw one request duration for (client, task); strictly positive,
    never below tau * shift."""
    return duration_quantile(rng.random(), profile.beta(task.task_id), task.tau, delay)


def make_profiles(
    n_clients: int,
    base_betas: Mapping[int, float],
    rng: np.random.Generator,
    mix: tuple[float, float, float] = DEFAULT_SPEED_MIX,
    multipliers: tuple[float, float, float] = DEFAULT_SPEED_MULTIPLIERS,
) -> list[ClientProfile]:
    """Assign speed classes by a seeded stratified shuffle.

    Class counts are the largest-remainder rounding of mix * n_clients;
    which clients land in which class is a uniformly shuffled assignment.
    Every client's beta for task m is base_betas[m] * its multiplier, so
    relative task costs are identical across clients.
    """
    if n_clients < 1:
        raise ValueError("need at least one client")
    if len(mix) != 3 or len(multipliers) != 3:
        raise ValueError("mix and multipliers are (slow, normal, fast) triples")
    if not math.isclose(sum(mix), 1.0, abs_tol=1e-9):
        raise ValueError("speed mix must sum to 1")
    if any(m < 0 for m in mix) or any(m <= 0 for m in multipliers):
        raise ValueError("mix fractions must be nonnegative, multipliers positive")
    for task_id, beta in base_betas.items():
        if beta <= 0:
            raise ValueError(f"base beta for task {task_id} must be positive")

    counts = largest_remainder(np.asarray(mix, dtype=np.float64) * n_clients, n_clients)

    classes = [SpeedClass.SLOW, SpeedClass.NORMAL, SpeedClass.FAST]
    shuffled = rng.permutation(n_clients)
    profiles: list[ClientProfile | None] = [None] * n_clients
    pos = 0
    for cls, count, mult in zip(classes, counts, multipliers):
        # one read-only beta mapping, shared by every client of the class
        betas = MappingProxyType({tid: base * mult for tid, base in base_betas.items()})
        for client_id in shuffled[pos : pos + count].tolist():
            profiles[client_id] = ClientProfile(client_id, cls, mult, betas)
        pos += count
    return profiles  # type: ignore[return-value]
