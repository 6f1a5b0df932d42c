"""Client compute-time model: shifted exponentials with speed classes.

Each local step on client i for task m takes a random time with density
shifted away from zero: X = shift + Exp(scale_mean), where both knobs
default to the calibration shift = beta and scale_mean = 2 * beta. A full
request (tau steps) takes tau * X, giving mean 3 * tau * beta under the
defaults. Setting shift_factor = 0 yields a pure exponential, handy for
closed-form queueing checks.

beta combines a per-task base cost with a per-client speed multiplier;
clients split into slow / normal / fast classes. The pool's profiles are
flat per-client arrays (``ClientProfiles``), with no object per client, and
a client's beta for a task is one product computed where a request needs
it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .realloc import largest_remainder


class SpeedClass(str, enum.Enum):
    SLOW = "slow"
    NORMAL = "normal"
    FAST = "fast"


#: The classes in code order: ``ClientProfiles.speed_classes`` holds indices
#: into this tuple.
SPEED_CLASSES = tuple(SpeedClass)


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


@dataclass(frozen=True, eq=False)
class ClientProfiles:
    """Every client's speed profile, as flat per-client sequences.

    ``speed_classes[c]`` is client c's class code, an index into
    ``SPEED_CLASSES`` (a read-only int8 array); ``multipliers[c]`` is its
    beta multiplier; ``base_betas[m]`` is task m's base step-time scale.
    Client c's beta for task m is ``base_betas[m] * multipliers[c]``.
    Multipliers stay Python floats, so every time derived from a beta is
    one too.
    """

    speed_classes: np.ndarray
    multipliers: tuple[float, ...]
    base_betas: Mapping[int, float]

    def __post_init__(self) -> None:
        classes = np.array(self.speed_classes, dtype=np.int8)
        classes.setflags(write=False)
        object.__setattr__(self, "speed_classes", classes)
        object.__setattr__(self, "multipliers", tuple(self.multipliers))
        object.__setattr__(self, "base_betas", dict(self.base_betas))
        if classes.shape != (len(self.multipliers),):
            raise ValueError("one speed class and one multiplier per client required")
        if np.any((classes < 0) | (classes >= len(SPEED_CLASSES))):
            raise ValueError(f"speed class codes index {len(SPEED_CLASSES)} classes")
        if not all(m > 0 for m in self.multipliers):  # NaN too
            raise ValueError("speed multipliers must be positive")
        for task_id, beta in self.base_betas.items():
            if not beta > 0:
                raise ValueError(f"base beta for task {task_id} must be positive")

    def __len__(self) -> int:
        return len(self.multipliers)

    def beta(self, client_id: int, task_id: int) -> float:
        """Step-time scale of ``client_id`` on ``task_id``."""
        return self.base_betas[task_id] * self.multipliers[client_id]


def _quantile(u: float, beta: float, tau: int, delay: DelaySpec) -> float:
    step = delay.shift_factor * beta - delay.scale_factor * beta * math.log1p(-u)
    return tau * step


def duration_quantile(u: float, beta: float, tau: int, delay: DelaySpec = DelaySpec()) -> float:
    """Request duration at uniform quantile u in [0, 1).

    Inverse CDF of the shifted exponential, scaled by tau local steps:
    tau * (shift_factor * beta - scale_factor * beta * ln(1 - u)).
    """
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    if beta <= 0:
        raise ValueError("beta must be positive")
    return _quantile(u, beta, tau, delay)


def sample_duration(
    beta: float, tau: int, rng: np.random.Generator, delay: DelaySpec = DelaySpec()
) -> float:
    """Draw one request duration of tau steps at step-time scale ``beta``;
    strictly positive, never below tau * shift. ``beta`` comes from a
    ``ClientProfiles``, which holds only positive factors, and ``random()``
    lies in [0, 1), so ``duration_quantile``'s checks are skipped."""
    return _quantile(rng.random(), beta, tau, delay)


def make_profiles(
    n_clients: int,
    base_betas: Mapping[int, float],
    rng: np.random.Generator,
    mix: tuple[float, float, float] = DEFAULT_SPEED_MIX,
    multipliers: tuple[float, float, float] = DEFAULT_SPEED_MULTIPLIERS,
) -> ClientProfiles:
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

    counts = largest_remainder(np.asarray(mix, dtype=np.float64) * n_clients, n_clients)
    in_order = np.repeat(np.arange(len(SPEED_CLASSES), dtype=np.int8), counts)
    # the permutation's first counts[0] entries are the slow clients, and so on
    codes = np.empty(n_clients, dtype=np.int8)
    codes[rng.permutation(n_clients)] = in_order
    # each client's entry is its class's multiplier object: nothing per client
    return ClientProfiles(codes, tuple(map(multipliers.__getitem__, codes.tolist())), base_betas)
