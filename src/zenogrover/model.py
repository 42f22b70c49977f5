"""Shared domain types and derived-quantity bookkeeping.

Everything dynamical lives elsewhere; this module only validates parameters,
computes derived quantities (overlap, step counts, rotation rate), defines
the value objects passed between the engines, and holds the one worker
fan-out (``parallel_map``) that the sweeps and the verifier share.  All types
are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "SearchParams",
    "RunRecord",
    "make_params",
    "overlap_x",
    "grover_step_count",
    "split_step_duration",
    "grover_fidelity_closed_form",
    "parallel_map",
]

#: survival probabilities below this are frozen to zero and flagged
SURVIVAL_FLOOR = 1e-300


def overlap_x(N: float) -> float:
    """Overlap of the uniform superposition with the target, x = 1/sqrt(N)."""
    return 1.0 / math.sqrt(N)


def grover_step_count(N: float, delta_t: float) -> int:
    """Number of protocol steps matching the standard search readout time.

    n_G = floor(pi*sqrt(N) / (2*delta_t)); the readout time n_G*delta_t is the
    last whole step not exceeding pi*sqrt(N)/2.
    """
    quotient = math.pi * math.sqrt(N) / (2.0 * delta_t)
    if not math.isfinite(quotient):
        raise ValueError(f"the step count pi sqrt(N)/(2 dt) overflows at N={N!r}, dt={delta_t!r}")
    return int(math.floor(quotient))


def split_step_duration(delta_t: float) -> tuple[int, float]:
    """Split delta_t = pi*k + tau with k = round(delta_t/pi), |tau| <= pi/2."""
    k = int(round(delta_t / math.pi))
    return k, delta_t - math.pi * k


@dataclass(frozen=True)
class SearchParams:
    """All control knobs of one search process plus derived quantities.

    N is kept real-valued: database sizes up to 1e18 appear and only enter the
    dynamics through x = 1/sqrt(N).  ``delta_t`` is the duration of one
    evolve-and-measure cycle (hbar = 1), ``delta_theta`` the per-cycle ancilla
    rotation, ``epsilon`` the multiplicative detuning of the target term.
    """

    N: float
    delta_t: float
    delta_theta: float
    theta0: float
    epsilon: float
    # derived
    x: float
    k: int
    tau: float
    alpha: float
    n_G: int

    def readout_time(self) -> float:
        """Time of the default readout step, n_G * delta_t."""
        return self.n_G * self.delta_t

    def step_count(self, n: Optional[int] = None) -> int:
        """The number of steps every engine runs: ``n``, by default n_G."""
        if n is None and self.n_G < 1:
            raise ValueError(f"delta_t={self.delta_t!r} exceeds the search time "
                             f"for N={self.N!r} (n_G < 1)")
        n = self.n_G if n is None else n
        if n < 1:
            raise ValueError(f"need at least one step, got {n}")
        if n > 2**52:  # a step's phase takes 2j - 1 to a double, exact up to 2**53
            raise ValueError(f"n={n} steps at N={self.N!r}, dt={self.delta_t!r} exceed 2**52")
        return n


def make_params(
    N: float,
    delta_t: Optional[float] = None,
    *,
    k: Optional[int] = None,
    tau: Optional[float] = None,
    delta_theta: Optional[float] = None,
    alpha: Optional[float] = None,
    theta0: float = 0.0,
    epsilon: float = 0.0,
) -> SearchParams:
    """Validate and assemble a :class:`SearchParams`.

    The step duration is given either directly (``delta_t``) or as the split
    ``delta_t = pi*k + tau`` with integer ``k >= 1`` and ``|tau| < pi/2``.
    The ancilla rotation is given either directly (``delta_theta``) or through
    the dimensionless rate ``alpha`` via delta_theta = alpha * x * delta_t.
    Every real-valued input must be finite.  A step duration beyond the
    search time leaves n_G = 0: such a process runs only an explicit step
    count (see :meth:`SearchParams.step_count`).
    """
    for name, value in (
        ("N", N), ("delta_t", delta_t), ("tau", tau), ("delta_theta", delta_theta),
        ("alpha", alpha), ("theta0", theta0), ("epsilon", epsilon),
    ):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not N >= 2:
        raise ValueError(f"database size must satisfy N >= 2, got {N!r}")
    if not abs(theta0) < math.pi / 2:
        raise ValueError(f"|theta0| must be < pi/2, got {theta0!r}")

    if delta_t is not None:
        if k is not None or tau is not None:
            raise ValueError("pass either delta_t or (k, tau), not both")
        if not delta_t > 0:
            raise ValueError(f"delta_t must be positive, got {delta_t!r}")
        k_eff, tau_eff = split_step_duration(delta_t)
    else:
        if k is None or tau is None:
            raise ValueError("need delta_t or the pair (k, tau)")
        if k != int(k) or k < 1:
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        if not abs(tau) < math.pi / 2:
            raise ValueError(f"|tau| must be < pi/2, got {tau!r}")
        k_eff, tau_eff = int(k), float(tau)
        delta_t = math.pi * k_eff + tau_eff

    x = overlap_x(N)
    if delta_theta is not None:
        if alpha is not None:
            raise ValueError("pass either delta_theta or alpha, not both")
        dtheta = float(delta_theta)
    elif alpha is not None:
        dtheta = alpha * x * delta_t
    else:
        dtheta = 0.0

    return SearchParams(
        N=float(N),
        delta_t=float(delta_t),
        delta_theta=dtheta,
        theta0=float(theta0),
        epsilon=float(epsilon),
        x=x,
        k=k_eff,
        tau=tau_eff,
        alpha=math.sqrt(N) * dtheta / delta_t,
        n_G=grover_step_count(N, delta_t),
    )


def grover_fidelity_closed_form(t: float | np.ndarray, N: float) -> float | np.ndarray:
    """Target fidelity of the uninterrupted continuous search at the time or
    array of times t.

    f(t) = x^2 cos^2(x t) + sin^2(x t), periodic with period pi/x and bounded
    in [1/N, 1]; maxima sit at t = (pi/x)(1/2 + j).
    """
    if np.any(t < 0):
        raise ValueError(f"t must be non-negative, got {t!r}")
    if not N >= 2:
        raise ValueError(f"database size must satisfy N >= 2, got {N!r}")
    x = overlap_x(N)
    return x * x * np.cos(x * t) ** 2 + np.sin(x * t) ** 2


@dataclass(frozen=True)
class RunRecord:
    """Per-step time series of one protocol execution.

    Column arrays share index; row 0 is the initial state (survival 1,
    fidelity 1/N).  ``distance`` is the unitarity distance of the accumulated
    operator for every 2x2 engine, and NaN for the full-space oracle, which
    tracks none.
    """

    params: SearchParams
    steps: np.ndarray
    times: np.ndarray
    fidelity: np.ndarray
    survival: np.ndarray
    distance: np.ndarray
    underflow: bool = False

    @classmethod
    def from_series(
        cls,
        params: SearchParams,
        fidelity: np.ndarray,
        survival: np.ndarray,
        annihilated: np.ndarray,
        distance: Optional[np.ndarray] = None,
    ) -> "RunRecord":
        """The record of a run from its raw per-step series, row 0 the initial
        state; every engine builds its records here.

        Survival freezes at 0 from the first step that is ``annihilated`` (the
        state was projected out exactly) or falls below SURVIVAL_FLOOR, and
        such a run is flagged ``underflow``.  An annihilated step has no
        direction to read, so fidelity holds its last value over it.
        ``distance`` defaults to NaN, for the full-space oracle.
        """
        steps = np.arange(len(survival))
        dead = annihilated | (survival < SURVIVAL_FLOOR)
        if dead.any():
            survival = np.where(steps < np.argmax(dead), survival, 0.0)
            fidelity = fidelity[np.maximum.accumulate(np.where(annihilated, 0, steps))]
        return cls(
            params=params,
            steps=steps,
            times=steps * params.delta_t,
            fidelity=fidelity,
            survival=survival,
            distance=np.full(len(steps), np.nan) if distance is None else distance,
            underflow=bool(dead.any()),
        )

    @property
    def final_fidelity(self) -> float:
        return float(self.fidelity[-1])

    @property
    def final_survival(self) -> float:
        return float(self.survival[-1])


def parallel_map(fn: Callable, work: Sequence, jobs: int) -> list:
    """``[fn(w) for w in work]``, fanned out to ``min(jobs, len(work))``
    worker processes when that is above one; the output follows the input
    order, so the result does not depend on ``jobs``."""
    workers = min(jobs, len(work))
    if workers <= 1:
        return [fn(w) for w in work]
    # imported here: only a fan-out needs multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, work))
