"""Shared domain types and derived-quantity bookkeeping.

Everything dynamical lives elsewhere; this module only validates parameters,
computes derived quantities (overlap, step counts, rotation rate), and defines
the value objects passed between the engines.  All types are immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "SearchParams",
    "SubspaceState",
    "StepOperator",
    "RunRecord",
    "DampedTwoLevelModel",
    "make_params",
    "overlap_x",
    "grover_step_count",
    "split_step_duration",
    "grover_fidelity_closed_form",
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
    return int(math.floor(math.pi * math.sqrt(N) / (2.0 * delta_t)))


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
    built_from: str  # "delta_t" | "k_tau"

    def readout_time(self) -> float:
        """Time of the default readout step, n_G * delta_t."""
        return self.n_G * self.delta_t


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
    allow_short: bool = False,
) -> SearchParams:
    """Validate and assemble a :class:`SearchParams`.

    The step duration is given either directly (``delta_t``) or as the split
    ``delta_t = pi*k + tau`` with integer ``k >= 1`` and ``|tau| < pi/2``.
    The ancilla rotation is given either directly (``delta_theta``) or through
    the dimensionless rate ``alpha`` via delta_theta = alpha * x * delta_t.
    Every real-valued input must be finite.

    ``allow_short`` admits processes whose step duration exceeds the search
    time (n_G = 0); such parameter sets cannot use the default readout and are
    only meaningful with an explicit step count (the verification suite runs
    tiny databases through fixed step budgets this way).
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
        built_from = "delta_t"
    else:
        if k is None or tau is None:
            raise ValueError("need delta_t or the pair (k, tau)")
        if k != int(k) or k < 1:
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        if not abs(tau) < math.pi / 2:
            raise ValueError(f"|tau| must be < pi/2, got {tau!r}")
        k_eff, tau_eff = int(k), float(tau)
        delta_t = math.pi * k_eff + tau_eff
        built_from = "k_tau"

    x = overlap_x(N)
    if delta_theta is not None:
        if alpha is not None:
            raise ValueError("pass either delta_theta or alpha, not both")
        dtheta = float(delta_theta)
    elif alpha is not None:
        dtheta = alpha * x * delta_t
    else:
        dtheta = 0.0

    n_G = grover_step_count(N, delta_t)
    if n_G < 1 and not allow_short:
        raise ValueError(
            f"delta_t={delta_t!r} exceeds the search time for N={N!r} (n_G < 1)"
        )

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
        n_G=n_G,
        built_from=built_from,
    )


def grover_fidelity_closed_form(t: float, N: float) -> float:
    """Target fidelity of the uninterrupted continuous search at time t.

    f(t) = x^2 cos^2(x t) + sin^2(x t), periodic with period pi/x and bounded
    in [1/N, 1]; maxima sit at t = (pi/x)(1/2 + j).
    """
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t!r}")
    if not N >= 2:
        raise ValueError(f"database size must satisfy N >= 2, got {N!r}")
    x = overlap_x(N)
    return x * x * math.cos(x * t) ** 2 + math.sin(x * t) ** 2


@dataclass(frozen=True)
class SubspaceState:
    """Complex amplitude pair on the (target, residual) basis plus survival."""

    amp_w: complex
    amp_r: complex
    survival: float = 1.0

    @classmethod
    def initial(cls, params: SearchParams) -> "SubspaceState":
        """The uniform superposition: (x, sqrt(1-x^2)), survival 1."""
        x = params.x
        return cls(complex(x), complex(math.sqrt(1.0 - x * x)), 1.0)

    @property
    def norm_sq(self) -> float:
        return abs(self.amp_w) ** 2 + abs(self.amp_r) ** 2

    @property
    def fidelity(self) -> float:
        """Squared overlap with the target direction."""
        return abs(self.amp_w) ** 2 / self.norm_sq


@dataclass(frozen=True)
class StepOperator:
    """One evolve-and-project cycle as a 2x2 operator on the search subspace."""

    matrix: np.ndarray
    step_index: int
    c_j: float
    s_j: float
    distance: float  # distance from unitarity of ``matrix``


@dataclass(frozen=True)
class RunRecord:
    """Per-step time series of one protocol execution.

    Column arrays share index; row 0 is the initial state (survival 1,
    fidelity 1/N).  ``distance`` is the unitarity distance of the accumulated
    operator where the producing engine tracks one, NaN otherwise.
    ``underflow`` marks runs whose survival dropped below the representable
    floor; survival entries are frozen at 0 from that point on.
    """

    params: SearchParams
    steps: np.ndarray
    times: np.ndarray
    fidelity: np.ndarray
    survival: np.ndarray
    distance: np.ndarray
    underflow: bool = False
    final_state: Optional[SubspaceState] = None

    @property
    def final_fidelity(self) -> float:
        return float(self.fidelity[-1])

    @property
    def final_survival(self) -> float:
        return float(self.survival[-1])


@dataclass(frozen=True)
class DampedTwoLevelModel:
    """Spectral data of the damped two-level generator
    h = -x(|w><r| + |r><w|) - i*gamma |r><r|.

    Eigenvalues are (-i*gamma +/- sqrt(4x^2 - gamma^2))/2, ordered so the
    first is the slowly decaying mode.  Right/left eigenvectors are stored
    as columns, normalized biorthogonally (<chi_n|phi_m> = delta_nm).  At the
    exceptional point gamma = 2x the eigenvectors coalesce: ``degenerate`` is
    set and the vector fields are None.
    """

    x: float
    gamma: float
    eigenvalues: tuple[complex, complex]
    right_vectors: Optional[np.ndarray]
    left_vectors: Optional[np.ndarray]
    degenerate: bool = False
    overlap_s: Optional[complex] = None
    asymptotic_state: Optional[np.ndarray] = None
