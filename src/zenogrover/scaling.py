"""Scaling planner and detuning-robustness analytics.

The planner answers: given a reference process (N1, k1, tau) whose behaviour
is known, what database size N2 >= N_r admits an integer step multiplier k2
such that the process with dt2 = pi k2 + tau is a time-scaled copy of the
reference?  The detuning analytics quantify how the protocol and the plain
continuous search respond to a miscalibrated target coupling, and combine
into the quality factor Q = f*P / f_G comparing the two at their readout
times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import SearchParams, make_params, overlap_x
from .stroboscopic import _final_readouts, _run_protocols

__all__ = [
    "ScalePlan",
    "QualityReport",
    "ScaledCheckReport",
    "scaling_k2",
    "plan_scaled_instance",
    "scaled_process_check",
    "detuned_fidelity_analytic",
    "bad_epsilon_values",
    "quality_factor_sweep",
]

#: f_G below this is treated as a divergent-Q point
QUALITY_FLOOR = 1e-12
#: a plan is valid when its multiplier is within this many |tau| of an integer
RESIDUAL_FACTOR = 0.1


def scaling_k2(N1: float, k1: int, tau: float, N2: float) -> float:
    """Real-valued step multiplier matching process (N1, k1, tau) at size N2:

        k2 = (1/pi) sqrt(N2/N1) (k1 pi + tau) - tau/pi.
    """
    if not (N1 >= 2 and N2 >= 2):
        raise ValueError("database sizes must be >= 2")
    if k1 < 1:
        raise ValueError(f"k1 must be >= 1, got {k1}")
    return (1.0 / math.pi) * math.sqrt(N2 / N1) * (k1 * math.pi + tau) - tau / math.pi


def _snapped_ceil(v: float) -> int:
    """Ceiling that absorbs float noise at exact integers (e.g. the identity
    plan, where the exact value is an integer but rounding may land a few
    ulp above it)."""
    r = round(v)
    if abs(v - r) <= 64.0 * np.finfo(float).eps * max(1.0, abs(v)):
        return int(r)
    return int(math.ceil(v))


@dataclass(frozen=True)
class ScalePlan:
    """A planned scaled instance.

    ``k2_raw`` is the real-valued multiplier re-evaluated at the planned N2;
    ``integrality_residual`` its offset above the nearest lower integer.  The
    plan is valid when k2_raw sits within ``RESIDUAL_FACTOR * |tau|`` of an
    integer and its ulp is below that tolerance, so the double resolves it.
    """

    N1: float
    k1: int
    tau: float
    N_r: float
    N2: int
    k2: int
    k2_raw: float
    integrality_residual: float
    valid: bool


def plan_scaled_instance(N1: float, k1: int, tau: float, N_r: float) -> ScalePlan:
    """Plan (N2, k2) for a requested size N_r >= N1.

    k2 is the ceiling of the real multiplier evaluated at N_r; N2 is then the
    smallest integer strictly above N1 ((pi k2 + tau)/(pi k1 + tau))^2, which
    guarantees N2 >= N_r and drives the re-evaluated multiplier to sit just
    above the integer k2.  When the request collapses onto the reference
    (k2 == k1) the plan is the reference process itself.
    """
    for name, value in (("N1", N1), ("tau", tau), ("N_r", N_r)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not abs(tau) < math.pi / 2:  # make_params' rule: dt = pi k + tau
        raise ValueError(f"|tau| must be < pi/2, got {tau!r}")
    if N_r < N1:
        raise ValueError(f"requested size N_r={N_r!r} is below the reference N1={N1!r}")
    k2 = _snapped_ceil(scaling_k2(N1, k1, tau, N_r))
    if k2 <= k1:
        k2 = k1
        N2 = int(math.ceil(N1))
    else:
        v = N1 * ((math.pi * k2 + tau) / (math.pi * k1 + tau)) ** 2
        N2 = math.floor(v) + 1
    k2_raw = scaling_k2(N1, k1, tau, float(N2))
    residual = k2_raw - math.floor(k2_raw)
    # distance to the nearest integer decides validity, if the double k2_raw
    # resolves it; the floor residual is reported as-is but is ill-conditioned
    # just below an integer
    nearest, tol = min(residual, 1.0 - residual), RESIDUAL_FACTOR * abs(tau)
    valid = k2 == k1 or (nearest < tol and math.ulp(k2_raw) < tol)
    return ScalePlan(
        N1=float(N1),
        k1=int(k1),
        tau=float(tau),
        N_r=float(N_r),
        N2=N2,
        k2=k2,
        k2_raw=k2_raw,
        integrality_residual=residual,
        valid=valid,
    )


@dataclass(frozen=True)
class ScaledCheckReport:
    max_fidelity_deviation: float
    max_survival_deviation: float


def scaled_process_check(plan: ScalePlan, alpha: float) -> ScaledCheckReport:
    """Run the reference and the planned process, in one pass of the kernel,
    and compare them step by step (step n of one against step n of the
    other: matching step indices realize the time scaling t2 = t1
    sqrt(N2/N1)) up to the earlier readout."""
    p1 = make_params(plan.N1, k=plan.k1, tau=plan.tau, alpha=alpha)
    p2 = make_params(float(plan.N2), k=plan.k2, tau=plan.tau, alpha=alpha)
    n = min(p1.step_count(), p2.step_count())
    r1, r2 = _run_protocols([p1, p2], n, "exact")
    return ScaledCheckReport(
        max_fidelity_deviation=float(np.max(np.abs(r1.fidelity - r2.fidelity))),
        max_survival_deviation=float(np.max(np.abs(r1.survival - r2.survival))),
    )


def detuned_fidelity_analytic(t: float, N: float, epsilon: float) -> float:
    """Readout fidelity of the plain continuous search with a detuned target
    coupling:

        f_G(t) = sin^2(dE t / 2) / (1 + eps^2/(4 x^2)),  dE = sqrt(eps^2 + 4 x^2).

    At eps = 0 this is exactly sin^2(x t).
    """
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t!r}")
    x = overlap_x(N)
    dE = math.hypot(epsilon, 2.0 * x)
    return math.sin(dE * t / 2.0) ** 2 / (1.0 + epsilon * epsilon / (4.0 * x * x))


def bad_epsilon_values(N: float, m_max: int) -> list[float]:
    """Detunings that zero the plain-search readout at t = pi/(2x):

        eps = +/- 2 x sqrt(4 m^2 - 1),  m = 1..m_max,

    returned ascending by |eps| (negative first within each pair)."""
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    x = overlap_x(N)
    out: list[float] = []
    for m in range(1, m_max + 1):
        mag = 2.0 * x * math.sqrt(4.0 * m * m - 1.0)
        out.extend((-mag, mag))
    return out


@dataclass(frozen=True)
class QualityReport:
    """One detuning point: protocol readout versus the plain-search baseline.

    ``Q = f_nu * P_nu / f_G`` whenever f_G is above the floor; otherwise the
    point is flagged divergent and Q is +inf with the numerator retained in
    f_nu * P_nu.  ``t_result_*`` are the expected times to an actual result,
    readout time divided by the total success probability of one attempt.
    """

    epsilon: float
    eps_over_x: float
    f_nu: float
    P_nu: float
    f_G: float
    Q: float
    divergent: bool
    t_result_nu: float
    t_result_G: float


def quality_factor_sweep(
    params_base: SearchParams,
    eps_over_x: Sequence[float],
    jobs: int = 1,
) -> list[QualityReport]:
    """Evaluate the quality factor on a grid of detunings given in units of x
    (so the sweep shape is size-independent).  The points run through the
    kernel together; with ``jobs > 1`` contiguous slices of them are fanned
    out to worker processes, and the output order always follows the input
    grid."""
    x = params_base.x
    T0 = math.pi / (2.0 * x)
    ratios = [float(r) for r in eps_over_x]
    epsilons = [r * x for r in ratios]
    points = [
        make_params(
            params_base.N, params_base.delta_t, delta_theta=params_base.delta_theta,
            theta0=params_base.theta0, epsilon=eps,
        )
        for eps in epsilons
    ]
    reports = []
    for ratio, eps, params, (f_nu, P_nu, _) in zip(
        ratios, epsilons, points, _final_readouts(points, jobs=jobs)
    ):
        f_G = detuned_fidelity_analytic(T0, params_base.N, eps)
        divergent = f_G < QUALITY_FLOOR
        success_nu = f_nu * P_nu
        reports.append(QualityReport(
            epsilon=eps,
            eps_over_x=ratio,
            f_nu=f_nu,
            P_nu=P_nu,
            f_G=f_G,
            Q=math.inf if divergent else success_nu / f_G,
            divergent=divergent,
            t_result_nu=math.inf if success_nu == 0 else params.readout_time() / success_nu,
            t_result_G=math.inf if divergent else T0 / f_G,
        ))
    return reports
