"""Brute-force verifier in the full 2N-dimensional joint Hilbert space.

Simulates the actual protocol — evolve the ancilla+database state, project the
ancilla, renormalize — without any subspace reduction, to validate the 2x2
engine end to end.  Small N only; the point is ground truth, not scale.

Accuracy note: the success branch can be damped by many orders of magnitude
over a run.  Rounding noise that leaks into directions orthogonal to the
search subspace is not damped along with it, so its relative weight grows
like 1/sqrt(P).  To keep the oracle trustworthy deep into that regime, the
block eigendecompositions are refined to extended (long double) precision and
the state is propagated in extended precision as well.  This stays within
double-precision semantics at the interface: inputs and outputs are doubles.

Propagation runs in eigen-coordinates: the up component is kept as
``y_u = U_uᵀ·up`` and the down component as ``y_d = U_dᵀ·dn``, where ``U_u``
and ``U_d`` are the blocks' eigenvectors over all N dimensions.  Evolution is
then a phase per coordinate, and the ancilla projection couples the two
bases through ``M = U_uᵀ U_d``, built with its contiguous transpose once
per batch.  The equivalence suite runs each group of consecutive cases
that share (N, w, epsilon, steps) as one batch, one column per case, and
``simulate_full_protocol`` is a batch of one.  A step is two real
long-double products, ``M·y_d`` and ``Mᵀ·y_u``, each one dot on the (N, 2R)
(re, im) view of the R rotating columns of the batch: the cases with
``sin θ_j ≠ 0`` at some step j >= 0.  A case whose ancilla never rotates
(θ0 = 0 and dθ = 0) starts with ``y_d = 0`` and projects it back to
``0·z_d``, so its products would only add exact zeros; it keeps the up-block
phase and the readout and skips the down block.  In long double every
column is summed in the same order whatever the batch width is, so a case's
numbers do not depend on the batch it ran in.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .model import RunRecord, SearchParams, make_params, parallel_map
from .stroboscopic import accumulate_process

__all__ = [
    "MAX_FULLSPACE_N",
    "EQUIVALENCE_TOLERANCE",
    "EQUIVALENCE_STEPS",
    "simulate_full_protocol",
    "EquivalenceCase",
    "EquivalenceResult",
    "default_equivalence_cases",
    "equivalence_suite",
]

MAX_FULLSPACE_N = 4096
#: largest per-step |f| and |P| deviation at which an equivalence case passes
EQUIVALENCE_TOLERANCE = 1e-8
#: steps of every equivalence case unless it names its own
EQUIVALENCE_STEPS = 200
#: refined (long double) pipeline is the default up to this size
EXTENDED_PRECISION_MAX_N = 1024

_LD = np.longdouble
_CLD = np.complex256 if hasattr(np, "complex256") else np.complex128


def _check_target(N: int, w: int) -> None:
    if not (2 <= N <= MAX_FULLSPACE_N):
        raise ValueError(f"full-space verifier supports 2 <= N <= {MAX_FULLSPACE_N}, got {N}")
    if not 0 <= w < N:
        raise ValueError(f"target index w={w} out of range for N={N}")


def _block(N: int, w: int, coeff_w: float, coeff_s: float) -> np.ndarray:
    s = np.full(N, 1.0 / math.sqrt(N))
    H = coeff_s * np.outer(s, s)
    H[w, w] += coeff_w
    return H


def _eigh_refined(N: int, w: int, coeff_w: float, coeff_s: float):
    """Eigendecomposition of one block, refined to long-double accuracy.

    Seeds with LAPACK, then applies one first-order eigenvector correction
    computed in long double through the rank-2 structure of the block
    (O(N^2) extended-precision work).  Pairs closer than the cluster gap are
    left uncorrected: mixing inside a (near-)degenerate eigenspace commutes
    with any function of the matrix, so it cannot leak amplitude between
    eigenspaces.
    """
    _, U0 = np.linalg.eigh(_block(N, w, coeff_w, coeff_s))
    U = U0.astype(_LD)
    s_ld = np.ones(N, dtype=_LD) / np.sqrt(_LD(N))
    cw, cs = _LD(coeff_w), _LD(coeff_s)

    uw = U[w, :].copy()  # <w| U
    us = s_ld @ U  # <s| U
    A = cw * np.outer(uw, uw) + cs * np.outer(us, us)
    lam = np.diag(A).copy()

    gap = lam[None, :] - lam[:, None]
    scale = max(abs(coeff_w), abs(coeff_s))
    # W = A / gap off the clusters, written in place to keep the N x N long
    # double temporaries few; the diagonal of A is never read (its gap is 0)
    mask = np.abs(gap) > 1e-6 * scale
    W = np.zeros((N, N), dtype=_LD)
    np.divide(A, gap, out=W, where=mask)
    del A, gap
    # second-order-small correction: double-precision product is enough
    U += (U0 @ W.astype(float)).astype(_LD)
    return lam, U


class _Factors(NamedTuple):
    lam_u: np.ndarray
    lam_d: np.ndarray
    U_u: np.ndarray
    M: np.ndarray  # U_uᵀ U_d
    MT: np.ndarray  # contiguous Mᵀ
    s_u: np.ndarray  # U_uᵀ |s>
    s_d: np.ndarray  # U_dᵀ |s>


def _block_propagator_factors(N: int, w: int, epsilon: float, extended: bool) -> _Factors:
    """Both blocks' eigenvalues, the up block's eigenvectors ``U_u``, the
    coupling ``M = U_uᵀ U_d`` with its contiguous transpose, and ``|s>`` in
    each eigenbasis."""
    def eigh(coeff_s: float):
        if extended:
            return _eigh_refined(N, w, -(1.0 + epsilon), coeff_s)
        return np.linalg.eigh(_block(N, w, -(1.0 + epsilon), coeff_s))

    lam_u, U_u = eigh(-1.0)
    lam_d, U_d = eigh(+1.0)
    rl = U_u.dtype.type
    s = np.ones(N, dtype=rl) / np.sqrt(rl(N))
    s_d = s @ U_d
    # both operands row-contiguous: each element is the same ordered sum as
    # in U_u.T @ U_d, but long double runs ~4x faster than on a column walk
    Ud_T = np.ascontiguousarray(U_d.T)
    del U_d
    M = np.dot(np.ascontiguousarray(U_u.T), Ud_T.T)
    del Ud_T
    return _Factors(lam_u, lam_d, U_u, M, np.ascontiguousarray(M.T), s @ U_u, s_d)


def _apply(U: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``U @ v`` for real ``U`` and contiguous complex ``v`` (a vector or an
    (N, B) batch of columns) of matching precision, as one real dot on the
    (N, 2B) (re, im) view of ``v``.

    ``U`` is never recast to complex.  In long double the dot sums each
    element in the same order as complex ``matmul``, whatever B is, so the
    result is bit-identical to ``U.astype(v.dtype) @ v`` column by column;
    in double it is one BLAS call.
    """
    re_im = v.view(U.dtype).reshape(v.shape[0], -1)
    return np.dot(U, re_im).view(v.dtype).reshape(v.shape)


def _propagate(
    N: int,
    w: int,
    params: Sequence[SearchParams],
    n_max: Optional[int],
    extended: Optional[bool] = None,
    state_callback: Optional[Callable[[int, np.ndarray], None]] = None,
) -> list[RunRecord]:
    """Run a batch of protocols that share (N, w, epsilon) in the block
    eigenbases; returns one record per case.  ``state_callback`` sees case 0."""
    _check_target(N, w)
    n_max = params[0].step_count(n_max)
    if extended is None:
        extended = N <= EXTENDED_PRECISION_MAX_N
    F = _block_propagator_factors(N, w, params[0].epsilon, extended)
    rl = _LD if extended else np.float64
    cdtype = _CLD if extended else np.complex128
    dt, theta0, dtheta = (
        np.array([getattr(p, k) for p in params], dtype=rl)
        for k in ("delta_t", "theta0", "delta_theta")
    )
    th = theta0 + np.arange(n_max + 1, dtype=rl)[:, None] * dtheta
    cos_th, sin_th = np.cos(th), np.sin(th)
    # a case whose ancilla never rotates (sin θ_j = 0 at every j >= 0) keeps
    # y_d = 0 exactly, so both couplings would add exact zeros to it: the
    # down block and the products run on the rotating columns r only
    r = np.flatnonzero(np.any(sin_th != 0.0, axis=0))
    cos_r, sin_r = cos_th[:, r], sin_th[:, r]
    phase_u = np.exp(-1j * (F.lam_u[:, None] * dt)).astype(cdtype)
    phase_d = np.exp(-1j * (F.lam_d[:, None] * dt[r])).astype(cdtype)
    # eigen-coordinates y_u = U_uᵀ·up, one column per case, and y_d = U_dᵀ·dn,
    # one column per rotating case
    y_u = (F.s_u[:, None] * np.cos(theta0)).astype(cdtype)
    y_d = (F.s_d[:, None] * np.sin(theta0[r])).astype(cdtype)
    u_w = F.U_u[w]
    ones = np.ones(N, dtype=rl)

    # per step and case: the raw fidelity and the success probability p
    fid = np.full((len(params), n_max + 1), 1.0 / N)
    p = np.ones((len(params), n_max + 1))
    for j in range(1, n_max + 1):
        c, c_r, s = cos_th[j], cos_r[j], sin_r[j]
        y_u *= phase_u
        y_d *= phase_d
        # the projected database state in the up and down eigenbases
        z_u = c * y_u
        z_u[:, r] += s * _apply(F.M, y_d)
        z_d = c_r * _apply(F.MT, np.take(y_u, r, axis=1)) + s * y_d
        # a dot per column sums in the same order for any batch width
        p[:, j] = np.dot(ones, z_u.real * z_u.real + z_u.imag * z_u.imag)
        norm = np.sqrt(np.where(p[:, j] == 0.0, 1.0, p[:, j]).astype(rl))
        z_u /= norm
        z_d /= norm[r]
        amp = np.dot(u_w, z_u.view(rl).reshape(N, -1))  # <w|db>: re, im per case
        fid[:, j] = amp[0::2] * amp[0::2] + amp[1::2] * amp[1::2]
        y_u = c * z_u
        y_d = s * z_d
        if state_callback is not None and p[0, j] != 0.0:
            up = _apply(F.U_u, y_u)[:, 0]
            # case 0 is column 0 of y_d when it rotates, and has dn = 0 if not
            dn = _apply(F.U_u, _apply(F.M, y_d))[:, 0] if 0 in r else np.zeros_like(up)
            state_callback(j, np.concatenate([up, dn]).astype(complex))
    # survival is the running product of p, in step order
    return [
        RunRecord.from_series(q, f, np.cumprod(pq), pq == 0.0)
        for q, f, pq in zip(params, fid, p)
    ]


def simulate_full_protocol(
    N: int,
    w: int,
    params: SearchParams,
    n_max: Optional[int] = None,
    extended: Optional[bool] = None,
    state_callback: Optional[Callable[[int, np.ndarray], None]] = None,
) -> RunRecord:
    """Run the protocol in the joint space: evolve by exp(-i H dt), project the
    ancilla onto the rotated state, renormalize, repeat.

    Fidelity is measured against |w> in the database factor; survival is the
    product of per-step success probabilities.  The distance column is NaN
    (the reduced operator is not tracked here).  ``state_callback(j, psi)``
    receives the normalized joint state after every successful step j as a
    (2N,) complex array, ancilla-major: index a*N + n, a = 0 up, 1 down.
    """
    if int(round(params.N)) != N:
        raise ValueError(
            f"params.N={params.N!r} does not match the requested size N={N}"
        )
    return _propagate(N, w, [params], n_max, extended, state_callback)[0]


@dataclass(frozen=True)
class EquivalenceCase:
    N: int
    w: int
    delta_t: float
    delta_theta: float
    epsilon: float = 0.0
    steps: int = EQUIVALENCE_STEPS


@dataclass(frozen=True)
class EquivalenceResult:
    case: EquivalenceCase
    max_fidelity_deviation: float
    max_survival_deviation: float

    def passed(self) -> bool:
        return (
            self.max_fidelity_deviation < EQUIVALENCE_TOLERANCE
            and self.max_survival_deviation < EQUIVALENCE_TOLERANCE
        )


#: seed of the target draw in :func:`default_equivalence_cases`
_CASE_SEED = 20260809


def default_equivalence_cases(
    sizes: tuple[int, ...] = (4, 16, 64, 256),
    steps: int = EQUIVALENCE_STEPS,
) -> list[EquivalenceCase]:
    """The standard verification matrix: for each N in ``sizes``, min(3, N)
    distinct targets drawn by a generator seeded with _CASE_SEED, so each N
    gets the same targets whatever the other sizes, dt in {1, pi, pi+0.2},
    dtheta in {0, 1e-3, 1e-2}, ``steps`` steps each."""
    cases = []
    for N in sizes:
        for w in random.Random(_CASE_SEED).sample(range(N), min(3, N)):
            for dt in (1.0, math.pi, math.pi + 0.2):
                for dth in (0.0, 0.001, 0.01):
                    cases.append(EquivalenceCase(N, w, dt, dth, steps=steps))
    return cases


def equivalence_suite(
    cases: Optional[list[EquivalenceCase]] = None, engine: str = "exact", jobs: int = 1
) -> list[EquivalenceResult]:
    """Compare the subspace ``engine`` against the full-space simulation case
    by case.  ``verify --inject-fault hdown-sign`` runs the suite against the
    exact engine with Q = P (see :data:`stroboscopic.FAULTS`), and then it
    must fail.  Consecutive cases that share (N, w, epsilon, steps) run
    through the full space as one batch, and the batches fan out to ``jobs``
    worker processes; the results follow the case order either way."""
    if cases is None:
        cases = default_equivalence_cases()
    groups = [
        list(group)
        for _, group in groupby(cases, key=lambda c: (c.N, c.w, c.epsilon, c.steps))
    ]
    compare = partial(_compare_group, engine=engine)
    return [r for results in parallel_map(compare, groups, jobs) for r in results]


def _compare_group(cases: list[EquivalenceCase], engine: str) -> list[EquivalenceResult]:
    N, w, steps = cases[0].N, cases[0].w, cases[0].steps
    params = [make_case_params(case) for case in cases]
    # the subspace engine runs first, so an unknown name fails before the full space
    subs = [accumulate_process(p, steps, engine)[1] for p in params]
    results = []
    for case, sub, full in zip(cases, subs, _propagate(N, w, params, steps)):
        results.append(
            EquivalenceResult(
                case=case,
                max_fidelity_deviation=float(np.max(np.abs(sub.fidelity - full.fidelity))),
                max_survival_deviation=float(np.max(np.abs(sub.survival - full.survival))),
            )
        )
    return results


def make_case_params(case: EquivalenceCase) -> SearchParams:
    # tiny-N cases may have delta_t beyond the search time; the suite always
    # runs an explicit step budget, so a zero n_G is fine here
    return make_params(
        float(case.N),
        case.delta_t,
        delta_theta=case.delta_theta,
        epsilon=case.epsilon,
        allow_short=True,
    )
