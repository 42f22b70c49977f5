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
Propagation is a real long-double dot of each block's eigenvectors (and their
cached contiguous transpose) with the complex state viewed as an (N, 2) real
(re, im) matrix, so the real eigenvectors are never recast to complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .model import SURVIVAL_FLOOR, RunRecord, SearchParams, make_params
from .stroboscopic import BlockHamiltonians, accumulate_process, subspace_basis_matrices

__all__ = [
    "FullState",
    "MAX_FULLSPACE_N",
    "build_full_hamiltonian",
    "simulate_full_protocol",
    "complement_weight",
    "EquivalenceCase",
    "EquivalenceResult",
    "default_equivalence_cases",
    "equivalence_suite",
]

MAX_FULLSPACE_N = 4096
#: refined (long double) pipeline is the default up to this size
EXTENDED_PRECISION_MAX_N = 1024

_LD = np.longdouble
_CLD = np.complex256 if hasattr(np, "complex256") else np.complex128


@dataclass(frozen=True)
class FullState:
    """Joint state, ancilla-major ordering (index = a*N + n, a in {up, down})."""

    amplitudes: np.ndarray
    survival: float

    @property
    def N(self) -> int:
        return self.amplitudes.size // 2

    def database_part(self, ancilla_amplitudes: np.ndarray) -> np.ndarray:
        """Contract the ancilla factor with the given 2-vector."""
        N = self.N
        return (
            np.conj(ancilla_amplitudes[0]) * self.amplitudes[:N]
            + np.conj(ancilla_amplitudes[1]) * self.amplitudes[N:]
        )


def _check_size(N: int) -> None:
    if not (2 <= N <= MAX_FULLSPACE_N):
        raise ValueError(f"full-space verifier supports 2 <= N <= {MAX_FULLSPACE_N}, got {N}")


def _block(N: int, w: int, coeff_w: float, coeff_s: float) -> np.ndarray:
    s = np.full(N, 1.0 / math.sqrt(N))
    H = coeff_s * np.outer(s, s)
    H[w, w] += coeff_w
    return H


def build_full_hamiltonian(N: int, w: int, epsilon: float = 0.0) -> np.ndarray:
    """Joint Hamiltonian -(1+eps) I (x) |w><w| - sigma_z (x) |s><s| as a dense
    2N x 2N real symmetric matrix (ancilla-major ordering, up block first)."""
    _check_size(N)
    if not 0 <= w < N:
        raise ValueError(f"target index w={w} out of range for N={N}")
    H = np.zeros((2 * N, 2 * N))
    H[:N, :N] = _block(N, w, -(1.0 + epsilon), -1.0)
    H[N:, N:] = _block(N, w, -(1.0 + epsilon), +1.0)
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


# the default case matrix visits each (N, w, epsilon) as consecutive cases,
# so one entry gives it every hit; an entry holds four N x N matrices (64 MB
# in long double at N = 1024)
@lru_cache(maxsize=1)
def _block_propagator_factors(N: int, w: int, epsilon: float, extended: bool):
    """Eigenvalues, eigenvectors and contiguous transposed eigenvectors of
    the up and down blocks."""
    factors = []
    for coeff_s in (-1.0, +1.0):
        if extended:
            lam, U = _eigh_refined(N, w, -(1.0 + epsilon), coeff_s)
        else:
            lam, U = np.linalg.eigh(_block(N, w, -(1.0 + epsilon), coeff_s))
        factors.append((lam, U, np.ascontiguousarray(U.T)))
    return tuple(factors)


def _apply(U: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``U @ v`` for real ``U`` and contiguous complex ``v`` of matching
    precision, as one real dot on the (N, 2) (re, im) view of ``v``.

    ``U`` is never recast to complex.  In long double the dot sums in the
    same order as complex ``matmul``, so the result is bit-identical to
    ``U.astype(v.dtype) @ v``; in double it is one BLAS call.
    """
    return np.dot(U, v.view(U.dtype).reshape(-1, 2)).view(v.dtype).ravel()


def simulate_full_protocol(
    N: int,
    w: int,
    params: SearchParams,
    n_max: Optional[int] = None,
    extended: Optional[bool] = None,
    state_callback: Optional[Callable[[int, FullState], None]] = None,
) -> RunRecord:
    """Run the protocol in the joint space: evolve by exp(-i H dt), project the
    ancilla onto the rotated state, renormalize, repeat.

    Fidelity is measured against |w> in the database factor; survival is the
    product of per-step success probabilities.  The distance column is NaN
    (the reduced operator is not tracked here).  ``state_callback`` receives
    the normalized joint state after every successful step.
    """
    _check_size(N)
    if not 0 <= w < N:
        raise ValueError(f"target index w={w} out of range for N={N}")
    if int(round(params.N)) != N:
        raise ValueError(
            f"params.N={params.N!r} does not match the requested size N={N}"
        )
    if n_max is None:
        n_max = params.n_G
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if extended is None:
        extended = N <= EXTENDED_PRECISION_MAX_N

    (lam_u, U_u, UT_u), (lam_d, U_d, UT_d) = _block_propagator_factors(
        N, w, params.epsilon, extended
    )
    cdtype = _CLD if extended else np.complex128
    rl = _LD if extended else np.float64
    dt = rl(params.delta_t)
    phase_u = np.exp(-1j * (lam_u * dt)).astype(cdtype)
    phase_d = np.exp(-1j * (lam_d * dt)).astype(cdtype)

    s0 = (np.ones(N, dtype=rl) / np.sqrt(rl(N))).astype(cdtype)
    theta0 = rl(params.theta0)
    dtheta = rl(params.delta_theta)
    up = np.cos(theta0) * s0
    dn = np.sin(theta0) * s0

    steps = np.arange(n_max + 1)
    fid = np.empty(n_max + 1)
    sur = np.empty(n_max + 1)
    dist = np.full(n_max + 1, np.nan)
    fid[0] = 1.0 / N
    sur[0] = 1.0
    underflow = False
    survival = 1.0

    for j in range(1, n_max + 1):
        up = _apply(U_u, phase_u * _apply(UT_u, up))
        dn = _apply(U_d, phase_d * _apply(UT_d, dn))
        th = theta0 + j * dtheta
        cth, sth = np.cos(th), np.sin(th)
        db = cth * up + sth * dn
        p = float((db.conj() @ db).real)
        if p == 0.0:
            underflow = True
            fid[j] = fid[j - 1]
            sur[j] = 0.0
            survival = 0.0
            up = cth * db
            dn = sth * db
            continue
        survival *= p
        if survival < SURVIVAL_FLOOR:
            underflow = True
            survival = 0.0
        db = db / np.sqrt(rl(p))
        up = cth * db
        dn = sth * db
        fid[j] = float(abs(db[w]) ** 2)
        sur[j] = survival
        if state_callback is not None:
            joint = np.concatenate(
                [np.asarray(up, dtype=complex), np.asarray(dn, dtype=complex)]
            )
            state_callback(j, FullState(amplitudes=joint, survival=survival))

    return RunRecord(
        params=params,
        steps=steps,
        times=steps * params.delta_t,
        fidelity=fid,
        survival=sur,
        distance=dist,
        underflow=underflow,
        final_state=None,
    )


def complement_weight(state: FullState, w: int) -> float:
    """Probability weight outside span{|q> (x) |w>, |q> (x) |r>}.

    Projects both ancilla components of a normalized joint state onto the
    orthogonal complement of {|w>, |s>} in the database factor and returns the
    total squared norm left over.
    """
    N = state.N
    s = np.full(N, 1.0 / math.sqrt(N))
    wv = np.zeros(N)
    wv[w] = 1.0
    rv = s - s[w] * wv
    rv /= np.linalg.norm(rv)
    total = 0.0
    for part in (state.amplitudes[:N], state.amplitudes[N:]):
        residual = part - (wv @ part) * wv - (rv @ part) * rv
        total += float(np.vdot(residual, residual).real)
    return total


@dataclass(frozen=True)
class EquivalenceCase:
    N: int
    w: int
    delta_t: float
    delta_theta: float
    epsilon: float = 0.0
    steps: int = 200


@dataclass(frozen=True)
class EquivalenceResult:
    case: EquivalenceCase
    max_fidelity_deviation: float
    max_survival_deviation: float

    def passed(self, tol: float = 1e-8) -> bool:
        return (
            self.max_fidelity_deviation < tol
            and self.max_survival_deviation < tol
        )


def default_equivalence_cases(
    seed: int = 20260809,
    sizes: tuple[int, ...] = (4, 16, 64, 256),
    steps: int = 200,
) -> list[EquivalenceCase]:
    """The standard verification matrix: for each N in ``sizes``, min(3, N)
    distinct targets drawn from one seeded stream, dt in {1, pi, pi+0.2},
    dtheta in {0, 1e-3, 1e-2}, ``steps`` steps each."""
    rng = np.random.default_rng(seed)
    cases = []
    for N in sizes:
        for w in rng.choice(N, size=min(3, N), replace=False):
            for dt in (1.0, math.pi, math.pi + 0.2):
                for dth in (0.0, 0.001, 0.01):
                    cases.append(EquivalenceCase(N, int(w), dt, dth, steps=steps))
    return cases


def equivalence_suite(
    cases: Optional[list[EquivalenceCase]] = None,
    block_transform: Optional[Callable[[BlockHamiltonians], BlockHamiltonians]] = None,
) -> list[EquivalenceResult]:
    """Compare the subspace engine against the full-space simulation case by
    case.  ``block_transform``, when given, perturbs the subspace engine's
    block matrices before use (fault-injection hook for testing the suite's
    own sensitivity)."""
    if cases is None:
        cases = default_equivalence_cases()
    results = []
    for case in cases:
        params = make_case_params(case)
        blocks = subspace_basis_matrices(params)
        if block_transform is not None:
            blocks = block_transform(blocks)
        _, sub = accumulate_process(params, case.steps, blocks=blocks)
        full = simulate_full_protocol(case.N, case.w, params, n_max=case.steps)
        results.append(
            EquivalenceResult(
                case=case,
                max_fidelity_deviation=float(
                    np.max(np.abs(sub.fidelity - full.fidelity))
                ),
                max_survival_deviation=float(
                    np.max(np.abs(sub.survival - full.survival))
                ),
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
