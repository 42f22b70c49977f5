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
bases through ``M = U_uᵀ U_d``, cached with its contiguous transpose per
(N, w, epsilon).  A step is two real long-double products, ``M·y_d`` and
``Mᵀ·y_u``, each one dot on the (N, 2B) (re, im) view of the state.  B is
the number of cases in a batch: the equivalence suite runs each group of
consecutive cases that share (N, w, epsilon, steps) as one batch, one column
per case, and ``simulate_full_protocol`` is a batch of one.  In long double
every column is summed in the same order whatever B is, so a case's numbers
do not depend on the batch it ran in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import groupby
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .model import SURVIVAL_FLOOR, RunRecord, SearchParams, make_params
from .scaling import parallel_map
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


def build_full_hamiltonian(N: int, w: int, epsilon: float = 0.0) -> np.ndarray:
    """Joint Hamiltonian -(1+eps) I (x) |w><w| - sigma_z (x) |s><s| as a dense
    2N x 2N real symmetric matrix (ancilla-major ordering, up block first)."""
    _check_target(N, w)
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


class _Factors(NamedTuple):
    lam_u: np.ndarray
    lam_d: np.ndarray
    U_u: np.ndarray
    M: np.ndarray  # U_uᵀ U_d
    MT: np.ndarray  # contiguous Mᵀ
    s_u: np.ndarray  # U_uᵀ |s>
    s_d: np.ndarray  # U_dᵀ |s>


# the default case matrix visits each (N, w, epsilon) as one group of
# consecutive cases, so one entry serves it; an entry holds three N x N
# matrices (48 MB in long double at N = 1024)
@lru_cache(maxsize=1)
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
    n_max: int,
    extended: Optional[bool] = None,
    state_callback: Optional[Callable[[int, FullState], None]] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run a batch of B protocols that share (N, w, epsilon) in the block
    eigenbases; returns (B, n_max + 1) fidelity and survival arrays and the
    per-case underflow flags.  ``state_callback`` sees case 0."""
    _check_target(N, w)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if extended is None:
        extended = N <= EXTENDED_PRECISION_MAX_N
    F = _block_propagator_factors(N, w, params[0].epsilon, extended)
    rl = _LD if extended else np.float64
    cdtype = _CLD if extended else np.complex128
    dt, theta0, dtheta = (
        np.array([getattr(p, k) for p in params], dtype=rl)
        for k in ("delta_t", "theta0", "delta_theta")
    )
    phase_u = np.exp(-1j * (F.lam_u[:, None] * dt)).astype(cdtype)
    phase_d = np.exp(-1j * (F.lam_d[:, None] * dt)).astype(cdtype)
    # eigen-coordinates y_u = U_uᵀ·up and y_d = U_dᵀ·dn, one column per case
    y_u = (F.s_u[:, None] * np.cos(theta0)).astype(cdtype)
    y_d = (F.s_d[:, None] * np.sin(theta0)).astype(cdtype)
    th = theta0 + np.arange(n_max + 1, dtype=rl)[:, None] * dtheta
    cos_th, sin_th = np.cos(th), np.sin(th)
    u_w = F.U_u[w]
    ones = np.ones(N, dtype=rl)

    B = len(params)
    fid = np.empty((B, n_max + 1))
    sur = np.empty((B, n_max + 1))
    fid[:, 0] = 1.0 / N
    sur[:, 0] = 1.0
    underflow = np.zeros(B, dtype=bool)
    survival = np.ones(B)

    for j in range(1, n_max + 1):
        c, s = cos_th[j], sin_th[j]
        y_u *= phase_u
        y_d *= phase_d
        # the projected database state in the up and down eigenbases
        z_u = c * y_u + s * _apply(F.M, y_d)
        z_d = c * _apply(F.MT, y_u) + s * y_d
        # a dot per column sums in the same order for any batch width
        p = np.dot(ones, z_u.real * z_u.real + z_u.imag * z_u.imag).astype(float)
        dead = p == 0.0
        survival *= p
        frozen = survival < SURVIVAL_FLOOR
        underflow |= frozen
        survival[frozen] = 0.0
        norm = np.sqrt(np.where(dead, 1.0, p).astype(rl))
        z_u /= norm
        z_d /= norm
        amp = np.dot(u_w, z_u.view(rl).reshape(N, -1))  # <w|db>: re, im per case
        f = (amp[0::2] * amp[0::2] + amp[1::2] * amp[1::2]).astype(float)
        fid[:, j] = np.where(dead, fid[:, j - 1], f)
        sur[:, j] = survival
        y_u = c * z_u
        y_d = s * z_d
        if state_callback is not None and not dead[0]:
            up = _apply(F.U_u, y_u)[:, 0]
            dn = _apply(F.U_u, _apply(F.M, y_d))[:, 0]
            joint = np.concatenate(
                [np.asarray(up, dtype=complex), np.asarray(dn, dtype=complex)]
            )
            state_callback(j, FullState(amplitudes=joint, survival=float(survival[0])))
    return fid, sur, underflow


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
    if int(round(params.N)) != N:
        raise ValueError(
            f"params.N={params.N!r} does not match the requested size N={N}"
        )
    if n_max is None:
        n_max = params.n_G

    fid, sur, underflow = _propagate(N, w, [params], n_max, extended, state_callback)
    steps = np.arange(n_max + 1)
    return RunRecord(
        params=params,
        steps=steps,
        times=steps * params.delta_t,
        fidelity=fid[0],
        survival=sur[0],
        distance=np.full(n_max + 1, np.nan),
        underflow=bool(underflow[0]),
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
    jobs: int = 1,
) -> list[EquivalenceResult]:
    """Compare the subspace engine against the full-space simulation case by
    case.  Consecutive cases that share (N, w, epsilon, steps) run through
    the full space as one batch, and the batches fan out to ``jobs`` worker
    processes; the results follow the case order either way.
    ``block_transform``, when given, perturbs the subspace engine's block
    matrices before use (fault-injection hook for testing the suite's own
    sensitivity); it must pickle when ``jobs > 1``."""
    if cases is None:
        cases = default_equivalence_cases()
    groups = [
        list(group)
        for _, group in groupby(cases, key=lambda c: (c.N, c.w, c.epsilon, c.steps))
    ]
    compare = partial(_compare_group, block_transform=block_transform)
    return [r for results in parallel_map(compare, groups, jobs) for r in results]


def _compare_group(
    cases: list[EquivalenceCase],
    block_transform: Optional[Callable[[BlockHamiltonians], BlockHamiltonians]],
) -> list[EquivalenceResult]:
    N, w, steps = cases[0].N, cases[0].w, cases[0].steps
    params = [make_case_params(case) for case in cases]
    fid, sur, _ = _propagate(N, w, params, steps)
    results = []
    for case, p, full_f, full_p in zip(cases, params, fid, sur):
        blocks = subspace_basis_matrices(p)
        if block_transform is not None:
            blocks = block_transform(blocks)
        _, sub = accumulate_process(p, steps, blocks=blocks)
        results.append(
            EquivalenceResult(
                case=case,
                max_fidelity_deviation=float(np.max(np.abs(sub.fidelity - full_f))),
                max_survival_deviation=float(np.max(np.abs(sub.survival - full_p))),
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
