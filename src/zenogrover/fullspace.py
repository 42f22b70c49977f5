"""Brute-force verifier in the full 2N-dimensional joint Hilbert space.

Simulates the actual protocol — evolve the ancilla+database state, project the
ancilla, renormalize — without the 2x2 reduction, to validate the subspace
engines end to end.  The oracle takes N from its parameters and runs only
an integer N in [2, 2**20] (:func:`_full_size`); any other N is a ValueError.

Each ancilla block of the Hamiltonian is a rank-2 change of zero,
``H_b = V A_b Vᵀ`` with ``V = [e_w, |s>]`` (N x 2), Gram matrix
``G = VᵀV = [[1, g], [g, 1]]``, ``g = 1/sqrt(N)``, and
``A_b = diag(-(1+ε), σ_b)``: σ = -1 for the up block, +1 for the down block.
For every vector of C^N, therefore,

    exp(-i H_b dt) = I + V K_b Vᵀ,
    K_b = G^{-1/2} (exp(-i dt G^{1/2} A_b G^{1/2}) - I) G^{-1/2}.

This is the full propagator, not a projection of the state: on the
complement of span{|w>, |s>} it is exactly the identity.  A step costs O(N):
read ``Vᵀψ = (ψ_w, g·Σψ)``, apply the 2x2 ``K_b``, add ``V·Δ`` back.

The state is one (2, B, N) complex128 array, ancilla block first and one
row per case, each row with its own target; the equivalence suite runs each
group of consecutive cases that share (N, epsilon, steps) as one batch, in
slices of rows that hold at most _BATCH_BYTES, and its subspace side as one
pass of the 2x2 kernel; ``simulate_full_protocol`` is a batch of one.
Every sum runs along the last, contiguous axis, so a case's numbers do not
depend on the batch it ran in.  Every entry of a row other than its target
goes through the same floating-point operations, so those entries stay
bitwise equal: the invariance of span{|w>, |s>} is a symmetry that the
arithmetic keeps exactly, and no rounding leak can outgrow a deeply damped
success branch.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from typing import Callable, Optional, Sequence

import numpy as np

from . import EQUIVALENCE_STEPS
from .model import RunRecord, SearchParams, make_params, parallel_map
from .stroboscopic import _run_protocols

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

MAX_FULLSPACE_N = 2**20
#: bytes of the (2, B, N) complex state of one full-space batch: a group of
#: cases runs in slices of as many rows as fit, at least one
_BATCH_BYTES = 1 << 28
#: largest per-step |f| and |P| deviation at which an equivalence case passes
EQUIVALENCE_TOLERANCE = 1e-8


def _full_size(N: float) -> int:
    """N as the int size of the full space, if N is an integer in
    [2, MAX_FULLSPACE_N]; any other N is a ValueError."""
    if not (2 <= N <= MAX_FULLSPACE_N and float(N).is_integer()):
        raise ValueError(
            f"the full-space oracle runs an integer N in [2, {MAX_FULLSPACE_N}], got {N!r}"
        )
    return int(N)


def _step_kernels(N: int, epsilon: float, dt: np.ndarray) -> np.ndarray:
    """``K_b`` of both blocks for each step duration in ``dt``, shape
    (2, B, 2, 2): ``exp(-i H_b dt) = I + V K_b Vᵀ`` on all of C^N."""
    g = 1.0 / math.sqrt(N)
    lam, Q = np.linalg.eigh(np.array([[1.0, g], [g, 1.0]]))
    root, inv_root = (Q * np.sqrt(lam)) @ Q.T, (Q / np.sqrt(lam)) @ Q.T
    A = np.array([np.diag([-(1.0 + epsilon), sigma]) for sigma in (-1.0, 1.0)])
    mu, R = np.linalg.eigh(root @ A @ root)
    # exp(-i dt S) - I = R diag(expm1(-i dt mu)) Rᵀ, per block and case
    E = np.expm1(-1j * mu[:, None, :] * dt[:, None])
    R = R[:, None]
    return inv_root @ ((R * E[..., None, :]) @ np.swapaxes(R, -1, -2)) @ inv_root


def _evolve(
    psi: np.ndarray, K: np.ndarray, w: int | np.ndarray, u: Optional[np.ndarray] = None
) -> None:
    """``psi <- exp(-i H_b dt) psi`` in place for each block b and case:
    ``psi`` is (2, B, N), ``K`` the matching (2, B, 2, 2) kernels and ``w``
    the target of every case or one per case; ``u``, if given, is (2, B, 2)
    scratch for Vᵀψ."""
    g = 1.0 / math.sqrt(psi.shape[-1])
    at = (slice(None), np.arange(psi.shape[1]), w)  # the target entry of each case
    if u is None:
        u = np.empty((*psi.shape[:2], 2), dtype=complex)
    u[..., 0] = psi[at]
    np.multiply(psi.sum(-1), g, out=u[..., 1])  # Vᵀψ
    delta = (K @ u[..., None])[..., 0]
    psi += g * delta[..., 1:]
    psi[at] += delta[..., 0]


def _propagate(
    w: int | Sequence[int],
    params: Sequence[SearchParams],
    n_max: Optional[int],
    state_callback: Optional[Callable[[int, np.ndarray], None]] = None,
) -> list[RunRecord]:
    """Run a batch of protocols that share (N, epsilon), read from
    ``params[0]``, in the full space, with target ``w``, one for all cases or
    one per case; returns one record per case.  ``state_callback`` sees case 0."""
    N = _full_size(params[0].N)
    w = np.broadcast_to(w, len(params))
    for target in w.tolist():
        if not 0 <= target < N:
            raise ValueError(f"target index w={target} out of range for N={N}")
    n_max = params[0].step_count(n_max)
    dt, theta0, dtheta = (
        np.array([getattr(p, k) for p in params]) for k in ("delta_t", "theta0", "delta_theta")
    )
    K = _step_kernels(N, params[0].epsilon, dt)
    th = theta0 + np.arange(n_max + 1)[:, None] * dtheta
    cos_th, sin_th = np.cos(th)[..., None], np.sin(th)[..., None]
    g = 1.0 / math.sqrt(N)
    # (up, down) x case x database entry; both start along |s>
    psi = np.empty((2, len(params), N), dtype=complex)
    psi[0], psi[1] = cos_th[0] * g, sin_th[0] * g
    # complex once: numpy casts a real factor to complex before it multiplies
    cos_th, sin_th = cos_th.astype(complex), sin_th.astype(complex)
    rows = np.arange(len(params))
    u = np.empty((2, len(params), 2), dtype=complex)
    square = np.empty((len(params), 2 * N))
    root = np.empty(len(params))

    # per step and case: the raw fidelity and the success probability p
    fid = np.full((len(params), n_max + 1), 1.0 / N)
    p = np.ones((len(params), n_max + 1))
    for j in range(1, n_max + 1):
        _evolve(psi, K, w, u)
        # project the ancilla: the database state, in place of the up block
        db = psi[0]
        db *= cos_th[j]
        psi[1] *= sin_th[j]
        db += psi[1]
        np.square(db.view(float), out=square).sum(-1, out=p[:, j])
        np.sqrt(p[:, j], out=root)
        if not root.all():  # an annihilated case keeps its zero state
            root[root == 0.0] = 1.0
        db /= root[:, None]
        amp = db[rows, w]
        fid[:, j] = amp.real * amp.real + amp.imag * amp.imag
        np.multiply(sin_th[j], db, out=psi[1])
        db *= cos_th[j]
        if state_callback is not None and p[0, j] != 0.0:
            state_callback(j, psi[:, 0].flatten())
    # survival is the running product of p, in step order
    return [
        RunRecord.from_series(q, f, np.cumprod(pq), pq == 0.0)
        for q, f, pq in zip(params, fid, p)
    ]


def simulate_full_protocol(
    w: int,
    params: SearchParams,
    n_max: Optional[int] = None,
    state_callback: Optional[Callable[[int, np.ndarray], None]] = None,
) -> RunRecord:
    """Run the protocol in the joint space: evolve by exp(-i H dt), project the
    ancilla onto the rotated state, renormalize, repeat, in a database of
    ``params.N`` entries (see :func:`_full_size`).

    Fidelity is measured against |w> in the database factor; survival is the
    product of per-step success probabilities.  The distance column is NaN
    (the reduced operator is not tracked here).  ``state_callback(j, psi)``
    receives the normalized joint state after every successful step j as a
    (2N,) complex array, ancilla-major: index a*N + n, a = 0 up, 1 down.
    """
    return _propagate(w, [params], n_max, state_callback)[0]


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
    sizes: tuple[float, ...] = (4, 16, 64, 256),
    steps: int = EQUIVALENCE_STEPS,
) -> list[EquivalenceCase]:
    """The standard verification matrix: for each N in ``sizes``, min(3, N)
    distinct targets drawn by a generator seeded with _CASE_SEED, so each N
    gets the same targets whatever the other sizes, dt in {1, pi, pi+0.2},
    dtheta in {0, 1e-3, 1e-2}, ``steps`` steps each."""
    cases = []
    for N in map(_full_size, sizes):
        for w in random.Random(_CASE_SEED).sample(range(N), min(3, N)):
            for dt in (1.0, math.pi, math.pi + 0.2):
                for dth in (0.0, 0.001, 0.01):
                    cases.append(EquivalenceCase(N, w, dt, dth, steps=steps))
    return cases


def equivalence_suite(
    cases: list[EquivalenceCase], engine: str = "exact", jobs: int = 1
) -> list[EquivalenceResult]:
    """Compare the subspace ``engine`` against the full-space simulation case
    by case.  ``verify --inject-fault hdown-sign`` runs the suite against the
    exact engine with Q = P (see :data:`stroboscopic.FAULTS`), and then it
    must fail.  Consecutive cases that share (N, epsilon, steps) run as one
    batch, through the subspace engine and the full space, and the batches
    fan out to ``jobs`` worker processes; the results follow the case order
    either way."""
    groups = [
        list(group) for _, group in groupby(cases, key=lambda c: (c.N, c.epsilon, c.steps))
    ]
    compare = partial(_compare_group, engine=engine)
    return [r for results in parallel_map(compare, groups, jobs) for r in results]


def _compare_group(cases: list[EquivalenceCase], engine: str) -> list[EquivalenceResult]:
    N, steps = cases[0].N, cases[0].steps
    params = [make_case_params(case) for case in cases]
    # the subspace engine runs first, so an unknown name fails before the full space
    subs = _run_protocols(params, steps, engine)
    rows = max(1, _BATCH_BYTES // (32 * N))  # of a (2, rows, N) complex state
    fulls = [
        record
        for s in range(0, len(cases), rows)
        for record in _propagate([c.w for c in cases[s : s + rows]], params[s : s + rows], steps)
    ]
    return [
        EquivalenceResult(
            case=case,
            max_fidelity_deviation=float(np.max(np.abs(sub.fidelity - full.fidelity))),
            max_survival_deviation=float(np.max(np.abs(sub.survival - full.survival))),
        )
        for case, sub, full in zip(cases, subs, fulls)
    ]


def make_case_params(case: EquivalenceCase) -> SearchParams:
    # tiny-N cases may have delta_t beyond the search time (n_G = 0); the
    # suite always runs an explicit step budget
    return make_params(
        float(case.N), case.delta_t, delta_theta=case.delta_theta, epsilon=case.epsilon
    )
