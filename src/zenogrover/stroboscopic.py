"""Exact stroboscopic simulation of the measurement-interrupted search.

The joint (ancilla x database) evolution is block diagonal in the ancilla
basis, so one evolve-and-project cycle acts on the two-dimensional search
subspace spanned by the target |w> and the residual |r> as

    V_j = C_j P + S_j Q,
    C_j = cos(theta_{j-1}) cos(theta_j),  S_j = sin(theta_{j-1}) sin(theta_j),

with (P, Q) a fixed matrix pair per engine: the block propagators
(exp(-i h_up dt), exp(-i h_dn dt)) of the two ancilla blocks for the exact
engine, the small-overlap matrices for the approximate one.  Since
C_j + S_j = cos(dtheta) and C_j - S_j = cos(theta_{j-1} + theta_j),

    V_j = cos(dtheta) (P+Q)/2 + cos(phi_j) (P-Q)/2,
    phi_j = 2 theta_0 + (2j-1) dtheta,

which is two fixed matrices and one cosine array.  The engine accumulates the
ordered product V(n) = V_n ... V_1, the survival probability
||V(n)|s>||^2, the per-step renormalized state (source of the fidelity
column), and the unitarity distance of the accumulated operator.  The
continuous effective engine feeds its own step propagators through the same
loop.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .model import (
    SURVIVAL_FLOOR,
    RunRecord,
    SearchParams,
    StepOperator,
    SubspaceState,
)

__all__ = [
    "BlockHamiltonians",
    "subspace_basis_matrices",
    "expm_2x2_hermitian",
    "exact_step_operator",
    "approx_step_operator",
    "distance_from_unitarity",
    "accumulate_process",
    "run_protocol",
    "final_distance",
    "align_global_phase",
]


@dataclass(frozen=True)
class BlockHamiltonians:
    """The two ancilla blocks of the joint Hamiltonian, in the (|w>, |r>) basis.

    h_up = -(1+eps)|w><w| - |s><s|  (ancilla up),
    h_dn = -(1+eps)|w><w| + |s><s|  (ancilla down).
    Their sum is -2(1+eps)|w><w|: the driving parts cancel.
    """

    h_up: np.ndarray
    h_down: np.ndarray


def subspace_basis_matrices(params: SearchParams) -> BlockHamiltonians:
    """Build both blocks for the given overlap x and detuning epsilon.

    With |s> = x|w> + sqrt(1-x^2)|r>, the projector |s><s| has entries
    [[x^2, x*c], [x*c, c^2]] where c = sqrt(1-x^2).
    """
    x = params.x
    c = math.sqrt(1.0 - x * x)
    ww = np.array([[1.0, 0.0], [0.0, 0.0]])
    ss = np.array([[x * x, x * c], [x * c, c * c]])
    coeff = 1.0 + params.epsilon
    return BlockHamiltonians(h_up=-coeff * ww - ss, h_down=-coeff * ww + ss)


def expm_2x2_hermitian(H: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian 2x2 H in closed form.

    Split H = a*I + T with T traceless; then
    exp(-iHt) = e^{-iat} (cos(w t) I - i sin(w t)/w T), w = ||T||.
    The w -> 0 limit sin(wt)/w -> t is handled through sinc.
    """
    a = 0.5 * (H[0, 0].real + H[1, 1].real)
    t00 = H[0, 0].real - a
    t01 = H[0, 1]
    w = math.hypot(t00, abs(t01))
    sinc = t * np.sinc(w * t / math.pi)  # sin(w t)/w, exact at w = 0
    out = np.empty((2, 2), dtype=complex)
    cw = math.cos(w * t)
    out[0, 0] = cw - 1j * sinc * t00
    out[0, 1] = -1j * sinc * t01
    out[1, 0] = -1j * sinc * np.conj(t01)
    out[1, 1] = cw + 1j * sinc * t00
    return cmath.exp(-1j * a * t) * out


def distance_from_unitarity(V: np.ndarray) -> float:
    """d(V) = 1 - Tr(V^dag V)/2: zero for unitary V, 1 - |c|^2 for c*U."""
    V = np.asarray(V)
    return 1.0 - 0.5 * float(np.sum(np.abs(V) ** 2))


def _cycle_weights(j: int, params: SearchParams) -> tuple[float, float]:
    """The (C_j, S_j) ancilla-projection weights of cycle j."""
    th_prev = params.theta0 + (j - 1) * params.delta_theta
    th_cur = params.theta0 + j * params.delta_theta
    return math.cos(th_prev) * math.cos(th_cur), math.sin(th_prev) * math.sin(th_cur)


def _engine_matrices(
    params: SearchParams, engine: str, blocks: Optional[BlockHamiltonians]
) -> tuple[np.ndarray, np.ndarray]:
    """The fixed pair (P, Q) of V_j = C_j P + S_j Q: the block propagators
    for ``exact``, the matrices of :func:`approx_step_operator` for ``approx``."""
    if engine == "exact":
        if blocks is None:
            blocks = subspace_basis_matrices(params)
        return (
            expm_2x2_hermitian(blocks.h_up, params.delta_t),
            expm_2x2_hermitian(blocks.h_down, params.delta_t),
        )
    if engine == "approx":
        x, dt = params.x, params.delta_t
        damp = cmath.exp(-2j * dt)
        ixdt = 1j * x * dt
        half = 0.5 * x * (1.0 - damp)
        return (
            np.array([[1.0, ixdt], [ixdt, 1.0]], dtype=complex),
            np.array([[1.0, -half], [-half, damp]], dtype=complex),
        )
    raise ValueError(f"unknown engine {engine!r}")


def _cycle_entries(
    params: SearchParams, P: np.ndarray, Q: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """Row-major entries (v00, v01, v10, v11) of V_start, ..., V_{stop-1}."""
    phi = 2.0 * params.theta0 + (2 * np.arange(start, stop) - 1) * params.delta_theta
    mean = (0.5 * math.cos(params.delta_theta)) * (P + Q).ravel()
    return mean + np.cos(phi)[:, None] * (0.5 * (P - Q)).ravel()


#: steps per vectorised block of cycle entries; bounds memory for any n
_BLOCK_STEPS = 1 << 14


def _step_entries(
    params: SearchParams, n: int, engine: str, blocks: Optional[BlockHamiltonians]
) -> Iterator[list]:
    """Entries [v00, v01, v10, v11] of V_1, ..., V_n in order as Python
    complex numbers, built _BLOCK_STEPS steps at a time."""
    P, Q = _engine_matrices(params, engine, blocks)
    return itertools.chain.from_iterable(
        _cycle_entries(params, P, Q, s, min(s + _BLOCK_STEPS, n + 1)).tolist()
        for s in range(1, n + 1, _BLOCK_STEPS)
    )


def _step_operator(
    j: int, params: SearchParams, engine: str, blocks: Optional[BlockHamiltonians]
) -> StepOperator:
    if j < 1:
        raise ValueError(f"step index must be >= 1, got {j}")
    P, Q = _engine_matrices(params, engine, blocks)
    m = _cycle_entries(params, P, Q, j, j + 1).reshape(2, 2)
    cj, sj = _cycle_weights(j, params)
    return StepOperator(
        matrix=m, step_index=j, c_j=cj, s_j=sj, distance=distance_from_unitarity(m)
    )


def exact_step_operator(
    j: int, params: SearchParams, blocks: Optional[BlockHamiltonians] = None
) -> StepOperator:
    """The exact cycle operator V_j = C_j exp(-i h_up dt) + S_j exp(-i h_dn dt)."""
    return _step_operator(j, params, "exact", blocks)


def approx_step_operator(j: int, params: SearchParams) -> StepOperator:
    """Small-overlap cycle operator (x -> 0, x*dt << 1), global phase dropped.

    Entries: diagonal (C_j + S_j, C_j + S_j e^{-2i dt}), off-diagonal
    i C_j x dt - (S_j x / 2)(1 - e^{-2i dt}) on both sides.  Valid regime is
    the caller's responsibility.
    """
    return _step_operator(j, params, "approx", None)


def align_global_phase(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Rotate ``other`` by the global phase that matches ``reference`` at the
    largest-magnitude entry of ``reference``."""
    idx = np.unravel_index(np.argmax(np.abs(reference)), reference.shape)
    ref, oth = reference[idx], other[idx]
    if abs(oth) == 0.0:
        return other
    return other * (ref / abs(ref)) * (abs(oth) / oth)


def accumulate_process(
    params: SearchParams,
    n: int,
    engine: str = "exact",
    blocks: Optional[BlockHamiltonians] = None,
) -> tuple[np.ndarray, RunRecord]:
    """Accumulate V(n) = V_n ... V_1 and record the full trajectory.

    Returns the accumulated operator and a :class:`RunRecord` sampled at every
    step (row 0 is the initial state).  Survival is taken from the raw
    unnormalized propagated state; fidelity from a separately renormalized
    state, so it stays meaningful long after survival underflows.
    """
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    return _propagate(params, _step_entries(params, n, engine, blocks), n)


def _propagate(
    params: SearchParams, entries: Iterable[list], n: int
) -> tuple[np.ndarray, RunRecord]:
    """The one trajectory loop: multiply out the step operators whose entries
    [v00, v01, v10, v11] ``entries`` yields in order, starting from |s>."""
    x = params.x
    # accumulated operator entries
    a, b = 1.0 + 0j, 0j
    c, d = 0j, 1.0 + 0j
    # raw (unnormalized) propagated state: survival source
    rw = complex(x)
    rr = complex(math.sqrt(1.0 - x * x))
    # renormalized state: fidelity source
    pw, pr = rw, rr

    steps = np.arange(n + 1)
    fid = np.empty(n + 1)
    sur = np.empty(n + 1)
    dist = np.empty(n + 1)
    fid[0] = x * x
    sur[0] = 1.0
    dist[0] = 0.0
    underflow = False
    frozen_p = 0.0

    for j, (v00, v01, v10, v11) in enumerate(entries, 1):
        a, b, c, d = (
            v00 * a + v01 * c,
            v00 * b + v01 * d,
            v10 * a + v11 * c,
            v10 * b + v11 * d,
        )
        rw, rr = v00 * rw + v01 * rr, v10 * rw + v11 * rr
        pw, pr = v00 * pw + v01 * pr, v10 * pw + v11 * pr

        p_cond = abs(pw) ** 2 + abs(pr) ** 2
        if p_cond > 0.0:
            scale = 1.0 / math.sqrt(p_cond)
            pw *= scale
            pr *= scale
            fid[j] = abs(pw) ** 2
        else:
            # post-selection annihilated the state; keep the last direction
            underflow = True
            fid[j] = fid[j - 1]

        if underflow:
            sur[j] = frozen_p
        else:
            p_raw = abs(rw) ** 2 + abs(rr) ** 2
            if p_raw < SURVIVAL_FLOOR:
                underflow = True
                sur[j] = frozen_p
            else:
                sur[j] = p_raw
        dist[j] = 1.0 - 0.5 * (
            abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
        )

    V = np.array([[a, b], [c, d]], dtype=complex)
    record = RunRecord(
        params=params,
        steps=steps,
        times=steps * params.delta_t,
        fidelity=fid,
        survival=sur,
        distance=dist,
        underflow=underflow,
        final_state=SubspaceState(pw, pr, sur[-1]),
    )
    return V, record


def run_protocol(
    params: SearchParams,
    n_max: Optional[int] = None,
    engine: str = "exact",
    blocks: Optional[BlockHamiltonians] = None,
) -> RunRecord:
    """Run the full protocol; n_max defaults to the search step count n_G."""
    if n_max is None:
        n_max = params.n_G
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    _, record = accumulate_process(params, n_max, engine=engine, blocks=blocks)
    return record


def final_distance(
    params: SearchParams,
    n: Optional[int] = None,
    blocks: Optional[BlockHamiltonians] = None,
) -> float:
    """Unitarity distance d(V(n)) without trajectory recording (sweep helper).

    Same entries and products as :func:`accumulate_process`, so the result
    equals its last ``distance`` entry bit for bit.
    """
    if n is None:
        n = params.n_G
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    a, b = 1.0 + 0j, 0j
    c, d = 0j, 1.0 + 0j
    for v00, v01, v10, v11 in _step_entries(params, n, "exact", blocks):
        a, b, c, d = (
            v00 * a + v01 * c,
            v00 * b + v01 * d,
            v10 * a + v11 * c,
            v10 * b + v11 * d,
        )
    return 1.0 - 0.5 * (abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2)
