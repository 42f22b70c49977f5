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
ordered product V(n) = V_n ... V_1 and reads from it the survival probability
||V(n)|s>||^2, the fidelity (from the direction of V(n)|s>) and the unitarity
distance of the accumulated operator.

One numpy kernel, :func:`_scan`, multiplies out the steps of every 2x2 engine;
the effective engine feeds it its own step propagators.  Inside chunks of
_CHUNK steps aligned to the step index, prefix products take _CHUNK rounds
vectorised across the chunks (Blelloch, "Prefix sums and their applications",
1990); a carry, the product of all earlier chunks, joins them.  Each product
is a matrix rescaled by a power of two, which is exact, plus an integer
exponent, so deep damping cannot underflow.
"""

from __future__ import annotations

import cmath
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
    """Row-major entries (v00, v01, v10, v11) of V_start, ..., V_{stop-1}, as
    the transpose of a (4, steps) array."""
    phi = 2.0 * params.theta0 + (2 * np.arange(start, stop) - 1) * params.delta_theta
    mean = (0.5 * math.cos(params.delta_theta)) * (P + Q).reshape(4, 1)
    return (mean + (0.5 * (P - Q)).reshape(4, 1) * np.cos(phi)).T


#: steps per vectorised block of cycle entries; bounds memory for any n
_BLOCK_STEPS = 1 << 14


def _step_entries(
    params: SearchParams, n: int, engine: str, blocks: Optional[BlockHamiltonians]
) -> Iterator[np.ndarray]:
    """Entries (v00, v01, v10, v11) of V_1, ..., V_n in order, as (k, 4)
    arrays of at most _BLOCK_STEPS steps."""
    P, Q = _engine_matrices(params, engine, blocks)
    return (
        _cycle_entries(params, P, Q, s, min(s + _BLOCK_STEPS, n + 1))
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


def accumulate_process(
    params: SearchParams,
    n: int,
    engine: str = "exact",
    blocks: Optional[BlockHamiltonians] = None,
) -> tuple[np.ndarray, RunRecord]:
    """Accumulate V(n) = V_n ... V_1 and record the full trajectory.

    Returns the accumulated operator and a :class:`RunRecord` sampled at every
    step (row 0 is the initial state).  Survival is the squared norm of the
    propagated state; fidelity is read from its direction, which the kernel
    keeps rescaled, so it stays meaningful long after survival underflows.
    """
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    return _propagate(params, _step_entries(params, n, engine, blocks), n)


#: steps per chunk of the product kernel; chunk c holds steps cL+1, ..., (c+1)L
_CHUNK = 64

#: prefixes are rescaled every _RESCALE steps; the square of a product of
#: fewer steps underflows only if its steps average below 1e-22 in size
_RESCALE = 8


def _batches(entries: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Regroup (k, 4) entry blocks into batches of whole chunks aligned to the
    step index; identity steps, which multiply exactly, pad the last chunk."""
    rows = np.empty((0, 4), dtype=complex)
    for block in entries:
        cut = len(rows) - len(rows) % _CHUNK
        if cut:
            yield rows[:cut]
        rows = np.concatenate([rows[cut:], block]) if len(rows) > cut else block
    yield np.concatenate([rows, np.tile(np.eye(2).ravel(), (-len(rows) % _CHUNK, 1))])


def _rescale(m: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Divide each matrix of m (2, 2, c) in place by 2^de, de the binary
    exponent of its largest entry modulus, and return e + de."""
    de = np.maximum(np.frexp(np.abs(m).reshape(4, -1).max(axis=0))[1], -1022)
    m *= np.ldexp(1.0, -de)
    return e + de


def _scan(entries: Iterable[np.ndarray], record: bool) -> Iterator[tuple]:
    """The product kernel of every 2x2 engine.  For each batch of c chunks,
    yield V(j) = W 2^g (W of shape (i, 2, 2, c), g of shape (i, c)) after
    every step (i = _CHUNK) if ``record``, else after each chunk (i = 1).

    The prefix products inside the chunks take _CHUNK rounds vectorised
    across the chunks.  The carry k 2^b, the product of all earlier chunks,
    passes from chunk to chunk and multiplies the prefixes in one broadcast."""
    k0, k1, k2, k3, b = 1.0 + 0j, 0j, 0j, 1.0 + 0j, 0
    for rows in _batches(entries):
        # M[i] overwrites the step entries V_i with the prefix that ends there
        M = rows.reshape(-1, _CHUNK, 2, 2).transpose(1, 2, 3, 0).copy()
        E = np.zeros((_CHUNK, M.shape[-1]), dtype=np.int64)
        for i in range(1, _CHUNK):
            m = np.add(M[i, :, :1] * M[i - 1, :1], M[i, :, 1:] * M[i - 1, 1:], out=M[i])
            E[i] = _rescale(m, E[i - 1]) if i % _RESCALE == _RESCALE - 1 else E[i - 1]
        K, B = [], []
        for (t0, t1, t2, t3), a in zip(M[-1].reshape(4, -1).T.tolist(), E[-1].tolist()):
            K.append((k0, k1, k2, k3))
            B.append(b)
            k0, k1, k2, k3 = (
                t0 * k0 + t1 * k2,
                t0 * k1 + t1 * k3,
                t2 * k0 + t3 * k2,
                t2 * k1 + t3 * k3,
            )
            e = max(math.frexp(abs(k0) + abs(k1) + abs(k2) + abs(k3))[1], -1022)
            f, b = math.ldexp(1.0, -e), b + a + e
            k0, k1, k2, k3 = k0 * f, k1 * f, k2 * f, k3 * f
        K = np.array(K).T.reshape(2, 2, -1)
        M, E = (M, E) if record else (M[-1:], E[-1:])
        yield M[:, :, :1] * K[:1] + M[:, :, 1:] * K[1:], E + np.array(B)


def _distance(W: np.ndarray, g: np.ndarray) -> np.ndarray:
    """1 - ||V||_F^2 / 2 for V = W 2^g as yielded by :func:`_scan`."""
    sq = W.real**2 + W.imag**2
    frob = (sq[:, 0, 0] + sq[:, 0, 1]) + (sq[:, 1, 0] + sq[:, 1, 1])
    return 1.0 - 0.5 * np.ldexp(frob, 2 * g)


def _propagate(
    params: SearchParams, entries: Iterable[np.ndarray], n: int
) -> tuple[np.ndarray, RunRecord]:
    """Multiply out the steps whose (k, 4) entry blocks ``entries`` yields, and
    record V(j)|s> at every step: survival is its squared norm, frozen at 0
    from the first step below SURVIVAL_FLOOR or annihilated exactly; fidelity
    is read from its direction, and holds after an exact annihilation."""
    x = params.x
    steps = np.arange(n + 1)
    fid, sur, dist = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    fid[0], sur[0], dist[0] = x * x, 1.0, 0.0
    j = 1
    with np.errstate(invalid="ignore"):
        for W, g in _scan(entries, record=True):
            psi = W[:, :, 0] * x + W[:, :, 1] * math.sqrt(1.0 - x * x)
            amp = psi.real**2 + psi.imag**2
            norm = amp[:, 0] + amp[:, 1]
            k = min(norm.size, n + 1 - j)
            dist[j : j + k] = _distance(W, g).T.ravel()[:k]
            sur[j : j + k] = np.ldexp(norm, 2 * g).T.ravel()[:k]
            fid[j : j + k] = (amp[:, 0] / norm).T.ravel()[:k]  # nan: annihilated
            j += k
    c, i = divmod(k - 1, _CHUNK)  # step n is step i of chunk c of the last batch
    V = W[i, :, :, c] * np.ldexp(1.0, g[i, c])
    state = psi[i, :, c] / (math.sqrt(norm[i, c]) if norm[i, c] > 0.0 else 1.0)
    annihilated = np.isnan(fid)
    dead = annihilated | (sur < SURVIVAL_FLOOR)
    if dead.any():
        sur[np.argmax(dead) :] = 0.0
        fid = fid[np.maximum.accumulate(np.where(annihilated, 0, steps))]
    record = RunRecord(
        params=params,
        steps=steps,
        times=steps * params.delta_t,
        fidelity=fid,
        survival=sur,
        distance=dist,
        underflow=bool(dead.any()),
        final_state=SubspaceState(complex(state[0]), complex(state[1]), sur[-1]),
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
    for W, g in _scan(_step_entries(params, n, "exact", blocks), record=False):
        pass  # the last chunk of the last batch ends at step n
    return float(_distance(W[..., -1:], g[..., -1:])[0, 0])
