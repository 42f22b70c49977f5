"""Exact stroboscopic simulation of the measurement-interrupted search.

The joint (ancilla x database) evolution is block diagonal in the ancilla
basis, so one evolve-and-project cycle acts on the two-dimensional search
subspace spanned by the target |w> and the residual |r> as

    V_j = C_j P + S_j Q,
    C_j = cos(theta_{j-1}) cos(theta_j),  S_j = sin(theta_{j-1}) sin(theta_j),

with (P, Q) a fixed matrix pair per engine: the block propagators
(exp(-i h_up dt), exp(-i h_dn dt)) of the two ancilla blocks for the exact
engine, the small-overlap matrices for the approximate one.  The block
propagators and the effective engine's substep exponentials are one closed
form, :func:`_expm_2x2` of a generator's trace part and traceless entries.
``verify --inject-fault hdown-sign`` runs the suite against the exact engine
with Q = P (its down block's driving term left unflipped), and must fail.
Since C_j + S_j = cos(dtheta) and C_j - S_j = cos(theta_{j-1} + theta_j),

    V_j = cos(dtheta) (P+Q)/2 + cos(phi_j) (P-Q)/2,
    phi_j = 2 theta_0 + (2j-1) dtheta,

which is two fixed matrices and one cosine array.  The engine accumulates the
ordered product V(n) = V_n ... V_1 and reads from it the survival probability
||V(n)|s>||^2, the fidelity (from the direction of V(n)|s>) and the unitarity
distance of the accumulated operator; a run whose P or d overflows raises.

The engine is a value: :func:`run_protocol` runs and records, and
:func:`step_operator` returns one step of, any engine of :data:`ENGINES` or
:data:`FAULTS`; :func:`final_readout` reads (f, P, d) of the exact engine
without a record, for the sweeps.  A run takes at most 2**52 steps, as phi_j
takes 2j - 1 to a double.  One
numpy kernel, :func:`_scan`, multiplies out the steps of every 2x2 engine,
the effective one included.  An engine enters through its step source,
``fill(j, out)``, which writes V_j for every index of an integer array j of
steps 1, ..., n into ``out`` of shape (2, 2, *j.shape); :func:`_step_source`
is the one place that turns an engine name into a step source.  Inside chunks of
_CHUNK steps, prefix products take _CHUNK - 1 rounds vectorised across the
chunks (Blelloch, "Prefix sums and their applications", 1990); a carry, the
product of all earlier chunks, joins them.  Each product is a matrix rescaled
by a power of two, which is exact, plus an integer exponent, so deep damping
cannot underflow.  The kernel holds one step buffer of at most _BLOCK_STEPS
steps per run, which the sources write and the products overwrite in place,
so memory does not grow with the run length.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Iterator, Optional

import numpy as np

from .model import SURVIVAL_FLOOR, RunRecord, SearchParams

__all__ = [
    "ENGINES",
    "FAULTS",
    "step_operator",
    "distance_from_unitarity",
    "run_protocol",
    "final_readout",
]


#: the engines that run a protocol; :func:`_step_source` defines them
ENGINES = ("exact", "approx", "effective")

#: the named faults of the exact engine, defined there too
FAULTS = ("hdown-sign",)


def _expm_2x2(a, t00, t01, w, t: float) -> np.ndarray:
    """exp(-i t (a I + T)) for T = [[t00, t01], [t01, -t00]] and w^2 = t00^2 +
    t01^2, the one 2x2 exponential of the engines.  Since T^2 = w^2 I,

        exp(-i t (a I + T)) = e^{-iat} (cos(wt) I - i sin(wt)/w T),

    with sin(wt)/w through sinc, exact at w = 0.  The entries may be complex
    scalars or arrays of one shape S; the result has shape (2, 2, *S).  The
    caller supplies w, so it can compute it from the small quantities."""
    cw, sinc = np.cos(w * t), t * np.sinc(w * t / math.pi)
    diag, off = 1j * sinc * t00, -1j * sinc * t01
    return np.exp(-1j * a * t) * np.array([[cw - diag, off], [off, cw + diag]])


#: steps per chunk of the product kernel; chunk c holds steps cL+1, ..., (c+1)L
_CHUNK = 64

#: steps per batch of the product kernel, in whole chunks (at least one): its
#: step buffer holds that many steps, which bounds memory for any n
_BLOCK_STEPS = 1 << 14

#: a step source: ``fill(j, out)`` writes V_j for every index of the integer
#: array j into ``out`` of shape (2, 2, *j.shape); j holds only steps 1, ..., n
StepSource = Callable[[np.ndarray, np.ndarray], None]


def _step_source(params: SearchParams, engine: str) -> StepSource:
    """The steps of ``engine``, one of :data:`ENGINES` or :data:`FAULTS`, as
    a step source: the only place that turns an engine name into steps.

    The effective engine's steps come from its integrator.  Every other
    engine is a fixed pair (P, Q), and its steps are V_j = cos(dtheta) (P+Q)/2
    + cos(phi_j) (P-Q)/2: the block propagators for ``exact``, Q = P for its
    fault ``hdown-sign``, and for ``approx`` the small-overlap steps (x -> 0,
    x dt << 1, global phase dropped; the regime is the caller's to keep) with
    diagonal (C_j + S_j, C_j + S_j e^{-2i dt}) and both off-diagonal entries
    i C_j x dt - (S_j x / 2)(1 - e^{-2i dt})."""
    if engine == "effective":
        from .effective import _effective_source  # exact runs never load it

        return _effective_source(params)
    if engine in ("exact", *FAULTS):
        x = params.x
        c = math.sqrt(1.0 - x * x)  # |s> = x|w> + c|r>

        def block(sign: float) -> np.ndarray:
            # exp(-i h dt) of the block h = -(1+eps)|w><w| + sign |s><s| of
            # ancilla up (sign = -1) or down (+1): the driving terms cancel in the sum
            h00, h11 = -(1.0 + params.epsilon) + sign * x * x, sign * c * c
            a = 0.5 * (h00 + h11)
            t00, t01 = h00 - a, sign * x * c
            return _expm_2x2(a, t00, t01, math.hypot(t00, abs(t01)), params.delta_t)

        P = block(-1.0)
        Q = P if engine == "hdown-sign" else block(1.0)
    elif engine == "approx":
        if params.epsilon != 0.0:
            raise ValueError(
                f"the approx engine has no detuning term, got eps={params.epsilon!r}"
            )
        x, dt = params.x, params.delta_t
        damp = cmath.exp(-2j * dt)
        ixdt = 1j * x * dt
        off = 0.5 * x * (1.0 - damp)
        P = np.array([[1.0, ixdt], [ixdt, 1.0]], dtype=complex)
        Q = np.array([[1.0, -off], [-off, damp]], dtype=complex)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    mean = (0.5 * math.cos(params.delta_theta)) * (P + Q)
    half = 0.5 * (P - Q)

    def fill(j: np.ndarray, out: np.ndarray) -> None:
        phi = 2.0 * params.theta0 + (2 * j - 1) * params.delta_theta
        shape = (2, 2) + (1,) * j.ndim
        np.multiply(half.reshape(shape), np.cos(phi), out=out)
        np.add(mean.reshape(shape), out, out=out)

    return fill


def step_operator(j: int, params: SearchParams, engine: str = "exact") -> np.ndarray:
    """The cycle operator V_j of ``engine`` (of :data:`ENGINES` or :data:`FAULTS`)
    as a 2x2 matrix; for ``exact``, V_j = C_j exp(-i h_up dt) + S_j exp(-i h_dn dt)."""
    if j < 1:
        raise ValueError(f"step index must be >= 1, got {j}")
    V = np.empty((2, 2), dtype=complex)
    _step_source(params, engine)(np.array(j), V)
    return V


#: prefixes are rescaled every _RESCALE steps; the square of a product of
#: fewer steps underflows only if its steps average below 1e-22 in size
_RESCALE = 8


def _rescale(m: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Divide each matrix of m (2, 2, c) in place by 2^de, de the binary
    exponent of its largest entry modulus, and return e + de."""
    de = np.maximum(np.frexp(np.abs(m).reshape(4, -1).max(axis=0))[1], -1022)
    m *= np.ldexp(1.0, -de)
    return e + de


def _times_carry(M: np.ndarray, K: np.ndarray, t0: np.ndarray, t1: np.ndarray) -> None:
    """M[i] <- M[i] K for every i of M (i, 2, 2, c), in place, with the
    products and sums of ``M[:, :, :1] * K[:1] + M[:, :, 1:] * K[1:]``;
    t0 and t1 are scratch of the shape of M[:, 0, 0]."""
    for r in (0, 1):
        a, b = M[:, r, 0], M[:, r, 1]
        np.multiply(a, K[0, 1], out=t0)
        np.multiply(b, K[1, 1], out=t1)
        np.add(t0, t1, out=t1)  # the new entry (r, 1)
        np.multiply(a, K[0, 0], out=t0)
        np.multiply(b, K[1, 0], out=b)
        np.add(t0, b, out=a)  # the new entry (r, 0)
        b[...] = t1


def _scan(fill: StepSource, n: int, record: bool) -> Iterator[tuple]:
    """The product kernel of every 2x2 engine, over the steps 1, ..., n that
    ``fill`` writes.  For each batch of c chunks, yield V(j) = W 2^g, W of
    shape (2, 2, c, i) and g of shape (c, i), after every step (i = _CHUNK)
    if ``record`` or in the last batch, else after each chunk (i = 1); the
    trailing axes flatten, in C order, to step order, padded past n.  W is
    a view of the step buffer, valid until the next batch is drawn.  The
    last batch is whole so that V(n) comes out of the same array operations
    either way: numpy may round a complex product of one element otherwise.

    The buffer M holds step j of the batch at M[i, :, :, c'], j = first +
    _CHUNK c' + i; the prefix products inside the chunks take _CHUNK - 1
    rounds vectorised across the chunks.  The carry k 2^b, the product of
    all earlier chunks, passes from chunk to chunk and multiplies the
    prefixes in place."""
    k0, k1, k2, k3, b = 1.0 + 0j, 0j, 0j, 1.0 + 0j, 0
    width = _CHUNK * min(max(1, _BLOCK_STEPS // _CHUNK), -(-n // _CHUNK))
    buf = np.empty(4 * width, dtype=complex)
    for first in range(1, n + 1, width):
        whole, part = divmod(min(width, n + 1 - first), _CHUNK)
        c = whole + (part > 0)
        # M[i] holds the step entries V_i, then the prefix that ends there
        M = buf[: 4 * _CHUNK * c].reshape(_CHUNK, 2, 2, c)
        j = np.arange(first, first + _CHUNK * c).reshape(c, _CHUNK).T
        out = M.transpose(1, 2, 0, 3)
        fill(j[:, :whole], out[..., :whole])
        if part:  # a short last chunk, padded with identities, which multiply exactly
            fill(j[:part, whole], out[:, :, :part, whole])
            M[part:, :, :, whole] = np.eye(2)
        E = np.zeros((_CHUNK, c), dtype=np.int64)
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
        if not (record or first + width > n):
            M, E = M[-1:], E[-1:]
        _times_carry(M, K, *np.empty((2, *E.shape), dtype=complex))
        yield M.transpose(1, 2, 3, 0), (E + np.array(B)).T


def _sq(z: np.ndarray) -> np.ndarray:
    """|z|^2 entrywise, as re^2 + im^2."""
    return z.real**2 + z.imag**2


def _distance(W: np.ndarray, g: np.ndarray) -> np.ndarray:
    """1 - ||V||_F^2 / 2 for V = W 2^g as yielded by :func:`_scan`."""
    frob = (_sq(W[0, 0]) + _sq(W[0, 1])) + (_sq(W[1, 0]) + _sq(W[1, 1]))
    return 1.0 - 0.5 * np.ldexp(frob, 2 * g)


def distance_from_unitarity(V: np.ndarray) -> float:
    """d(V) = 1 - Tr(V^dag V)/2: zero for unitary V, 1 - |c|^2 for c*U; the
    ``distance`` column of a run records d(V(j))."""
    return float(_distance(np.asarray(V), 0))


def _readout(params: SearchParams, W: np.ndarray, g: np.ndarray) -> tuple:
    """(f, P) of V|s> for V = W 2^g as yielded by :func:`_scan`, for a record
    and for :func:`final_readout`: P is its squared norm and f is read from
    its direction, nan where V|s> = 0 (see :meth:`RunRecord.from_series`)."""
    x = params.x
    r = math.sqrt(1.0 - x * x)  # |s> = x|w> + r|r>
    amp0 = _sq(W[0, 0] * x + W[0, 1] * r)  # the squared moduli of its two entries
    norm = amp0 + _sq(W[1, 0] * x + W[1, 1] * r)
    return amp0 / norm, np.ldexp(norm, 2 * g)


def _propagate(params: SearchParams, fill: StepSource, n: int) -> tuple[np.ndarray, RunRecord]:
    """Multiply out the steps 1, ..., n that ``fill`` writes, and record
    f, P (:func:`_readout`) and d(V(j)) at every step."""
    fid, sur, dist = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    fid[0], sur[0], dist[0] = params.x * params.x, 1.0, 0.0
    j = 1
    with np.errstate(invalid="ignore", over="ignore"):
        for W, g in _scan(fill, n, record=True):
            k = min(g.size, n + 1 - j)
            dist[j : j + k] = _distance(W, g).ravel()[:k]
            f, P = _readout(params, W, g)
            fid[j : j + k], sur[j : j + k] = f.ravel()[:k], P.ravel()[:k]
            j += k
    over = np.flatnonzero(np.isinf(sur) | np.isinf(dist))  # P <= ||V||_F^2: d goes first
    if over.size:
        raise ValueError(f"P or d overflows from step {over[0]} on: outside the engine's regime")
    last = np.unravel_index(k - 1, g.shape)  # step n
    V = W[(...,) + last] * np.ldexp(1.0, g[last])
    return V, RunRecord.from_series(params, fid, sur, np.isnan(fid), dist)


def run_protocol(
    params: SearchParams, n_max: Optional[int] = None, engine: str = "exact"
) -> RunRecord:
    """Run ``engine`` (of :data:`ENGINES` or :data:`FAULTS`) for n_max steps,
    by default n_G, and record every step, row 0 the initial state.  f stays
    meaningful long after P underflows: the kernel keeps V(j) rescaled."""
    n = params.step_count(n_max)
    return _propagate(params, _step_source(params, engine), n)[1]


def final_readout(params: SearchParams, n: Optional[int] = None) -> tuple[float, float, float]:
    """(f, P, d) of the exact engine after n steps, by default n_G, without a
    record: the products and formulas of :func:`run_protocol`, so it equals
    the record's last row bit for bit.  The exact engine's P never rises, so
    P below the survival floor reads 0, as it does there; f reads nan where
    V(n)|s> = 0 exactly, where the record holds its last direction."""
    n = params.step_count(n)
    for W, g in _scan(_step_source(params, "exact"), n, record=False):
        pass  # the last product of the last batch is V(n)
    W, g = W[..., -1, -1], g[-1, -1]
    with np.errstate(invalid="ignore"):
        f, P = _readout(params, W, g)
    return float(f), 0.0 if P < SURVIVAL_FLOOR else float(P), float(_distance(W, g))
