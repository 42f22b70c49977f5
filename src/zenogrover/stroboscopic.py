"""Exact stroboscopic simulation of the measurement-interrupted search.

The joint (ancilla x database) evolution is block diagonal in the ancilla
basis, so one evolve-and-project cycle acts on the two-dimensional search
subspace spanned by the target |w> and the residual |r> as

    V_j = C_j P + S_j Q,
    C_j = cos(theta_{j-1}) cos(theta_j),  S_j = sin(theta_{j-1}) sin(theta_j),

with (P, Q) the block propagators (exp(-i h_up dt), exp(-i h_dn dt)) of the
two ancilla blocks.  They and the effective engine's substep exponentials
are one closed form, :func:`_expm_2x2` of a generator's trace part and
traceless entries.
``verify --inject-fault hdown-sign`` runs the suite against the exact engine
with Q = P (its down block's driving term left unflipped), and must fail.
Since C_j + S_j = cos(dtheta) and C_j - S_j = cos(theta_{j-1} + theta_j),

    V_j = cos(dtheta) (P+Q)/2 + cos(phi_j) (P-Q)/2,
    phi_j = 2 theta_0 + (2j-1) dtheta,

which is two fixed matrices and one cosine array.  The engine accumulates the
ordered product V(n) = V_n ... V_1 and reads from it the survival probability
||V(n)|s>||^2, the fidelity (from the direction of V(n)|s>) and the unitarity
distance of the accumulated operator.

The engine is a value: :func:`run_protocol` runs and records, and
:func:`step_operator` returns one step of, any engine of :data:`ENGINES` or
:data:`FAULTS`; :func:`final_readout` reads (f, P, d) of the exact engine
without a record, for the sweeps.  A run takes at most 2**52 steps, as phi_j
takes 2j - 1 to a double.  One numpy kernel, :func:`_scan`, multiplies out
the steps of every 2x2 engine, the effective one included, for many runs at
once, and one reader, :func:`_read`, reads records and final readouts from
it: ``verify`` hands it the subspace side of a group of cases, each sweep
its grid, and a single run is a batch of one.  An engine enters through its
step source, ``fill(j, out)``, which writes V_j for every index of an integer
array j of steps 1, ..., n into ``out`` of shape (2, 2, *j.shape);
:func:`_step_source` is the one place that turns an engine name into a step
source.  Inside chunks of _CHUNK steps, prefix products take
_CHUNK - 1 rounds vectorised across the chunks of all the runs side by side
(Blelloch, "Prefix sums and their applications", 1990); a carry per run, the
product of its earlier chunks, joins them.  The rounds are elementwise over
the chunks, so a run's products do not depend on its neighbours.  Each
product is a matrix rescaled by a power of two, which is exact, plus an
integer exponent, so deep damping cannot underflow.  The kernel holds one
step buffer of at most _BLOCK_STEPS steps per call, which the sources write
and the products overwrite in place, so memory does not grow with the run
length or the number of runs.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .model import SURVIVAL_FLOOR, RunRecord, SearchParams, parallel_map

__all__ = [
    "ENGINES",
    "FAULTS",
    "step_operator",
    "distance_from_unitarity",
    "run_protocol",
    "final_readout",
]


#: the engines that run a protocol; :func:`_step_source` defines them
ENGINES = ("exact", "effective")

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

    The effective engine's steps come from its integrator.  The exact engine
    is the pair (P, Q) of block propagators, and its steps are V_j =
    cos(dtheta) (P+Q)/2 + cos(phi_j) (P-Q)/2; its fault ``hdown-sign`` takes
    Q = P."""
    if engine == "effective":
        from .effective import _effective_source  # exact runs never load it

        return _effective_source(params)
    if engine not in ("exact", *FAULTS):
        raise ValueError(f"unknown engine {engine!r}")
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


def _scan(runs: Sequence[tuple[StepSource, int]], record: bool) -> Iterator[tuple]:
    """The product kernel of every 2x2 engine, over the steps 1, ..., n of
    each run (fill, n) of ``runs``, in one pass: the runs' chunks lie side by
    side along the chunk axis, run after run.  For each batch of c chunks,
    yield (W, g, spans) with V(j) = W 2^g, W of shape (2, 2, c, _CHUNK) and g
    of shape (c, _CHUNK), and a span (r, lo, hi, first) for each run r with
    chunks in the batch: its products from step ``first`` on lie in the
    columns lo:hi and flatten, in C order, to step order, padded past n.
    If ``record`` is false, the batch holds only the last chunk of each run
    that ends in it, one column each.  W is a view of the step buffer, valid
    until the next batch is drawn.  A last chunk is multiplied out whole in
    either mode, so V(n) comes out of the same array operations: numpy may
    round a complex product of one element otherwise.

    The buffer M holds step j of a run at M[i, :, :, c'], with i = (j - 1)
    mod _CHUNK; the prefix products inside the chunks take _CHUNK - 1 rounds
    vectorised across the chunks of all runs.  The carry k 2^b, the product
    of a run's earlier chunks, restarts at its first chunk, passes from
    chunk to chunk, across batches too, and multiplies the prefixes in
    place."""
    starts = np.cumsum([0] + [-(-n // _CHUNK) for _, n in runs]).tolist()  # first chunks
    width = max(1, min(_BLOCK_STEPS // _CHUNK, starts[-1]))
    buf = np.empty(4 * _CHUNK * width, dtype=complex)
    r = 0  # the run of the batch's first chunk
    for q in range(0, starts[-1], width):
        c = min(width, starts[-1] - q)
        # M[i] holds the step entries V_i, then the prefix that ends there
        M = buf[: 4 * _CHUNK * c].reshape(_CHUNK, 2, 2, c)
        out = M.transpose(1, 2, 0, 3)
        spans = []
        while r < len(runs) and starts[r] < q + c:
            fill, n = runs[r]
            lo, hi = max(starts[r], q) - q, min(starts[r + 1], q + c) - q
            first = 1 + _CHUNK * (q + lo - starts[r])
            spans.append((r, lo, hi, first))
            j = np.arange(first, first + _CHUNK * (hi - lo)).reshape(hi - lo, _CHUNK).T
            whole, part = divmod(min(n + 1 - first, _CHUNK * (hi - lo)), _CHUNK)
            fill(j[:, :whole], out[..., lo : lo + whole])
            if part:  # a short last chunk, padded with identities, which multiply exactly
                fill(j[:part, whole], out[:, :, :part, lo + whole])
                M[part:, :, :, lo + whole] = np.eye(2)
            if starts[r + 1] > q + c:
                break  # the run goes on in the next batch
            r += 1
        E = np.zeros((_CHUNK, c), dtype=np.int64)
        for i in range(1, _CHUNK):
            m = np.add(M[i, :, :1] * M[i - 1, :1], M[i, :, 1:] * M[i - 1, 1:], out=M[i])
            E[i] = _rescale(m, E[i - 1]) if i % _RESCALE == _RESCALE - 1 else E[i - 1]
        heads = {starts[s] - q for s, *_ in spans}
        K, B = [], []
        for col, ((t0, t1, t2, t3), a) in enumerate(
            zip(M[-1].reshape(4, -1).T.tolist(), E[-1].tolist())
        ):
            if col in heads:
                k0, k1, k2, k3, b = 1.0 + 0j, 0j, 0j, 1.0 + 0j, 0
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
        K, B = np.array(K).T.reshape(2, 2, -1), np.array(B)
        if not record:  # the last chunk of each run that ends here
            spans = [span for span in spans if starts[span[0] + 1] <= q + c]
            if not spans:
                continue
            ends = [hi - 1 for _, _, hi, _ in spans]
            M, E, K, B = M[..., ends], E[:, ends], K[..., ends], B[ends]
            spans = [(s, i, i + 1, 1 + _CHUNK * (starts[s + 1] - starts[s] - 1))
                     for i, (s, *_) in enumerate(spans)]
        _times_carry(M, K, *np.empty((2, *E.shape), dtype=complex))
        yield M.transpose(1, 2, 3, 0), (E + B).T, spans


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


def _readout(x, W: np.ndarray, g: np.ndarray) -> tuple:
    """(f, P) of V|s> for V = W 2^g as yielded by :func:`_scan` and the
    overlap x, a number or an array that broadcasts against g, for a record
    and for :func:`final_readout`: P is its squared norm and f is read from
    its direction, nan where V|s> = 0 (see :meth:`RunRecord.from_series`)."""
    r = np.sqrt(1.0 - x * x)  # |s> = x|w> + r|r>
    amp0 = _sq(W[0, 0] * x + W[0, 1] * r)  # the squared moduli of its two entries
    norm = amp0 + _sq(W[1, 0] * x + W[1, 1] * r)
    return amp0 / norm, np.ldexp(norm, 2 * g)


def _read(runs: Sequence[tuple[SearchParams, StepSource, int]], record: bool) -> list:
    """The one reader of :func:`_scan`: for each run (params, fill, n), all in
    one pass, the series (3, n + 1) of f, P (:func:`_readout`) and d
    (:func:`_distance`) at steps 0, ..., n with ``record``, else (f, P, d) at
    step n, read by the same lines from the last row of the run's last chunk
    (identities pad it past step n), so the two agree bit for bit.  No
    finite step has a norm above 1 and an annihilated one reads P = 0, so a
    P that is not finite comes from a step that is not: its run raises."""
    params = [p for p, _, _ in runs]
    out = [np.empty((3, n + 1)) if record else None for _, _, n in runs]
    for p, fpd in zip(params, out if record else ()):  # step 0, the initial state
        fpd[:, 0] = p.x * p.x, 1.0, 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for W, g, spans in _scan([(fill, n) for _, fill, n in runs], record):
            if not record:  # step n alone, not the 63 rows before it
                W, g = W[..., -1:], g[:, -1:]
            x = np.empty((len(g), 1))  # the overlap of each column's run
            for s, lo, hi, _ in spans:
                x[lo:hi] = params[s].x
            f, P = _readout(x, W, g)
            if not np.isfinite(P).all():
                col = np.argmin(np.isfinite(P).all(axis=1))
                p = next(params[s] for s, lo, hi, _ in spans if lo <= col < hi)
                raise ValueError(f"a step overflows to a non-finite operator at N={p.N!r}, "
                                 f"dt={p.delta_t!r}, dtheta={p.delta_theta!r}, eps={p.epsilon!r}")
            d = _distance(W, g)
            for s, lo, hi, first in spans:
                if not record:
                    out[s] = f[lo, -1], P[lo, -1], d[lo, -1]
                    continue
                k = min(_CHUNK * (hi - lo), runs[s][2] + 1 - first)
                for row, col in zip(out[s], (f, P, d)):
                    row[first : first + k] = col[lo:hi].ravel()[:k]
    return out


def _propagate(runs: Sequence[tuple[SearchParams, StepSource, int]]) -> list[RunRecord]:
    """The record of each run (params, fill, n), all in one pass of the
    kernel: f, P and d(V(j)) at every step, as :func:`_read` reads them."""
    return [RunRecord.from_series(p, fid, sur, np.isnan(fid), dist)
            for (p, _, _), (fid, sur, dist) in zip(runs, _read(runs, record=True))]


def _run_protocols(
    params: Sequence[SearchParams], n_max: Optional[int], engine: str
) -> list[RunRecord]:
    """:func:`run_protocol` of each of ``params``, all in one pass of the kernel."""
    runs = [(p, _step_source(p, engine), p.step_count(n_max)) for p in params]
    return _propagate(runs)


def run_protocol(
    params: SearchParams, n_max: Optional[int] = None, engine: str = "exact"
) -> RunRecord:
    """Run ``engine`` (of :data:`ENGINES` or :data:`FAULTS`) for n_max steps,
    by default n_G, and record every step, row 0 the initial state.  f stays
    meaningful long after P underflows: the kernel keeps V(j) rescaled."""
    return _run_protocols([params], n_max, engine)[0]


def _final_readouts(
    params: Sequence[SearchParams], n: Optional[int] = None, jobs: int = 1
) -> list[tuple[float, float, float]]:
    """:func:`final_readout` of each of ``params``, all in one record-free
    pass of :func:`_read`.  With ``jobs > 1``, contiguous slices of them are
    fanned out to worker processes, a pass each; a run's products do not
    depend on its neighbours, so the result does not depend on ``jobs``."""
    size = max(1, -(-len(params) // max(1, jobs)))  # runs per slice
    if size < len(params):
        slices = [params[s : s + size] for s in range(0, len(params), size)]
        return [r for out in parallel_map(partial(_final_readouts, n=n), slices, jobs)
                for r in out]
    runs = [(p, _step_source(p, "exact"), p.step_count(n)) for p in params]
    return [(float(f), 0.0 if P < SURVIVAL_FLOOR else float(P), float(d))
            for f, P, d in _read(runs, record=False)]


def final_readout(params: SearchParams, n: Optional[int] = None) -> tuple[float, float, float]:
    """(f, P, d) of the exact engine after n steps, by default n_G, without a
    record: the reader of :func:`run_protocol` on step n alone, so it equals
    the record's last row bit for bit.  The exact engine's P never rises, so
    P below the survival floor reads 0, as it does there; f reads nan where
    V(n)|s> = 0 exactly, where the record holds its last direction."""
    return _final_readouts([params], n)[0]
