"""Non-Hermitian effective description of the measurement-interrupted search.

Three complementary views of the same dynamics:

* per-step generators extracted from cycle operators through the principal
  matrix logarithm, H = (i/dt) log V_j;
* the continuous-time generator valid for small non-unitarity offset tau,
  whose anti-Hermitian part damps only the residual direction, integrated
  with a fourth-order commutator-free exponential scheme into one propagator
  per protocol step, multiplied out by the stroboscopic chunked product kernel
  (chunk prefixes joined by a power-of-two-normalised carry); and
* the closed-form unitary approximation at tau = 0, where the fidelity is
  sin^2 of an accumulated rotation angle.

The damped two-level model (coupling x, damping gamma on the residual) is the
analytically solvable caricature used to read off the saturation regime; its
biorthogonal eigensystem is exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Union

import numpy as np

from . import stroboscopic
from .model import DampedTwoLevelModel, RunRecord, SearchParams, StepOperator

__all__ = [
    "EffectiveHamiltonian",
    "extract_step_hamiltonian",
    "continuous_heff",
    "integrate_effective",
    "unitary_approx_fidelity",
    "damped_eigenanalysis",
    "damping_rate_estimate",
    "heuristic_regime",
]


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Generator split H = A - iB with A, B Hermitian.

    ``time_label`` is the step midpoint (piecewise-constant extraction) or the
    continuous time the generator was evaluated at.  ``schur_fallback`` marks
    extractions that hit a (near-)defective operator and took the closed-form
    defective logarithm instead of the eigendecomposition route.
    """

    hermitian_part: np.ndarray
    antihermitian_part: np.ndarray
    time_label: float = 0.0
    schur_fallback: bool = False

    @property
    def matrix(self) -> np.ndarray:
        return self.hermitian_part - 1j * self.antihermitian_part


def _split(H: np.ndarray, time_label: float, fallback: bool) -> EffectiveHamiltonian:
    A = 0.5 * (H + H.conj().T)
    B = 0.5j * (H - H.conj().T)
    return EffectiveHamiltonian(
        hermitian_part=A,
        antihermitian_part=B,
        time_label=time_label,
        schur_fallback=fallback,
    )


def extract_step_hamiltonian(
    V: Union[StepOperator, np.ndarray],
    delta_t: float,
    time_label: Optional[float] = None,
) -> EffectiveHamiltonian:
    """Invert V = exp(-i H dt) on the principal branch: H = (i/dt) log V.

    The logarithm is taken through the eigendecomposition of the (generally
    non-normal) 2x2 operator.  A singular operator is rejected.  A defective
    one within tolerance is flagged and takes the closed form
    log V = log(mu) I + (V - mu I)/mu with mu = tr(V)/2, exact when
    (V - mu I)^2 = 0 (Higham, Functions of Matrices, 2008, ch. 11); at an
    eigenvalue split delta the error is O((delta/mu)^2).  Note the extracted
    generator is only defined modulo 2*pi/dt in its eigenphases; compare
    dynamics, not raw entries, across branches.
    """
    if isinstance(V, StepOperator):
        if time_label is None:
            time_label = (V.step_index - 0.5) * delta_t
        V = V.matrix
    V = np.asarray(V, dtype=complex)
    if time_label is None:
        time_label = 0.0

    sv = np.linalg.svd(V, compute_uv=False)
    if sv[-1] <= 1e-14:
        raise ValueError("step operator not invertible")

    lam, Wv = np.linalg.eig(V)
    scale = max(abs(lam[0]), abs(lam[1]))
    # defective within tolerance: eigenvalues collide but V is not scalar
    if abs(lam[0] - lam[1]) <= 1e-9 * scale and not np.allclose(
        V, lam[0] * np.eye(2), atol=1e-12 * scale
    ):
        mu = 0.5 * (V[0, 0] + V[1, 1])
        logV = cmath.log(mu) * np.eye(2) + (V - mu * np.eye(2)) / mu
        return _split((1j / delta_t) * logV, time_label, True)

    logV = (Wv * np.log(lam)) @ np.linalg.inv(Wv)
    return _split((1j / delta_t) * logV, time_label, False)


def _generator(params: SearchParams, t: Union[float, np.ndarray]) -> tuple:
    """Entries (h01, h11) of the continuous generator at the times ``t``;
    h00 = -eps and h10 = h01."""
    axt = params.alpha * params.x * t
    c2 = np.cos(axt) ** 2
    s2 = np.sin(axt) ** 2
    tau, dt = params.tau, params.delta_t
    return -params.x * c2, 2.0 * (tau / dt) * s2 - 2j * (tau * tau / dt) * s2


def continuous_heff(t: float, params: SearchParams) -> EffectiveHamiltonian:
    """Continuous generator for |tau| << 1, in the (|w>, |r>) basis:

        H(t) = -x cos^2(a x t) (|w><r| + |r><w|)
               + (2 tau/dt) sin^2(a x t) |r><r|
               - i (2 tau^2/dt) sin^2(a x t) |r><r|
               - eps |w><w|,

    with a x = dtheta/dt.  For tau = 0 the generator is Hermitian.
    """
    h01, h11 = _generator(params, t)
    A = np.array([[-params.epsilon, h01], [h01, h11.real]], dtype=complex)
    B = np.array([[0.0, 0.0], [0.0, -h11.imag]], dtype=complex)
    return EffectiveHamiltonian(hermitian_part=A, antihermitian_part=B, time_label=t)


def _default_substeps(params: SearchParams) -> int:
    """Substeps per protocol step so that h <= min(dt, 1/(50 a x),
    0.1 dt / (1 + 2 tau^2/dt))."""
    dt = params.delta_t
    h_max = 0.1 * dt / (1.0 + 2.0 * params.tau**2 / dt)  # always below dt
    ax = params.alpha * params.x
    if ax > 0:
        h_max = min(h_max, 1.0 / (50.0 * ax))
    return max(1, int(math.ceil(dt / h_max)))


def _expm_symmetric(h00, h01, h11, h: float) -> np.ndarray:
    """exp(-i h [[h00, h01], [h01, h11]]) for entry arrays of length K, as
    shape (K, 2, 2).  With -i h H = a I + T, T traceless and T^2 = w^2 I,
    the exponential is e^a (cosh w I + sinh(w)/w T)."""
    a = -0.5j * h * (h00 + h11)
    t00 = -0.5j * h * (h00 - h11)
    t01 = -1j * h * h01
    w = np.sqrt(t00 * t00 + t01 * t01)  # cosh and sinh(w)/w are even in w
    ea = np.exp(a)
    ch = ea * np.cosh(w)
    sh = ea * np.sinc(1j * w / math.pi)  # sinh(w)/w, exact at w = 0
    entries = [ch + sh * t00, sh * t01, sh * t01, ch - sh * t00]
    return np.stack(entries, -1).reshape(-1, 2, 2)


def _ordered_product(F: np.ndarray) -> np.ndarray:
    """F[:, K-1] ... F[:, 1] F[:, 0] for factors of shape (steps, K, 2, 2),
    multiplied out pairwise in ceil(log2 K) rounds."""
    while F.shape[1] > 1:
        even = 2 * (F.shape[1] // 2)
        L, R = F[:, 1:even:2], F[:, 0:even:2]
        LR = L[..., :1] * R[..., :1, :] + L[..., 1:] * R[..., 1:, :]
        F = np.concatenate([LR, F[:, even:]], axis=1)
    return F[:, 0]


def _effective_entries(params: SearchParams, n: int) -> Iterator[np.ndarray]:
    """Entries (v00, v01, v10, v11) of the propagators of protocol steps
    1, ..., n under the continuous generator, in order, as (k, 4) arrays.

    Each step is m = _default_substeps(params) substeps of the fourth-order
    commutator-free scheme: exp(h(w2 A1 + w1 A2)), then exp(h(w1 A1 + w2 A2)),
    with A = -iH at the Gauss nodes 1/2 -+ sqrt(3)/6 of the substep and
    w = 1/4 -+ sqrt(3)/6 (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
    (2009); Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)).  Blocks
    hold at most stroboscopic._BLOCK_STEPS substeps.
    """
    m = _default_substeps(params)
    h = params.delta_t / m
    r3 = math.sqrt(3.0) / 6.0
    w1, w2 = 0.25 - r3, 0.25 + r3
    per_block = max(1, stroboscopic._BLOCK_STEPS // m)
    for first in range(0, n, per_block):
        count = min(per_block, n - first)
        k = np.arange(first * m, (first + count) * m)
        (p1, q1), (p2, q2) = (
            _generator(params, (k + c) * h) for c in (0.5 - r3, 0.5 + r3)
        )
        early, late = (  # h00 = -eps at both nodes, and w1 + w2 = 1/2
            _expm_symmetric(-0.5 * params.epsilon, u * p1 + v * p2, u * q1 + v * q2, h)
            for u, v in ((w2, w1), (w1, w2))
        )
        factors = np.stack([early, late], 1).reshape(count, 2 * m, 2, 2)
        yield _ordered_product(factors).reshape(count, 4)


def integrate_effective(
    params: SearchParams, t_final: Optional[float] = None
) -> RunRecord:
    """Propagate |s> under the continuous generator and record f(t), P(t)
    at every protocol step up to t_final (default: the readout time).

    The step propagators come from :func:`_effective_entries` and run through
    the same product kernel as the stroboscopic engines, so survival is the
    squared norm of the propagated state (frozen at 0 below SURVIVAL_FLOOR)
    and fidelity comes from its direction.  The engine tracks no unitarity
    distance; that column is NaN.
    """
    if t_final is None:
        t_final = params.readout_time()
    if not t_final > 0:
        raise ValueError(f"t_final must be positive, got {t_final!r}")
    n = max(1, int(round(t_final / params.delta_t)))
    _, record = stroboscopic._propagate(params, _effective_entries(params, n), n)
    return replace(record, distance=np.full(n + 1, np.nan))


def unitary_approx_fidelity(n: int, params: SearchParams) -> float:
    """Closed-form fidelity of the tau = 0 process:

        f(n) = sin^2(A(n)),  A(n) = (x dt / 2) (n + sin(2 n dtheta)/(2 dtheta)),

    with the dtheta -> 0 limit sin(2 n dtheta)/(2 dtheta) -> n taken
    analytically below 1e-12.
    """
    dtheta = params.delta_theta
    if abs(dtheta) < 1e-12:
        osc = float(n)
    else:
        osc = math.sin(2.0 * n * dtheta) / (2.0 * dtheta)
    A = 0.5 * params.x * params.delta_t * (n + osc)
    return math.sin(A) ** 2


def damped_eigenanalysis(x: float, gamma: float) -> DampedTwoLevelModel:
    """Exact biorthogonal eigensystem of h = -x(|w><r|+|r><w|) - i gamma |r><r|.

    Eigenvalues solve lam^2 + i gamma lam - x^2 = 0; their product is -x^2,
    which makes the transpose-orthogonality phi_1^T phi_2 = x^2 + lam1 lam2
    vanish identically away from the exceptional point gamma = 2x, where the
    eigenvectors coalesce and the model is flagged degenerate.
    """
    if not x > 0:
        raise ValueError(f"coupling x must be positive, got {x!r}")
    if gamma < 0:
        raise ValueError(f"damping gamma must be >= 0, got {gamma!r}")

    root = np.sqrt(complex(4.0 * x * x - gamma * gamma))
    e1 = 0.5 * (-1j * gamma + root)  # slow mode
    e2 = 0.5 * (-1j * gamma - root)

    norms_sq = (x * x + e1 * e1, x * x + e2 * e2)
    if min(abs(norms_sq[0]), abs(norms_sq[1])) <= 1e-10 * x * x:
        return DampedTwoLevelModel(
            x=x,
            gamma=gamma,
            eigenvalues=(complex(e1), complex(e2)),
            right_vectors=None,
            left_vectors=None,
            degenerate=True,
        )

    right = np.empty((2, 2), dtype=complex)
    for i, (lam, nsq) in enumerate(zip((e1, e2), norms_sq)):
        scale = 1.0 / np.sqrt(nsq)
        right[:, i] = (x * scale, -lam * scale)
    # h is complex symmetric, so left vectors are the conjugated right ones
    left = right.conj()

    s = np.array([x, math.sqrt(max(0.0, 1.0 - x * x))], dtype=complex)
    overlap = complex(left[:, 0].conj() @ s)
    asym = right[:, 0] / np.linalg.norm(right[:, 0])
    return DampedTwoLevelModel(
        x=x,
        gamma=gamma,
        eigenvalues=(complex(e1), complex(e2)),
        right_vectors=right,
        left_vectors=left,
        degenerate=False,
        overlap_s=overlap,
        asymptotic_state=asym,
    )


def damping_rate_estimate(params: SearchParams) -> float:
    """Heuristic damping rate tau^2/dt of the residual direction."""
    return params.tau**2 / params.delta_t


def heuristic_regime(params: SearchParams, margin: float = 3.0) -> str:
    """Classify the run: 'saturating' when |tau| >> sqrt(x dt) (the target
    becomes an attractor), 'unitary-like' when |tau| << sqrt(x dt), and
    'crossover' in between.  Reporting aid only; nothing dynamical."""
    boundary = math.sqrt(params.x * params.delta_t)
    if abs(params.tau) >= margin * boundary:
        return "saturating"
    if abs(params.tau) * margin <= boundary:
        return "unitary-like"
    return "crossover"
