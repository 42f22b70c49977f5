"""Non-Hermitian effective description of the measurement-interrupted search.

Three complementary views of the same dynamics:

* per-step generators extracted from cycle operators through the principal
  matrix logarithm, H = (i/dt) log V_j;
* the continuous-time generator valid for small non-unitarity offset tau,
  whose anti-Hermitian part damps only the residual direction; and
* the closed-form unitary approximation at tau = 0, where the fidelity is
  sin^2 of an accumulated rotation angle.

The damped two-level model (coupling x, damping gamma on the residual) is the
analytically solvable caricature used to read off the saturation regime; its
biorthogonal eigensystem is exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .model import (
    SURVIVAL_FLOOR,
    DampedTwoLevelModel,
    RunRecord,
    SearchParams,
    StepOperator,
    SubspaceState,
)

__all__ = [
    "EffectiveHamiltonian",
    "extract_step_hamiltonian",
    "continuous_heff",
    "integrate_effective",
    "unitary_approx_fidelity",
    "damped_eigenanalysis",
    "rk4_propagate",
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


def continuous_heff(t: float, params: SearchParams) -> EffectiveHamiltonian:
    """Continuous generator for |tau| << 1, in the (|w>, |r>) basis:

        H(t) = -x cos^2(a x t) (|w><r| + |r><w|)
               + (2 tau/dt) sin^2(a x t) |r><r|
               - i (2 tau^2/dt) sin^2(a x t) |r><r|
               - eps |w><w|,

    with a x = dtheta/dt.  For tau = 0 the generator is Hermitian.
    """
    x = params.x
    axt = params.alpha * x * t
    c2 = math.cos(axt) ** 2
    s2 = math.sin(axt) ** 2
    tau, dt = params.tau, params.delta_t
    A = np.array(
        [
            [-params.epsilon, -x * c2],
            [-x * c2, 2.0 * (tau / dt) * s2],
        ]
    ).astype(complex)
    B = np.array([[0.0, 0.0], [0.0, 2.0 * (tau * tau / dt) * s2]]).astype(complex)
    return EffectiveHamiltonian(hermitian_part=A, antihermitian_part=B, time_label=t)


def rk4_propagate(
    generator: Callable[[float], np.ndarray],
    psi0: np.ndarray,
    t_final: float,
    n_steps: int,
    sample_every: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate dpsi/dt = -i H(t) psi with the classical fixed-step
    fourth-order scheme, no renormalization.

    Returns (times, states) sampled every ``sample_every`` steps, including
    t = 0 and t = t_final.
    """
    h = t_final / n_steps
    psi = np.asarray(psi0, dtype=complex).copy()
    times = [0.0]
    states = [psi.copy()]
    t = 0.0
    for i in range(1, n_steps + 1):
        k1 = -1j * (generator(t) @ psi)
        k2 = -1j * (generator(t + 0.5 * h) @ (psi + 0.5 * h * k1))
        k3 = -1j * (generator(t + 0.5 * h) @ (psi + 0.5 * h * k2))
        k4 = -1j * (generator(t + h) @ (psi + h * k3))
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = i * h
        if i % sample_every == 0 or i == n_steps:
            times.append(t)
            states.append(psi.copy())
    return np.asarray(times), np.asarray(states)


def _default_substeps(params: SearchParams) -> int:
    """Substeps per protocol step so that h <= min(dt, 1/(50 a x),
    0.1 dt / (1 + 2 tau^2/dt))."""
    dt = params.delta_t
    h_max = dt
    ax = params.alpha * params.x
    if ax > 0:
        h_max = min(h_max, 1.0 / (50.0 * ax))
    h_max = min(h_max, 0.1 * dt / (1.0 + abs(2.0 * params.tau**2 / dt)))
    return max(1, int(math.ceil(dt / h_max)))


def integrate_effective(
    params: SearchParams,
    t_final: Optional[float] = None,
    sample_stride: int = 1,
    max_step: Optional[float] = None,
) -> RunRecord:
    """Propagate |s> under the continuous generator and record f(t), P(t).

    Sampling is aligned with protocol steps (every ``sample_stride`` cycles);
    P(t) = ||psi(t)||^2 from the unnormalized state, f(t) from the normalized
    one.  If the integration grows the norm by more than 1e-6 over any
    sampling interval (impossible for the exact flow with real tau), the step
    is halved and the run retried, at most 6 times.
    """
    if t_final is None:
        t_final = params.readout_time()
    if not t_final > 0:
        raise ValueError(f"t_final must be positive, got {t_final!r}")
    n_samples = max(1, int(round(t_final / (params.delta_t * sample_stride))))
    span = n_samples * params.delta_t * sample_stride

    substeps = _default_substeps(params) * sample_stride
    if max_step is not None:
        substeps = max(1, int(math.ceil(params.delta_t * sample_stride / max_step)))

    x = params.x
    psi0 = np.array([x, math.sqrt(1.0 - x * x)], dtype=complex)
    gen = lambda t: continuous_heff(t, params).matrix

    for attempt in range(7):
        times, states = rk4_propagate(
            gen, psi0, span, n_samples * substeps, sample_every=substeps
        )
        P = np.einsum("ij,ij->i", states.conj(), states).real
        growth = np.diff(P)
        if growth.size == 0 or np.max(growth) <= 1e-6:
            break
        substeps *= 2
    else:
        raise RuntimeError(
            "integration kept growing the norm after 6 step halvings"
        )

    fid = np.abs(states[:, 0]) ** 2 / P
    steps = np.arange(n_samples + 1) * sample_stride
    final = states[-1] / math.sqrt(P[-1])
    return RunRecord(
        params=params,
        steps=steps,
        times=times,
        fidelity=fid,
        survival=P,
        distance=np.full(n_samples + 1, np.nan),
        underflow=bool(P[-1] < SURVIVAL_FLOOR),
        final_state=SubspaceState(complex(final[0]), complex(final[1]), float(P[-1])),
    )


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
