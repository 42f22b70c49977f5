"""Non-Hermitian effective description of the measurement-interrupted search.

Three complementary views of the same dynamics:

* per-step generators extracted from cycle operators through the principal
  matrix logarithm, H = (i/dt) log V_j;
* the continuous-time generator valid for small non-unitarity offset tau,
  whose anti-Hermitian part damps only the residual direction, integrated
  with a fourth-order commutator-free exponential scheme into one propagator
  per protocol step: the step source of the ``effective`` engine, built from
  the exact engine's closed-form exponential ``stroboscopic._expm_2x2``, which
  ``stroboscopic.run_protocol`` and ``step_operator`` take by name; and
* the closed-form unitary approximation at tau = 0, where the fidelity is
  sin^2 of an accumulated rotation angle.

Both follow the exact engine's ancilla angle theta(t) = theta0 + a x t, with
a x = dtheta/dt.

The damped two-level model (coupling x, damping gamma on the residual) is the
analytically solvable caricature used to read off the saturation regime; its
biorthogonal eigensystem is exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import DampedTwoLevelModel, SearchParams
from .stroboscopic import StepSource, _expm_2x2

__all__ = [
    "EffectiveHamiltonian",
    "extract_step_hamiltonian",
    "continuous_heff",
    "unitary_approx_fidelity",
    "damped_eigenanalysis",
]


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """A generator H, with its split H = A - iB into Hermitian A and B."""

    matrix: np.ndarray

    @property
    def hermitian_part(self) -> np.ndarray:
        return 0.5 * (self.matrix + self.matrix.conj().T)

    @property
    def antihermitian_part(self) -> np.ndarray:
        return 0.5j * (self.matrix - self.matrix.conj().T)


def extract_step_hamiltonian(V: np.ndarray, delta_t: float) -> EffectiveHamiltonian:
    """Invert V = exp(-i H dt) on the principal branch: H = (i/dt) log V.

    With V = mu I + T, mu = tr(V)/2 and T^2 = d^2 I, the eigenvalues are
    mu +- d and log V = (log(mu+d) + log(mu-d))/2 I + b T, b the divided
    difference of log (Higham, Functions of Matrices, 2008, ch. 11):
    (atanh(d/mu) + i pi u)/d for |d| < |mu|, u the integer that puts both
    logs on the principal branch, (log(mu+d) - log(mu-d))/(2d) otherwise,
    and 1/mu at d = 0.  Each form is exact where it is used, defective steps
    included.  A V that is not finite or is singular is rejected.  H is
    defined only modulo 2 pi/dt in its eigenphases; compare dynamics, not raw
    entries, across branches.
    """
    V = np.asarray(V, dtype=complex)
    if not np.isfinite(V).all():
        raise ValueError("step operator not finite")
    if np.linalg.svd(V, compute_uv=False)[-1] <= 1e-14:
        raise ValueError("step operator not invertible")
    mu, t = 0.5 * complex(V[0, 0] + V[1, 1]), 0.5 * complex(V[0, 0] - V[1, 1])
    d = cmath.sqrt(t * t + complex(V[0, 1] * V[1, 0]))
    lp, lm = cmath.log(mu + d), cmath.log(mu - d)
    if d == 0:
        b = 1.0 / mu
    elif abs(d) < abs(mu):
        z = cmath.atanh(d / mu)
        b = (z + 1j * math.pi * round((lp - lm - 2.0 * z).imag / (2.0 * math.pi))) / d
    else:
        b = (lp - lm) / (2.0 * d)
    c = 0.5 * (lp + lm)
    logV = np.array([[c + b * t, b * V[0, 1]], [b * V[1, 0], c - b * t]])
    return EffectiveHamiltonian((1j / delta_t) * logV)


def _generator(params: SearchParams, t: Union[float, np.ndarray]) -> tuple:
    """Entries (h01, h11) of the continuous generator at the times ``t``;
    h00 = -eps and h10 = h01."""
    axt = params.theta0 + params.alpha * params.x * t  # the ancilla angle theta(t)
    c2, s2 = np.cos(axt) ** 2, np.sin(axt) ** 2
    tau, dt = params.tau, params.delta_t
    return -params.x * c2, 2.0 * (tau / dt) * s2 - 2j * (tau * tau / dt) * s2


def continuous_heff(t: float, params: SearchParams) -> EffectiveHamiltonian:
    """Continuous generator for |tau| << 1, in the (|w>, |r>) basis:

        H(t) = -x cos^2(theta(t)) (|w><r| + |r><w|)
               + (2 tau/dt) sin^2(theta(t)) |r><r|
               - i (2 tau^2/dt) sin^2(theta(t)) |r><r|
               - eps |w><w|,

    with the ancilla angle theta(t) = theta0 + a x t and a x = dtheta/dt.
    For tau = 0 the generator is Hermitian.
    """
    h01, h11 = _generator(params, t)
    return EffectiveHamiltonian(np.array([[-params.epsilon, h01], [h01, h11]], dtype=complex))


#: substeps per block of step propagators that the effective engine builds
#: at once; a step needs at most this many, so it bounds the engine's memory
#: for any step count
_SUBSTEPS_PER_BLOCK = 4096


def _default_substeps(params: SearchParams) -> int:
    """Substeps per protocol step so that h <= min(1/(50 |a x|),
    0.1 dt / (1 + 2 tau^2/dt)).  A step that needs more than
    _SUBSTEPS_PER_BLOCK of them, |dtheta| above about
    _SUBSTEPS_PER_BLOCK / 50 rad, is rejected."""
    dt = params.delta_t
    h_max = 0.1 * dt / (1.0 + 2.0 * params.tau**2 / dt)  # always below dt
    ax = abs(params.alpha * params.x)
    if ax > 0:
        h_max = min(h_max, 1.0 / (50.0 * ax))
    if not dt <= _SUBSTEPS_PER_BLOCK * h_max:
        raise ValueError(
            f"the effective engine runs |dtheta| <= {_SUBSTEPS_PER_BLOCK / 50:g} rad "
            f"per step ({_SUBSTEPS_PER_BLOCK} substeps), got dtheta={params.delta_theta!r}"
        )
    return max(1, int(math.ceil(dt / h_max)))


def _ordered_product(F: np.ndarray) -> np.ndarray:
    """F[..., K-1] ... F[..., 1] F[..., 0] for factors of shape (2, 2, steps, K),
    multiplied out pairwise in ceil(log2 K) rounds."""
    while F.shape[-1] > 1:
        even = 2 * (F.shape[-1] // 2)
        L, R = F[..., 1:even:2], F[..., 0:even:2]
        LR = L[:, :1] * R[:1] + L[:, 1:] * R[1:]
        F = np.concatenate([LR, F[..., even:]], axis=-1)
    return F[..., 0]


def _effective_source(params: SearchParams) -> StepSource:
    """The propagators of the protocol steps under the continuous generator,
    as a step source of the stroboscopic product kernel.

    Each step is m = _default_substeps(params) substeps of the fourth-order
    commutator-free scheme: exp(h(w2 A1 + w1 A2)), then exp(h(w1 A1 + w2 A2)),
    with A = -iH at the Gauss nodes 1/2 -+ sqrt(3)/6 of the substep and
    w = 1/4 -+ sqrt(3)/6 (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
    (2009); Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)).  Steps
    are built in blocks of _SUBSTEPS_PER_BLOCK // m.
    """
    m = _default_substeps(params)
    h = params.delta_t / m
    r3 = math.sqrt(3.0) / 6.0
    # the weights (w2, w1) of the early and (w1, w2) of the late exponential
    # of each substep, on a last axis
    u, v = np.array([0.25 + r3, 0.25 - r3]), np.array([0.25 - r3, 0.25 + r3])
    per_block = _SUBSTEPS_PER_BLOCK // m

    def fill(j: np.ndarray, out: np.ndarray) -> None:
        shape = j.shape or (1,)  # a 0-d index array is one step
        j, out = j.reshape(shape), out.reshape(2, 2, *shape)
        for s in range(0, j.size, per_block):
            at = np.unravel_index(np.arange(s, min(s + per_block, j.size)), shape)
            k = (m * (j[at] - 1))[:, None, None] + np.arange(m)[:, None]  # the substeps
            (p1, q1), (p2, q2) = (
                _generator(params, (k + c) * h) for c in (0.5 - r3, 0.5 + r3)
            )
            h00 = -0.5 * params.epsilon  # -eps at both nodes, and w1 + w2 = 1/2
            h01, h11 = u * p1 + v * p2, u * q1 + v * q2
            a, t00 = 0.5 * (h00 + h11), 0.5 * (h00 - h11)
            factors = _expm_2x2(a, t00, h01, np.sqrt(t00 * t00 + h01 * h01), h)
            out[(...,) + at] = _ordered_product(factors.reshape(2, 2, k.shape[0], 2 * m))

    return fill


def unitary_approx_fidelity(n: int | np.ndarray, params: SearchParams) -> float | np.ndarray:
    """Closed-form fidelity of the tau = 0 process after the step or array
    of steps n:

        f(n) = sin^2(A(n)),
        A(n) = (x dt / 2) (n + (sin(2 theta0 + 2 n dtheta) - sin(2 theta0)) / (2 dtheta)),

    the angle x * integral of cos^2(theta(t)) dt.  The quotient is computed as
    cos(2 theta0 + n dtheta) n sinc(n dtheta / pi), which cancels nothing and
    is exact at dtheta = 0."""
    dtheta = params.delta_theta
    osc = n * np.cos(2.0 * params.theta0 + n * dtheta) * np.sinc(n * dtheta / math.pi)
    A = 0.5 * params.x * params.delta_t * (n + osc)
    return np.sin(A) ** 2


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
