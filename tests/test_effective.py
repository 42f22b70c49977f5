import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from zenogrover.effective import continuous_heff, extract_step_hamiltonian, unitary_approx_fidelity
from zenogrover import effective, stroboscopic
from zenogrover.model import make_params, overlap_x
from zenogrover.stroboscopic import run_protocol, step_operator
from test_stroboscopic import expm_hermitian, subspace_basis_matrices


class TestExtract:
    def test_identity_maps_to_zero(self):
        h = extract_step_hamiltonian(np.eye(2, dtype=complex), 1.3)
        assert np.max(np.abs(h.matrix)) < 1e-14

    def test_recovers_generator_on_principal_branch(self):
        p = make_params(16.0, 1.2)
        h_up, h_dn = subspace_basis_matrices(p)
        V = expm_hermitian(h_up, p.delta_t)
        h = extract_step_hamiltonian(V, p.delta_t)
        np.testing.assert_allclose(h.matrix, h_up, atol=1e-10)
        assert np.max(np.abs(h.antihermitian_part)) < 1e-12

    def test_roundtrip_on_protocol_steps(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            N = 10.0 ** rng.uniform(2, 16)
            dt = rng.uniform(0.5, 25.0)
            if dt > math.pi * math.sqrt(N) / 2:
                continue
            p = make_params(N, dt, delta_theta=rng.uniform(0, 0.05))
            j = int(rng.integers(1, 5000))
            op = step_operator(j, p)
            h = extract_step_hamiltonian(op, p.delta_t)
            back = scipy.linalg.expm(-1j * h.matrix * p.delta_t)
            assert np.max(np.abs(back - op)) < 1e-10

    def test_split_parts_are_hermitian(self):
        p = make_params(1e4, math.pi + 0.3, delta_theta=0.02)
        h = extract_step_hamiltonian(step_operator(3, p), p.delta_t)
        np.testing.assert_allclose(
            h.hermitian_part, h.hermitian_part.conj().T, atol=1e-12
        )
        np.testing.assert_allclose(
            h.antihermitian_part, h.antihermitian_part.conj().T, atol=1e-12
        )
        np.testing.assert_allclose(
            h.matrix, h.hermitian_part - 1j * h.antihermitian_part, atol=1e-15
        )

    def test_singular_operator_rejected(self):
        with pytest.raises(ValueError, match="not invertible"):
            extract_step_hamiltonian(np.zeros((2, 2), dtype=complex), 1.0)
        # a nan entry would stop the SVD, an inf one give an all-nan generator
        for bad in (np.nan, np.inf):
            V = np.eye(2, dtype=complex)
            V[0, 1] = bad
            with pytest.raises(ValueError, match="not finite"):
                extract_step_hamiltonian(V, 1.0)

    def test_roundtrip_across_eigenvalue_splits(self):
        # exactly defective at split 0; a switch between two algorithms at a
        # split tolerance would lose accuracy just past it (1.5e-9 at 1e-9)
        for split in (0.0, 1e-16, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-3):
            V = np.array([[0.9 + split, 0.2], [0.0, 0.9]], dtype=complex)
            h = extract_step_hamiltonian(V, 1.0)
            back = scipy.linalg.expm(-1j * h.matrix * 1.0)
            assert np.max(np.abs(back - V)) <= 1e-15, split

    def test_scalar_operator_maps_to_scalar_log(self):
        c = 0.5 + 0.1j
        h = extract_step_hamiltonian(c * np.eye(2), 2.0)
        np.testing.assert_allclose(h.matrix, 0.5j * np.log(c) * np.eye(2), rtol=1e-15, atol=0)

    def test_matches_high_precision_logm_at_large_n(self):
        # the coupling entries are ~x/dt; at N = 1e18 they sit 1e-9 below
        # the diagonal, where an eigendecomposition loses 8 digits of them
        import mpmath

        for N in (1e12, 1e18):
            p = make_params(N, k=1, tau=0.2, alpha=0.3)
            for j in (1, p.n_G // 2):
                V = step_operator(j, p)
                h = extract_step_hamiltonian(V, p.delta_t)
                with mpmath.workdps(50):
                    L = mpmath.logm(mpmath.matrix([[complex(v) for v in row] for row in V]))
                    ref = np.array(
                        [[complex(1j * L[a, b] / p.delta_t) for b in (0, 1)] for a in (0, 1)]
                    )
                rel = np.abs(h.matrix - ref) / np.abs(ref)
                assert np.max(rel) <= 1e-13, (N, j, rel)


class TestContinuousGenerator:
    def test_hermitian_at_zero_offset(self):
        p = make_params(1e8, k=2, tau=0.0, alpha=0.3)
        h = continuous_heff(137.0, p)
        assert np.max(np.abs(h.antihermitian_part)) == 0.0
        t = 137.0
        envelope = -p.x * math.cos(p.alpha * p.x * t) ** 2
        np.testing.assert_allclose(
            h.hermitian_part, [[0.0, envelope], [envelope, 0.0]], atol=1e-15
        )

    def test_initial_time_structure(self):
        p = make_params(1e8, k=1, tau=0.2, alpha=0.3, epsilon=0.01)
        h = continuous_heff(0.0, p)
        np.testing.assert_allclose(
            h.hermitian_part, [[-0.01, -p.x], [-p.x, 0.0]], atol=1e-15
        )
        assert np.max(np.abs(h.antihermitian_part)) == 0.0

    def test_quarter_envelope_structure(self):
        p = make_params(1e8, k=1, tau=0.2, alpha=0.3)
        t = math.pi / (2 * p.alpha * p.x)  # sin^2 = 1, cos^2 = 0
        h = continuous_heff(t, p)
        assert abs(h.hermitian_part[0, 1]) < 1e-12 * p.x
        assert h.hermitian_part[1, 1] == pytest.approx(2 * p.tau / p.delta_t, rel=1e-10)
        assert h.antihermitian_part[1, 1] == pytest.approx(
            2 * p.tau**2 / p.delta_t, rel=1e-10
        )

    def test_damping_part_positive_semidefinite(self):
        p = make_params(1e6, k=1, tau=0.2, alpha=0.3)
        for t in np.linspace(0, p.readout_time(), 37):
            eig = np.linalg.eigvalsh(continuous_heff(float(t), p).antihermitian_part)
            assert np.all(eig >= -1e-18)


class TestIntegrate:
    def test_reduces_to_plain_search_without_rotation(self):
        # deviations from sin^2(x t) are O(1/N); N must be large enough to
        # leave margin inside the tolerance
        p = make_params(1e8, k=1, tau=0.0, delta_theta=0.0)
        record = run_protocol(p, engine="effective")
        for i, t in enumerate(record.times):
            assert abs(record.fidelity[i] - math.sin(p.x * t) ** 2) < 1e-6

    def test_survival_non_increasing(self):
        p = make_params(1e6, k=1, tau=0.2, alpha=0.3)
        record = run_protocol(p, engine="effective")
        assert np.all(np.diff(record.survival) <= 1e-12)

    def test_zero_offset_dynamics_match_accumulated_angle_form(self):
        # at tau = 0 the continuous generator is the rotation with angle
        # A(t) = (x/2)(t + sin(2 a x t)/(2 a x)); its fidelity must match
        # the closed-form sin^2(A(n)) across a full oscillation
        p = make_params(1e12, k=2000, tau=0.0, alpha=0.3)
        record = run_protocol(p, 2 * p.n_G, engine="effective")
        assert np.max(np.abs(record.fidelity - unitary_approx_fidelity(record.steps, p))) < 1e-4

    def test_saturation_regime(self):
        # sqrt(x dt) ~ 0.06 << tau = 0.2 << 1: the target is an attractor
        p = make_params(1e6, k=1, tau=0.2, alpha=0.3)
        record = run_protocol(p, 2 * p.n_G, engine="effective")
        assert record.fidelity[-1] > 0.95
        tail = record.fidelity[record.steps >= int(1.5 * p.n_G)]
        assert np.all(np.diff(tail) >= -1e-6)

    def test_tracks_exact_engine_with_detuning(self):
        # the smooth effective description leads the exact staircase through
        # the saturation ramp; measured peak gap is 0.081 at these parameters
        N = 1000000162505052417
        x = overlap_x(float(N))
        p = make_params(
            float(N), k=1063662, tau=0.2, alpha=0.3, epsilon=2 * x * math.sqrt(3)
        )
        exact = run_protocol(p)
        eff = run_protocol(p, engine="effective")
        n = min(len(exact.fidelity), len(eff.fidelity))
        dev = np.abs(exact.fidelity[:n] - eff.fidelity[:n])
        assert dev.max() <= 0.1
        # at the readout step the two descriptions agree to ~0.06
        assert dev[-1] <= 0.06

    @pytest.mark.parametrize("k, tau", [(1, 0.2), (3, -0.4)])
    @pytest.mark.parametrize("dtheta", [0.003, 0.5, 2.0])
    def test_mirrored_rotation_gives_the_same_record(self, k, tau, dtheta):
        # at theta0 = 0 the generator depends on cos^2 and sin^2 of the angle
        # only, so -dtheta must resolve, and run, exactly as +dtheta
        forward, backward = (
            run_protocol(make_params(1e4, k=k, tau=tau, delta_theta=s * dtheta), 60,
                         engine="effective")
            for s in (1.0, -1.0)
        )
        for column in ("fidelity", "survival", "distance"):
            assert np.array_equal(getattr(forward, column), getattr(backward, column))

    def test_rejects_bad_horizon(self):
        p = make_params(1e6, k=1, tau=0.2, alpha=0.3)
        with pytest.raises(ValueError):
            run_protocol(p, 0, engine="effective")


def _rk4_reference(p, n, per_step=400):
    """f and P after each of n protocol steps under the continuous generator,
    integrated with classical RK4 at h = dt/per_step.  For the linear flow
    psi' = -i H(t) psi one RK4 step is a fixed 2x2 matrix, so the substeps
    are built a block of protocol steps at a time and multiplied out."""
    x, dt = p.x, p.delta_t
    h = dt / per_step

    def minus_i_h(t):
        c2 = np.cos(p.alpha * x * t) ** 2
        s2 = np.sin(p.alpha * x * t) ** 2
        H = np.zeros(t.shape + (2, 2), dtype=complex)
        H[:, 0, 0] = -p.epsilon
        H[:, 0, 1] = H[:, 1, 0] = -x * c2
        H[:, 1, 1] = (2 * p.tau / dt) * s2 - 2j * (p.tau**2 / dt) * s2
        return -1j * H

    eye = np.eye(2)
    psi = np.array([x, math.sqrt(1 - x * x)], dtype=complex)
    states = [psi]
    for first in range(0, n, 50):
        count = min(50, n - first)
        t = np.arange(first * per_step, (first + count) * per_step) * h
        a0, am, a1 = minus_i_h(t), minus_i_h(t + 0.5 * h), minus_i_h(t + h)
        k2 = am @ (eye + 0.5 * h * a0)
        k3 = am @ (eye + 0.5 * h * k2)
        k4 = a1 @ (eye + h * k3)
        R = (eye + (h / 6) * (a0 + 2 * k2 + 2 * k3 + k4)).reshape(count, per_step, 2, 2)
        M = R[:, 0]
        for j in range(1, per_step):
            M = R[:, j] @ M
        for step in M:
            psi = step @ psi
            states.append(psi)
    states = np.array(states)
    P = np.sum(np.abs(states) ** 2, axis=1)
    return np.abs(states[:, 0]) ** 2 / P, P


class TestFineStepReference:
    @pytest.mark.parametrize(
        "N, k, tau, alpha, eps, steps",
        [
            (1e6, 1, 0.2, 0.3, 0.0, None),
            # the detuned_m1 recipe
            (1000000162505052417.0, 1063662, 0.2, 0.3, 3.4641013336707815e-09, None),
            (16900.0, 2, 0.271, 0.93, 0.0, None),
            (1e8, 1, 1.2, 0.3, 0.0, 470),
        ],
        ids=["N1e6", "detuned_m1", "N16900", "N1e8-tau1.2"],
    )
    def test_matches_fine_step_reference(self, N, k, tau, alpha, eps, steps):
        p = make_params(N, k=k, tau=tau, alpha=alpha, epsilon=eps)
        n = steps if steps is not None else p.n_G
        record = run_protocol(p, n, engine="effective")
        f_ref, P_ref = _rk4_reference(p, n)
        assert np.max(np.abs(record.fidelity - f_ref)) <= 1e-10
        assert np.max(np.abs(record.survival - P_ref)) <= 1e-10

    def test_record_does_not_depend_on_block_size(self, monkeypatch):
        # 11 substeps per protocol step: blocks of 40 substeps hold 3 steps,
        # and kernel batches of one chunk make every batch start mid-run
        p = make_params(1e6, k=1, tau=0.2, alpha=0.3)
        whole = run_protocol(p, engine="effective")
        monkeypatch.setattr(effective, "_SUBSTEPS_PER_BLOCK", 40)
        monkeypatch.setattr(stroboscopic, "_BLOCK_STEPS", 40)
        blocked = run_protocol(p, engine="effective")
        for column in ("times", "fidelity", "survival"):
            assert np.array_equal(getattr(whole, column), getattr(blocked, column))


    def test_working_set_is_bounded(self):
        # 4700 steps of 11 substeps, built in blocks of at most 4096 substeps
        p = make_params(1e8, k=1, tau=0.2, alpha=0.3)
        tracemalloc.start()
        try:
            run_protocol(p, 4700, engine="effective")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6


class TestUnitaryApprox:
    def test_zero_rotation_limit(self):
        p = make_params(1e6, 1.0, delta_theta=0.0)
        for n in (1, 100, 1570):
            assert unitary_approx_fidelity(n, p) == pytest.approx(
                math.sin(p.x * n * p.delta_t) ** 2, abs=1e-14
            )

    def test_tiny_rotation_continuous_at_threshold(self):
        p0 = make_params(1e6, 1.0, delta_theta=0.0)
        p1 = make_params(1e6, 1.0, delta_theta=1e-13)
        assert unitary_approx_fidelity(500, p1) == pytest.approx(
            unitary_approx_fidelity(500, p0), abs=1e-9
        )

    def test_matches_high_precision_reference(self):
        # 40-digit sin^2(A(n)) from the same double inputs; a difference of
        # sines lost up to 1.3e-8 here at theta0 = -0.6, dtheta = 2e-12
        import mpmath

        n = np.arange(1, 1501, 7)
        for theta0 in (0.3, 0.0, -0.6):
            for dtheta in (0.0, 2e-12, 1e-10, 1e-8, 1e-4):
                p = make_params(1e6, 1.0, delta_theta=dtheta, theta0=theta0)
                got = unitary_approx_fidelity(n, p)
                with mpmath.workdps(40):
                    x, d, t2 = mpmath.mpf(p.x), mpmath.mpf(dtheta), 2 * mpmath.mpf(theta0)
                    for m, f in zip(n.tolist(), got):
                        osc = (m * mpmath.cos(t2) if dtheta == 0.0 else
                               (mpmath.sin(t2 + 2 * m * d) - mpmath.sin(t2)) / (2 * d))
                        ref = mpmath.sin(x * p.delta_t / 2 * (m + osc)) ** 2
                        assert abs(f - float(ref)) <= 1e-14, (theta0, dtheta, m)

    def test_matched_rotation_doubles_search_time(self):
        # dtheta/dt = x: first fidelity maximum at t = pi sqrt(N)
        N = 1e18
        p = make_params(N, 1e6 * math.pi, alpha=1.0)
        f = unitary_approx_fidelity(np.arange(1, 2500), p)
        peak = 1 + int(np.argmax(f))
        assert abs(peak * p.delta_t - math.pi * math.sqrt(N)) <= p.delta_t

    def test_matches_exact_engine_at_zero_offset(self):
        # zero offset tau = 0, at any initial ancilla angle theta0
        N = 1e18
        for theta0 in (0.0, 0.3, -0.6):
            p = make_params(N, 1e6 * math.pi, alpha=0.1, theta0=theta0)
            exact = run_protocol(p, 2000)
            f11 = unitary_approx_fidelity(exact.steps, p)
            assert np.max(np.abs(f11 - exact.fidelity)) <= 0.01
