import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from zenogrover.effective import (
    continuous_heff,
    damped_eigenanalysis,
    damping_rate_estimate,
    extract_step_hamiltonian,
    heuristic_regime,
    integrate_effective,
    rk4_propagate,
    unitary_approx_fidelity,
)
from zenogrover.model import make_params, overlap_x
from zenogrover.stroboscopic import (
    exact_step_operator,
    expm_2x2_hermitian,
    run_protocol,
    subspace_basis_matrices,
)


class TestExtract:
    def test_identity_maps_to_zero(self):
        h = extract_step_hamiltonian(np.eye(2, dtype=complex), 1.3)
        assert np.max(np.abs(h.matrix)) < 1e-14
        assert not h.schur_fallback

    def test_recovers_generator_on_principal_branch(self):
        p = make_params(16.0, 1.2)
        blocks = subspace_basis_matrices(p)
        V = expm_2x2_hermitian(blocks.h_up, p.delta_t)
        h = extract_step_hamiltonian(V, p.delta_t)
        np.testing.assert_allclose(h.matrix, blocks.h_up, atol=1e-10)
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
            op = exact_step_operator(j, p)
            h = extract_step_hamiltonian(op, p.delta_t)
            back = scipy.linalg.expm(-1j * h.matrix * p.delta_t)
            assert np.max(np.abs(back - op.matrix)) < 1e-10

    def test_step_operator_gets_midpoint_label(self):
        p = make_params(1e4, 2.0, delta_theta=0.01)
        op = exact_step_operator(7, p)
        h = extract_step_hamiltonian(op, p.delta_t)
        assert h.time_label == pytest.approx(6.5 * p.delta_t)

    def test_split_parts_are_hermitian(self):
        p = make_params(1e4, math.pi + 0.3, delta_theta=0.02)
        h = extract_step_hamiltonian(exact_step_operator(3, p), p.delta_t)
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

    def test_defective_operator_takes_schur_fallback(self):
        # exactly defective, then eigenvalues split by ~1e-10 of their scale
        for split in (0.0, 1e-10):
            V = np.array([[0.9 + split, 0.2], [0.0, 0.9]], dtype=complex)
            h = extract_step_hamiltonian(V, 1.0)
            assert h.schur_fallback
            back = scipy.linalg.expm(-1j * h.matrix * 1.0)
            np.testing.assert_allclose(back, V, atol=1e-10)

    def test_scalar_operator_is_not_defective(self):
        V = (0.5 + 0.1j) * np.eye(2)
        h = extract_step_hamiltonian(V, 1.0)
        assert not h.schur_fallback


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
        record = integrate_effective(p)
        for i, t in enumerate(record.times):
            assert abs(record.fidelity[i] - math.sin(p.x * t) ** 2) < 1e-6

    def test_survival_non_increasing(self):
        p = make_params(1e6, k=1, tau=0.2, alpha=0.3)
        record = integrate_effective(p)
        assert np.all(np.diff(record.survival) <= 1e-12)

    def test_zero_offset_dynamics_match_accumulated_angle_form(self):
        # at tau = 0 the continuous generator is the rotation with angle
        # A(t) = (x/2)(t + sin(2 a x t)/(2 a x)); its fidelity must match
        # the closed-form sin^2(A(n)) across a full oscillation
        p = make_params(1e12, k=2000, tau=0.0, alpha=0.3)
        record = integrate_effective(p, t_final=2 * p.readout_time())
        for i, n in enumerate(record.steps):
            assert abs(
                record.fidelity[i] - unitary_approx_fidelity(int(n), p)
            ) < 1e-4

    def test_saturation_regime(self):
        # sqrt(x dt) ~ 0.06 << tau = 0.2 << 1: the target is an attractor
        p = make_params(1e6, k=1, tau=0.2, alpha=0.3)
        record = integrate_effective(p, t_final=2 * p.readout_time())
        assert record.fidelity[-1] > 0.95
        tail = record.fidelity[record.steps >= int(1.5 * p.n_G)]
        assert np.all(np.diff(tail) >= -1e-6)

    def test_coarse_step_retry_recovers(self):
        p = make_params(1e6, k=1, tau=0.2, alpha=0.3)
        fine = integrate_effective(p, t_final=50 * p.delta_t)
        coarse = integrate_effective(p, t_final=50 * p.delta_t, max_step=p.delta_t)
        assert abs(fine.final_fidelity - coarse.final_fidelity) < 1e-4
        assert np.all(np.diff(coarse.survival) <= 1e-6)

    def test_tracks_exact_engine_with_detuning(self):
        # the smooth effective description leads the exact staircase through
        # the saturation ramp; measured peak gap is 0.081 at these parameters
        N = 1000000162505052417
        x = overlap_x(float(N))
        p = make_params(
            float(N), k=1063662, tau=0.2, alpha=0.3, epsilon=2 * x * math.sqrt(3)
        )
        exact = run_protocol(p)
        eff = integrate_effective(p)
        n = min(len(exact.fidelity), len(eff.fidelity))
        dev = np.abs(exact.fidelity[:n] - eff.fidelity[:n])
        assert dev.max() <= 0.1
        # at the readout step the two descriptions agree to ~0.06
        assert dev[-1] <= 0.06

    def test_rejects_bad_horizon(self):
        p = make_params(1e6, k=1, tau=0.2, alpha=0.3)
        with pytest.raises(ValueError):
            integrate_effective(p, t_final=0.0)


class TestRk4:
    def test_constant_generator_matches_expm(self):
        H = np.array([[0.2, -0.5], [-0.5, -0.1 - 0.3j]])
        psi0 = np.array([1.0, 0.0], dtype=complex)
        t_final = 4.0
        times, states = rk4_propagate(lambda t: H, psi0, t_final, 4000)
        expected = scipy.linalg.expm(-1j * H * t_final) @ psi0
        np.testing.assert_allclose(states[-1], expected, atol=1e-10)


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

    def test_matched_rotation_doubles_search_time(self):
        # dtheta/dt = x: first fidelity maximum at t = pi sqrt(N)
        N = 1e18
        p = make_params(N, 1e6 * math.pi, alpha=1.0)
        f = np.array([unitary_approx_fidelity(n, p) for n in range(1, 2500)])
        peak = 1 + int(np.argmax(f))
        assert abs(peak * p.delta_t - math.pi * math.sqrt(N)) <= p.delta_t

    def test_matches_exact_engine_at_zero_offset(self):
        N = 1e18
        p = make_params(N, 1e6 * math.pi, alpha=0.1)
        exact = run_protocol(p, 2000)
        f11 = np.array([unitary_approx_fidelity(int(n), p) for n in exact.steps])
        assert np.max(np.abs(f11 - exact.fidelity)) <= 0.01


class TestDampedModel:
    def test_undamped_rabi_pair(self):
        m = damped_eigenanalysis(0.01, 0.0)
        assert sorted(e.real for e in m.eigenvalues) == pytest.approx(
            [-0.01, 0.01], abs=1e-15
        )
        assert all(abs(e.imag) < 1e-15 for e in m.eigenvalues)

    @given(
        x=st.floats(min_value=1e-6, max_value=1.0),
        ratio=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=150)
    def test_eigenvalues_solve_characteristic_polynomial(self, x, ratio):
        gamma = ratio * x
        m = damped_eigenanalysis(x, gamma)
        for lam in m.eigenvalues:
            assert abs(lam * lam + 1j * gamma * lam - x * x) < 1e-12
            assert lam.imag <= 1e-15

    def test_overdamped_asymptotics(self):
        x, gamma = 1e-3, 0.1  # gamma = 100 x
        m = damped_eigenanalysis(x, gamma)
        e1, e2 = m.eigenvalues
        assert e1 == pytest.approx(-1j * x * x / gamma, rel=2 * (x / gamma) ** 2)
        assert e2 == pytest.approx(-1j * gamma, rel=2 * (x / gamma) ** 2)
        # asymptotic state is the target with an O(x/gamma) admixture
        assert abs(m.asymptotic_state[0]) > 1 - (x / gamma) ** 2
        assert abs(m.asymptotic_state[1]) < 2 * x / gamma
        assert abs(m.overlap_s) < 2 * x * math.sqrt(1 + 1 / gamma**2)

    def test_biorthonormality(self):
        for x, gamma in [(0.5, 0.2), (1e-3, 1e-4), (0.2, 0.39), (0.1, 0.5)]:
            m = damped_eigenanalysis(x, gamma)
            gram = m.left_vectors.conj().T @ m.right_vectors
            np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)

    def test_eigenvectors_satisfy_eigenproblem(self):
        x, gamma = 0.3, 0.25
        m = damped_eigenanalysis(x, gamma)
        h = np.array([[0.0, -x], [-x, -1j * gamma]])
        for i in (0, 1):
            resid = h @ m.right_vectors[:, i] - m.eigenvalues[i] * m.right_vectors[:, i]
            assert np.max(np.abs(resid)) < 1e-12

    def test_exceptional_point_flagged(self):
        m = damped_eigenanalysis(0.25, 0.5)
        assert m.degenerate
        assert m.right_vectors is None and m.left_vectors is None

    def test_input_validation(self):
        with pytest.raises(ValueError):
            damped_eigenanalysis(0.0, 0.1)
        with pytest.raises(ValueError):
            damped_eigenanalysis(0.1, -0.1)


class TestDampedMapping:
    def test_frozen_envelope_matches_closed_form(self):
        # time-independent generator with the damping frozen at full strength:
        # the integrator must agree with the biorthogonal closed form
        p = make_params(1e6, k=1, tau=0.2, alpha=0.3)
        x = p.x
        gamma = 2.0 * p.tau**2 / p.delta_t
        h = np.array([[0.0, -x], [-x, -1j * gamma]])
        psi0 = np.array([x, math.sqrt(1 - x * x)], dtype=complex)
        t_final = 2000.0
        _, states = rk4_propagate(lambda t: h, psi0, t_final, 4000)

        m = damped_eigenanalysis(x, gamma)
        coeff = m.left_vectors.conj().T @ psi0
        closed = (
            m.right_vectors
            @ (np.exp(-1j * np.array(m.eigenvalues) * t_final) * coeff)
        )
        np.testing.assert_allclose(states[-1], closed, atol=1e-8)

    def test_regime_reporting(self):
        saturating = make_params(1e6, k=1, tau=0.2, alpha=0.3)
        assert heuristic_regime(saturating) == "saturating"
        assert damping_rate_estimate(saturating) == pytest.approx(
            0.2**2 / saturating.delta_t
        )
        unitary_like = make_params(1e6, k=1, tau=1e-4, alpha=0.3)
        assert heuristic_regime(unitary_like) == "unitary-like"
        between = make_params(1e6, k=1, tau=0.08, alpha=0.3)
        assert heuristic_regime(between) == "crossover"
