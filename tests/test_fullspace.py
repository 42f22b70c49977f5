import math

import numpy as np
import pytest

from zenogrover.fullspace import (
    EquivalenceCase,
    FullState,
    _apply,
    _block,
    _block_propagator_factors,
    _eigh_refined,
    _propagate,
    build_full_hamiltonian,
    complement_weight,
    default_equivalence_cases,
    equivalence_suite,
    make_case_params,
    simulate_full_protocol,
)
from zenogrover.model import SURVIVAL_FLOOR, grover_fidelity_closed_form, make_params
from zenogrover.stroboscopic import BlockHamiltonians, accumulate_process


class TestBuildHamiltonian:
    def test_two_site_up_block(self):
        H = build_full_hamiltonian(2, 0)
        np.testing.assert_allclose(H[:2, :2], [[-1.5, -0.5], [-0.5, -0.5]], atol=1e-15)

    def test_down_block_offset_by_driving_term(self):
        N, w = 8, 3
        H = build_full_hamiltonian(N, w)
        s = np.full(N, 1.0 / math.sqrt(N))
        np.testing.assert_allclose(
            H[N:, N:], H[:N, :N] + 2.0 * np.outer(s, s), atol=1e-15
        )

    def test_hermitian(self):
        H = build_full_hamiltonian(16, 5, epsilon=0.2)
        assert np.max(np.abs(H - H.T)) < 1e-15

    def test_blocks_are_decoupled(self):
        N = 4
        H = build_full_hamiltonian(N, 1)
        assert np.max(np.abs(H[:N, N:])) == 0.0
        assert np.max(np.abs(H[N:, :N])) == 0.0

    def test_up_block_spectrum_structure(self):
        # two active eigenvalues -1 -+ x from the overlap pair, zero on the
        # (N-2)-dimensional complement of span{|w>, |s>}
        N = 16
        H = build_full_hamiltonian(N, 7)
        x = 1.0 / math.sqrt(N)
        eig = np.sort(np.linalg.eigvalsh(H[:N, :N]))
        np.testing.assert_allclose(eig[:2], [-1 - x, -1 + x], atol=1e-12)
        np.testing.assert_allclose(eig[2:], np.zeros(N - 2), atol=1e-12)

    def test_size_and_target_validation(self):
        with pytest.raises(ValueError):
            build_full_hamiltonian(1, 0)
        with pytest.raises(ValueError):
            build_full_hamiltonian(8192, 0)
        with pytest.raises(ValueError):
            build_full_hamiltonian(8, 8)


class TestSimulate:
    def test_no_rotation_reduces_to_closed_form(self):
        N = 64
        params = make_params(float(N), 1.0, delta_theta=0.0)
        record = simulate_full_protocol(N, 11, params, n_max=120)
        for i, t in enumerate(record.times):
            assert abs(
                record.fidelity[i] - grover_fidelity_closed_form(float(t), float(N))
            ) < 1e-9
        assert np.max(np.abs(record.survival - 1.0)) < 1e-10

    def test_matches_subspace_engine(self):
        N = 16
        params = make_params(float(N), 1.0, delta_theta=0.01)
        full = simulate_full_protocol(N, 4, params, n_max=200)
        _, sub = accumulate_process(params, 200)
        assert np.max(np.abs(full.fidelity - sub.fidelity)) < 1e-10
        assert np.max(np.abs(full.survival - sub.survival)) < 1e-10

    def test_detuned_case_matches_subspace_engine(self):
        N = 16
        params = make_params(float(N), math.pi + 0.2, delta_theta=0.005, epsilon=0.07)
        full = simulate_full_protocol(N, 9, params, n_max=150)
        _, sub = accumulate_process(params, 150)
        assert np.max(np.abs(full.fidelity - sub.fidelity)) < 1e-10
        assert np.max(np.abs(full.survival - sub.survival)) < 1e-10

    def test_orthogonal_postselection_annihilates(self):
        # first projection lands on the flipped ancilla state the coupling
        # can never produce: survival collapses to the pi/2 rounding residue
        params = make_params(4.0, 1.0, delta_theta=math.pi / 2)
        record = simulate_full_protocol(4, 2, params, n_max=1)
        assert record.survival[1] <= 4e-33

    @staticmethod
    def _worst_leak(extended=None):
        N = 32
        params = make_params(float(N), math.pi + 0.2, delta_theta=0.01)
        worst = 0.0
        worst_norm = 0.0

        def watch(step, state):
            nonlocal worst, worst_norm
            worst = max(worst, complement_weight(state, 13))
            norm = float(np.vdot(state.amplitudes, state.amplitudes).real)
            worst_norm = max(worst_norm, abs(norm - 1.0))

        simulate_full_protocol(
            N, 13, params, n_max=150, extended=extended, state_callback=watch
        )
        return worst, worst_norm

    def test_joint_state_stays_in_search_plane(self):
        worst, worst_norm = self._worst_leak()
        assert worst < 1e-10
        assert worst_norm < 1e-12

    def test_double_precision_state_stays_in_search_plane(self):
        worst, worst_norm = self._worst_leak(extended=False)
        assert worst < 1e-10
        assert worst_norm < 1e-12

    def test_validation(self):
        params = make_params(16.0, 1.0)
        with pytest.raises(ValueError):
            simulate_full_protocol(32, 1, params)  # size mismatch
        with pytest.raises(ValueError):
            simulate_full_protocol(16, 16, params)  # target out of range
        with pytest.raises(ValueError):
            simulate_full_protocol(16, 1, params, n_max=0)

    def test_double_precision_mode_still_close(self):
        N = 16
        params = make_params(float(N), 1.0, delta_theta=0.001)
        a = simulate_full_protocol(N, 4, params, n_max=100, extended=True)
        b = simulate_full_protocol(N, 4, params, n_max=100, extended=False)
        assert np.max(np.abs(a.fidelity - b.fidelity)) < 1e-10


def _reference_protocol(N, w, params, n_max, extended=True):
    """The oracle loop this module used before the eigenbasis recurrence:
    ``U diag(phase) Uᵀ`` applied to both ancilla components every step
    (four long-double products).  The loop is kept verbatim as the
    reference; returns (fidelity, survival, underflow)."""
    factors = []
    for coeff_s in (-1.0, +1.0):
        if extended:
            lam, U = _eigh_refined(N, w, -(1.0 + params.epsilon), coeff_s)
        else:
            lam, U = np.linalg.eigh(_block(N, w, -(1.0 + params.epsilon), coeff_s))
        factors.append((lam, U, np.ascontiguousarray(U.T)))
    (lam_u, U_u, UT_u), (lam_d, U_d, UT_d) = factors
    cdtype = np.clongdouble if extended else np.complex128
    rl = np.longdouble if extended else np.float64
    dt = rl(params.delta_t)
    phase_u = np.exp(-1j * (lam_u * dt)).astype(cdtype)
    phase_d = np.exp(-1j * (lam_d * dt)).astype(cdtype)

    s0 = (np.ones(N, dtype=rl) / np.sqrt(rl(N))).astype(cdtype)
    theta0 = rl(params.theta0)
    dtheta = rl(params.delta_theta)
    up = np.cos(theta0) * s0
    dn = np.sin(theta0) * s0

    fid = np.empty(n_max + 1)
    sur = np.empty(n_max + 1)
    fid[0] = 1.0 / N
    sur[0] = 1.0
    underflow = False
    survival = 1.0

    for j in range(1, n_max + 1):
        up = _apply(U_u, phase_u * _apply(UT_u, up))
        dn = _apply(U_d, phase_d * _apply(UT_d, dn))
        th = theta0 + j * dtheta
        cth, sth = np.cos(th), np.sin(th)
        db = cth * up + sth * dn
        p = float((db.conj() @ db).real)
        if p == 0.0:
            underflow = True
            fid[j] = fid[j - 1]
            sur[j] = 0.0
            survival = 0.0
            up = cth * db
            dn = sth * db
            continue
        survival *= p
        if survival < SURVIVAL_FLOOR:
            underflow = True
            survival = 0.0
        db = db / np.sqrt(rl(p))
        up = cth * db
        dn = sth * db
        fid[j] = float(abs(db[w]) ** 2)
        sur[j] = survival
    return fid, sur, underflow


def _first_zero(survival):
    zero = np.flatnonzero(survival == 0.0)
    return int(zero[0]) if zero.size else None


#: (delta_t, delta_theta, epsilon, steps); the last two freeze survival at
#: SURVIVAL_FLOOR (steps 10 and ~600)
REFERENCE_CASES = {
    "plain": (1.0, 0.01, 0.0, 200),
    "detuned": (math.pi + 0.2, 0.005, 0.07, 150),
    "annihilation": (1.0, math.pi / 2, 0.0, 20),
    "deep-damping": (math.pi, 1.0, 0.0, 700),
}


class TestAgainstFourProductLoop:
    @pytest.mark.parametrize("extended", [True, False])
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    @pytest.mark.parametrize("N", [2, 16, 129])
    def test_matches_reference(self, N, case, extended):
        dt, dth, eps, steps = REFERENCE_CASES[case]
        w = N // 3
        params = make_params(float(N), dt, delta_theta=dth, epsilon=eps, allow_short=True)
        ref_f, ref_p, ref_underflow = _reference_protocol(N, w, params, steps, extended)
        record = simulate_full_protocol(N, w, params, n_max=steps, extended=extended)
        assert np.max(np.abs(record.fidelity - ref_f)) <= 1e-11
        assert np.max(np.abs(record.survival - ref_p)) <= 1e-11
        assert record.underflow == ref_underflow
        assert _first_zero(record.survival) == _first_zero(ref_p)
        if case in ("annihilation", "deep-damping"):
            assert ref_underflow


class TestBatch:
    @pytest.mark.parametrize("N", [16, 129])
    def test_group_member_equals_single_run(self, N):
        cases = default_equivalence_cases(sizes=(N,), steps=120)[:9]
        assert len({(c.N, c.w, c.epsilon) for c in cases}) == 1
        params = [make_case_params(c) for c in cases]
        fid, sur, _ = _propagate(N, cases[0].w, params, 120)
        for b, p in enumerate(params):
            alone = simulate_full_protocol(N, cases[0].w, p, n_max=120)
            assert np.array_equal(fid[b], alone.fidelity)
            assert np.array_equal(sur[b], alone.survival)


class TestApply:
    @pytest.mark.parametrize("N", [2, 16, 129])
    def test_long_double_is_bit_identical_to_complex_matmul(self, N):
        rng = np.random.default_rng(N)
        U = rng.standard_normal((N, N)).astype(np.longdouble)
        for shape in ((N,), (N, 3)):
            v = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
                np.clongdouble
            )
            for M in (U, np.ascontiguousarray(U.T)):
                assert np.array_equal(_apply(M, v), M.astype(np.clongdouble) @ v)

    @pytest.mark.parametrize("N", [2, 16, 129])
    def test_double_matches_complex_matmul(self, N):
        rng = np.random.default_rng(N)
        U = rng.standard_normal((N, N))
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        for M in (U, np.ascontiguousarray(U.T)):
            ref = M.astype(complex) @ v
            got = _apply(M, v)
            assert got.dtype == np.complex128
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("extended", [True, False])
    def test_factors_cache_the_coupling(self, extended):
        N, w, eps = 16, 3, 0.0
        F = _block_propagator_factors(N, w, eps, extended)
        assert F.M.flags.c_contiguous and F.MT.flags.c_contiguous
        assert np.array_equal(F.MT, F.M.T)
        if extended:
            _, U_d = _eigh_refined(N, w, -(1.0 + eps), +1.0)
        else:
            _, U_d = np.linalg.eigh(_block(N, w, -(1.0 + eps), +1.0))
        assert np.array_equal(F.M, F.U_u.T @ U_d)


class TestFullState:
    def test_database_contraction(self):
        amps = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
        state = FullState(amplitudes=amps, survival=1.0)
        assert state.N == 2
        db = state.database_part(np.array([1.0, 0.0]))
        np.testing.assert_allclose(db, [1 / math.sqrt(2), 0.0])


class TestEquivalenceSuite:
    def test_small_slice_passes(self):
        cases = [
            EquivalenceCase(N=4, w=2, delta_t=math.pi, delta_theta=0.01, steps=200),
            EquivalenceCase(N=16, w=3, delta_t=1.0, delta_theta=0.001, steps=200),
            EquivalenceCase(N=64, w=11, delta_t=math.pi + 0.2, delta_theta=0.0, steps=200),
        ]
        for result in equivalence_suite(cases):
            assert result.passed(1e-8), result

    def test_fault_injection_is_caught(self):
        cases = [
            EquivalenceCase(N=16, w=3, delta_t=1.0, delta_theta=0.01, steps=50),
        ]
        bad = equivalence_suite(
            cases,
            block_transform=lambda b: BlockHamiltonians(
                h_up=b.h_up, h_down=b.h_up.copy()
            ),
        )
        assert not bad[0].passed(1e-8)


class TestDefaultCases:
    def test_single_size_draws_at_most_n_targets(self):
        cases = default_equivalence_cases(sizes=(2,), steps=5)
        assert len(cases) == 18  # 2 targets x 3 dt x 3 dtheta
        assert {c.w for c in cases} == {0, 1}
        assert all(c.N == 2 and c.steps == 5 for c in cases)

    def test_standard_matrix(self):
        cases = default_equivalence_cases()
        assert len(cases) == 108  # 4 sizes x 3 targets x 3 dt x 3 dtheta
        assert {c.N for c in cases} == {4, 16, 64, 256}
        assert all(c.steps == 200 for c in cases)
