import math

import numpy as np
import pytest
import scipy.linalg

from zenogrover import fullspace
from zenogrover.fullspace import (
    EquivalenceCase,
    _evolve,
    _full_size,
    _propagate,
    _step_kernels,
    default_equivalence_cases,
    equivalence_suite,
    make_case_params,
    simulate_full_protocol,
)
from zenogrover.model import SURVIVAL_FLOOR, grover_fidelity_closed_form, make_params
from zenogrover.stroboscopic import run_protocol


def _block(N: int, w: int, coeff_w: float, coeff_s: float) -> np.ndarray:
    s = np.full(N, 1.0 / math.sqrt(N))
    H = coeff_s * np.outer(s, s)
    H[w, w] += coeff_w
    return H


def build_full_hamiltonian(N: int, w: int, epsilon: float = 0.0) -> np.ndarray:
    """Joint Hamiltonian -(1+eps) I (x) |w><w| - sigma_z (x) |s><s| as a dense
    2N x 2N real symmetric matrix (ancilla-major ordering, up block first)."""
    N = _full_size(N)
    if not 0 <= w < N:
        raise ValueError(f"target index w={w} out of range for N={N}")
    H = np.zeros((2 * N, 2 * N))
    H[:N, :N] = _block(N, w, -(1.0 + epsilon), -1.0)
    H[N:, N:] = _block(N, w, -(1.0 + epsilon), +1.0)
    return H


def complement_weight(state, w: int) -> float:
    """Probability weight outside span{|q> (x) |w>, |q> (x) |r>}.

    Projects both ancilla components of a normalized joint state onto the
    orthogonal complement of {|w>, |s>} in the database factor and returns the
    total squared norm left over.
    """
    N = state.size // 2
    s = np.full(N, 1.0 / math.sqrt(N))
    wv = np.zeros(N)
    wv[w] = 1.0
    rv = s - s[w] * wv
    rv /= np.linalg.norm(rv)
    total = 0.0
    for part in (state[:N], state[N:]):
        residual = part - (wv @ part) * wv - (rv @ part) * rv
        total += float(np.vdot(residual, residual).real)
    return total


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
            build_full_hamiltonian(fullspace.MAX_FULLSPACE_N + 1, 0)
        with pytest.raises(ValueError):
            build_full_hamiltonian(8, 8)


class TestSimulate:
    def test_no_rotation_reduces_to_closed_form(self):
        N = 64
        params = make_params(float(N), 1.0, delta_theta=0.0)
        record = simulate_full_protocol(11, params, n_max=120)
        for i, t in enumerate(record.times):
            assert abs(
                record.fidelity[i] - grover_fidelity_closed_form(float(t), float(N))
            ) < 1e-9
        assert np.max(np.abs(record.survival - 1.0)) < 1e-10

    def test_matches_subspace_engine(self):
        N = 16
        params = make_params(float(N), 1.0, delta_theta=0.01)
        full = simulate_full_protocol(4, params, n_max=200)
        sub = run_protocol(params, 200)
        assert np.max(np.abs(full.fidelity - sub.fidelity)) < 1e-10
        assert np.max(np.abs(full.survival - sub.survival)) < 1e-10

    def test_detuned_case_matches_subspace_engine(self):
        N = 16
        params = make_params(float(N), math.pi + 0.2, delta_theta=0.005, epsilon=0.07)
        full = simulate_full_protocol(9, params, n_max=150)
        sub = run_protocol(params, 150)
        assert np.max(np.abs(full.fidelity - sub.fidelity)) < 1e-10
        assert np.max(np.abs(full.survival - sub.survival)) < 1e-10

    def test_orthogonal_postselection_annihilates(self):
        # first projection lands on the flipped ancilla state the coupling
        # can never produce: survival collapses to the pi/2 rounding residue
        params = make_params(4.0, 1.0, delta_theta=math.pi / 2)
        record = simulate_full_protocol(2, params, n_max=1)
        assert record.survival[1] <= 4e-33

    @staticmethod
    def _worst_leak(N=32, w=13, dt=math.pi + 0.2, dtheta=0.01, steps=150):
        params = make_params(float(N), dt, delta_theta=dtheta)
        worst = 0.0
        worst_norm = 0.0

        def watch(step, state):
            nonlocal worst, worst_norm
            worst = max(worst, complement_weight(state, w))
            norm = float(np.vdot(state, state).real)
            worst_norm = max(worst_norm, abs(norm - 1.0))

        simulate_full_protocol(w, params, n_max=steps, state_callback=watch)
        return worst, worst_norm

    def test_joint_state_stays_in_search_plane(self):
        worst, worst_norm = self._worst_leak()
        assert worst < 1e-10
        assert worst_norm < 1e-12

    def test_double_precision_state_stays_in_search_plane(self):
        # deep into the damping, survival far below 1e-30, the plane still
        # holds in double precision
        worst, worst_norm = self._worst_leak(N=4, w=2, dt=math.pi, dtheta=0.01, steps=700)
        assert worst < 1e-10
        assert worst_norm < 1e-12

    def test_non_target_entries_stay_bitwise_equal(self):
        N, w = 16, 5
        params = make_params(float(N), math.pi + 0.2, delta_theta=0.01, epsilon=0.07)
        spreads = []

        def watch(step, state):
            for part in (state[:N], state[N:]):
                rest = np.delete(part, w)
                spreads.append(np.count_nonzero(rest != rest[0]))

        simulate_full_protocol(w, params, n_max=300, state_callback=watch)
        assert len(spreads) == 600 and not any(spreads)

    def test_validation(self):
        params = make_params(16.0, 1.0)
        # the size is params.N, which the full space runs only as an integer
        # in [2, 2**20]
        for N in (16.4, fullspace.MAX_FULLSPACE_N + 1):
            with pytest.raises(ValueError, match=r"runs an integer N in \[2, 1048576\]"):
                simulate_full_protocol(3, make_params(N, 1.0, delta_theta=0.01))
        with pytest.raises(ValueError):
            simulate_full_protocol(16, params)  # target out of range
        with pytest.raises(ValueError):
            simulate_full_protocol(1, params, n_max=0)


def _block_step(H_b, dt, dense):
    """One step's propagator ``exp(-i H_b dt)`` of a dense block, as a
    function of the state: the dense ``scipy.linalg.expm`` matrix, or the
    products ``U diag(phase) Uᵀ`` of the block's ``numpy.linalg.eigh``."""
    if dense:
        E = scipy.linalg.expm(-1j * dt * H_b)
        return lambda v: E @ v
    lam, U = np.linalg.eigh(H_b)
    UT = np.ascontiguousarray(U.T)
    phase = np.exp(-1j * lam * dt)
    return lambda v: U @ (phase * (UT @ v))


def _reference_protocol(N, w, params, n_max, dense):
    """The protocol with dense propagators of each ancilla block of
    ``build_full_hamiltonian`` (see ``_block_step``), applied to both ancilla
    components every step in double precision; returns (fidelity, survival,
    underflow)."""
    H = build_full_hamiltonian(N, w, params.epsilon)
    step_u = _block_step(H[:N, :N], params.delta_t, dense)
    step_d = _block_step(H[N:, N:], params.delta_t, dense)
    s0 = np.full(N, 1.0 / math.sqrt(N), dtype=complex)
    up = math.cos(params.theta0) * s0
    dn = math.sin(params.theta0) * s0

    fid = np.empty(n_max + 1)
    sur = np.empty(n_max + 1)
    fid[0] = 1.0 / N
    sur[0] = 1.0
    underflow = False
    survival = 1.0

    for j in range(1, n_max + 1):
        up = step_u(up)
        dn = step_d(dn)
        th = params.theta0 + j * params.delta_theta
        cth, sth = math.cos(th), math.sin(th)
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
        db = db / math.sqrt(p)
        up = cth * db
        dn = sth * db
        fid[j] = float(abs(db[w]) ** 2)
        sur[j] = survival
    return fid, sur, underflow


def _first_zero(survival):
    zero = np.flatnonzero(survival == 0.0)
    return int(zero[0]) if zero.size else None


#: (delta_t, delta_theta, epsilon, steps, theta0); annihilation and
#: deep-damping freeze survival at SURVIVAL_FLOOR (steps 10 and ~600); the
#: ancilla of no-rotation never rotates, and that of theta0-only starts
#: rotated and stays there
REFERENCE_CASES = {
    "plain": (1.0, 0.01, 0.0, 200, 0.0),
    "detuned": (math.pi + 0.2, 0.005, 0.07, 150, 0.0),
    "annihilation": (1.0, math.pi / 2, 0.0, 20, 0.0),
    "deep-damping": (math.pi, 1.0, 0.0, 700, 0.0),
    "no-rotation": (math.pi + 0.2, 0.0, 0.0, 150, 0.0),
    "theta0-only": (math.pi + 0.2, 0.0, 0.0, 150, 0.3),
}


class TestAgainstFourProductLoop:
    """The oracle against the four-product loop ``U diag(phase) Uᵀ`` on both
    ancilla components (``dense=False``) and against dense ``expm`` blocks
    (``dense=True``)."""

    @pytest.mark.parametrize("dense", [True, False])
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    @pytest.mark.parametrize("N", [2, 16, 129])
    def test_matches_reference(self, N, case, dense):
        dt, dth, eps, steps, theta0 = REFERENCE_CASES[case]
        w = N // 3
        params = make_params(float(N), dt, delta_theta=dth, theta0=theta0, epsilon=eps)
        ref_f, ref_p, ref_underflow = _reference_protocol(N, w, params, steps, dense)
        record = simulate_full_protocol(w, params, n_max=steps)
        assert np.max(np.abs(record.fidelity - ref_f)) <= 1e-11
        assert np.max(np.abs(record.survival - ref_p)) <= 1e-11
        assert record.underflow == ref_underflow
        assert _first_zero(record.survival) == _first_zero(ref_p)
        if case in ("annihilation", "deep-damping"):
            assert ref_underflow


class TestStep:
    @pytest.mark.parametrize("dt", [1.0, math.pi + 0.2])
    @pytest.mark.parametrize("eps", [0.0, 0.07])
    @pytest.mark.parametrize("N", [2, 3, 16, 64])
    def test_equals_dense_expm_on_every_vector(self, N, eps, dt):
        # random complex vectors, with components outside span{|w>, |s>}
        w = N // 3
        rng = np.random.default_rng(N)
        psi = rng.standard_normal((2, 3, N)) + 1j * rng.standard_normal((2, 3, N))
        want = [
            scipy.linalg.expm(-1j * dt * _block(N, w, -(1.0 + eps), sigma)) @ psi[b].T
            for b, sigma in enumerate((-1.0, +1.0))
        ]
        _evolve(psi, _step_kernels(N, eps, np.full(3, dt)), w)
        for b in range(2):
            assert np.max(np.abs(psi[b].T - want[b])) <= 1e-13

    def test_large_n_matches_exact_engine(self):
        N = 100_000
        params = make_params(float(N), k=1, tau=0.2, alpha=0.3)
        assert params.n_G == 148
        full = simulate_full_protocol(12_345, params)
        exact = run_protocol(params)
        assert np.max(np.abs(full.fidelity - exact.fidelity)) <= 1e-12
        assert np.max(np.abs(full.survival / exact.survival - 1.0)) <= 1e-11


@pytest.mark.slow
def test_ladder_a_through_the_full_space():
    # the published ladder_a readout, without the 2x2 reduction: N = 1e6, 470 steps
    params = make_params(1e6, k=1, tau=0.2, alpha=0.3)
    full = simulate_full_protocol(271_828, params)
    exact = run_protocol(params)
    assert abs(full.final_fidelity - 0.98) <= 0.01
    assert abs(full.final_survival - 0.27) <= 0.02
    assert np.max(np.abs(full.fidelity - exact.fidelity)) <= 1e-12
    assert np.max(np.abs(full.survival / exact.survival - 1.0)) <= 1e-11


class TestBatch:
    @pytest.mark.parametrize("N", [16, 129])
    def test_group_member_equals_single_run(self, N):
        cases = default_equivalence_cases(sizes=(N,), steps=120)[:9]
        assert len({(c.N, c.w, c.epsilon) for c in cases}) == 1
        params = [make_case_params(c) for c in cases]
        records = _propagate(cases[0].w, params, 120)
        for record, p in zip(records, params):
            alone = simulate_full_protocol(cases[0].w, p, n_max=120)
            assert np.array_equal(record.fidelity, alone.fidelity)
            assert np.array_equal(record.survival, alone.survival)

    @pytest.mark.parametrize("N", [16, 129, 20_000])
    def test_mixed_group_member_equals_single_run(self, N):
        # (theta0, dtheta): never rotating, theta0 only, dtheta only, both
        params = [
            make_params(float(N), dt, delta_theta=dth, theta0=theta0)
            for dt in (1.0, math.pi + 0.2)
            for theta0, dth in ((0.0, 0.0), (0.3, 0.0), (0.0, 0.01), (0.3, 0.01))
        ]
        records = _propagate(5, params, 120)
        for record, p in zip(records, params):
            alone = simulate_full_protocol(5, p, n_max=120)
            assert np.array_equal(record.fidelity, alone.fidelity)
            assert np.array_equal(record.survival, alone.survival)

    @pytest.mark.parametrize("N", [16, 129])
    def test_mixed_target_member_equals_single_run(self, N):
        # a group of verify: three targets, nine (dt, dtheta) each, one batch
        cases = default_equivalence_cases(sizes=(N,), steps=120)
        assert len({c.w for c in cases}) == 3
        params = [make_case_params(c) for c in cases]
        records = _propagate([c.w for c in cases], params, 120)
        for record, case, p in zip(records, cases, params):
            alone = simulate_full_protocol(case.w, p, n_max=120)
            assert np.array_equal(record.fidelity, alone.fidelity)
            assert np.array_equal(record.survival, alone.survival)

    def test_group_memory_does_not_grow_with_its_size(self, monkeypatch):
        # slices of at most two rows of the (2, B, N) state: 4 MB at N = 2**16
        import tracemalloc

        N = 2**16
        monkeypatch.setattr(fullspace, "_BATCH_BYTES", 2 * 32 * N)
        peaks = []
        for size in (2, 8):
            cases = [EquivalenceCase(N, w, 1.0, 0.01, steps=2) for w in range(size)]
            tracemalloc.start()
            results = equivalence_suite(cases)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert all(r.passed() for r in results)
        assert peaks[1] < 1.2 * peaks[0]


class TestApply:
    @pytest.mark.parametrize("N", [2, 16, 129])
    def test_double_matches_complex_matmul(self, N):
        # the matrix-free step against the dense operator I + V K Vᵀ it applies
        w = N // 3
        rng = np.random.default_rng(N)
        K = _step_kernels(N, 0.07, np.array([1.0, math.pi + 0.2]))
        V = np.zeros((N, 2))
        V[w, 0] = 1.0
        V[:, 1] = 1.0 / math.sqrt(N)
        psi = rng.standard_normal((2, 2, N)) + 1j * rng.standard_normal((2, 2, N))
        want = [[(np.eye(N) + V @ K[b, c] @ V.T) @ psi[b, c] for c in range(2)]
                for b in range(2)]
        _evolve(psi, K, w)
        assert psi.dtype == np.complex128
        ref = np.array(want)
        assert np.max(np.abs(psi - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestEquivalenceSuite:
    def test_small_slice_passes(self):
        cases = [
            EquivalenceCase(N=4, w=2, delta_t=math.pi, delta_theta=0.01, steps=200),
            EquivalenceCase(N=16, w=3, delta_t=1.0, delta_theta=0.001, steps=200),
            EquivalenceCase(N=64, w=11, delta_t=math.pi + 0.2, delta_theta=0.0, steps=200),
        ]
        for result in equivalence_suite(cases):
            assert result.passed(), result

    def test_fault_injection_is_caught(self):
        cases = [
            EquivalenceCase(N=16, w=3, delta_t=1.0, delta_theta=0.01, steps=50),
        ]
        bad = equivalence_suite(cases, engine="hdown-sign")
        assert not bad[0].passed()

    def test_unknown_engine_fails_before_the_full_space(self, monkeypatch):
        def reached(*args):
            raise AssertionError("the full space ran before the engine name was checked")

        monkeypatch.setattr(fullspace, "_propagate", reached)
        cases = [EquivalenceCase(N=16, w=3, delta_t=1.0, delta_theta=0.01, steps=5)]
        with pytest.raises(ValueError, match="unknown engine 'bogus'"):
            equivalence_suite(cases, engine="bogus")


class TestDefaultCases:
    def test_single_size_draws_at_most_n_targets(self):
        cases = default_equivalence_cases(sizes=(2,), steps=5)
        assert len(cases) == 18  # 2 targets x 3 dt x 3 dtheta
        assert {c.w for c in cases} == {0, 1}
        assert all(c.N == 2 and c.steps == 5 for c in cases)

    @pytest.mark.parametrize("N", [2, 3, 4, 16, 128, 4096])
    def test_targets_are_distinct_in_range_and_deterministic(self, N):
        def targets(sizes):
            cases = default_equivalence_cases(sizes=sizes, steps=5)
            return [c.w for c in cases if c.N == N][::9]

        ws = targets((N,))
        assert len(set(ws)) == len(ws) == min(3, N)
        assert all(isinstance(w, int) and 0 <= w < N for w in ws)
        assert targets((N,)) == ws
        # a size draws the same targets whatever the other sizes
        assert targets((7, 9, N)) == ws

    def test_standard_matrix(self):
        cases = default_equivalence_cases()
        assert len(cases) == 108  # 4 sizes x 3 targets x 3 dt x 3 dtheta
        assert {c.N for c in cases} == {4, 16, 64, 256}
        assert all(c.steps == 200 for c in cases)
