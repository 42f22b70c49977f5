import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenogrover import effective, stroboscopic
from zenogrover.model import (
    SURVIVAL_FLOOR,
    RunRecord,
    SubspaceState,
    grover_fidelity_closed_form,
    make_params,
    overlap_x,
)
from zenogrover.stroboscopic import (
    accumulate_process,
    approx_step_operator,
    distance_from_unitarity,
    exact_step_operator,
    expm_2x2_hermitian,
    final_distance,
    run_protocol,
    subspace_basis_matrices,
)


def align_global_phase(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Rotate ``other`` by the global phase that matches ``reference`` at the
    largest-magnitude entry of ``reference``."""
    idx = np.unravel_index(np.argmax(np.abs(reference)), reference.shape)
    ref, oth = reference[idx], other[idx]
    if abs(oth) == 0.0:
        return other
    return other * (ref / abs(ref)) * (abs(oth) / oth)


def _sequential_propagate(params, entries, n):
    """Reference trajectory: the step-by-step loop over Python complex
    entries [v00, v01, v10, v11] that the chunked product kernel replaced."""
    x = params.x
    # accumulated operator entries
    a, b = 1.0 + 0j, 0j
    c, d = 0j, 1.0 + 0j
    # raw (unnormalized) propagated state: survival source
    rw = complex(x)
    rr = complex(math.sqrt(1.0 - x * x))
    # renormalized state: fidelity source
    pw, pr = rw, rr

    steps = np.arange(n + 1)
    fid = np.empty(n + 1)
    sur = np.empty(n + 1)
    dist = np.empty(n + 1)
    fid[0] = x * x
    sur[0] = 1.0
    dist[0] = 0.0
    underflow = False
    frozen_p = 0.0

    for j, (v00, v01, v10, v11) in enumerate(entries, 1):
        a, b, c, d = (
            v00 * a + v01 * c,
            v00 * b + v01 * d,
            v10 * a + v11 * c,
            v10 * b + v11 * d,
        )
        rw, rr = v00 * rw + v01 * rr, v10 * rw + v11 * rr
        pw, pr = v00 * pw + v01 * pr, v10 * pw + v11 * pr

        p_cond = abs(pw) ** 2 + abs(pr) ** 2
        if p_cond > 0.0:
            scale = 1.0 / math.sqrt(p_cond)
            pw *= scale
            pr *= scale
            fid[j] = abs(pw) ** 2
        else:
            # post-selection annihilated the state; keep the last direction
            underflow = True
            fid[j] = fid[j - 1]

        if underflow:
            sur[j] = frozen_p
        else:
            p_raw = abs(rw) ** 2 + abs(rr) ** 2
            if p_raw < SURVIVAL_FLOOR:
                underflow = True
                sur[j] = frozen_p
            else:
                sur[j] = p_raw
        dist[j] = 1.0 - 0.5 * (
            abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
        )

    V = np.array([[a, b], [c, d]], dtype=complex)
    record = RunRecord(
        params=params,
        steps=steps,
        times=steps * params.delta_t,
        fidelity=fid,
        survival=sur,
        distance=dist,
        underflow=underflow,
        final_state=SubspaceState(pw, pr, sur[-1]),
    )
    return V, record


def _steps_case(N, n=None, engine="exact", **kwargs):
    def build():
        p = make_params(N, **kwargs)
        steps = p.n_G if n is None else n
        return p, steps, lambda: stroboscopic._step_entries(p, steps, engine, None)

    return build


def _zero_step_case():
    # step 70 (in the second chunk) annihilates the state exactly
    p = make_params(1e4, 1.0, alpha=0.3)
    n = 200

    def entries():
        rows = np.concatenate(list(stroboscopic._step_entries(p, n, "exact", None)))
        rows[69] = 0.0
        return iter([rows])

    return p, n, entries


def _effective_case():
    p = make_params(1e6, k=1, tau=0.2, alpha=0.3)
    n = p.n_G
    return p, n, lambda: effective._effective_entries(p, n)


_KERNEL_CASES = {
    "ladder_a": _steps_case(1e6, k=1, tau=0.2, alpha=0.3),
    "sweep_dt_pi": _steps_case(1e10, delta_t=3.1416, alpha=0.3),
    "sweep_eps_detuned": _steps_case(
        1e18,
        k=1_000_000,
        tau=0.2,
        alpha=0.3,
        epsilon=2 * math.sqrt(3) * overlap_x(1e18),
    ),
    "approx": _steps_case(1e10, engine="approx", delta_t=math.pi + 0.2, alpha=0.3),
    "effective": _effective_case,
    "deep_damping": _steps_case(4.0, 3000, delta_t=math.pi, delta_theta=0.01),
    "annihilating": _steps_case(1e4, 12, delta_t=1.0, delta_theta=math.pi / 2),
    "exact_zero_step": _zero_step_case,
}


class TestKernelMatchesSequentialLoop:
    @pytest.mark.parametrize("case", list(_KERNEL_CASES))
    def test_record_matches_reference(self, case, monkeypatch):
        if case == "sweep_dt_pi":
            # blocks of 40 steps: every chunk of the kernel spans entry blocks
            monkeypatch.setattr(stroboscopic, "_BLOCK_STEPS", 40)
        p, n, entries = _KERNEL_CASES[case]()
        V, got = stroboscopic._propagate(p, entries(), n)
        flat = itertools.chain.from_iterable(b.tolist() for b in entries())
        V_ref, ref = _sequential_propagate(p, flat, n)
        assert np.max(np.abs(got.fidelity - ref.fidelity)) <= 1e-12
        live = ref.survival > 0
        assert np.array_equal(got.survival > 0, live)
        rel = np.abs(got.survival[live] - ref.survival[live]) / ref.survival[live]
        assert np.max(rel) <= 1e-12
        assert np.max(np.abs(got.distance - ref.distance)) <= 1e-12
        assert got.underflow == ref.underflow
        np.testing.assert_allclose(V, V_ref, rtol=0, atol=1e-12)
        if case in ("deep_damping", "annihilating", "exact_zero_step"):
            assert ref.underflow
            assert np.argmin(got.survival > 0) == np.argmin(live)
        if case == "exact_zero_step":
            assert np.all(got.fidelity[70:] == got.fidelity[69])
            assert np.all(got.distance[70:] == 1.0)


class TestBlockMatrices:
    def test_explicit_entries_at_n4(self):
        p = make_params(4.0, 1.0)
        blocks = subspace_basis_matrices(p)
        r3 = 0.25 * math.sqrt(3)
        np.testing.assert_allclose(
            blocks.h_up, [[-1.25, -r3], [-r3, -0.75]], atol=1e-15
        )
        np.testing.assert_allclose(
            blocks.h_down, [[-0.75, r3], [r3, 0.75]], atol=1e-15
        )

    def test_small_overlap_limit(self):
        p = make_params(1e18, 2.0)
        blocks = subspace_basis_matrices(p)
        np.testing.assert_allclose(blocks.h_up, -np.eye(2), atol=2 * p.x)

    def test_driving_terms_cancel_in_sum(self):
        p = make_params(64.0, 1.0, epsilon=0.07)
        blocks = subspace_basis_matrices(p)
        expected = -2.0 * (1.0 + p.epsilon) * np.array([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(blocks.h_up + blocks.h_down, expected, atol=1e-14)

    def test_hermitian(self):
        p = make_params(16.0, 1.0, epsilon=0.3)
        blocks = subspace_basis_matrices(p)
        assert np.max(np.abs(blocks.h_up - blocks.h_up.T)) < 1e-14
        assert np.max(np.abs(blocks.h_down - blocks.h_down.T)) < 1e-14

    def test_up_block_spectrum_is_minus_one_plus_minus_x(self):
        # cross-checked two ways: numeric eigensolve and the characteristic
        # polynomial lambda^2 + 2 lambda + (1 - x^2)
        for N in (4.0, 16.0, 100.0):
            p = make_params(N, 1.0)
            blocks = subspace_basis_matrices(p)
            eig = np.sort(np.linalg.eigvalsh(blocks.h_up))
            np.testing.assert_allclose(eig, [-1 - p.x, -1 + p.x], atol=1e-12)
            for lam in eig:
                assert abs(lam**2 + 2 * lam + (1 - p.x**2)) < 1e-12


class TestExpm2x2:
    def test_matches_scipy_on_random_hermitian(self):
        import scipy.linalg

        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b, c = rng.normal(size=3)
            H = np.array([[a, b], [b, c]])
            t = float(rng.uniform(0.1, 10.0))
            expected = scipy.linalg.expm(-1j * H * t)
            np.testing.assert_allclose(expm_2x2_hermitian(H, t), expected, atol=1e-13)

    def test_degenerate_limit(self):
        H = -2.0 * np.eye(2)
        np.testing.assert_allclose(
            expm_2x2_hermitian(H, 1.7), np.exp(2j * 1.7) * np.eye(2), atol=1e-15
        )


class TestStepOperators:
    def test_no_rotation_is_unitary_evolution(self):
        p = make_params(1e6, 1.0, delta_theta=0.0)
        blocks = subspace_basis_matrices(p)
        op = exact_step_operator(5, p)
        expected = expm_2x2_hermitian(blocks.h_up, p.delta_t)
        np.testing.assert_allclose(op.matrix, expected, atol=1e-15)
        assert abs(op.distance) < 1e-12

    def test_orthogonal_postselection_annihilates(self):
        # theta_0 = 0, theta_1 = pi/2: the coupling never flips the ancilla
        p = make_params(1e4, 1.0, delta_theta=math.pi / 2)
        op = exact_step_operator(1, p)
        np.testing.assert_allclose(op.matrix, np.zeros((2, 2)), atol=1e-16)
        assert op.distance == pytest.approx(1.0)

    def test_zeno_identity(self):
        p = make_params(1e8, math.pi, delta_theta=0.013)
        for j in (1, 2, 10, 500):
            op = exact_step_operator(j, p)
            assert op.c_j + op.s_j == pytest.approx(math.cos(p.delta_theta), abs=1e-15)

    def test_cosine_form_matches_weighted_blocks(self):
        # reference: V_j = C_j P + S_j Q with the per-step weights; the cosine
        # form reorders the arithmetic, so allow a few double-precision ulps
        p = make_params(1e6, math.pi + 0.2, delta_theta=0.013, theta0=0.3)
        blocks = subspace_basis_matrices(p)
        E_up = expm_2x2_hermitian(blocks.h_up, p.delta_t)
        E_dn = expm_2x2_hermitian(blocks.h_down, p.delta_t)
        damp = np.exp(-2j * p.delta_t)
        for j in (1, 2, 77, 5000):
            op = exact_step_operator(j, p)
            ref = op.c_j * E_up + op.s_j * E_dn
            np.testing.assert_allclose(op.matrix, ref, rtol=0, atol=4e-16)
            op = approx_step_operator(j, p)
            c, s, x, dt = op.c_j, op.s_j, p.x, p.delta_t
            off = 1j * c * x * dt - 0.5 * s * x * (1 - damp)
            ref = np.array([[c + s, off], [off, c + s * damp]])
            np.testing.assert_allclose(op.matrix, ref, rtol=0, atol=4e-16)

    def test_near_unitary_at_pi_multiples(self):
        # dt = pi k: each cycle is close to cos(dtheta) times a unitary
        p = make_params(1e10, math.pi, delta_theta=1e-3)
        op = exact_step_operator(3, p)
        bound = 1 - math.cos(p.delta_theta) ** 2 + 10 * p.x
        assert 0 <= op.distance <= bound

    def test_step_index_validation(self):
        p = make_params(1e4, 1.0)
        with pytest.raises(ValueError):
            exact_step_operator(0, p)
        with pytest.raises(ValueError):
            approx_step_operator(0, p)


class TestApproxOperator:
    def test_no_rotation_is_identity_like(self):
        # C=1, S=0: unit diagonal plus the first-order search rotation i x dt
        p = make_params(1e10, 2.0, delta_theta=0.0)
        op = approx_step_operator(1, p)
        np.testing.assert_allclose(np.diag(op.matrix), [1.0, 1.0], atol=1e-15)
        assert op.matrix[0, 1] == pytest.approx(1j * p.x * p.delta_t, abs=1e-15)
        exact = exact_step_operator(1, p).matrix
        aligned = align_global_phase(exact, op.matrix)
        assert np.linalg.norm(exact - aligned) < 1e-8

    def test_pi_step_kills_residual_term(self):
        # at dt = pi the 1 - e^{-2i dt} factor vanishes: off-diagonal is i C x pi
        p = make_params(1e10, math.pi, delta_theta=1e-4)
        op = approx_step_operator(7, p)
        expected_off = 1j * op.c_j * p.x * math.pi
        assert abs(op.matrix[0, 1] - expected_off) < 1e-12 * abs(expected_off) + 1e-18

    def test_matches_exact_engine_in_regime(self):
        # frozen tolerance from the exact-engine oracle
        p = make_params(1e10, math.pi + 0.2, delta_theta=3e-6 * (math.pi + 0.2))
        exact = exact_step_operator(100, p).matrix
        approx = align_global_phase(exact, approx_step_operator(100, p).matrix)
        assert np.linalg.norm(exact - approx) < 1e-6


class TestDistance:
    def test_identity(self):
        assert distance_from_unitarity(np.eye(2)) == 0.0

    def test_zero_matrix(self):
        assert distance_from_unitarity(np.zeros((2, 2))) == 1.0

    def test_scaled_unitary(self):
        U = expm_2x2_hermitian(np.array([[0.3, 0.1], [0.1, -0.2]]), 2.0)
        assert distance_from_unitarity(0.5 * U) == pytest.approx(0.75, abs=1e-14)


class TestAccumulate:
    def test_ordering_regression(self):
        p = make_params(1e4, math.pi + 0.2, alpha=0.3)
        blocks = subspace_basis_matrices(p)
        for n in (2, 5, 17):
            V_n, _ = accumulate_process(p, n)
            V_prev, _ = accumulate_process(p, n - 1) if n > 1 else (np.eye(2), None)
            step = exact_step_operator(n, p, blocks).matrix
            np.testing.assert_allclose(V_n, step @ V_prev, atol=1e-14)

    def test_survival_three_ways(self):
        p = make_params(1e6, math.pi + 0.2, alpha=0.3)
        n = 400
        V, record = accumulate_process(p, n)
        s = np.array([p.x, math.sqrt(1 - p.x**2)], dtype=complex)
        from_product = float(np.linalg.norm(V @ s) ** 2)
        assert abs(record.survival[-1] - from_product) < 1e-10
        # product of conditional success probabilities
        psi = s.copy()
        acc = 1.0
        blocks = subspace_basis_matrices(p)
        for j in range(1, n + 1):
            psi = exact_step_operator(j, p, blocks).matrix @ psi
            cond = float(np.vdot(psi, psi).real)
            acc *= cond
            psi /= math.sqrt(cond)
        assert abs(record.survival[-1] - acc) < 1e-10

    def test_survival_non_increasing(self):
        p = make_params(1e6, math.pi + 0.2, alpha=0.3, epsilon=2 * p_x3(1e6))
        record = run_protocol(p)
        assert np.all(np.diff(record.survival) <= 1e-12)

    def test_record_shape_and_boundaries(self):
        p = make_params(1e4, 1.0, alpha=0.1)
        record = run_protocol(p, 50)
        assert record.steps[0] == 0 and record.steps[-1] == 50
        assert record.survival[0] == 1.0
        assert record.fidelity[0] == pytest.approx(1.0 / p.N, rel=1e-12)
        assert np.all((record.fidelity >= 0) & (record.fidelity <= 1 + 1e-12))
        assert np.all((record.survival >= 0) & (record.survival <= 1 + 1e-12))
        assert record.times[-1] == pytest.approx(50 * p.delta_t, rel=1e-15)
        assert record.final_state is not None
        assert record.final_state.norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_unitary_limit_distance_stays_zero(self):
        p = make_params(1e6, 1.0, delta_theta=0.0)
        _, record = accumulate_process(p, 100_000)
        assert np.max(np.abs(record.distance)) <= 1e-10
        assert np.max(np.abs(record.survival - 1.0)) <= 1e-10

    def test_no_rotation_reduces_to_closed_form(self):
        p = make_params(1e6, 1.0, delta_theta=0.0)
        record = run_protocol(p)
        for i in range(len(record.steps)):
            f_expected = grover_fidelity_closed_form(record.times[i], p.N)
            assert abs(record.fidelity[i] - f_expected) < 1e-9

    def test_reference_process_readout(self):
        p = make_params(1e6, k=1, tau=0.2, alpha=0.3)
        record = run_protocol(p)
        assert record.final_fidelity == pytest.approx(0.98, abs=0.01)
        assert record.final_survival == pytest.approx(0.27, abs=0.02)

    def test_detuned_readouts(self):
        # readout pairs at the two special detunings; the published success
        # figures correspond to fidelity times survival
        N2 = 1000000162505052417
        p0 = make_params(float(N2), k=1063662, tau=0.2, alpha=0.3)
        for m_factor, f_want, fp_want, f_tol, fp_tol in (
            (math.sqrt(3), 0.88, 0.08, 0.02, 0.01),
            (math.sqrt(15), 0.63, 0.018, 0.03, 0.005),
        ):
            p = make_params(
                float(N2), k=1063662, tau=0.2, alpha=0.3, epsilon=2 * p0.x * m_factor
            )
            record = run_protocol(p)
            assert record.final_fidelity == pytest.approx(f_want, abs=f_tol)
            success = record.final_fidelity * record.final_survival
            assert success == pytest.approx(fp_want, abs=fp_tol)

    def test_exact_vs_approx_engine_fidelity(self):
        # regime x*dt <= 1e-3
        p = make_params(1e10, math.pi + 0.2, alpha=0.3)
        exact = run_protocol(p, engine="exact")
        approx = run_protocol(p, engine="approx")
        assert abs(exact.final_fidelity - approx.final_fidelity) < 1e-4

    def test_annihilating_postselection_crushes_survival(self):
        # theta_1 = pi/2 annihilates the state up to the representation error
        # of pi/2 (cos gives ~6e-17, squared ~4e-33); a few more near-orthogonal
        # projections push P below the floor and set the underflow flag
        p = make_params(1e4, 1.0, delta_theta=math.pi / 2)
        record = run_protocol(p, 12)
        assert record.survival[1] <= 4e-33
        assert record.underflow
        assert record.survival[-1] == 0.0
        assert np.all(np.isfinite(record.fidelity))

    def test_deep_damping_underflow_freezes_survival(self):
        # strong damping at tiny N drives P below the floor well before n=3000
        p = make_params(4.0, math.pi, delta_theta=0.01)
        record = run_protocol(p, 3000)
        assert record.underflow
        assert record.survival[-1] == 0.0
        assert np.all(np.isfinite(record.fidelity))
        assert np.all(np.diff(record.survival) <= 1e-12)

    def test_final_distance_matches_record(self):
        p = make_params(1e6, math.pi + 0.2, alpha=0.3)
        _, record = accumulate_process(p, 200)
        assert final_distance(p, 200) == pytest.approx(
            record.distance[-1], abs=1e-15
        )

    def test_final_distance_streams_the_record_product(self, monkeypatch):
        # across many blocks of step entries the result is the record's last
        # distance bit for bit, and memory does not grow with n
        monkeypatch.setattr(stroboscopic, "_BLOCK_STEPS", 64)
        p = make_params(1e6, math.pi + 0.2, alpha=0.3)
        _, record = accumulate_process(p, 1000)
        assert final_distance(p, 1000) == record.distance[-1]
        peaks = []
        for n in (1000, 8000):
            tracemalloc.start()
            final_distance(p, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_engine_validation(self):
        p = make_params(1e4, 1.0)
        with pytest.raises(ValueError):
            accumulate_process(p, 10, engine="bogus")
        with pytest.raises(ValueError):
            accumulate_process(p, 0)

    @given(
        n_exp=st.floats(min_value=2, max_value=8),
        tau=st.floats(min_value=-0.4, max_value=0.4),
        alpha=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_survival_never_increases_property(self, n_exp, tau, alpha):
        p = make_params(10.0**n_exp, k=1, tau=tau, alpha=alpha)
        record = run_protocol(p, min(p.n_G, 120))
        assert np.all(np.diff(record.survival) <= 1e-12)


class TestFinalDistancePrecision:
    @pytest.mark.parametrize(
        "delta_t, steps", [(9.4248, 16666), (25.1327, 6250)], ids=["3pi", "8pi"]
    )
    def test_matches_30_digit_product(self, delta_t, steps):
        # centres of the 3pi and 8pi sweep-dt windows: the same double step
        # entries multiplied out in 30-digit arithmetic
        import mpmath

        p = make_params(1e10, delta_t, alpha=0.3)
        assert p.n_G == steps
        with mpmath.workdps(30):
            a, b, c, d = mpmath.mpc(1), mpmath.mpc(0), mpmath.mpc(0), mpmath.mpc(1)
            for block in stroboscopic._step_entries(p, steps, "exact", None):
                for v in block.tolist():
                    v00, v01, v10, v11 = map(mpmath.mpc, v)
                    a, b, c, d = (
                        v00 * a + v01 * c,
                        v00 * b + v01 * d,
                        v10 * a + v11 * c,
                        v10 * b + v11 * d,
                    )
            ref = 1 - (abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2) / 2
        assert abs(final_distance(p, steps) - float(ref)) <= 1e-12


def p_x3(N):
    return math.sqrt(3) / math.sqrt(N)
