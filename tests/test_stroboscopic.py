import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenogrover import effective, stroboscopic
from zenogrover.model import (
    SURVIVAL_FLOOR,
    RunRecord,
    grover_fidelity_closed_form,
    make_params,
    overlap_x,
)
from zenogrover.stroboscopic import (
    ENGINES,
    _expm_2x2,
    distance_from_unitarity,
    final_readout,
    run_protocol,
    step_operator,
)


def subspace_basis_matrices(params):
    """Reference: the two ancilla blocks (h_up, h_dn) of the joint
    Hamiltonian in the (|w>, |r>) basis, for the given overlap x and
    detuning epsilon:

    h_up = -(1+eps)|w><w| - |s><s|  (ancilla up),
    h_dn = -(1+eps)|w><w| + |s><s|  (ancilla down).

    Their sum is -2(1+eps)|w><w|: the driving parts cancel.  With |s> =
    x|w> + c|r>, c = sqrt(1-x^2), |s><s| has entries [[x^2, x*c], [x*c, c^2]].
    """
    x = params.x
    c = math.sqrt(1.0 - x * x)
    ww = np.array([[1.0, 0.0], [0.0, 0.0]])
    ss = np.array([[x * x, x * c], [x * c, c * c]])
    coeff = 1.0 + params.epsilon
    return -coeff * ww - ss, -coeff * ww + ss


def expm_hermitian(H, t):
    """exp(-i H t) of a real symmetric 2x2 H through :func:`_expm_2x2`."""
    a = 0.5 * (H[0, 0] + H[1, 1])
    t00, t01 = H[0, 0] - a, H[0, 1]
    return _expm_2x2(a, t00, t01, math.hypot(t00, abs(t01)), t)


def align_global_phase(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Rotate ``other`` by the global phase that matches ``reference`` at the
    largest-magnitude entry of ``reference``."""
    idx = np.unravel_index(np.argmax(np.abs(reference)), reference.shape)
    ref, oth = reference[idx], other[idx]
    if abs(oth) == 0.0:
        return other
    return other * (ref / abs(ref)) * (abs(oth) / oth)


def cycle_weights(j, params):
    """The (C_j, S_j) ancilla-projection weights of cycle j."""
    th_prev = params.theta0 + (j - 1) * params.delta_theta
    th_cur = params.theta0 + j * params.delta_theta
    return math.cos(th_prev) * math.cos(th_cur), math.sin(th_prev) * math.sin(th_cur)


def small_overlap_step(j, params):
    """Reference: the small-overlap cycle matrix of step j (x -> 0, x dt << 1,
    global phase e^{i dt} dropped, no detuning term), C_j P + S_j Q with

        P = [[1, i x dt], [i x dt, 1]],
        Q = [[1, -(x/2)(1 - e^{-2i dt})], [-(x/2)(1 - e^{-2i dt}), e^{-2i dt}]],

    so its diagonal is (C_j + S_j, C_j + S_j e^{-2i dt}) and both
    off-diagonal entries are i C_j x dt - (S_j x / 2)(1 - e^{-2i dt})."""
    c, s = cycle_weights(j, params)
    x, dt = params.x, params.delta_t
    damp = np.exp(-2j * dt)
    off = 1j * c * x * dt - 0.5 * s * x * (1 - damp)
    return np.array([[c + s, off], [off, c + s * damp]])


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
    )
    return V, record


def _entries(fill, n):
    """Entries (v00, v01, v10, v11) of V_1, ..., V_n as an (n, 4) array, as
    the step source ``fill`` writes them for the index array 1, ..., n."""
    out = np.empty((2, 2, n), dtype=complex)
    fill(np.arange(1, n + 1), out)
    return out.reshape(4, n).T


def _product(p, n, engine="exact"):
    """(V(n), record) of ``engine`` through the kernel: V(n) is what no
    public call returns."""
    (V,) = _final_products([(stroboscopic._step_source(p, engine), n)])
    return V, _propagate_one(p, stroboscopic._step_source(p, engine), n)


def _propagate_one(p, fill, n):
    """The record of the one run (p, fill, n) through the kernel."""
    return stroboscopic._propagate([(p, fill, n)])[0]


def _final_products(runs):
    """V(n) of each run (fill, n) of ``runs``, from the record-free pass of
    the kernel that ``final_readout`` reads: for the i-th span of a batch,
    the last row of the run's last chunk, identities past step n."""
    out = [None] * len(runs)
    for W, g, spans in stroboscopic._scan(runs, record=False):
        for i, (s, *_) in enumerate(spans):
            out[s] = W[..., i, -1] * np.ldexp(1.0, g[i, -1])
    return out


def _steps_case(N, n=None, engine="exact", **kwargs):
    def build():
        p = make_params(N, **kwargs)
        steps = p.n_G if n is None else n
        return p, steps, lambda: stroboscopic._step_source(p, engine)

    return build


def _zero_step_case(engine="exact", value=0.0):
    # step 70 (in the second chunk) annihilates the state exactly, or, with
    # value nan, is not finite
    p = make_params(1e4, 1.0, alpha=0.3)
    n = 200
    source = stroboscopic._step_source(p, engine)

    def fill(j, out):
        source(j, out)
        out[:, :, j == 70] = value

    return p, n, lambda: fill


def _effective_case():
    p = make_params(1e6, k=1, tau=0.2, alpha=0.3)
    return p, p.n_G, lambda: effective._effective_source(p)


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
    "effective": _effective_case,
    "deep_damping": _steps_case(4.0, 3000, delta_t=math.pi, delta_theta=0.01),
    "annihilating": _steps_case(1e4, 12, delta_t=1.0, delta_theta=math.pi / 2),
    "exact_zero_step": _zero_step_case,
}


class TestKernelMatchesSequentialLoop:
    @pytest.mark.parametrize("case", list(_KERNEL_CASES))
    def test_record_matches_reference(self, case, monkeypatch):
        if case in ("sweep_dt_pi", "exact_zero_step"):
            # batches of 3 chunks of 64 steps: the carry crosses many batches
            # and the last batch is shorter; batches of 1 chunk put step 70 in
            # the second
            steps = 3 * 64 if case == "sweep_dt_pi" else 40
            monkeypatch.setattr(stroboscopic, "_BLOCK_STEPS", steps)
        p, n, source = _KERNEL_CASES[case]()
        got = _propagate_one(p, source(), n)
        (V,) = _final_products([(source(), n)])
        V_ref, ref = _sequential_propagate(p, _entries(source(), n).tolist(), n)
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

    @pytest.mark.parametrize("value", [0.0, np.nan])
    def test_only_a_step_that_is_not_finite_raises(self, value, monkeypatch):
        # an annihilated step reads P = 0, a step that is not finite P = nan:
        # the record and the readout pass raise on it, with no RuntimeWarning
        monkeypatch.setattr(stroboscopic, "_BLOCK_STEPS", 64)
        p, n, source = _zero_step_case(value=value)
        monkeypatch.setattr(stroboscopic, "_step_source", lambda params, engine: source())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if value == 0.0:
                assert _propagate_one(p, source(), n).underflow
                assert stroboscopic._final_readouts([p, p], n)[1][1] == 0.0
                return
            with pytest.raises(ValueError, match="non-finite operator at N=10000.0"):
                _propagate_one(p, source(), n)
            with pytest.raises(ValueError, match="non-finite operator at N=10000.0"):
                stroboscopic._final_readouts([p, p], n)

    def test_carry_in_place_is_the_broadcast_product(self):
        # the same products and sums as the broadcast, so the same bits
        rng = np.random.default_rng(5)
        M = rng.normal(size=(64, 2, 2, 3)) + 1j * rng.normal(size=(64, 2, 2, 3))
        K = rng.normal(size=(2, 2, 3)) + 1j * rng.normal(size=(2, 2, 3))
        ref = M[:, :, :1] * K[:1] + M[:, :, 1:] * K[1:]
        stroboscopic._times_carry(M, K, *np.empty((2, 64, 3), dtype=complex))
        assert np.array_equal(M, ref)


def _batch_cases(engine):
    """Runs of ``engine`` of 1, 63, 64, 65 and 470 steps and the deep-damping,
    annihilating and zero-step cases of _KERNEL_CASES, as (params, n, source)."""
    builders = [_steps_case(1e6, n, engine, k=1, tau=0.2, alpha=0.3) for n in (1, 63, 64, 65, 470)]
    builders += [
        _steps_case(4.0, 3000, engine, delta_t=math.pi, delta_theta=0.01),
        _steps_case(1e4, 12, engine, delta_t=1.0, delta_theta=math.pi / 2),
        lambda: _zero_step_case(engine),
    ]
    return [build() for build in builders]


class TestBatchedKernel:
    @pytest.mark.parametrize("block", [stroboscopic._BLOCK_STEPS, 64, 3 * 64])
    @pytest.mark.parametrize("engine", ["exact", "hdown-sign", "effective"])
    def test_each_run_equals_its_single_run(self, engine, block, monkeypatch):
        # batches of 1 and 3 chunks: the 470- and 3000-step runs span batch
        # boundaries, and the carry with its exponent must cross them
        monkeypatch.setattr(stroboscopic, "_BLOCK_STEPS", block)
        cases = _batch_cases(engine)
        batch = stroboscopic._propagate([(p, source(), n) for p, n, source in cases])
        ends = _final_products([(source(), n) for _, n, source in cases])
        for (p, n, source), record, V in zip(cases, batch, ends):
            alone = _propagate_one(p, source(), n)
            assert np.array_equal(V, _final_products([(source(), n)])[0])
            for name in ("fidelity", "survival", "distance"):
                assert np.array_equal(getattr(record, name), getattr(alone, name))
            assert record.underflow == alone.underflow

    @pytest.mark.parametrize("block", [stroboscopic._BLOCK_STEPS, 64])
    def test_final_readouts_equal_single_readouts(self, block, monkeypatch):
        # the 81 points of the q recipe, 499 steps each, then three sweep-dt
        # points of 50 000 steps: n_G differs from run to run
        monkeypatch.setattr(stroboscopic, "_BLOCK_STEPS", block)
        base = make_params(1e18, k=1000000, tau=0.2, alpha=0.3)
        points = [
            make_params(base.N, base.delta_t, delta_theta=base.delta_theta, epsilon=r * base.x)
            for r in np.linspace(-10, 10, 81)
        ]
        points += [make_params(1e10, dt, alpha=0.3) for dt in (3.1, 3.1416, 3.2)]
        assert stroboscopic._final_readouts(points) == [final_readout(p) for p in points]

    def test_no_engine_gains_survival_or_norm(self):
        # ||V_j|| <= 1 for exact (|C_j| + |S_j| <= 1) and for hdown-sign
        # (cos dtheta times a unitary); the effective generator's
        # anti-Hermitian part is >= 0.  So P <= 1 and d >= 0 at every step,
        # and neither can overflow
        rng = np.random.default_rng(26)
        points = []
        for _ in range(24):
            N = 10.0 ** rng.uniform(1, 12)
            points.append(make_params(
                N, k=int(rng.integers(1, 6)), tau=rng.uniform(-1.5, 1.5),
                alpha=10.0 ** rng.uniform(-2, 1), theta0=rng.uniform(-1.5, 1.5),
                epsilon=rng.normal() / math.sqrt(N),
            ))
        for engine in ("exact", "hdown-sign", "effective"):
            for record in stroboscopic._run_protocols(points, 500, engine):
                assert np.all(record.survival <= 1.0), engine
                assert np.all(record.distance >= 0.0), engine


class TestStepSource:
    @pytest.mark.parametrize("engine", ["exact", "hdown-sign", "effective"])
    def test_writes_every_index(self, engine, monkeypatch):
        # V_j for 0-d, 1-d and 2-d index arrays, in any order and into a
        # non-contiguous out; effective blocks of 3 steps (11 substeps each)
        # split the 1-d and 2-d arrays
        monkeypatch.setattr(effective, "_SUBSTEPS_PER_BLOCK", 33)
        p = make_params(1e6, k=1, tau=0.2, alpha=0.3, theta0=0.3)
        source = stroboscopic._step_source(p, engine)
        for j in (np.array(101), np.array([7, 1, 300, 2, 65]),
                  np.arange(101, 113).reshape(3, 4).T):
            out = np.moveaxis(np.empty((*j.shape, 2, 2), dtype=complex), (-2, -1), (0, 1))
            source(j, out)
            for at in np.ndindex(j.shape):
                assert np.array_equal(out[(...,) + at], step_operator(int(j[at]), p, engine))
        if engine == "hdown-sign":
            # Q = P: every step is the up-block propagator scaled by cos(dtheta)
            P = expm_hermitian(subspace_basis_matrices(p)[0], p.delta_t)
            np.testing.assert_allclose(
                step_operator(5, p, engine), math.cos(p.delta_theta) * P, atol=1e-15
            )


    @pytest.mark.parametrize("block", [stroboscopic._BLOCK_STEPS, 128])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 470])
    def test_kernel_asks_for_steps_one_to_n_once(self, n, block, monkeypatch):
        # no pad index past n reaches the source, in one batch or in several
        monkeypatch.setattr(stroboscopic, "_BLOCK_STEPS", block)
        p = make_params(1e6, k=1, tau=0.2, alpha=0.3)
        source, seen = stroboscopic._step_source(p, "exact"), []

        def recording(j, out):
            seen.extend(j.ravel().tolist())
            source(j, out)

        _propagate_one(p, recording, n)
        assert sorted(seen) == list(range(1, n + 1))


class TestEngineDispatch:
    def test_effective_is_a_protocol_engine(self):
        p = make_params(1e6, k=1, tau=0.2, alpha=0.3)
        got = run_protocol(p, 300, "effective")
        # reference: |s> through the engine's step operators one at a time
        psi = np.array([p.x, math.sqrt(1 - p.x**2)], dtype=complex)
        for j in range(1, 301):
            psi = step_operator(j, p, "effective") @ psi
            norm = float(np.vdot(psi, psi).real)
            assert got.survival[j] == pytest.approx(norm, rel=1e-12)
            assert got.fidelity[j] == pytest.approx(abs(psi[0]) ** 2 / norm, abs=1e-12)

    def test_effective_records_the_distance(self):
        p = make_params(1e6, k=1, tau=0.2, alpha=0.3)
        V, record = _product(p, 300, "effective")
        assert record.distance[0] == 0.0
        assert np.all(np.isfinite(record.distance))
        assert record.distance[-1] == distance_from_unitarity(V)

    def test_every_engine_honours_theta0(self):
        # theta_j = theta0 + j dtheta in every engine: at theta0 = 0.3 the
        # exact P reads 0.0065, 41 times below its theta0 = 0 value of 0.27
        p = make_params(1e6, k=1, tau=0.2, alpha=0.3, theta0=0.3)
        exact = run_protocol(p).final_survival
        for engine in ENGINES:
            assert run_protocol(p, engine=engine).final_survival == pytest.approx(exact, rel=0.05)


class TestBlockMatrices:
    def test_explicit_entries_at_n4(self):
        p = make_params(4.0, 1.0)
        h_up, h_dn = subspace_basis_matrices(p)
        r3 = 0.25 * math.sqrt(3)
        np.testing.assert_allclose(
            h_up, [[-1.25, -r3], [-r3, -0.75]], atol=1e-15
        )
        np.testing.assert_allclose(
            h_dn, [[-0.75, r3], [r3, 0.75]], atol=1e-15
        )

    def test_small_overlap_limit(self):
        p = make_params(1e18, 2.0)
        h_up, h_dn = subspace_basis_matrices(p)
        np.testing.assert_allclose(h_up, -np.eye(2), atol=2 * p.x)

    def test_driving_terms_cancel_in_sum(self):
        p = make_params(64.0, 1.0, epsilon=0.07)
        h_up, h_dn = subspace_basis_matrices(p)
        expected = -2.0 * (1.0 + p.epsilon) * np.array([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(h_up + h_dn, expected, atol=1e-14)

    def test_hermitian(self):
        p = make_params(16.0, 1.0, epsilon=0.3)
        h_up, h_dn = subspace_basis_matrices(p)
        assert np.max(np.abs(h_up - h_up.T)) < 1e-14
        assert np.max(np.abs(h_dn - h_dn.T)) < 1e-14

    def test_up_block_spectrum_is_minus_one_plus_minus_x(self):
        # cross-checked two ways: numeric eigensolve and the characteristic
        # polynomial lambda^2 + 2 lambda + (1 - x^2)
        for N in (4.0, 16.0, 100.0):
            p = make_params(N, 1.0)
            h_up, h_dn = subspace_basis_matrices(p)
            eig = np.sort(np.linalg.eigvalsh(h_up))
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
            got = _expm_2x2(0.5 * (a + c), 0.5 * (a - c), b, math.hypot(0.5 * (a - c), b), t)
            np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_degenerate_limit(self):
        # H = -2 I: T = 0 and w = 0
        np.testing.assert_allclose(
            _expm_2x2(-2.0, 0.0, 0.0, 0.0, 1.7), np.exp(2j * 1.7) * np.eye(2), atol=1e-15
        )

    def test_matches_scipy_on_damped_complex_symmetric(self):
        # the effective engine's case: H = [[h00, h01], [h01, h11]] complex
        # symmetric, not Hermitian, with Im h11 < 0; the last rows put T at its
        # exceptional point, T^2 = 0 with T != 0, where w = 0
        import scipy.linalg

        rng = np.random.default_rng(2)
        for i in range(60):
            h00, h01, h11 = rng.normal(size=3) + 1j * rng.normal(size=3)
            h11 = h11.real - 1j * rng.uniform(0.01, 2.0)
            if i >= 50:
                h01 = 0.5j * (h00 - h11)
            H = np.array([[h00, h01], [h01, h11]])
            t = float(rng.uniform(0.05, 3.0))
            a, t00 = 0.5 * (h00 + h11), 0.5 * (h00 - h11)
            w = np.sqrt(t00 * t00 + h01 * h01)
            expected = scipy.linalg.expm(-1j * H * t)
            scale = np.max(np.abs(expected))
            np.testing.assert_allclose(_expm_2x2(a, t00, h01, w, t), expected,
                                       rtol=0, atol=1e-13 * scale)

    def test_entry_arrays_give_a_matrix_per_entry(self):
        # entries of shape S = (3, 4) give shape (2, 2, 3, 4), each matrix the
        # scalar call's
        rng = np.random.default_rng(3)
        a, t00, t01 = (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)) for _ in "123")
        w = np.sqrt(t00 * t00 + t01 * t01)
        got = _expm_2x2(a, t00, t01, w, 0.7)
        assert got.shape == (2, 2, 3, 4)
        for at in np.ndindex(3, 4):
            one = _expm_2x2(a[at], t00[at], t01[at], w[at], 0.7)
            np.testing.assert_allclose(got[(...,) + at], one, rtol=1e-15, atol=0)


class TestStepOperators:
    def test_no_rotation_is_unitary_evolution(self):
        p = make_params(1e6, 1.0, delta_theta=0.0)
        h_up, h_dn = subspace_basis_matrices(p)
        op = step_operator(5, p)
        expected = expm_hermitian(h_up, p.delta_t)
        np.testing.assert_allclose(op, expected, atol=1e-15)
        assert abs(distance_from_unitarity(op)) < 1e-12

    def test_orthogonal_postselection_annihilates(self):
        # theta_0 = 0, theta_1 = pi/2: the coupling never flips the ancilla
        p = make_params(1e4, 1.0, delta_theta=math.pi / 2)
        op = step_operator(1, p)
        np.testing.assert_allclose(op, np.zeros((2, 2)), atol=1e-16)
        assert distance_from_unitarity(op) == pytest.approx(1.0)

    def test_cosine_form_matches_weighted_blocks(self):
        # reference: V_j = C_j P + S_j Q with the per-step weights; the cosine
        # form reorders the arithmetic, so allow a few double-precision ulps.
        # The small-overlap matrix, its global phase put back, is the same
        # step to first order in x dt
        p = make_params(1e6, math.pi + 0.2, delta_theta=0.013, theta0=0.3)
        h_up, h_dn = subspace_basis_matrices(p)
        E_up = expm_hermitian(h_up, p.delta_t)
        E_dn = expm_hermitian(h_dn, p.delta_t)
        for j in (1, 2, 77, 5000):
            c, s = cycle_weights(j, p)
            ref = c * E_up + s * E_dn
            np.testing.assert_allclose(step_operator(j, p), ref, rtol=0, atol=4e-16)
            small = np.exp(1j * p.delta_t) * small_overlap_step(j, p)
            assert np.max(np.abs(step_operator(j, p) - small)) < (p.x * p.delta_t) ** 2

    def test_near_unitary_at_pi_multiples(self):
        # dt = pi k: each cycle is close to cos(dtheta) times a unitary
        p = make_params(1e10, math.pi, delta_theta=1e-3)
        op = step_operator(3, p)
        bound = 1 - math.cos(p.delta_theta) ** 2 + 10 * p.x
        assert 0 <= distance_from_unitarity(op) <= bound

    def test_step_index_validation(self):
        p = make_params(1e4, 1.0)
        for engine in (*ENGINES, *stroboscopic.FAULTS):
            with pytest.raises(ValueError):
                step_operator(0, p, engine)


class TestApproxOperator:
    def test_no_rotation_is_identity_like(self):
        # C=1, S=0: unit diagonal plus the first-order search rotation i x dt
        p = make_params(1e10, 2.0, delta_theta=0.0)
        op = small_overlap_step(1, p)
        np.testing.assert_allclose(np.diag(op), [1.0, 1.0], atol=1e-15)
        assert op[0, 1] == pytest.approx(1j * p.x * p.delta_t, abs=1e-15)
        exact = step_operator(1, p)
        aligned = align_global_phase(exact, op)
        assert np.linalg.norm(exact - aligned) < 1e-8

    def test_pi_step_kills_residual_term(self):
        # at dt = pi the 1 - e^{-2i dt} factor vanishes: off-diagonal is i C x pi
        p = make_params(1e10, math.pi, delta_theta=1e-4)
        op = small_overlap_step(7, p)
        expected_off = 1j * cycle_weights(7, p)[0] * p.x * math.pi
        assert abs(op[0, 1] - expected_off) < 1e-12 * abs(expected_off) + 1e-18

    def test_matches_exact_engine_in_regime(self):
        # frozen tolerance from the exact-engine oracle
        p = make_params(1e10, math.pi + 0.2, delta_theta=3e-6 * (math.pi + 0.2))
        exact = step_operator(100, p)
        small = align_global_phase(exact, small_overlap_step(100, p))
        assert np.linalg.norm(exact - small) < 1e-6


class TestDistance:
    def test_identity(self):
        assert distance_from_unitarity(np.eye(2)) == 0.0

    def test_zero_matrix(self):
        assert distance_from_unitarity(np.zeros((2, 2))) == 1.0

    def test_scaled_unitary(self):
        U = expm_hermitian(np.array([[0.3, 0.1], [0.1, -0.2]]), 2.0)
        assert distance_from_unitarity(0.5 * U) == pytest.approx(0.75, abs=1e-14)


class TestAccumulate:
    def test_ordering_regression(self):
        p = make_params(1e4, math.pi + 0.2, alpha=0.3)
        for n in (2, 5, 17):
            V_n, _ = _product(p, n)
            V_prev, _ = _product(p, n - 1) if n > 1 else (np.eye(2), None)
            step = step_operator(n, p)
            np.testing.assert_allclose(V_n, step @ V_prev, atol=1e-14)

    def test_survival_three_ways(self):
        p = make_params(1e6, math.pi + 0.2, alpha=0.3)
        n = 400
        V, record = _product(p, n)
        s = np.array([p.x, math.sqrt(1 - p.x**2)], dtype=complex)
        from_product = float(np.linalg.norm(V @ s) ** 2)
        assert abs(record.survival[-1] - from_product) < 1e-10
        # product of conditional success probabilities
        psi = s.copy()
        acc = 1.0
        for j in range(1, n + 1):
            psi = step_operator(j, p) @ psi
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

    def test_unitary_limit_distance_stays_zero(self):
        p = make_params(1e6, 1.0, delta_theta=0.0)
        record = run_protocol(p, 100_000)
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

    def test_final_readout_matches_record(self):
        p = make_params(1e6, math.pi + 0.2, alpha=0.3)
        record = run_protocol(p, 200)
        assert final_readout(p, 200)[2] == pytest.approx(
            record.distance[-1], abs=1e-15
        )

    def test_final_readout_streams_the_record_product(self, monkeypatch):
        # across many blocks of step entries the result is the record's last
        # distance bit for bit, and memory does not grow with n
        monkeypatch.setattr(stroboscopic, "_BLOCK_STEPS", 64)
        p = make_params(1e6, math.pi + 0.2, alpha=0.3)
        record = run_protocol(p, 1000)
        assert final_readout(p, 1000)[2] == record.distance[-1]
        peaks = []
        for n in (1000, 8000):
            tracemalloc.start()
            final_readout(p, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_engine_validation(self):
        p = make_params(1e4, 1.0)
        with pytest.raises(ValueError):
            run_protocol(p, 10, engine="bogus")
        with pytest.raises(ValueError):
            run_protocol(p, 0)

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


class TestFinalReadout:
    def test_is_the_records_last_row(self, monkeypatch):
        base = make_params(1e18, k=1000000, tau=0.2, alpha=0.3)
        cases = [  # the 81 points of the q recipe, 499 steps each
            (make_params(base.N, base.delta_t, delta_theta=base.delta_theta,
                         epsilon=r * base.x), None)
            for r in np.linspace(-10, 10, 81)
        ]
        cases += [
            (make_params(1e6, k=1, tau=0.2, alpha=0.3), None),  # ladder_a
            # survival falls below the floor at step 2154 and at step 10
            (make_params(4.0, math.pi, delta_theta=0.01), 3000),
            (make_params(16.0, 1.0, delta_theta=math.pi / 2), 40),
        ]
        for p, n in cases:
            record = run_protocol(p, n)
            last = (record.fidelity[-1], record.survival[-1], record.distance[-1])
            assert final_readout(p, n) == last
        # the centre of the d_pi sweep, 49 999 steps in 782 batches
        monkeypatch.setattr(stroboscopic, "_BLOCK_STEPS", 64)
        p = make_params(1e10, 3.1416, alpha=0.3)
        record = run_protocol(p)
        last = (record.fidelity[-1], record.survival[-1], record.distance[-1])
        assert final_readout(p) == last


def _traced_peak_mb(fn) -> float:
    """Peak traced allocation of one call of ``fn``, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    def test_final_readout_holds_one_step_buffer(self):
        # the centre of the d_pi sweep: 49 999 steps in 4 batches of the
        # kernel's 1 MB step buffer
        p = make_params(1e10, 3.1416, alpha=0.3)
        assert p.n_G == 49999
        assert _traced_peak_mb(lambda: final_readout(p)) <= 2.5

    def test_record_path_multiplies_the_carry_in_place(self):
        # 20 000 steps in two batches: the 1 MB step buffer, 0.5 MB of scratch
        # and the 0.8 MB record; a product with the carry formed outside the
        # buffer would add three 1 MB arrays, 4.9 MB in all
        p = make_params(1e10, 3.1416, alpha=0.3)
        assert _traced_peak_mb(lambda: run_protocol(p, 20000)) <= 3.35


def _mp_product(fill, steps):
    """The entries (a, b, c, d) of V(steps) = V_steps ... V_1 for the double
    step entries that ``fill`` writes, multiplied out in 30-digit arithmetic;
    call under ``mpmath.workdps(30)``."""
    import mpmath

    a, b, c, d = mpmath.mpc(1), mpmath.mpc(0), mpmath.mpc(0), mpmath.mpc(1)
    for v in _entries(fill, steps).tolist():
        v00, v01, v10, v11 = map(mpmath.mpc, v)
        a, b, c, d = (
            v00 * a + v01 * c,
            v00 * b + v01 * d,
            v10 * a + v11 * c,
            v10 * b + v11 * d,
        )
    return a, b, c, d


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
            a, b, c, d = _mp_product(stroboscopic._step_source(p, "exact"), steps)
            ref = 1 - (abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2) / 2
        assert abs(final_readout(p, steps)[2] - float(ref)) <= 1e-12


class TestFinalReadoutPrecision:
    @pytest.mark.parametrize(
        "steps", [20_000, pytest.param(100_000, marks=pytest.mark.slow)]
    )
    def test_matches_30_digit_product_at_n_1e18(self, steps):
        # a prefix of the 4.7e8 steps of N = 1e18, k = 1: the same double step
        # entries multiplied out in 30-digit arithmetic; f is near 1e-8 there
        import mpmath

        p = make_params(1e18, k=1, tau=0.2, alpha=0.3)
        f, P, d = final_readout(p, steps)
        with mpmath.workdps(30):
            a, b, c, e = _mp_product(stroboscopic._step_source(p, "exact"), steps)
            x, r = mpmath.mpf(p.x), mpmath.mpf(math.sqrt(1.0 - p.x * p.x))
            amp0 = abs(a * x + b * r) ** 2
            ref_P = amp0 + abs(c * x + e * r) ** 2
            ref_f = amp0 / ref_P
            ref_d = 1 - (abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(e) ** 2) / 2
        assert abs(f / float(ref_f) - 1.0) <= 1e-11
        assert abs(P / float(ref_P) - 1.0) <= 1e-11
        assert abs(d - float(ref_d)) <= 1e-11


def p_x3(N):
    return math.sqrt(3) / math.sqrt(N)
