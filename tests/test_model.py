import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenogrover.model import (
    SubspaceState,
    grover_fidelity_closed_form,
    grover_step_count,
    make_params,
    overlap_x,
    split_step_duration,
)


class TestMakeParams:
    def test_direct_dt_example(self):
        # N=1e10, dt=pi, dtheta/dt = 3e-6
        p = make_params(1e10, math.pi, delta_theta=3e-6 * math.pi)
        assert p.x == 1e-5
        assert p.n_G == 50000

    def test_k_tau_construction(self):
        p = make_params(1e6, k=1, tau=0.2, alpha=0.3)
        assert p.delta_t == math.pi + 0.2
        assert p.delta_theta == pytest.approx(0.3 * p.delta_t / 1e3, rel=1e-15)
        assert p.alpha == pytest.approx(0.3, rel=1e-12)
        assert p.built_from == "k_tau"

    def test_rejects_small_database(self):
        with pytest.raises(ValueError):
            make_params(1.0, 1.0)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            make_params(100.0, 0.0)
        with pytest.raises(ValueError):
            make_params(100.0, -1.0)

    def test_rejects_dt_beyond_search_time(self):
        # pi*sqrt(N)/2 ~ 15.7 for N=100; dt=20 leaves no whole step
        with pytest.raises(ValueError):
            make_params(100.0, 20.0)

    def test_rejects_conflicting_arguments(self):
        with pytest.raises(ValueError):
            make_params(1e4, 1.0, k=1, tau=0.1)
        with pytest.raises(ValueError):
            make_params(1e4, 1.0, delta_theta=0.1, alpha=0.1)
        with pytest.raises(ValueError):
            make_params(1e4)

    def test_rejects_bad_k_tau(self):
        with pytest.raises(ValueError):
            make_params(1e6, k=0, tau=0.1)
        with pytest.raises(ValueError):
            make_params(1e6, k=1, tau=1.6)

    def test_rejects_theta0_out_of_range(self):
        with pytest.raises(ValueError):
            make_params(1e4, 1.0, theta0=math.pi / 2)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_inputs(self, bad):
        for call in (
            lambda: make_params(bad, 1.0),
            lambda: make_params(1e6, bad),
            lambda: make_params(1e6, k=1, tau=bad),
            lambda: make_params(1e6, 1.0, delta_theta=bad),
            lambda: make_params(1e6, 1.0, alpha=bad),
            lambda: make_params(1e6, 1.0, theta0=bad),
            lambda: make_params(1e6, 1.0, epsilon=bad),
        ):
            with pytest.raises(ValueError, match="must be finite"):
                call()

    def test_derived_fields_reproducible_bitwise(self):
        p = make_params(123456.0, 2.5, delta_theta=1e-3, epsilon=0.01)
        assert p.x == overlap_x(p.N)
        assert p.n_G == grover_step_count(p.N, p.delta_t)
        assert p.alpha == math.sqrt(p.N) * p.delta_theta / p.delta_t
        k, tau = split_step_duration(p.delta_t)
        assert (p.k, p.tau) == (k, tau)

    @given(
        k=st.integers(min_value=1, max_value=10**6),
        tau=st.floats(min_value=-1.5, max_value=1.5),
    )
    @settings(max_examples=200)
    def test_k_tau_roundtrip(self, k, tau):
        dt = math.pi * k + tau
        k_back, tau_back = split_step_duration(dt)
        assert k_back == k
        assert abs(tau_back - tau) <= math.ulp(dt)


class TestClosedFormFidelity:
    def test_at_zero(self):
        assert grover_fidelity_closed_form(0.0, 1e4) == pytest.approx(1e-4, rel=1e-14)

    def test_first_maximum(self):
        N = 1e6
        x = overlap_x(N)
        assert grover_fidelity_closed_form(math.pi / (2 * x), N) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_full_period_returns_to_start(self):
        N = 1e6
        x = overlap_x(N)
        assert grover_fidelity_closed_form(math.pi / x, N) == pytest.approx(
            1.0 / N, abs=1e-12
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            grover_fidelity_closed_form(-1.0, 1e4)
        with pytest.raises(ValueError):
            grover_fidelity_closed_form(1.0, 1.5)

    @given(t=st.floats(min_value=0.0, max_value=1e5))
    @settings(max_examples=200)
    def test_periodic_and_bounded(self, t):
        N = 1e4
        x = overlap_x(N)
        f = grover_fidelity_closed_form(t, N)
        assert 1.0 / N - 1e-12 <= f <= 1.0 + 1e-12
        f_shift = grover_fidelity_closed_form(t + math.pi / x, N)
        assert f_shift == pytest.approx(f, abs=1e-9)


class TestSubspaceState:
    def test_initial_state(self):
        p = make_params(1e4, 1.0)
        s = SubspaceState.initial(p)
        assert s.norm_sq == pytest.approx(1.0, abs=1e-15)
        assert s.survival == 1.0
        assert s.fidelity == pytest.approx(1e-4, rel=1e-12)
