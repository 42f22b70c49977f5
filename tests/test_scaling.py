import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenogrover.model import make_params, overlap_x
from zenogrover.scaling import (
    bad_epsilon_values,
    detuned_fidelity_analytic,
    plan_scaled_instance,
    quality_factor_sweep,
    scaled_process_check,
    scaling_k2,
)
from zenogrover.fullspace import simulate_full_protocol


class TestScalingK2:
    def test_identity(self):
        assert scaling_k2(1e6, 1, 0.2, 1e6) == 1.0

    def test_published_intermediate_size(self):
        k2 = scaling_k2(1e6, 1, 0.2, 1.08190849e8)
        assert abs(k2 - 11.0) < 1e-6

    def test_published_largest_size(self):
        k2 = scaling_k2(1e6, 1, 0.2, 1.000000162505052417e18)
        assert round(k2) == 1063662
        assert abs(k2 - 1063662) < 1e-8  # way below tau

    def test_validation(self):
        with pytest.raises(ValueError):
            scaling_k2(1.0, 1, 0.2, 1e6)
        with pytest.raises(ValueError):
            scaling_k2(1e6, 0, 0.2, 1e8)


class TestPlan:
    def test_identity_plan_collapses(self):
        plan = plan_scaled_instance(1e6, 1, 0.2, 1e6)
        assert plan.N2 == 10**6
        assert plan.k2 == 1
        assert plan.valid

    def test_published_ladder(self):
        expected = {
            1e8: (108190849, 11),
            1e14: (100008346615399, 10637),
            1e18: (1000000162505052417, 1063662),
        }
        for N_r, (N2, k2) in expected.items():
            plan = plan_scaled_instance(1e6, 1, 0.2, N_r)
            assert plan.N2 == N2
            assert plan.k2 == k2
            assert plan.valid
            assert plan.N2 >= N_r

    def test_rejects_shrinking_request(self):
        with pytest.raises(ValueError):
            plan_scaled_instance(1e6, 1, 0.2, 1e5)

    def test_monotone_and_asymptotically_tight(self):
        sizes = [10.0**e for e in range(7, 17)]
        plans = [plan_scaled_instance(1e6, 1, 0.2, s) for s in sizes]
        n2 = [p.N2 for p in plans]
        assert all(a <= b for a, b in zip(n2, n2[1:]))
        ratios = [p.N2 / p.N_r for p in plans]
        assert ratios[-1] < ratios[0]
        assert ratios[-1] < 1.0 + 1e-3

    def test_self_consistency_of_valid_plans(self):
        # rounding N2 up to an integer shifts the re-evaluated multiplier
        # above its integer by ~k2/(2 N2); that quantization floor, not
        # machine epsilon, bounds the residual of a valid plan
        eps = float(np.finfo(float).eps)
        for N_r in (1e8, 3.7e9, 1e12, 1e14, 1e18):
            plan = plan_scaled_instance(1e6, 1, 0.2, N_r)
            assert plan.valid
            excess = plan.k2_raw - plan.k2
            assert 0.0 <= excess <= plan.k2 * (1.0 / plan.N2 + 16 * eps)
            # module-level acceptance bound: well within 0.1 tau of integer
            assert excess < 0.1 * plan.tau

    def test_scaled_process_is_a_time_scaled_copy(self):
        plan = plan_scaled_instance(1e4, 1, 0.2, 1e6)
        report = scaled_process_check(plan, alpha=0.3)
        assert report.max_fidelity_deviation < 0.02
        assert report.max_survival_deviation < 0.02

    def test_identity_plan_has_zero_deviation(self):
        plan = plan_scaled_instance(1e6, 1, 0.2, 1e6)
        report = scaled_process_check(plan, alpha=0.3)
        assert report.max_fidelity_deviation == 0.0
        assert report.max_survival_deviation == 0.0


class TestDetunedAnalytic:
    def test_zero_detuning_is_plain_search_exactly(self):
        N = 1e10
        x = overlap_x(N)
        for t in (0.0, 1.0, 1234.5, math.pi / (2 * x)):
            assert detuned_fidelity_analytic(t, N, 0.0) == math.sin(x * t) ** 2

    def test_first_bad_detuning_kills_readout(self):
        N = 1e6
        x = overlap_x(N)
        eps = 2 * x * math.sqrt(3)
        assert detuned_fidelity_analytic(math.pi / (2 * x), N, eps) < 1e-24

    def test_value_against_full_space_run(self):
        # dtheta = 0 keeps the protocol unitary, so the full-space simulation
        # is an independent oracle for the detuned readout probability; the
        # closed form is an x->0 approximation, so agreement is O(x)
        N = 256
        x = overlap_x(N)
        eps = 2 * x
        params = make_params(float(N), 1.0, delta_theta=0.0, epsilon=eps)
        record = simulate_full_protocol(17, params)
        t_read = record.times[-1]
        predicted = detuned_fidelity_analytic(float(t_read), float(N), eps)
        assert abs(record.final_fidelity - predicted) < x

    @given(
        eps=st.floats(min_value=-1.0, max_value=1.0),
        t=st.floats(min_value=0.0, max_value=1e4),
    )
    @settings(max_examples=100)
    def test_symmetric_in_detuning_sign(self, eps, t):
        assert detuned_fidelity_analytic(t, 1e6, eps) == detuned_fidelity_analytic(
            t, 1e6, -eps
        )

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            detuned_fidelity_analytic(-1.0, 1e6, 0.0)


class TestBadEpsilons:
    def test_first_two_orders(self):
        N = 1e6
        x = overlap_x(N)
        values = bad_epsilon_values(N, 2)
        expected = [
            -2 * x * math.sqrt(3),
            2 * x * math.sqrt(3),
            -2 * x * math.sqrt(15),
            2 * x * math.sqrt(15),
        ]
        assert values == pytest.approx(expected, rel=1e-15)

    def test_sorted_by_magnitude(self):
        values = bad_epsilon_values(1e8, 5)
        mags = [abs(v) for v in values]
        assert mags == sorted(mags)
        assert len(values) == 10

    def test_each_zeroes_the_readout(self):
        for N in (1e4, 1e8, 1e16):
            x = overlap_x(N)
            T0 = math.pi / (2 * x)
            for eps in bad_epsilon_values(N, 4):
                assert detuned_fidelity_analytic(T0, N, eps) < 1e-24

    def test_validation(self):
        with pytest.raises(ValueError):
            bad_epsilon_values(1e6, 0)


class TestQualitySweep:
    def test_ideal_point_is_unity(self):
        # no rotation, no offset, no detuning: both sides are the plain search
        p = make_params(1e10, math.pi, delta_theta=0.0)
        (report,) = quality_factor_sweep(p, [0.0])
        assert not report.divergent
        assert report.Q == pytest.approx(1.0, abs=1e-6)
        assert report.P_nu == pytest.approx(1.0, abs=1e-10)

    def test_bad_detuning_flagged_divergent(self):
        p = make_params(1e10, math.pi + 0.2, alpha=0.3)
        (report,) = quality_factor_sweep(p, [2 * math.sqrt(3)])
        assert report.divergent
        assert math.isinf(report.Q)
        assert report.f_nu * report.P_nu > 0.0
        assert math.isinf(report.t_result_G)
        assert math.isfinite(report.t_result_nu)

    def test_output_order_and_parallel_determinism(self):
        p = make_params(1e8, math.pi + 0.2, alpha=0.3)
        grid = [-3.0, -1.0, 0.0, 1.0, 3.0]
        serial = quality_factor_sweep(p, grid, jobs=1)
        parallel = quality_factor_sweep(p, grid, jobs=4)
        assert [r.eps_over_x for r in serial] == grid
        assert serial == parallel

    def test_result_time_accounting(self):
        p = make_params(1e8, math.pi + 0.2, alpha=0.3)
        (report,) = quality_factor_sweep(p, [1.5])
        assert report.t_result_nu == pytest.approx(
            p.n_G * p.delta_t / (report.f_nu * report.P_nu), rel=1e-12
        )
        T0 = math.pi / (2 * p.x)
        assert report.t_result_G == pytest.approx(T0 / report.f_G, rel=1e-12)
