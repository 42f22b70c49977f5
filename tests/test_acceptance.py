"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Tolerances are pinned here and nowhere else.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from zenogrover.cli import RunConfig, run_config
from zenogrover.effective import (
    extract_step_hamiltonian,
    unitary_approx_fidelity,
)
from zenogrover.fullspace import default_equivalence_cases, equivalence_suite
from zenogrover.model import grover_fidelity_closed_form, make_params, overlap_x
from zenogrover.scaling import (
    bad_epsilon_values,
    detuned_fidelity_analytic,
    plan_scaled_instance,
    quality_factor_sweep,
)
from zenogrover.stroboscopic import final_readout, run_protocol, step_operator


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_oracle_equivalence():
    results = equivalence_suite(default_equivalence_cases())
    worst_f = max(r.max_fidelity_deviation for r in results)
    worst_p = max(r.max_survival_deviation for r in results)
    _report(
        "1 oracle equivalence",
        worst_f < 1e-8 and worst_p < 1e-8,
        f"{len(results)} cases, max|df|={worst_f:.3e}, max|dP|={worst_p:.3e} (tol 1e-8)",
    )


def test_criterion_2_unitary_limit_regression():
    params = make_params(1e6, 1.0, delta_theta=0.0)
    record = run_protocol(params)  # n_G steps
    worst = max(
        abs(record.fidelity[i] - grover_fidelity_closed_form(record.times[i], params.N))
        for i in range(len(record.steps))
    )
    _report(
        "2 unitary-limit regression",
        worst < 1e-9,
        f"n_G={params.n_G}, max|f - closed form|={worst:.3e} (tol 1e-9)",
    )


def test_criterion_3_distance_minima_at_pi_multiples():
    N = 1e10
    x = overlap_x(N)
    alpha = 3e-6 / x  # fixes dtheta/dt = 3e-6
    ok = True
    details = []
    for k in (1, 3, 8):
        center = math.pi * k
        offsets = np.linspace(-0.3, 0.3, 21)
        ds = []
        for off in offsets:
            p = make_params(N, center + float(off), alpha=alpha)
            ds.append(final_readout(p)[2])
        ds = np.array(ds)
        i_center = 10
        at_center = ds[i_center]
        ratio = min(ds[0], ds[-1]) / at_center
        window_ok = int(np.argmin(ds)) == i_center and ratio >= 10.0
        ok = ok and window_ok
        details.append(f"k={k}: d(pi k)={at_center:.2e}, edge ratio={ratio:.0f}")
    _report("3 distance minima", ok, "; ".join(details) + " (ratio tol 10)")


def test_criterion_4_scaling_ladder():
    reference = make_params(1e6, k=1, tau=0.2, alpha=0.3)
    ref = run_protocol(reference)
    ok = abs(ref.final_fidelity - 0.98) <= 0.01 and abs(ref.final_survival - 0.27) <= 0.02
    details = [
        f"ref f={ref.final_fidelity:.4f} P={ref.final_survival:.4f}"
    ]

    published = {
        1e8: (108190849, 11),
        1e14: (100008346615399, 10637),
        1e18: (1000000162505052417, 1063662),
    }
    for N_r, (want_N2, want_k2) in published.items():
        plan = plan_scaled_instance(1e6, 1, 0.2, N_r)
        exact_ints = plan.N2 == want_N2 and plan.k2 == want_k2
        scaled = run_protocol(
            make_params(float(plan.N2), k=plan.k2, tau=0.2, alpha=0.3)
        )
        f_close = abs(scaled.final_fidelity - ref.final_fidelity) <= 0.02
        p_close = abs(scaled.final_survival - ref.final_survival) <= 0.02
        ok = ok and exact_ints and f_close and p_close
        details.append(
            f"N_r={N_r:.0e}: N2={'ok' if exact_ints else 'MISMATCH'} "
            f"f={scaled.final_fidelity:.4f} P={scaled.final_survival:.4f}"
        )
    _report("4 scaling ladder", ok, "; ".join(details))


def test_criterion_5_detuned_readouts():
    # the published success figures at the special detunings correspond to
    # fidelity times survival (the probability of surviving every projection
    # and then reading out the target); raw survival alone sits above them
    N2 = 1000000162505052417
    x = overlap_x(float(N2))
    ok = True
    details = []
    for m_root, f_want, f_tol, s_want, s_tol in (
        (math.sqrt(3), 0.88, 0.02, 0.08, 0.01),
        (math.sqrt(15), 0.63, 0.03, 0.018, 0.005),
    ):
        p = make_params(
            float(N2), k=1063662, tau=0.2, alpha=0.3, epsilon=2 * x * m_root
        )
        record = run_protocol(p)
        success = record.final_fidelity * record.final_survival
        point_ok = (
            abs(record.final_fidelity - f_want) <= f_tol
            and abs(success - s_want) <= s_tol
        )
        ok = ok and point_ok
        details.append(
            f"eps=2x*{m_root:.3f}: f={record.final_fidelity:.4f} "
            f"(want {f_want}+-{f_tol}), f*P={success:.4f} (want {s_want}+-{s_tol})"
        )
    _report("5 detuned readouts", ok, "; ".join(details))


def test_criterion_6_detuning_zeros():
    ok = True
    worst = 0.0
    for N in (1e4, 1e8, 1e12, 1e18):
        x = overlap_x(N)
        T0 = math.pi / (2 * x)
        for eps in bad_epsilon_values(N, 5):
            val = detuned_fidelity_analytic(T0, N, eps)
            worst = max(worst, val)
            ok = ok and val < 1e-24
    # zero detuning must reproduce the plain search exactly
    N = 1e10
    x = overlap_x(N)
    exact = all(
        detuned_fidelity_analytic(t, N, 0.0) == math.sin(x * t) ** 2
        for t in np.linspace(0.0, math.pi / x, 101)
    )
    ok = ok and exact
    _report(
        "6 detuning zeros",
        ok,
        f"worst zero={worst:.3e} (tol 1e-24); eps=0 exact={exact}",
    )


def test_criterion_7_effective_model():
    rng = np.random.default_rng(20260809)
    worst_rt = 0.0
    n_checked = 0
    while n_checked < 10_000:
        N = 10.0 ** rng.uniform(2, 18)
        dt_hi = min(25.0, 0.9 * math.pi * math.sqrt(N) / 2)
        dt = rng.uniform(0.5, dt_hi)
        p = make_params(N, dt, delta_theta=rng.uniform(0.0, 0.05))
        op = step_operator(int(rng.integers(1, 10_000)), p)
        h = extract_step_hamiltonian(op, p.delta_t)
        back = scipy.linalg.expm(-1j * h.matrix * p.delta_t)
        worst_rt = max(worst_rt, float(np.max(np.abs(back - op))))
        n_checked += 1
    rt_ok = worst_rt < 1e-10

    # closed-form unitary approximation against the exact engine at zero offset
    N = 1e18
    worst_11 = 0.0
    for alpha in (0.1, 1.0):
        p = make_params(N, 1e6 * math.pi, alpha=alpha)
        exact = run_protocol(p, 2000)
        f11 = unitary_approx_fidelity(exact.steps, p)
        worst_11 = max(worst_11, float(np.max(np.abs(f11 - exact.fidelity))))
    eq11_ok = worst_11 <= 0.01

    # matched rotation doubles the search time: first maximum at pi sqrt(N)
    p = make_params(N, 1e6 * math.pi, alpha=1.0)
    f = unitary_approx_fidelity(np.arange(1, 2500), p)
    peak = 1 + int(np.argmax(f))
    peak_ok = abs(peak * p.delta_t - math.pi * math.sqrt(N)) <= p.delta_t

    _report(
        "7 effective model",
        rt_ok and eq11_ok and peak_ok,
        f"roundtrip worst={worst_rt:.3e} (tol 1e-10); "
        f"closed-form dev={worst_11:.4f} (tol 0.01); "
        f"first max at step {peak} (want {round(math.pi * math.sqrt(N) / p.delta_t)}+-1)",
    )


def test_criterion_8_survival_monotonicity():
    rng = np.random.default_rng(42)
    worst_engine = 0.0
    worst_eff = 0.0
    for _ in range(100):
        N = 10.0 ** rng.uniform(4, 8)
        k = int(rng.integers(1, 4))
        tau = float(rng.uniform(-0.45, 0.45))
        alpha = float(rng.uniform(0.0, 1.0))
        eps = float(rng.uniform(-5.0, 5.0)) * overlap_x(N)
        p = make_params(N, k=k, tau=tau, alpha=alpha, epsilon=eps)
        n = min(p.n_G, 300)
        record = run_protocol(p, n)
        worst_engine = max(worst_engine, float(np.max(np.diff(record.survival))))
        eff = run_protocol(p, min(p.n_G, 100), engine="effective")
        worst_eff = max(worst_eff, float(np.max(np.diff(eff.survival))))
    ok = worst_engine <= 1e-12 and worst_eff <= 1e-12
    _report(
        "8 survival monotonicity",
        ok,
        f"100 parameter sets; worst step increase: engine={worst_engine:.2e}, "
        f"effective={worst_eff:.2e} (tol 1e-12)",
    )


def test_criterion_9_quality_factor_sweep():
    p = make_params(1e18, 1e6 * math.pi + 0.2, alpha=0.3)
    grid = np.linspace(-10.0, 10.0, 81)
    reports = quality_factor_sweep(p, grid)
    by_ratio = {round(float(r.eps_over_x), 6): r for r in reports}

    def q_above_one_near(target: float) -> bool:
        near = [r for r in reports if abs(r.eps_over_x - target) <= 0.3]
        return len(near) > 0 and all(r.divergent or r.Q > 1.0 for r in near)

    bad_ratios = (
        -2 * math.sqrt(15), -2 * math.sqrt(3), 2 * math.sqrt(3), 2 * math.sqrt(15),
    )
    intervals_ok = all(q_above_one_near(b) for b in bad_ratios)
    center = by_ratio[0.0]
    center_ok = (not center.divergent) and center.Q < 1.0
    _report(
        "9 quality-factor sweep",
        intervals_ok and center_ok,
        f"Q>1 around {['%.2f' % b for b in bad_ratios]}: {intervals_ok}; "
        f"Q(0)={center.Q:.3f} < 1: {center_ok}",
    )


def test_criterion_10_determinism(tmp_path):
    base = RunConfig(
        mode="sweep-eps",
        N=1e8,
        k=1,
        tau=0.2,
        alpha=0.3,
        grid=(-4.0, 4.0, 9),
    )
    outputs = {}
    for tag, jobs in (("a1", 1), ("a8", 8), ("b1", 1)):
        out = tmp_path / f"eps_{tag}.csv"
        cfg = dataclasses.replace(base, out=str(out), jobs=jobs)
        assert run_config(cfg) == 0
        outputs[tag] = (out.read_bytes(), (out.parent / (out.name + ".meta.json")).read_bytes())
    eps_ok = outputs["a1"] == outputs["a8"] == outputs["b1"]

    base_dt = RunConfig(
        mode="sweep-dt",
        N=1e6,
        alpha=0.3,
        grid=(math.pi - 0.3, math.pi + 0.3, 7),
    )
    dt_outputs = {}
    for tag, jobs in (("a1", 1), ("a8", 8), ("b1", 1)):
        out = tmp_path / f"dt_{tag}.csv"
        cfg = dataclasses.replace(base_dt, out=str(out), jobs=jobs)
        assert run_config(cfg) == 0
        dt_outputs[tag] = (out.read_bytes(), (out.parent / (out.name + ".meta.json")).read_bytes())
    dt_ok = dt_outputs["a1"] == dt_outputs["a8"] == dt_outputs["b1"]

    _report(
        "10 determinism",
        eps_ok and dt_ok,
        f"sweep-eps bytes identical across reruns and jobs 1/8: {eps_ok}; "
        f"sweep-dt likewise: {dt_ok}",
    )
