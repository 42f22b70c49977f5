"""Command-line surface: runs, sweeps, planning, verification, engine comparison.

Every command is driven by a fully resolved :class:`RunConfig`; identical
configs produce byte-identical output files regardless of the parallelism
degree.  Tables are CSV with a ``#``-prefixed key=value header block; each
table gets a JSON sidecar (``<out>.meta.json``) holding the resolved config
and a machine-readable summary.  Numbers are serialized with 17 significant
digits so the files round-trip doubles losslessly.

Exit codes: 0 success, 1 verification failure, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .effective import integrate_effective, unitary_approx_fidelity
from .fullspace import MAX_FULLSPACE_N, default_equivalence_cases, equivalence_suite
from .model import SearchParams, grover_fidelity_closed_form, make_params
from .scaling import (
    parallel_map,
    plan_scaled_instance,
    quality_factor_sweep,
    scaled_process_check,
)
from .stroboscopic import BlockHamiltonians, final_distance, run_protocol

__all__ = ["RunConfig", "cmd_run", "cmd_sweep_dt", "cmd_sweep_eps",
           "cmd_plan_scale", "cmd_verify", "cmd_eff_compare", "main"]

OUTDIR_ENV = "ZENOGROVER_OUTDIR"


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration; every field participates in the output header."""

    mode: str
    N: Optional[float] = None
    delta_t: Optional[float] = None
    k: Optional[int] = None
    tau: Optional[float] = None
    delta_theta: Optional[float] = None
    alpha: Optional[float] = None
    theta0: float = 0.0
    epsilon: float = 0.0
    steps: Optional[int] = None
    engine: str = "exact"
    grid: Optional[tuple[float, float, int]] = None
    N_requested: Optional[float] = None
    check: bool = False
    out: Optional[str] = None
    jobs: int = 1
    inject_fault: Optional[str] = None

    #: execution knobs: where to write and how to parallelize; they never
    #: change the computed bytes and are excluded from the embedded config
    EXECUTION_FIELDS = ("out", "jobs")

    def to_dict(self, include_execution: bool = False) -> dict:
        d = asdict(self)
        if self.grid is not None:
            d["grid"] = list(self.grid)
        if not include_execution:
            for key in self.EXECUTION_FIELDS:
                del d[key]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        if d.get("grid") is not None:
            d["grid"] = tuple(d["grid"])
        return cls(**d)

    def build_params(self) -> SearchParams:
        if self.N is None:
            raise ConfigError("missing database size (--n)")
        kwargs = dict(theta0=self.theta0, epsilon=self.epsilon)
        if self.delta_theta is not None:
            kwargs["delta_theta"] = self.delta_theta
        elif self.alpha is not None:
            kwargs["alpha"] = self.alpha
        try:
            if self.delta_t is not None:
                return make_params(self.N, self.delta_t, **kwargs)
            if self.k is not None and self.tau is not None:
                return make_params(self.N, k=self.k, tau=self.tau, **kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        raise ConfigError("missing step duration: give --dt or both --k and --tau")


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if math.isnan(f):
        return "nan"
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    return format(f, ".17g")


def _resolve_out(config: RunConfig) -> Path:
    if config.out is not None:
        return Path(config.out)
    outdir = Path(os.environ.get(OUTDIR_ENV, "."))
    return outdir / f"{config.mode}.csv"


def _write_table(
    config: RunConfig,
    columns: dict[str, Sequence],
    summary: dict,
) -> Path:
    path = _resolve_out(config)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# zenogrover version={__version__}"]
    cfg = config.to_dict()
    for key in sorted(cfg):
        lines.append(f"# {key}={json.dumps(cfg[key])}")
    names = list(columns)
    lines.append(",".join(names))
    n_rows = len(columns[names[0]])
    for i in range(n_rows):
        lines.append(",".join(_fmt(columns[name][i]) for name in names))
    path.write_text("\n".join(lines) + "\n")

    sidecar = path.with_name(path.name + ".meta.json")
    sidecar.write_text(
        json.dumps(
            {"version": __version__, "config": cfg, "summary": summary},
            sort_keys=True,
            indent=2,
        )
        + "\n"
    )
    return path


def cmd_run(config: RunConfig) -> int:
    """One trajectory: columns n, t, f, P, d."""
    params = config.build_params()
    n = config.steps if config.steps is not None else params.n_G
    if config.engine in ("exact", "approx"):
        record = run_protocol(params, n, engine=config.engine)
    elif config.engine == "effective":
        record = integrate_effective(params, t_final=n * params.delta_t)
    else:
        raise ConfigError(f"unknown engine {config.engine!r}")
    summary = {
        "n_G": params.n_G,
        "final_fidelity": record.final_fidelity,
        "final_survival": record.final_survival,
        "underflow": record.underflow,
    }
    path = _write_table(
        config,
        {
            "n": record.steps,
            "t": record.times,
            "f": record.fidelity,
            "P": record.survival,
            "d": record.distance,
        },
        summary,
    )
    print(f"wrote {path} (f={_fmt(record.final_fidelity)}, P={_fmt(record.final_survival)})")
    return 0


def _dt_point(config: RunConfig) -> tuple[float, int, float]:
    params = config.build_params()
    n = config.steps if config.steps is not None else params.n_G
    return config.delta_t, n, final_distance(params, n)


def cmd_sweep_dt(config: RunConfig) -> int:
    """Distance from unitarity of the accumulated process across a dt grid."""
    if config.grid is None:
        raise ConfigError("sweep-dt needs --grid lo:hi:count")
    work = [replace(config, delta_t=float(dt)) for dt in np.linspace(*config.grid)]
    dts, ns, ds = zip(*parallel_map(_dt_point, work, config.jobs))
    imin = int(np.argmin(ds))
    summary = {
        "min_distance": ds[imin],
        "argmin_delta_t": dts[imin],
        "points": len(dts),
    }
    path = _write_table(config, {"delta_t": dts, "n": ns, "d": ds}, summary)
    print(f"wrote {path} (min d={_fmt(ds[imin])} at dt={_fmt(dts[imin])})")
    return 0


def cmd_sweep_eps(config: RunConfig) -> int:
    """Quality-factor sweep over a detuning grid given in units of x."""
    if config.grid is None:
        raise ConfigError("sweep-eps needs --grid lo:hi:count (in units of x)")
    params = config.build_params()
    reports = quality_factor_sweep(params, np.linspace(*config.grid), jobs=config.jobs)
    best = max(
        (r for r in reports if not r.divergent),
        key=lambda r: r.Q,
        default=None,
    )
    summary = {
        "points": len(reports),
        "divergent_points": sum(r.divergent for r in reports),
        "max_finite_Q": None if best is None else best.Q,
    }
    path = _write_table(
        config,
        {
            "eps_over_x": [r.eps_over_x for r in reports],
            "epsilon": [r.epsilon for r in reports],
            "f": [r.f_nu for r in reports],
            "P": [r.P_nu for r in reports],
            "f_G": [r.f_G for r in reports],
            "Q": [r.Q for r in reports],
            "divergent": [r.divergent for r in reports],
            "t_result_nu": [r.t_result_nu for r in reports],
            "t_result_G": [r.t_result_G for r in reports],
        },
        summary,
    )
    print(f"wrote {path} ({summary['divergent_points']} divergent points)")
    return 0


def cmd_plan_scale(config: RunConfig) -> int:
    """Plan a scaled instance; with --check, also run both processes."""
    if config.N is None or config.k is None or config.tau is None:
        raise ConfigError("plan-scale needs --n (reference N1), --k and --tau")
    if config.N_requested is None:
        raise ConfigError("plan-scale needs --nr (requested size)")
    try:
        plan = plan_scaled_instance(config.N, config.k, config.tau, config.N_requested)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    print(f"N2 = {plan.N2}")
    print(f"k2 = {plan.k2}")
    print(f"k2_raw(N2) = {_fmt(plan.k2_raw)}")
    print(f"integrality_residual = {_fmt(plan.integrality_residual)}")
    print(f"valid = {str(plan.valid).lower()}")

    summary = {
        "N2": plan.N2,
        "k2": plan.k2,
        "k2_raw": plan.k2_raw,
        "integrality_residual": plan.integrality_residual,
        "valid": plan.valid,
    }
    if config.check:
        if config.alpha is None:
            # resolved here so the header and sidecar record the applied value
            config = replace(config, alpha=0.3)
        report = scaled_process_check(plan, config.alpha)
        print(f"max |f2 - f1| = {_fmt(report.max_fidelity_deviation)}")
        print(f"max |P2 - P1| = {_fmt(report.max_survival_deviation)}")
        summary["check"] = {
            "alpha": config.alpha,
            "max_fidelity_deviation": report.max_fidelity_deviation,
            "max_survival_deviation": report.max_survival_deviation,
        }
    if config.out is not None:
        _write_table(
            config,
            {
                "N1": [plan.N1],
                "k1": [plan.k1],
                "tau": [plan.tau],
                "N_requested": [plan.N_r],
                "N2": [plan.N2],
                "k2": [plan.k2],
                "k2_raw": [plan.k2_raw],
                "integrality_residual": [plan.integrality_residual],
                "valid": [plan.valid],
            },
            summary,
        )
    return 0


def _hdown_sign(b: BlockHamiltonians) -> BlockHamiltonians:
    # classic sign slip: the driving term not flipped in the down block
    return BlockHamiltonians(h_up=b.h_up, h_down=b.h_up.copy())


def _fault_transform(name: str):
    if name == "hdown-sign":
        return _hdown_sign
    raise ConfigError(f"unknown fault {name!r}")


def cmd_verify(config: RunConfig) -> int:
    """Subspace-vs-fullspace equivalence suite plus unitary-limit regression."""
    steps = config.steps if config.steps is not None else 200
    if config.N is None:
        cases = default_equivalence_cases(steps=steps)
    else:
        if not (2 <= config.N <= MAX_FULLSPACE_N):
            raise ConfigError(
                f"verify supports 2 <= N <= {MAX_FULLSPACE_N}, got {config.N!r}"
            )
        if not float(config.N).is_integer():
            raise ConfigError(f"verify needs an integer N, got {config.N!r}")
        cases = default_equivalence_cases(sizes=(int(config.N),), steps=steps)

    transform = None
    if config.inject_fault is not None:
        transform = _fault_transform(config.inject_fault)

    results = equivalence_suite(cases, block_transform=transform, jobs=config.jobs)
    tol = 1e-8
    failures = 0
    print(f"{'N':>5} {'w':>5} {'dt':>10} {'dtheta':>8} {'max|df|':>12} {'max|dP|':>12}  status")
    for r in results:
        ok = r.passed(tol)
        failures += not ok
        c = r.case
        print(
            f"{c.N:>5} {c.w:>5} {c.delta_t:>10.6f} {c.delta_theta:>8.4f} "
            f"{r.max_fidelity_deviation:>12.3e} {r.max_survival_deviation:>12.3e}  "
            f"{'ok' if ok else 'FAIL'}"
        )

    # unitary-limit regression: no ancilla rotation reduces to the plain search
    params = make_params(1e6, 1.0, delta_theta=0.0)
    record = run_protocol(params, params.n_G)
    f_dev = max(
        abs(record.fidelity[i] - grover_fidelity_closed_form(record.times[i], params.N))
        for i in range(len(record.steps))
    )
    p_dev = float(np.max(np.abs(record.survival - 1.0)))
    d_dev = float(np.max(np.abs(record.distance)))
    unitary_ok = f_dev < 1e-9 and p_dev < 1e-10 and d_dev < 1e-10
    failures += not unitary_ok
    print(
        f"unitary-limit regression: max|f-closed|={f_dev:.3e} "
        f"max|P-1|={p_dev:.3e} max|d|={d_dev:.3e}  "
        f"{'ok' if unitary_ok else 'FAIL'}"
    )

    if config.out is not None:
        _write_table(
            config,
            {
                "N": [r.case.N for r in results],
                "w": [r.case.w for r in results],
                "delta_t": [r.case.delta_t for r in results],
                "delta_theta": [r.case.delta_theta for r in results],
                "max_f_dev": [r.max_fidelity_deviation for r in results],
                "max_P_dev": [r.max_survival_deviation for r in results],
                "passed": [r.passed(tol) for r in results],
            },
            {
                "failures": failures,
                "tolerance": tol,
                "unitary_limit_ok": unitary_ok,
            },
        )
    if failures:
        print(f"{failures} case(s) FAILED")
        return 1
    print("all cases passed")
    return 0


def cmd_eff_compare(config: RunConfig) -> int:
    """Aligned fidelity series from the exact, continuous-effective, and
    closed-form engines, with pairwise max deviations."""
    params = config.build_params()
    n = config.steps if config.steps is not None else params.n_G
    exact = run_protocol(params, n)
    eff = integrate_effective(params, t_final=n * params.delta_t)
    f_eq11 = np.array([unitary_approx_fidelity(int(m), params) for m in exact.steps])
    f_exact = exact.fidelity
    f_eff = eff.fidelity[: len(f_exact)]
    summary = {
        "max_dev_eff_exact": float(np.max(np.abs(f_eff - f_exact))),
        "max_dev_eq11_exact": float(np.max(np.abs(f_eq11 - f_exact))),
        "max_dev_eff_eq11": float(np.max(np.abs(f_eff - f_eq11))),
    }
    path = _write_table(
        config,
        {
            "t": exact.times,
            "f_exact": f_exact,
            "f_eff": f_eff,
            "f_eq11": f_eq11,
        },
        summary,
    )
    print(
        f"wrote {path} (max|f_eff-f_exact|={_fmt(summary['max_dev_eff_exact'])}, "
        f"max|f_eq11-f_exact|={_fmt(summary['max_dev_eq11_exact'])})"
    )
    return 0


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be >= 1")
    return lo, hi, count


#: every flag that sets a config value: flag -> (RunConfig field, argparse
#: options).  Defaults live in RunConfig only.
_FLAGS = {
    "n": ("N", dict(type=float, help="database size N")),
    "dt": ("delta_t", dict(type=float, help="step duration")),
    "k": ("k", dict(type=int, help="integer multiplier in dt = pi k + tau")),
    "tau": ("tau", dict(type=float, help="offset in dt = pi k + tau")),
    "alpha": ("alpha", dict(type=float, help="rotation rate; sets dtheta = alpha x dt")),
    "dtheta": ("delta_theta", dict(type=float, help="per-step ancilla rotation")),
    "theta0": ("theta0", dict(type=float, help="initial ancilla angle")),
    "eps": ("epsilon", dict(type=float, help="target-term detuning")),
    "steps": ("steps", dict(type=int, help="step count (default n_G; verify: 200)")),
    "engine": ("engine", dict(choices=("exact", "approx", "effective"))),
    "grid": ("grid", dict(type=_parse_grid, metavar="LO:HI:COUNT",
                          help="sweep grid: dt for sweep-dt, eps/x for sweep-eps")),
    "nr": ("N_requested", dict(type=float, help="requested database size")),
    "check": ("check", dict(action="store_true", help="run both processes and compare")),
    "inject-fault": ("inject_fault", dict(help=argparse.SUPPRESS)),
    "out": ("out", dict(help="output path")),
    "jobs": ("jobs", dict(type=int, help="worker processes (sweep-dt, sweep-eps, verify)")),
}

#: mode -> (command, the flags it reads); every mode also takes --out, --jobs
#: and --print-config
_COMMANDS = {
    "run": (cmd_run, "n dt k tau alpha dtheta theta0 eps steps engine"),
    "sweep-dt": (cmd_sweep_dt, "n alpha dtheta theta0 eps steps grid"),
    "sweep-eps": (cmd_sweep_eps, "n dt k tau alpha dtheta theta0 grid"),
    "plan-scale": (cmd_plan_scale, "n k tau alpha nr check"),
    "verify": (cmd_verify, "n steps inject-fault"),
    "eff-compare": (cmd_eff_compare, "n dt k tau alpha dtheta theta0 eps steps"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenogrover",
        description="Measurement-interrupted continuous-time search simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (_, flags) in _COMMANDS.items():
        # unset flags stay out of the namespace, so RunConfig fills them in;
        # no abbreviations, so --dt cannot stand for --dtheta
        p = sub.add_parser(mode, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        for flag in (*flags.split(), "out", "jobs"):
            dest, options = _FLAGS[flag]
            p.add_argument(f"--{flag}", dest=dest, **options)
        p.add_argument("--print-config", action="store_true",
                       help="print the resolved configuration and exit")
    return parser


def run_config(config: RunConfig) -> int:
    """Dispatch a resolved config; returns the process exit code."""
    try:
        if config.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {config.jobs}")
        return _COMMANDS[config.mode][0](config)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    fields = vars(build_parser().parse_args(argv))
    print_config = fields.pop("print_config", False)
    config = RunConfig(**fields)
    if print_config:
        print(json.dumps(config.to_dict(include_execution=True), sort_keys=True, indent=2))
        return 0
    return run_config(config)


if __name__ == "__main__":
    sys.exit(main())
