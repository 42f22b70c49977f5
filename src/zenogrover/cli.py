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
import errno
import gc
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

# every matrix the engines factor or multiply is 2x2, so OpenBLAS's worker
# pool never gets work: start none, unless the user sized it or numpy (and
# with it the pool) is already loaded
if "numpy" not in sys.modules and not (
        {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys()):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import ENGINES, EQUIVALENCE_STEPS, FAULTS, __version__

if TYPE_CHECKING:
    from .model import SearchParams

# numpy and the engines are imported inside the commands that run them, once
# the arguments and the output path have been checked, so a process that
# computes nothing (--version, --help, --print-config, a usage error) loads
# neither, and a command loads only the engines it runs

__all__ = ["RunConfig", "cmd_run", "cmd_sweep_dt", "cmd_sweep_eps",
           "cmd_plan_scale", "cmd_verify", "cmd_eff_compare", "main", "process_main"]

OUTDIR_ENV = "ZENOGROVER_OUTDIR"


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
        if not include_execution:
            for key in self.EXECUTION_FIELDS:
                del d[key]
        return d

    def build_params(self) -> SearchParams:
        from .model import make_params

        if self.N is None:
            raise ValueError("missing database size (--n)")
        return make_params(
            self.N, self.delta_t, k=self.k, tau=self.tau, alpha=self.alpha,
            delta_theta=self.delta_theta, theta0=self.theta0, epsilon=self.epsilon,
        )


def _fmt(v) -> str:
    import numpy as np

    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")  # nan, inf and -inf as they are


def _sidecar(path: Path) -> Path:
    """The JSON sidecar of the table at ``path``."""
    return path.with_name(path.name + ".meta.json")


#: rows formatted per write of :func:`_write_table`
_ROWS_PER_WRITE = 1 << 16


def _column(values: Sequence) -> tuple[str, Sequence]:
    """One table column as the %-format of its cells and the values it
    formats, by the kind of its numpy dtype: ``%d`` for ints, ``%.17g`` for
    floats, and the text of :func:`_fmt` (true/false) for any other column,
    such as ints beyond int64, which numpy holds as objects."""
    import numpy as np

    array = np.asarray(values)
    if array is not values and array.dtype.kind == "f" and any(
        isinstance(v, (int, np.integer)) for v in values
    ):  # ints that no int dtype holds together, such as -1 and 2**63, stay exact
        array = np.asarray(values, dtype=object)
    kind = array.dtype.kind
    if kind in "iu":
        return "%d", array
    if kind == "f":
        return "%.17g", array
    return "%s", [_fmt(v) for v in array]


def _write_table(
    config: RunConfig,
    columns: dict[str, Sequence],
    summary: dict,
) -> Path:
    """Write the table to ``config.out`` and its sidecar next to it.  Rows go
    out in blocks of _ROWS_PER_WRITE, each row one %-format, so no full text
    of the table is built; the bytes are those of :func:`_fmt` on every cell."""
    import numpy as np

    path = Path(config.out)
    cfg = config.to_dict()
    header = [f"# zenogrover version={__version__}"]
    header += [f"# {key}={json.dumps(cfg[key])}" for key in sorted(cfg)]
    header.append(",".join(columns))
    formats, cells = zip(*map(_column, columns.values()))
    row = ",".join(formats) + "\n"
    with path.open("w") as f:
        f.write("\n".join(header) + "\n")
        for start in range(0, len(cells[0]), _ROWS_PER_WRITE):
            block = [c[start : start + _ROWS_PER_WRITE] for c in cells]
            block = [b.tolist() if isinstance(b, np.ndarray) else b for b in block]
            f.write("".join([row % r for r in zip(*block)]))

    _sidecar(path).write_text(
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
    from .stroboscopic import run_protocol

    params = config.build_params()
    record = run_protocol(params, config.steps, engine=config.engine)
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


def cmd_sweep_dt(config: RunConfig) -> int:
    """Distance from unitarity of the accumulated process across a dt grid,
    the whole grid read in one pass of the kernel."""
    import numpy as np

    from .stroboscopic import _final_readouts

    if config.grid is None:
        raise ValueError("sweep-dt needs --grid lo:hi:count")
    dts = [float(dt) for dt in np.linspace(*config.grid)]
    points = [replace(config, delta_t=dt).build_params() for dt in dts]
    ns = [p.step_count(config.steps) for p in points]
    ds = [d for _, _, d in _final_readouts(points, config.steps, config.jobs)]
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
    import numpy as np

    from .scaling import quality_factor_sweep

    if config.grid is None:
        raise ValueError("sweep-eps needs --grid lo:hi:count (in units of x)")
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
    from .scaling import plan_scaled_instance, scaled_process_check

    if config.N is None or config.k is None or config.tau is None:
        raise ValueError("plan-scale needs --n (reference N1), --k and --tau")
    if config.N_requested is None:
        raise ValueError("plan-scale needs --nr (requested size)")
    if config.alpha is not None and not config.check:
        raise ValueError("plan-scale applies --alpha only with --check")
    plan = plan_scaled_instance(config.N, config.k, config.tau, config.N_requested)

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


def cmd_verify(config: RunConfig) -> int:
    """Subspace-vs-fullspace equivalence suite plus unitary-limit regression."""
    import numpy as np

    from .fullspace import (
        EQUIVALENCE_TOLERANCE,
        default_equivalence_cases,
        equivalence_suite,
    )
    from .model import grover_fidelity_closed_form, make_params
    from .stroboscopic import run_protocol

    steps = config.steps if config.steps is not None else EQUIVALENCE_STEPS
    if config.N is None:
        cases = default_equivalence_cases(steps=steps)
    else:
        cases = default_equivalence_cases(sizes=(config.N,), steps=steps)

    results = equivalence_suite(cases, config.inject_fault or "exact", config.jobs)
    failures = 0
    print(f"{'N':>5} {'w':>5} {'dt':>10} {'dtheta':>8} {'max|df|':>12} {'max|dP|':>12}  status")
    for r in results:
        ok = r.passed()
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
    f_closed = grover_fidelity_closed_form(record.times, params.N)
    f_dev = float(np.max(np.abs(record.fidelity - f_closed)))
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
                "passed": [r.passed() for r in results],
            },
            {
                "failures": failures,
                "tolerance": EQUIVALENCE_TOLERANCE,
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
    import numpy as np

    from .effective import unitary_approx_fidelity
    from .stroboscopic import run_protocol

    params = config.build_params()
    exact = run_protocol(params, config.steps)
    eff = run_protocol(params, config.steps, engine="effective")
    f_eq11 = unitary_approx_fidelity(exact.steps, params)
    f_exact, f_eff = exact.fidelity, eff.fidelity
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
    if not math.isfinite(hi - lo):  # nan or inf in a bound, or a span that overflows
        raise argparse.ArgumentTypeError("grid bounds and their span must be finite")
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
    "steps": ("steps", dict(
        type=int, help=f"step count (default n_G; verify: {EQUIVALENCE_STEPS})")),
    "engine": ("engine", dict(choices=ENGINES)),
    "grid": ("grid", dict(type=_parse_grid, metavar="LO:HI:COUNT",
                          help="sweep grid: dt for sweep-dt, eps/x for sweep-eps")),
    "nr": ("N_requested", dict(type=float, help="requested database size")),
    "check": ("check", dict(action="store_true", help="run both processes and compare")),
    "inject-fault": ("inject_fault", dict(choices=FAULTS, help=argparse.SUPPRESS)),
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


#: the modes that write a table only when --out is given
_OUT_OPTIONAL = ("plan-scale", "verify")


def run_config(config: RunConfig, *, freeze: bool = False) -> int:
    """Dispatch a resolved config; returns the process exit code.  The output
    path is resolved into ``config.out`` and its directory made before the
    command runs, so a path whose directory cannot be made, or whose table or
    sidecar names a directory, exits 2 before any work is done, and before
    numpy is loaded.  With ``freeze``, the collector's heap is frozen once the
    modules every command runs are loaded (see :func:`process_main`)."""
    try:
        if config.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {config.jobs}")
        if config.out is not None or config.mode not in _OUT_OPTIONAL:
            path = (Path(config.out) if config.out is not None
                    else Path(os.environ.get(OUTDIR_ENV, "."), f"{config.mode}.csv"))
            path.parent.mkdir(parents=True, exist_ok=True)
            for target in (path, _sidecar(path)):
                if target.is_dir():  # the message that opening it would give
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
            config = replace(config, out=str(path))
        from . import stroboscopic  # noqa: F401  (every command runs it, numpy and model)

        if freeze:
            gc.freeze()
        return _COMMANDS[config.mode][0](config)
    except (ValueError, OSError, MemoryError) as exc:
        # MemoryError: a step count too large to record, e.g. N = 1e30 at k = 1
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None, *, freeze: bool = False) -> int:
    fields = vars(build_parser().parse_args(argv))
    print_config = fields.pop("print_config", False)
    config = RunConfig(**fields)
    if print_config:
        print(json.dumps(config.to_dict(include_execution=True), sort_keys=True, indent=2))
        return 0
    return run_config(config, freeze=freeze)


def process_main() -> None:
    """Entry point of a CLI process, ``python -m zenogrover.cli`` and the
    ``zenogrover`` script alike: run :func:`main` and exit with its code.

    The objects that numpy and the engines' imports made live until the
    process exits, so once they are loaded, and before the command runs,
    they are moved out of the collector's reach (``gc.freeze``): no
    collection, during the command or at exit, walks them again, and a
    ``--jobs`` fan-out forks with their pages still shared.  A process that
    exits before a command runs loads and freezes nothing.  Reference
    counting, stdout flushing and ``atexit`` are unaffected; in-process
    callers of :func:`main` leave the collector as it is."""
    sys.exit(main(freeze=True))


if __name__ == "__main__":
    process_main()
