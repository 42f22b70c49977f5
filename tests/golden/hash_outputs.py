"""Hash the outputs of the commands whose bytes a change must keep, or move
only on purpose, into one manifest.

Usage (from the root of a source checkout):

    python3 tests/golden/hash_outputs.py [--src DIR] [--keep DIR] PATH

Each command of :func:`commands` runs as a fresh ``python -m zenogrover.cli
... --jobs 1`` process against the package in ``--src`` (default: this
checkout's ``src``), stopped after :data:`TIMEOUT` seconds.  PATH gets one
JSON manifest: a :func:`fingerprint` of the interpreter, numpy and the CPU,
and for each command its name, its argv (the output directory written
``<out>``), its exit code (``timeout`` for a stopped one) and the sha256 of
its stdout (with the output directory masked), of its table and of its
sidecar ("-" where it writes none).  The output directory is not part of
the table or the sidecar, so two checkouts compare with a plain diff:

    python3 tests/golden/hash_outputs.py --src ../parent/src parent.json
    python3 tests/golden/hash_outputs.py change.json
    diff parent.json change.json

The commands are the benchmark's ``recipes`` and ``effective`` workloads and
its ``oracle`` workload at seeds 0 and 1, read from perfbench/workloads.py,
plus :data:`EXTRA`.  ``--keep DIR`` writes the tables to DIR and keeps them,
for a comparison of values where bytes move on purpose.

``tests/test_manifest.py`` runs the same argv in process and compares the
hashes with ``tests/golden/manifest.json`` where the fingerprint matches.
A change that moves a byte on purpose regenerates that file:

    python3 tests/golden/hash_outputs.py tests/golden/manifest.json

and says in CHANGES.md which commands moved, as ``git diff`` of the file
names them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from workloads import Command  # noqa: E402

#: seconds a command may run before it is stopped
TIMEOUT = 60

#: the 24 commands beyond the benchmark's: both verify defaults, a
#: deep-damping run at N = 4, a run at N = 2 whose quarter-turn steps
#: (dtheta = pi/2) each shrink P by cos(dtheta)^2 ~ 4e-33, a long exact run,
#: eq. 11 at a tiny rotation from theta0 != 0, the effective engine from
#: theta0 != 0 and at -+dtheta, twelve inputs that must exit 2 (a plan at
#: |tau| >= pi/2, a step count that overflows, an effective step beyond its
#: substep limit, a plan given --alpha without --check, three step counts
#: beyond 2**52, a verify N that is not an integer or beyond 2**20, and three
#: whose steps overflow to operators that are not finite), a plan whose
#: k2_raw no double resolves, and the resolved configs that ``run`` and
#: ``sweep-dt`` print without running
EXTRA = (
    Command("verify", ("verify",)),
    Command("verify_n4", tuple("verify --n 4 --steps 700".split())),
    Command("run_n4", tuple("run --n 4 --dt 3.141592653589793 --dtheta 0.01 --steps 3000".split())),
    Command("run_n2_quarter_turn", tuple(
        "run --n 2 --dt 1 --dtheta 1.5707963267948966 --steps 3".split())),
    Command("run_1e12", tuple("run --n 1e12 --k 1 --tau 0.2 --alpha 0.3".split())),
    Command("eff_compare_theta0", tuple(
        "eff-compare --n 1e6 --dt 1 --dtheta 2e-12 --theta0 0.3 --steps 1500".split())),
    Command("run_effective_theta0", tuple(
        "run --engine effective --n 1e6 --k 1 --tau 0.2 --alpha 0.3 --theta0 0.3".split())),
    Command("plan_tau_2", tuple("plan-scale --n 1e6 --k 1 --tau 2 --nr 1e8".split()),
            writes=False),
    Command("run_dt_overflow", tuple("run --n 1e6 --dt 1e-320 --steps 3".split()),
            writes=False),
    Command("eff_compare_alpha_huge", tuple(
        "eff-compare --n 1e6 --k 1 --tau 0.2 --alpha 1e300 --steps 3".split()), writes=False),
    Command("plan_alpha_no_check", tuple(
        "plan-scale --n 1e6 --k 1 --tau 0.2 --nr 1e8 --alpha 0.5".split()), writes=False),
    Command("run_effective_dtheta_neg", tuple(
        "run --engine effective --n 1e4 --k 1 --tau 0.2 --dtheta -0.5 --steps 60".split())),
    Command("run_effective_dtheta_pos", tuple(
        "run --engine effective --n 1e4 --k 1 --tau 0.2 --dtheta 0.5 --steps 60".split())),
    Command("sweep_dt_too_many_steps", tuple(
        "sweep-dt --n 1e6 --alpha 0.3 --grid 1e-290:2e-290:2".split()), writes=False),
    Command("sweep_eps_too_many_steps", tuple(
        "sweep-eps --n 1e6 --dt 1e-290 --grid 0:1:2".split()), writes=False),
    Command("run_too_many_steps", tuple("run --n 1e6 --dt 1e-290".split()), writes=False),
    Command("verify_n_2_5", tuple("verify --n 2.5".split()), writes=False),
    Command("verify_n_2e6", tuple("verify --n 2000000".split()), writes=False),
    Command("plan_nr_1e60", tuple(
        "plan-scale --n 1e6 --k 1 --tau 0.2 --nr 1e60 --check".split()), writes=False),
    Command("run_phase_overflow", tuple("run --n 1e6 --dt 1 --alpha 1e308".split()),
            writes=False),
    Command("sweep_dt_phase_overflow", tuple(
        "sweep-dt --n 1e6 --alpha 1e308 --grid 1:2:3".split()), writes=False),
    Command("run_effective_eps_overflow", tuple(
        "run --engine effective --n 1e6 --dt 1 --eps 1e200 --steps 5".split()), writes=False),
    Command("run_print_config", tuple(
        "run --n 1e6 --k 1 --tau 0.2 --alpha 0.3 --print-config".split()), writes=False),
    Command("sweep_dt_print_config", tuple(
        "sweep-dt --n 1e10 --alpha 0.3 --grid 2.9:3.4:21 --print-config".split()), writes=False),
)

def commands() -> Iterator[Command]:
    yield from workloads.commands("recipes", workloads.DEFAULT_SEED)
    yield from workloads.commands("effective", workloads.DEFAULT_SEED)
    for seed in (0, 1):
        for cmd in workloads.commands("oracle", seed):
            yield dataclasses.replace(cmd, name=f"{cmd.name}.seed{seed}")
    yield from EXTRA


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "-"


def fingerprint() -> dict:
    """What a hash of the outputs depends on beyond the source: the Python
    and numpy versions and the CPU features numpy dispatches on."""
    import numpy

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        try:  # numpy 1.x
            from numpy.core._multiarray_umath import __cpu_features__
        except ImportError:
            __cpu_features__ = {}  # none recorded: test_manifest.py skips
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_features": __cpu_features__}


def output_hashes(outdir: Path, name: str, writes: bool, code: str, stdout: bytes) -> dict:
    """The hashed outputs of the command ``name`` that ran into ``outdir``."""
    table = outdir / f"{name}.csv"
    sidecar = table.with_name(table.name + ".meta.json")
    return {
        "exit": code,
        "stdout": hashlib.sha256(stdout.replace(str(outdir).encode(), b"<out>")).hexdigest(),
        "table": _sha256(table) if writes else "-",
        "sidecar": _sha256(sidecar) if writes else "-",
    }


def run_commands(src: Path, outdir: Path, cmds) -> Iterator[tuple[Command, dict]]:
    """Run each command against the package in ``src``, writing to
    ``outdir``, and yield it with its :func:`output_hashes`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("ZENOGROVER_OUTDIR", None)
    for cmd in cmds:
        for suffix in (".csv", ".csv.meta.json"):  # no output of an earlier run counts
            (outdir / f"{cmd.name}{suffix}").unlink(missing_ok=True)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "zenogrover.cli", *cmd.argv(str(outdir))],
                cwd=outdir, env=env, capture_output=True, check=False, timeout=TIMEOUT,
            )
            code, stdout = str(proc.returncode), proc.stdout
        except subprocess.TimeoutExpired as exc:  # the child is killed
            code, stdout = "timeout", exc.stdout or b""
        yield cmd, output_hashes(outdir, cmd.name, cmd.writes, code, stdout)


def manifest(src: Path, outdir: Path) -> dict:
    """The manifest of the :func:`commands` run against ``src``."""
    return {
        "fingerprint": fingerprint(),
        "commands": [
            {"name": cmd.name, "argv": cmd.argv("<out>"), "writes": cmd.writes, **hashes}
            for cmd, hashes in run_commands(src, outdir, commands())
        ],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the directory that holds the zenogrover package")
    parser.add_argument("--keep", type=Path, help="write the outputs here and keep them")
    parser.add_argument("path", type=Path, help="write the manifest here")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        outdir = (args.keep or Path(tmp)).resolve()
        outdir.mkdir(parents=True, exist_ok=True)
        text = json.dumps(manifest(args.src.resolve(), outdir), indent=1)
    args.path.write_text(text + "\n")


if __name__ == "__main__":
    main()
