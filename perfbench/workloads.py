"""The benchmark's workloads: the zenogrover CLI commands of one pass.

A pass runs its commands one after another, each as a fresh
``python -m zenogrover.cli ... --jobs 1`` process.  The seed draws the
parameters of ``effective`` and ``oracle``; ``recipes`` is the same canonical
list for every seed, and the default seed reproduces the defaults below.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("recipes", "effective", "oracle")
DEFAULT_SEED = 0

#: protocol steps simulated in one pass, the same for every seed: every
#: engine's steps for recipes and effective, full-space steps for oracle
STEPS = {
    # sweep-dt 1534884, ladder 4 x 470, eff-compare 2 x 2 x 470,
    # sweep-eps 81 x 499, plan-scale --check 2 x 470
    "recipes": 1_580_003,
    # eff-compare 2 engines x 4700, run --engine effective 3618
    "effective": 2 * 4700 + 3618,
    # 3 verify commands x 27 cases x 200 steps
    "oracle": 3 * 27 * 200,
}

#: steps of the two effective commands: n_G of their default parameters,
#: held fixed so that every seed does the same work
EFF_COMPARE_STEPS = 4700
EFF_RUN_STEPS = 3618
#: dt = pi * EFF_K + tau and the rotation rate of both effective commands
EFF_K = 1
EFF_ALPHA = 0.3


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass.

    ``name`` is the stable id of the command and the stem of its output file;
    ``ref`` holds the (N, tau, steps) of an effective-engine run whose final
    values are checked against the benchmark's own reference.
    """

    name: str
    args: tuple[str, ...]
    expect_exit: int = 0
    writes: bool = True
    ref: Optional[tuple[float, float, int]] = None

    def argv(self, outdir: str) -> list[str]:
        out = ["--out", f"{outdir}/{self.name}.csv"] if self.writes else []
        return [*self.args, "--jobs", "1", *out]


def _cmd(name: str, line: str, **kw) -> Command:
    return Command(name, tuple(line.split()), **kw)


_D = "--n 1000000162505052417 --k 1063662 --tau 0.2 --alpha 0.3"

RECIPES = (
    _cmd("d_pi", "sweep-dt --n 1e10 --alpha 0.3 --grid 2.8416:3.4416:21"),
    _cmd("d_3pi", "sweep-dt --n 1e10 --alpha 0.3 --grid 9.1248:9.7248:21"),
    _cmd("d_8pi", "sweep-dt --n 1e10 --alpha 0.3 --grid 24.8327:25.4327:21"),
    _cmd("ladder_a", "run --n 1e6 --k 1 --tau 0.2 --alpha 0.3"),
    _cmd("ladder_b", "run --n 108190849 --k 11 --tau 0.2 --alpha 0.3"),
    _cmd("ladder_c", "run --n 100008346615399 --k 10637 --tau 0.2 --alpha 0.3"),
    _cmd("ladder_d", "run --n 1000000162505052417 --k 1063662 --tau 0.2 --alpha 0.3"),
    _cmd("detuned_m1", f"eff-compare {_D} --eps 3.4641013336707815e-09"),
    _cmd("detuned_m2", f"eff-compare {_D} --eps 7.74596606303555e-09"),
    _cmd("q", "sweep-eps --n 1e18 --k 1000000 --tau 0.2 --alpha 0.3 --grid=-10:10:81"),
    _cmd("plan", "plan-scale --n 1e6 --k 1 --tau 0.2 --nr 1e18 --check --alpha 0.3",
         writes=False),
)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return float(round(10.0 ** rng.uniform(math.log10(lo), math.log10(hi))))


def _effective(seed: int) -> tuple[Command, ...]:
    # each tau window keeps the engine's RK4 substep count, and with it the
    # work, the same for every seed: 11 below tau = 0.42, 17 in [1.14, 1.23]
    if seed == DEFAULT_SEED:
        n1, tau1, n2, tau2 = 1e8, 0.2, 1e8, 1.2
    else:
        rng = random.Random(seed)
        n1, tau1 = _log_uniform(rng, 5e7, 2e8), round(rng.uniform(0.1, 0.4), 4)
        n2, tau2 = _log_uniform(rng, 5e7, 2e8), round(rng.uniform(1.14, 1.2), 4)
    return (
        _cmd("eff_compare",
             f"eff-compare --n {n1!r} --k {EFF_K} --tau {tau1!r} --alpha {EFF_ALPHA} "
             f"--steps {EFF_COMPARE_STEPS}",
             ref=(n1, tau1, EFF_COMPARE_STEPS)),
        _cmd("eff_run",
             f"run --engine effective --n {n2!r} --k {EFF_K} --tau {tau2!r} --alpha {EFF_ALPHA} "
             f"--steps {EFF_RUN_STEPS}",
             ref=(n2, tau2, EFF_RUN_STEPS)),
    )


def _oracle(seed: int) -> tuple[Command, ...]:
    # the full-space cost grows as N^2, so both sizes are drawn from narrow
    # windows to keep the work per pass within a few percent; the fault run
    # is the pass's median command and sets cmd_p50_s
    if seed == DEFAULT_SEED:
        large, fault = 128, 32
    else:
        rng = random.Random(seed)
        large, fault = rng.randint(127, 129), rng.randint(31, 33)
    return (
        _cmd("verify_small", "verify --n 16 --steps 200", writes=False),
        _cmd("verify_large", f"verify --n {large} --steps 200", writes=False),
        _cmd("verify_fault",
             f"verify --n {fault} --steps 200 --inject-fault hdown-sign",
             expect_exit=1, writes=False),
    )


def commands(workload: str, seed: int) -> tuple[Command, ...]:
    """The commands of one pass of ``workload`` for ``seed``."""
    if workload == "recipes":
        return RECIPES
    if workload == "effective":
        return _effective(seed)
    if workload == "oracle":
        return _oracle(seed)
    raise ValueError(f"unknown workload {workload!r}")
