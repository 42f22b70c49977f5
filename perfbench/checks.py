"""Output checks: every command's exit code, table and printed lines are held
to the published values with the tolerances of ``tests/test_acceptance.py``.

``check`` returns the problems found in one command's outputs; an empty list
means the command passed.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Optional

import numpy as np

from workloads import EFF_ALPHA, EFF_K, Command

ORACLE_TOL = 1e-8  # criterion 1
MONOTONE_TOL = 1e-12  # criterion 8
REFERENCE_TOL = 1e-8  # effective engine against the finer-step reference

_VERIFY_ROW = re.compile(
    r"^\s*\d+\s+\d+\s+\S+\s+\S+\s+(\S+)\s+(\S+)\s+(ok|FAIL)$", re.MULTILINE
)


def read_table(path: Path) -> dict[str, np.ndarray]:
    """Columns of a zenogrover CSV table; booleans read as 0/1."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    names = lines[0].split(",")
    rows = [
        [1.0 if v == "true" else 0.0 if v == "false" else float(v)
         for v in ln.split(",")]
        for ln in lines[1:]
    ]
    return dict(zip(names, np.array(rows).T))


def _within(label: str, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{label}={got:.6g}, want {want}+-{tol}"]


def _distance_window(t: dict) -> list[str]:
    # criterion 3: minimum at the window centre, edges >= 10x above it
    d = t["d"]
    centre = len(d) // 2
    ratio = min(d[0], d[-1]) / d[centre]
    if int(np.argmin(d)) != centre or not ratio >= 10.0:
        return [f"argmin {int(np.argmin(d))} (want {centre}), edge ratio {ratio:.3g}"]
    return []


def _quality(t: dict) -> list[str]:
    # criterion 9: Q > 1 (or divergent) near the plain-search zeros, Q(0) < 1
    ratios, Q, div = t["eps_over_x"], t["Q"], t["divergent"]
    problems = []
    for b in (-2 * math.sqrt(15), -2 * math.sqrt(3), 2 * math.sqrt(3), 2 * math.sqrt(15)):
        near = np.abs(ratios - b) <= 0.3
        if not near.any() or not np.all((div[near] == 1.0) | (Q[near] > 1.0)):
            problems.append(f"Q <= 1 near eps/x = {b:.3f}")
    centre = np.abs(ratios) < 1e-9
    if not centre.any() or div[centre][0] == 1.0 or not Q[centre][0] < 1.0:
        problems.append("Q(0) not finite and < 1")
    return problems


def _verify(out: str, expect_pass: bool) -> list[str]:
    rows = _VERIFY_ROW.findall(out)
    if not rows:
        return ["no case rows printed"]
    failed = sum(status == "FAIL" for _, _, status in rows)
    if not expect_pass:
        return [] if failed else ["injected fault not caught"]
    worst = max(max(float(f), float(p)) for f, p, _ in rows)
    if failed or not worst < ORACLE_TOL or "all cases passed" not in out:
        return [f"{failed} failed case(s), worst deviation {worst:.3e}"]
    return []


def _plan(out: str) -> list[str]:
    # criterion 4: the published integers and a valid plan
    want = ("N2 = 1000000162505052417", "k2 = 1063662", "valid = true")
    return [f"missing '{w}'" for w in want if w not in out.splitlines()]


def _effective_run(cmd: Command, t: dict, ref: tuple[float, float]) -> list[str]:
    f_ref, p_ref = ref
    if cmd.name == "eff_compare":
        return _within("f_eff", t["f_eff"][-1], f_ref, REFERENCE_TOL)
    problems = []
    rise = float(np.max(np.diff(t["P"])))
    if rise > MONOTONE_TOL:
        problems.append(f"survival rises by {rise:.3e}")
    problems += _within("f", t["f"][-1], f_ref, REFERENCE_TOL)
    problems += _within("P", t["P"][-1], p_ref, REFERENCE_TOL)
    return problems


def check(
    cmd: Command,
    code: int,
    out: str,
    outdir: Path,
    ref: Optional[tuple[float, float]] = None,
) -> list[str]:
    """Problems in one command's exit code, output table and printed lines."""
    if code != cmd.expect_exit:
        return [f"exit code {code}, expected {cmd.expect_exit}"]
    name = cmd.name
    if name.startswith("verify_"):
        return _verify(out, cmd.expect_exit == 0)
    if name == "plan":
        return _plan(out)
    try:
        t = read_table(outdir / f"{name}.csv")
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable table: {exc}"]
    if name.startswith("d_"):
        return _distance_window(t)
    if name.startswith("ladder_"):
        # criterion 4: every rung reads out at f ~ 0.98, P ~ 0.27
        return (_within("f", t["f"][-1], 0.98, 0.01)
                + _within("P", t["P"][-1], 0.27, 0.02))
    if name == "detuned_m1":  # criterion 5
        return _within("f_exact", t["f_exact"][-1], 0.88, 0.02)
    if name == "detuned_m2":
        return _within("f_exact", t["f_exact"][-1], 0.63, 0.03)
    if name == "q":
        return _quality(t)
    if ref is not None:
        return _effective_run(cmd, t, ref)
    return [f"no check for command {name!r}"]


def effective_reference(N: float, tau: float, steps: int) -> tuple[float, float]:
    """Final (f, P) of the continuous effective generator for the effective
    workload's k and alpha, integrated with classical RK4 at twice the
    engine's default substep count.

    Written independently of the package: for the linear flow
    psi' = -i H(t) psi one RK4 step is a fixed 2x2 matrix, so the steps are
    built a block of protocol steps at a time and multiplied out.  Blocks
    keep the benchmark process small, which the commands' peak memory
    readings rely on (see ``Runner.spawn``).
    """
    x = 1.0 / math.sqrt(N)
    dt = math.pi * EFF_K + tau
    sub = 2 * math.ceil(10.0 * (1.0 + 2.0 * tau * tau / dt))
    h = dt / sub

    def minus_i_h(s: np.ndarray) -> np.ndarray:
        c2 = np.cos(EFF_ALPHA * x * s) ** 2
        s2 = 1.0 - c2
        H = np.zeros(s.shape + (2, 2), dtype=complex)
        H[:, 0, 1] = H[:, 1, 0] = -x * c2
        H[:, 1, 1] = (2.0 * tau / dt) * s2 - 2j * (tau * tau / dt) * s2
        return -1j * H

    eye = np.eye(2)
    psi = np.array([x, math.sqrt(1.0 - x * x)], dtype=complex)
    for first in range(0, steps, 512):
        block = min(512, steps - first)
        t = np.arange(first * sub, (first + block) * sub) * h
        a0, am, a1 = minus_i_h(t), minus_i_h(t + 0.5 * h), minus_i_h(t + h)
        k2 = am @ (eye + 0.5 * h * a0)
        k3 = am @ (eye + 0.5 * h * k2)
        k4 = a1 @ (eye + h * k3)
        R = (eye + (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)).reshape(block, sub, 2, 2)
        M = R[:, 0]
        for j in range(1, sub):
            M = R[:, j] @ M
        for m in M:
            psi = m @ psi
    P = float(np.vdot(psi, psi).real)
    return float(abs(psi[0]) ** 2) / P, P
