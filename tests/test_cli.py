import ast
import concurrent.futures
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zenogrover
from zenogrover import cli, stroboscopic
from zenogrover.cli import RunConfig, build_parser, main, run_config

README = Path(__file__).resolve().parents[1] / "README.md"

#: the message of every N that the full-space oracle does not run
_FULLSPACE_RULE = "the full-space oracle runs an integer N in [2, 1048576]"


def read_table(path):
    header = {}
    rows = []
    names = None
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            if key != "zenogrover version":
                header[key] = json.loads(value)
            continue
        if names is None:
            names = line.split(",")
            continue
        rows.append(line.split(","))
    cols = {
        name: [row[i] for row in rows] for i, name in enumerate(names)
    }
    return header, cols


def sidecar(path):
    return json.loads(path.with_name(path.name + ".meta.json").read_text())


class TestRun:
    def test_writes_trajectory(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main([
            "run", "--n", "1e6", "--k", "1", "--tau", "0.2", "--alpha", "0.3",
            "--out", str(out),
        ])
        assert rc == 0
        header, cols = read_table(out)
        assert header["alpha"] == 0.3
        assert len(cols["n"]) == 471  # n_G + initial row
        meta = sidecar(out)
        assert meta["summary"]["final_fidelity"] == pytest.approx(0.977, abs=0.01)
        assert meta["summary"]["final_survival"] == pytest.approx(0.275, abs=0.01)

    def test_no_rotation_keeps_survival_one(self, tmp_path):
        out = tmp_path / "unitary.csv"
        assert main(["run", "--n", "1e4", "--dt", "1.0", "--out", str(out)]) == 0
        _, cols = read_table(out)
        P = np.array([float(v) for v in cols["P"]])
        assert np.allclose(P, 1.0, atol=1e-12)

    def test_effective_engine(self, tmp_path):
        out = tmp_path / "eff.csv"
        rc = main([
            "run", "--n", "1e6", "--k", "1", "--tau", "0.2", "--alpha", "0.3",
            "--engine", "effective", "--out", str(out),
        ])
        assert rc == 0
        _, cols = read_table(out)
        assert float(cols["f"][-1]) == pytest.approx(0.99, abs=0.02)
        d = np.array([float(v) for v in cols["d"]])
        assert d[0] == 0.0 and np.all(np.isfinite(d))

    def test_engine_choices_are_the_engines(self, tmp_path, capsys):
        assert cli._FLAGS["engine"][1]["choices"] == stroboscopic.ENGINES
        # a name that argparse did not vet still exits 2 through the one dispatch
        config = RunConfig(mode="run", N=1e6, k=1, tau=0.2, engine="x",
                           out=str(tmp_path / "x.csv"))
        assert run_config(config) == 2
        assert capsys.readouterr().err == "error: unknown engine 'x'\n"

    def test_deterministic_rerun(self, tmp_path):
        out = tmp_path / "det.csv"
        args = ["run", "--n", "1e5", "--dt", "2.0", "--alpha", "0.2", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        first_meta = out.with_name(out.name + ".meta.json").read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first
        assert out.with_name(out.name + ".meta.json").read_bytes() == first_meta

    def test_dt_beyond_search_time_exits_2(self, tmp_path, capsys):
        # pi*sqrt(4)/2 ~ 3.14 leaves no whole step of dt = 10 for the readout
        assert main(["run", "--n", "4", "--dt", "10", "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: delta_t=10.0 exceeds the search time for N=4.0 (n_G < 1)\n"
        )

    def test_dt_beyond_search_time_runs_explicit_steps(self, tmp_path):
        out = tmp_path / "short.csv"
        assert main(["run", "--n", "4", "--dt", "10", "--steps", "5", "--out", str(out)]) == 0
        _, cols = read_table(out)
        assert cols["n"] == ["0", "1", "2", "3", "4", "5"]
        assert sidecar(out)["summary"]["n_G"] == 0

    def test_config_errors_exit_2(self, tmp_path):
        assert main(["run", "--n", "1e6", "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["run", "--dt", "1.0"]) == 2
        assert main(["run", "--n", "1.5", "--dt", "1.0"]) == 2


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--n", "1e6", "--k", "1", "--tau", "0.2", "--alpha", "nan"],
            ["run", "--n", "1e6", "--k", "1", "--tau", "0.2", "--eps", "inf"],
            ["run", "--n", "inf", "--k", "1", "--tau", "0.2"],
            ["run", "--n", "1e6", "--k", "1", "--tau", "0.2", "--out", "{blocker}/x.csv"],
            ["verify", "--n", "inf"],
            ["plan-scale", "--n", "1e6", "--k", "1", "--tau", "0.2", "--nr", "inf"],
            ["sweep-dt", "--n", "1e6", "--alpha", "0.3", "--grid", "3:3.2:3",
             "--steps", "0"],
            ["sweep-dt", "--n", "1e6", "--alpha", "0.3", "--grid", "3:3.2:3",
             "--jobs", "0"],
            ["verify", "--n", "2.5"],
            ["verify", "--n", "1"],
            ["verify", "--n", "nan"],
            # 4.7e14 steps: the 3.3 PiB record exceeds any 48-bit address
            # space, so the allocation fails before it touches memory
            ["run", "--n", "1e30", "--k", "1", "--tau", "0.2", "--alpha", "0.3"],
            # conflicting ways to set one parameter: neither may be dropped
            ["run", "--n", "1e6", "--dt", "1.0", "--k", "1", "--tau", "0.2"],
            ["run", "--n", "1e6", "--dt", "1.0", "--alpha", "0.3", "--dtheta", "0.01"],
            # no engine runs |tau| >= pi/2, so no plan may call it valid
            ["plan-scale", "--n", "1e6", "--k", "1", "--tau", "2", "--nr", "1e8"],
            # pi sqrt(N)/(2 dt) overflows, so no step count n_G exists
            ["run", "--n", "1e6", "--dt", "1e-320", "--steps", "3"],
            ["sweep-eps", "--n", "1e300", "--dt", "1e-300", "--grid", "0:1:2"],
            # the effective engine runs at most 4096 substeps per step
            ["eff-compare", "--n", "1e6", "--k", "1", "--tau", "0.2", "--alpha", "1e300",
             "--steps", "3"],
            ["run", "--engine", "effective", "--n", "1e6", "--dt", "1e-300",
             "--dtheta", "1e300", "--steps", "3"],
            ["run", "--engine", "effective", "--n", "1e6", "--k", "1", "--tau", "0.2",
             "--dtheta", "1e5", "--steps", "3"],
            # without --check no process runs, so alpha would not be applied
            ["plan-scale", "--n", "1e6", "--k", "1", "--tau", "0.2", "--nr", "1e8",
             "--alpha", "0.5", "--out", "{tmp}/p.csv"],
            # n_G = 1.6e293 steps: a step's phase takes 2j - 1 to a double,
            # exact only up to 2**53, so no engine runs more than 2**52 steps
            ["run", "--n", "1e6", "--dt", "1e-290"],
            ["sweep-dt", "--n", "1e6", "--alpha", "0.3", "--grid", "1e-290:2e-290:2"],
            ["sweep-eps", "--n", "1e6", "--dt", "1e-290", "--grid", "0:1:2"],
            # finite input whose steps overflow: the phase (2j - 1) dtheta from
            # step 900 on, and t00^2 of the effective generator; such a step
            # is not finite, where an annihilated one reads P = 0
            ["run", "--n", "1e6", "--dt", "1", "--alpha", "1e308"],
            ["sweep-dt", "--n", "1e6", "--alpha", "1e308", "--grid", "1:2:3"],
            ["run", "--engine", "effective", "--n", "1e6", "--dt", "1", "--eps", "1e200",
             "--steps", "5"],
            ["eff-compare", "--n", "1e6", "--dt", "1", "--eps", "1e200", "--steps", "5"],
        ],
        ids=["alpha-nan", "eps-inf", "n-inf", "unwritable-out", "verify-n-inf",
             "plan-nr-inf", "sweep-dt-steps-0", "jobs-0", "verify-n-non-integer",
             "verify-n-1", "verify-n-nan",
             "record-too-large", "dt-with-k-tau", "dtheta-with-alpha",
             "plan-tau-too-large", "step-count-overflow-dt",
             "step-count-overflow-n", "effective-alpha-huge", "effective-rate-inf",
             "effective-dtheta-1e5", "plan-alpha-without-check", "too-many-steps-run",
             "too-many-steps-sweep-dt", "too-many-steps-sweep-eps", "step-phase-overflow-run",
             "step-phase-overflow-sweep-dt", "effective-step-overflow",
             "effective-step-overflow-eff-compare"],
    )
    def test_exits_2_with_message(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setenv("ZENOGROVER_OUTDIR", str(tmp_path))
        # a regular file where the output directory should be
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([a.format(blocker=blocker, tmp=tmp_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not caught
        assert [f.name for f in tmp_path.iterdir()] == ["blocker"]
        if argv[0] == "verify":  # every bad N meets the full space's one size rule
            assert err == f"error: {_FULLSPACE_RULE}, got {float(argv[2])!r}\n"
        if "1e-290" in argv:  # the step count is named
            n = zenogrover.make_params(1e6, 1e-290).n_G
            assert err == f"error: n={n} steps at N=1000000.0, dt=1e-290 exceed 2**52\n"

    @pytest.mark.parametrize(
        "argv, blocker",
        [
            pytest.param(argv, blocker, id=mode if blocker == "file" else f"{mode}-{blocker}")
            for blocker in ("file", "dir", "sidecar")
            for mode, argv in {
                "run": ["run", "--n", "1e6", "--k", "1", "--tau", "0.2", "--alpha", "0.3",
                        "--out", "{out}"],
                # no --out: the table goes to $ZENOGROVER_OUTDIR/run.csv
                "run-outdir": ["run", "--n", "1e6", "--k", "1", "--tau", "0.2",
                               "--alpha", "0.3"],
                "sweep-dt": ["sweep-dt", "--n", "1e10", "--alpha", "0.3", "--grid",
                             "2.8:3.4:21", "--out", "{out}"],
                "sweep-eps": ["sweep-eps", "--n", "1e18", "--k", "1", "--tau", "0.2",
                              "--alpha", "0.3", "--grid=-10:10:81", "--out", "{out}"],
                "plan-scale": ["plan-scale", "--n", "1e6", "--k", "1", "--tau", "0.2",
                               "--nr", "1e18", "--check", "--out", "{out}"],
                "verify": ["verify", "--n", "1024", "--steps", "200", "--out", "{out}"],
                "eff-compare": ["eff-compare", "--n", "1e6", "--k", "1", "--tau", "0.2",
                                "--alpha", "0.3", "--out", "{out}"],
            }.items()
        ],
    )
    def test_unwritable_output_exits_before_the_work(
        self, tmp_path, monkeypatch, capsys, argv, blocker
    ):
        def reached(config):
            raise AssertionError("the command ran before its output path was checked")

        mode = argv[0]
        monkeypatch.setitem(cli._COMMANDS, mode, (reached, cli._COMMANDS[mode][1]))
        if blocker == "file":
            # a regular file where the output directory should be
            (tmp_path / "blocker").write_text("")
            out, outdir = tmp_path / "blocker" / "x.csv", tmp_path / "blocker" / "sub"
        else:
            # a directory where the output file, or its sidecar, should be
            out, outdir = tmp_path / "x.csv", tmp_path
            suffix = ".meta.json" if blocker == "sidecar" else ""
            for table in (out, tmp_path / "run.csv"):
                table.with_name(table.name + suffix).mkdir()
        monkeypatch.setenv("ZENOGROVER_OUTDIR", str(outdir))
        assert main([a.format(out=out) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if blocker != "file":
            target = out if "{out}" in argv else outdir / "run.csv"
            assert err == f"error: [Errno 21] Is a directory: '{target}{suffix}'\n"


class TestJobs:
    def test_pool_is_capped_at_the_grid_size(self, tmp_path, monkeypatch):
        workers = []

        class SerialPool:
            """Records the requested pool size and maps in this process."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                return map(fn, work)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        assert main([
            "sweep-dt", "--n", "1e5", "--grid", "2.9:3.4:3", "--alpha", "0.3",
            "--jobs", "64", "--out", str(tmp_path / "dt.csv"),
        ]) == 0
        assert main([
            "sweep-eps", "--n", "1e8", "--k", "1", "--tau", "0.2", "--alpha", "0.3",
            "--grid=-1:1:3", "--jobs", "64", "--out", str(tmp_path / "eps.csv"),
        ]) == 0
        assert workers == [3, 3]


#: the flags each command reads, besides --out, --jobs and --print-config
FLAGS_READ = {
    "run": "n dt k tau alpha dtheta theta0 eps steps engine",
    "sweep-dt": "n alpha dtheta theta0 eps steps grid",
    "sweep-eps": "n dt k tau alpha dtheta theta0 grid",
    "plan-scale": "n k tau alpha nr check",
    "verify": "n steps inject-fault",
    "eff-compare": "n dt k tau alpha dtheta theta0 eps steps",
}

#: flag -> (its arguments, its RunConfig field, the value that field takes)
FLAG_VALUES = {
    "n": (["1e6"], "N", 1e6),
    "dt": (["2.5"], "delta_t", 2.5),
    "k": (["3"], "k", 3),
    "tau": (["0.25"], "tau", 0.25),
    "alpha": (["0.4"], "alpha", 0.4),
    "dtheta": (["0.001"], "delta_theta", 0.001),
    "theta0": (["0.1"], "theta0", 0.1),
    "eps": (["1e-9"], "epsilon", 1e-9),
    "steps": (["7"], "steps", 7),
    "engine": (["effective"], "engine", "effective"),
    "grid": (["1:2:3"], "grid", [1.0, 2.0, 3]),
    "nr": (["1e8"], "N_requested", 1e8),
    "check": ([], "check", True),
    "inject-fault": (["hdown-sign"], "inject_fault", "hdown-sign"),
}


class TestFlagTable:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sweep-eps", "--n", "1e8", "--k", "1", "--tau", "0.2", "--alpha", "0.3",
              "--grid=-1:1:3", "--steps", "0"], "--steps"),
            (["sweep-eps", "--n", "1e8", "--k", "1", "--tau", "0.2", "--alpha", "0.3",
              "--grid=-1:1:3", "--eps", "1e-9"], "--eps"),
            (["sweep-dt", "--n", "1e6", "--alpha", "0.3", "--grid", "3:3.2:3",
              "--engine", "effective"], "--engine"),
            (["sweep-dt", "--n", "1e6", "--alpha", "0.3", "--grid", "3:3.2:3",
              "--dt", "3.0"], "--dt"),
            (["verify", "--n", "8", "--alpha", "0.3"], "--alpha"),
            (["plan-scale", "--n", "1e6", "--k", "1", "--tau", "0.2", "--nr", "1e8",
              "--eps", "1e-9"], "--eps"),
            (["eff-compare", "--n", "1e6", "--k", "1", "--tau", "0.2", "--alpha", "0.3",
              "--engine", "effective"], "--engine"),
            (["run", "--n", "1e6", "--k", "1", "--tau", "0.2", "--grid", "1:2:3"], "--grid"),
        ],
        ids=["sweep-eps-steps", "sweep-eps-eps", "sweep-dt-engine", "sweep-dt-dt",
             "verify-alpha", "plan-scale-eps", "eff-compare-engine", "run-grid"],
    )
    def test_unread_flag_exits_2(self, tmp_path, monkeypatch, capsys, argv, flag):
        monkeypatch.setenv("ZENOGROVER_OUTDIR", str(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sweep-dt", "--n", "1e6", "--alpha", "0.3", "--grid", "1:nan:3"], "--grid"),
            (["sweep-eps", "--n", "1e6", "--k", "1", "--tau", "0.2", "--alpha", "0.3",
              "--grid=-inf:1:3"], "--grid"),
            # finite bounds whose span hi - lo overflows
            (["sweep-eps", "--n", "1e6", "--k", "1", "--tau", "0.2",
              "--grid=-1e308:1e308:3"], "--grid"),
            (["verify", "--n", "8", "--inject-fault", "nope"], "--inject-fault"),
            # the small-overlap engine is gone: only exact and effective run
            (["run", "--n", "1e6", "--k", "1", "--tau", "0.2", "--alpha", "0.3",
              "--engine", "approx"], "--engine: invalid choice"),
        ],
        ids=["sweep-dt-grid-nan", "sweep-eps-grid-inf", "sweep-eps-grid-span-inf",
             "verify-unknown-fault",
             "run-engine-approx"],
    )
    def test_bad_flag_value_exits_2(self, tmp_path, monkeypatch, capsys, argv, flag):
        monkeypatch.setenv("ZENOGROVER_OUTDIR", str(tmp_path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SystemExit) as exc:
                main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not caught
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("mode", list(FLAGS_READ))
    def test_every_read_flag_reaches_its_field(self, tmp_path, capsys, mode):
        out = str(tmp_path / "x.csv")
        argv = [mode, "--jobs", "1", "--out", out, "--print-config"]
        for flag in FLAGS_READ[mode].split():
            argv += [f"--{flag}", *FLAG_VALUES[flag][0]]
        assert main(argv) == 0
        config = json.loads(capsys.readouterr().out)
        assert config["mode"] == mode
        assert config["jobs"] == 1
        assert config["out"] == out
        for flag in FLAGS_READ[mode].split():
            _, field, value = FLAG_VALUES[flag]
            assert config[field] == value, flag
        assert not (tmp_path / "x.csv").exists()

    def test_no_command_takes_a_flag_it_does_not_read(self, capsys):
        parser = build_parser()
        for mode, flags in FLAGS_READ.items():
            for flag in set(FLAG_VALUES) - set(flags.split()):
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args([mode, f"--{flag}", *FLAG_VALUES[flag][0]])
                assert exc.value.code == 2, (mode, flag)
                assert f"--{flag}" in capsys.readouterr().err


class TestReadme:
    def test_every_command_line_parses(self):
        text = README.read_text().replace("\\\n", " ")
        lines = [line.split() for line in text.splitlines()
                 if line.startswith("zenogrover ")]
        assert len(lines) >= 16
        parser = build_parser()
        for line in lines:
            parser.parse_args(line[1:])

    def test_flag_table_lists_each_commands_flags(self):
        rows = re.findall(r"^\| `([\w-]+)` \| `([^`]*)`", README.read_text(), re.MULTILINE)
        assert {mode: flags.split() for mode, flags in rows} == {
            mode: [f"--{flag}" for flag in flags.split()]
            for mode, (_, flags) in cli._COMMANDS.items()
        }

    def test_library_example_runs(self, capsys):
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
        assert len(blocks) == 1
        exec(compile(blocks[0], str(README), "exec"), {})
        assert len(capsys.readouterr().out.splitlines()) == 3


class TestPrintConfig:
    def test_prints_and_does_not_run(self, tmp_path, capsys):
        out = tmp_path / "nothing.csv"
        rc = main([
            "run", "--n", "1e6", "--dt", "1.0", "--out", str(out), "--print-config",
        ])
        assert rc == 0
        assert not out.exists()
        config = json.loads(capsys.readouterr().out)
        assert config["mode"] == "run"
        assert config["N"] == 1e6
        assert config["delta_t"] == 1.0


class TestSweepDt:
    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "one.csv"
        rc = main([
            "sweep-dt", "--n", "1e6", "--grid", "3.14:3.14:1", "--alpha", "0.3",
            "--out", str(out),
        ])
        assert rc == 0
        _, cols = read_table(out)
        assert len(cols["delta_t"]) == 1

    def test_minimum_sits_at_pi(self, tmp_path):
        out = tmp_path / "dt.csv"
        lo, hi = math.pi - 0.3, math.pi + 0.3
        rc = main([
            "sweep-dt", "--n", "1e6", "--grid", f"{lo}:{hi}:7", "--alpha", "0.3",
            "--out", str(out),
        ])
        assert rc == 0
        meta = sidecar(out)
        assert meta["summary"]["argmin_delta_t"] == pytest.approx(math.pi, abs=1e-12)

    def test_parallel_bytes_identical(self, tmp_path):
        # 6 points on 8 workers run one slice each; 7 points at --jobs 3 run
        # as uneven slices of 3, 3 and 1
        for count, jobs in (("6", "8"), ("7", "3")):
            base = ["sweep-dt", "--n", "1e5", "--grid", f"2.9:3.4:{count}", "--alpha", "0.3"]
            outputs = []
            for j in ("1", jobs):
                out = tmp_path / f"g{count}j{j}.csv"
                assert main(base + ["--out", str(out), "--jobs", j]) == 0
                meta = out.with_name(out.name + ".meta.json")
                outputs.append((out.read_bytes(), meta.read_bytes()))
            assert outputs[0] == outputs[1]

    def test_missing_grid_exits_2(self):
        assert main(["sweep-dt", "--n", "1e6", "--alpha", "0.3"]) == 2


class TestSweepEps:
    def test_parallel_bytes_identical(self, tmp_path):
        base = [
            "sweep-eps", "--n", "1e8", "--k", "1", "--tau", "0.2", "--alpha", "0.3",
            "--grid=-4:4:9",
        ]
        out1, out8 = tmp_path / "e1.csv", tmp_path / "e8.csv"
        assert main(base + ["--out", str(out1), "--jobs", "1"]) == 0
        assert main(base + ["--out", str(out8), "--jobs", "8"]) == 0
        assert out1.read_bytes() == out8.read_bytes()

    def test_q_recipe_bytes_do_not_depend_on_jobs(self, tmp_path):
        # the 81 points run as one kernel pass at --jobs 1 and as two slices at 2
        base = [
            "sweep-eps", "--n", "1e18", "--k", "1000000", "--tau", "0.2", "--alpha", "0.3",
            "--grid=-10:10:81",
        ]
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"q{jobs}.csv"
            assert main(base + ["--out", str(out), "--jobs", jobs]) == 0
            meta = out.with_name(out.name + ".meta.json")
            outputs.append((out.read_bytes(), meta.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_divergent_points_flagged(self, tmp_path):
        out = tmp_path / "eps.csv"
        ratio = 2 * math.sqrt(3)
        rc = main([
            "sweep-eps", "--n", "1e8", "--k", "1", "--tau", "0.2", "--alpha", "0.3",
            "--grid", f"{ratio}:{ratio}:1", "--out", str(out),
        ])
        assert rc == 0
        _, cols = read_table(out)
        assert cols["divergent"] == ["true"]
        assert cols["Q"] == ["inf"]


class TestPlanScale:
    def test_prints_plan(self, capsys):
        rc = main([
            "plan-scale", "--n", "1e6", "--k", "1", "--tau", "0.2", "--nr", "1e8",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "N2 = 108190849" in text
        assert "k2 = 11" in text

    def test_check_flag_runs_both(self, tmp_path, capsys):
        out = tmp_path / "plan.csv"
        rc = main([
            "plan-scale", "--n", "1e4", "--k", "1", "--tau", "0.2", "--nr", "1e6",
            "--alpha", "0.3", "--check", "--out", str(out),
        ])
        assert rc == 0
        meta = sidecar(out)
        assert meta["summary"]["check"]["max_fidelity_deviation"] < 0.02

    def test_check_records_default_alpha(self, tmp_path, capsys):
        out = tmp_path / "plan.csv"
        rc = main([
            "plan-scale", "--n", "1e4", "--k", "1", "--tau", "0.2", "--nr", "1e6",
            "--check", "--out", str(out),
        ])
        assert rc == 0
        meta = sidecar(out)
        assert meta["config"]["alpha"] == 0.3
        assert meta["summary"]["check"]["alpha"] == 0.3
        assert "# alpha=0.3" in out.read_text().splitlines()

    def test_unresolved_residual_is_not_valid(self, capsys):
        # k2_raw = 1.06e27 has an ulp of 1.4e11, so its residual reads 0 while
        # the check finds the two runs 0.71 apart in fidelity
        assert main([
            "plan-scale", "--n", "1e6", "--k", "1", "--tau", "0.2", "--nr", "1e60", "--check",
        ]) == 0
        text = capsys.readouterr().out
        assert "integrality_residual = 0\n" in text
        assert "valid = false" in text

    def test_rejects_backwards_request(self):
        assert main([
            "plan-scale", "--n", "1e6", "--k", "1", "--tau", "0.2", "--nr", "1e4",
        ]) == 2


class TestVerify:
    def test_small_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        rc = main(["verify", "--n", "8", "--steps", "60", "--out", str(out)])
        assert rc == 0
        assert "all cases passed" in capsys.readouterr().out
        meta = sidecar(out)
        assert meta["summary"]["failures"] == 0
        assert meta["summary"]["unitary_limit_ok"] is True

    def test_injected_fault_fails(self, capsys):
        rc = main([
            "verify", "--n", "8", "--steps", "40", "--inject-fault", "hdown-sign",
        ])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_fault_exits_before_the_full_space(self, monkeypatch, capsys):
        from zenogrover import fullspace

        def reached(*args):
            raise AssertionError("the full space ran before the fault name was checked")

        monkeypatch.setattr(fullspace, "_propagate", reached)
        assert run_config(RunConfig(mode="verify", N=8.0, steps=5, inject_fault="nope")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'nope'" in err

    def test_oversized_request_is_config_error(self, capsys):
        from zenogrover.fullspace import MAX_FULLSPACE_N

        for n in (MAX_FULLSPACE_N + 1, 2000000):
            assert main(["verify", "--n", str(n)]) == 2
            assert capsys.readouterr().err == f"error: {_FULLSPACE_RULE}, got {float(n)!r}\n"

    def test_deep_damping_passes(self, capsys):
        # survival falls far below 1e-30 over 700 steps at N = 4
        assert main(["verify", "--n", "4", "--steps", "700"]) == 0
        out = capsys.readouterr().out
        assert "all cases passed" in out and "FAIL" not in out

    def test_steps_help_names_the_default(self, capsys):
        from zenogrover.fullspace import EQUIVALENCE_STEPS

        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--help"])
        assert f"verify: {EQUIVALENCE_STEPS})" in " ".join(capsys.readouterr().out.split())

    def test_injected_fault_fails_in_worker_processes(self, capsys):
        # the default matrix: its 4 (N, eps, steps) groups fan out to 2 workers
        rc = main([
            "verify", "--steps", "40", "--inject-fault", "hdown-sign", "--jobs", "2",
        ])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_parallel_bytes_identical(self, tmp_path, capsys):
        # the default matrix: its 4 (N, eps, steps) groups fan out to 2 workers
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"v{jobs}.csv"
            rc = main(["verify", "--steps", "40", "--out", str(out), "--jobs", jobs])
            assert rc == 0
            stdout = capsys.readouterr().out
            meta = out.with_name(out.name + ".meta.json").read_bytes()
            outputs.append((stdout, out.read_bytes(), meta))
        assert outputs[0] == outputs[1]

    def test_single_size_stdout_does_not_depend_on_jobs(self, capsys):
        # one (N, eps, steps) group of 27 cases, which runs in one process
        stdouts = []
        for jobs in ("1", "2"):
            assert main(["verify", "--n", "8", "--steps", "40", "--jobs", jobs]) == 0
            stdouts.append(capsys.readouterr().out)
        assert stdouts[0] == stdouts[1]


class TestEffCompare:
    def test_columns_agree_in_unitary_limit(self, tmp_path):
        out = tmp_path / "cmp.csv"
        rc = main([
            "eff-compare", "--n", "1e12", "--k", "2", "--tau", "0", "--dtheta", "0",
            "--steps", "400", "--out", str(out),
        ])
        assert rc == 0
        meta = sidecar(out)
        assert meta["summary"]["max_dev_eff_exact"] < 1e-6
        assert meta["summary"]["max_dev_eq11_exact"] < 1e-6
        assert meta["summary"]["max_dev_eff_eq11"] < 1e-6

    def test_detuned_tracking(self, tmp_path):
        out = tmp_path / "cmp4.csv"
        N = 1000000162505052417
        x = 1.0 / math.sqrt(float(N))
        rc = main([
            "eff-compare", "--n", repr(float(N)), "--k", "1063662", "--tau", "0.2",
            "--alpha", "0.3", "--eps", repr(2 * x * math.sqrt(3)), "--out", str(out),
        ])
        assert rc == 0
        meta = sidecar(out)
        assert meta["summary"]["max_dev_eff_exact"] <= 0.1


#: runs ``sys.argv[2:]`` in this process, through the ``__main__`` path of
#: ``zenogrover.cli`` (what ``python -m zenogrover.cli`` runs) if
#: ``sys.argv[1]`` is "entry", else through ``main()``; the last stdout line
#: reports the exit code, the collector's frozen count, the modules loaded
#: and the process's thread count (None where /proc/self/task is missing)
CHILD = """
import gc, json, os, runpy, sys
how, argv = sys.argv[1], sys.argv[2:]
if how == "entry":
    sys.argv = ["zenogrover", *argv]
    try:
        runpy.run_module("zenogrover.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
else:
    import zenogrover.cli
    code = zenogrover.cli.main(argv)
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({"code": code, "frozen": gc.get_freeze_count(), "loaded": sorted(sys.modules),
                  "threads": threads}))
"""

ENGINES = {"zenogrover.effective", "zenogrover.fullspace", "zenogrover.scaling"}


#: a run of the exact engine, written to ``{out}``
RUN = ["run", "--n", "1e4", "--k", "1", "--tau", "0.2", "--alpha", "0.3", "--out", "{out}"]


class TestStartup:
    @staticmethod
    def _child(how, *argv, code=0, **extra_env):
        """Run CHILD in a fresh process, with ``extra_env`` added to this
        process's environment; the command must exit with ``code``."""
        # the child must import the same package as this test process
        env = dict(os.environ, **extra_env)
        src = str(Path(zenogrover.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, how, *argv],
            env=env, check=True, timeout=60, capture_output=True, text=True,
        )
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["code"] == code, proc.stderr
        return report

    @pytest.mark.parametrize("argv, code", [
        (["--version"], 0),
        (["--help"], 0),
        (["run", "--help"], 0),
        (["run", "--n", "1e6", "--k", "1", "--tau", "0.2", "--print-config"], 0),
        (["run", "--no-such-flag"], 2),
        (["run", "--n", "1e6", "--k", "1", "--tau", "0.2", "--jobs", "0"], 2),
    ], ids=["version", "help", "run-help", "print-config", "unknown-flag", "jobs-0"])
    def test_a_start_that_runs_no_command_loads_no_numpy(self, argv, code):
        # parsing and the pre-flight checks need the standard library only
        loaded = self._child("entry", *argv, code=code)["loaded"]
        assert [m for m in loaded if m.split(".")[0] == "numpy"] == []
        assert [m for m in loaded if m.startswith("zenogrover.")] == []

    def _loaded_by_version_and_run(self, tmp_path) -> list[set]:
        out = str(tmp_path / "run.csv")
        return [set(self._child("entry", *argv)["loaded"])
                for argv in (["--version"], [a.format(out=out) for a in RUN])]

    def test_cli_import_does_not_load_scipy(self, tmp_path):
        assert all("scipy" not in loaded for loaded in self._loaded_by_version_and_run(tmp_path))

    def test_cli_import_does_not_load_the_process_pool(self, tmp_path):
        # only a fan-out (--jobs > 1) needs multiprocessing
        assert all("concurrent.futures.process" not in loaded
                   for loaded in self._loaded_by_version_and_run(tmp_path))

    def test_verify_does_not_load_numpy_random(self):
        # the verify targets come from the standard library's generator
        report = self._child("main", "verify", "--n", "4", "--steps", "5")
        assert "numpy.random" not in report["loaded"]

    @pytest.mark.parametrize("argv", [
        RUN,
        ["sweep-dt", "--n", "1e4", "--alpha", "0.3", "--grid", "2.9:3.4:3", "--out", "{out}"],
    ])
    def test_exact_commands_load_no_other_engine(self, argv, tmp_path):
        out = str(tmp_path / "x.csv")
        report = self._child("entry", *[a.format(out=out) for a in argv])
        assert not ENGINES & set(report["loaded"])
        assert {"zenogrover.model", "zenogrover.stroboscopic"} <= set(report["loaded"])

    def test_eff_compare_loads_effective_only(self, tmp_path):
        report = self._child(
            "entry", "eff-compare", "--n", "1e4", "--k", "1", "--tau", "0.2",
            "--alpha", "0.3", "--steps", "20", "--out", str(tmp_path / "cmp.csv"),
        )
        assert "zenogrover.effective" in report["loaded"]
        assert "zenogrover.fullspace" not in report["loaded"]

    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "4", "--steps", "5"],
        ["sweep-dt", "--n", "1e4", "--alpha", "0.3", "--grid", "2.9:3.4:3", "--out", "{out}"],
    ])
    def test_fan_out_commands_do_not_load_the_planner(self, argv, tmp_path):
        # parallel_map lives in model, which every command loads
        out = str(tmp_path / "x.csv")
        report = self._child("entry", *[a.format(out=out) for a in argv])
        assert "zenogrover.scaling" not in report["loaded"]

    def test_verify_does_not_load_effective(self):
        report = self._child("entry", "verify", "--n", "4", "--steps", "5")
        assert "zenogrover.fullspace" in report["loaded"]
        assert "zenogrover.effective" not in report["loaded"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                        reason="needs /proc/self/task and two CPUs for a BLAS worker")
    @pytest.mark.parametrize("extra_env, threads", [
        ({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2), ({"OMP_NUM_THREADS": "2"}, 2),
    ])
    def test_the_process_starts_no_blas_pool_unless_asked(self, extra_env, threads, monkeypatch):
        # every matrix is 2x2, so a CLI process runs on its main thread alone;
        # a pool size the user set wins
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        report = self._child("entry", "verify", "--n", "2", "--steps", "3", **extra_env)
        assert report["threads"] == threads

    def test_only_the_process_entry_freezes_the_heap(self):
        # the entry freezes numpy's and the engines' objects before the command
        assert self._child("entry", "verify", "--n", "2", "--steps", "3")["frozen"] >= 20_000
        # in-process callers of main() keep the collector as it is
        assert self._child("main", "verify", "--n", "2", "--steps", "3")["frozen"] == 0

    def test_process_writes_the_bytes_of_main(self, tmp_path):
        argv = ["run", "--n", "1e5", "--k", "1", "--tau", "0.2", "--alpha", "0.3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._child("entry", *argv, "--out", str(a))
        assert main([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (a.with_name("a.csv.meta.json").read_bytes()
                == b.with_name("b.csv.meta.json").read_bytes())

    def test_console_script_is_the_process_entry(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
        module, _, function = scripts["zenogrover"].partition(":")
        assert module == "zenogrover.cli"
        main_block = [
            node for node in ast.parse(Path(cli.__file__).read_text()).body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert len(main_block) == 1
        assert [ast.unparse(n) for n in main_block[0].body] == [f"{function}()"]
        assert callable(getattr(cli, function))


def _fmt_reference(v) -> str:
    """The table writer's former rule, applied to one cell at a time."""
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


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                   math.nan, math.inf, -math.inf, 1e17, -1e300, 0.1, 1 / 3]


@st.composite
def _table_columns(draw):
    """Columns of one length, each a list or an array of ints, floats or bools."""
    rows = draw(st.integers(min_value=0, max_value=12))
    floats = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
    columns = {}
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        kind = draw(st.sampled_from(["int", "bigint", "float", "npfloat", "bool"]))
        values = draw(st.lists(
            {"int": st.integers(-2**63, 2**63 - 1), "bigint": st.integers(),
             "float": floats, "npfloat": floats.map(np.float64),
             "bool": st.booleans()}[kind],
            min_size=rows, max_size=rows,
        ))
        if kind != "bigint" and draw(st.booleans()):
            values = np.array(values, dtype={"int": np.int64, "bool": bool}.get(kind, float))
        columns[f"c{i}"] = values
    return columns


class TestTableWriter:
    @given(columns=_table_columns(), per_write=st.sampled_from([1, 3, 1 << 16]))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_the_per_cell_rule(self, columns, per_write):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(cli, "_ROWS_PER_WRITE", per_write):
            path = Path(tmp) / "t.csv"
            cli._write_table(RunConfig(mode="run", out=str(path)), columns, {})
            lines = path.read_text().split("\n")
        names = list(columns)
        start = lines.index(",".join(names)) + 1
        rows = len(columns[names[0]])
        expected = [",".join(_fmt_reference(columns[n][i]) for n in names)
                    for i in range(rows)]
        assert lines[start:] == expected + [""]


class TestRoundTrip:
    def test_sidecar_config_reproduces_file(self, tmp_path):
        out = tmp_path / "rt.csv"
        rc = main([
            "run", "--n", "1e6", "--k", "1", "--tau", "0.2", "--alpha", "0.3",
            "--steps", "100", "--out", str(out),
        ])
        assert rc == 0
        original = out.read_bytes()
        config = RunConfig(**sidecar(out)["config"], out=str(out))
        out.unlink()
        assert run_config(config) == 0
        assert out.read_bytes() == original
