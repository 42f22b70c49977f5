import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zenogrover
from zenogrover.cli import RunConfig, build_parser, main, run_config

README = Path(__file__).resolve().parents[1] / "README.md"


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
        assert all(v == "nan" for v in cols["d"][:3])

    def test_deterministic_rerun(self, tmp_path):
        out = tmp_path / "det.csv"
        args = ["run", "--n", "1e5", "--dt", "2.0", "--alpha", "0.2", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        first_meta = out.with_name(out.name + ".meta.json").read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first
        assert out.with_name(out.name + ".meta.json").read_bytes() == first_meta

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
        ],
        ids=["alpha-nan", "eps-inf", "n-inf", "unwritable-out", "verify-n-inf",
             "plan-nr-inf", "sweep-dt-steps-0", "jobs-0", "verify-n-non-integer"],
    )
    def test_exits_2_with_message(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setenv("ZENOGROVER_OUTDIR", str(tmp_path))
        # a regular file where the output directory should be
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main([a.format(blocker=blocker) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")


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

        monkeypatch.setattr(zenogrover.scaling, "ProcessPoolExecutor", SerialPool)
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
    "engine": (["approx"], "engine", "approx"),
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
              "--engine", "approx"], "--engine"),
            (["sweep-dt", "--n", "1e6", "--alpha", "0.3", "--grid", "3:3.2:3",
              "--dt", "3.0"], "--dt"),
            (["verify", "--n", "8", "--alpha", "0.3"], "--alpha"),
            (["plan-scale", "--n", "1e6", "--k", "1", "--tau", "0.2", "--nr", "1e8",
              "--eps", "1e-9"], "--eps"),
            (["eff-compare", "--n", "1e6", "--k", "1", "--tau", "0.2", "--alpha", "0.3",
              "--engine", "approx"], "--engine"),
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
        base = ["sweep-dt", "--n", "1e5", "--grid", "2.9:3.4:6", "--alpha", "0.3"]
        out1, out8 = tmp_path / "j1.csv", tmp_path / "j8.csv"
        assert main(base + ["--out", str(out1), "--jobs", "1"]) == 0
        assert main(base + ["--out", str(out8), "--jobs", "8"]) == 0
        assert out1.read_bytes() == out8.read_bytes()

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

    def test_oversized_request_is_config_error(self):
        assert main(["verify", "--n", "8192"]) == 2

    def test_injected_fault_fails_in_worker_processes(self, capsys):
        rc = main([
            "verify", "--n", "8", "--steps", "40", "--inject-fault", "hdown-sign",
            "--jobs", "2",
        ])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_parallel_bytes_identical(self, tmp_path, capsys):
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"v{jobs}.csv"
            rc = main(["verify", "--n", "16", "--steps", "40", "--out", str(out),
                       "--jobs", jobs])
            assert rc == 0
            stdout = capsys.readouterr().out
            meta = out.with_name(out.name + ".meta.json").read_bytes()
            outputs.append((stdout, out.read_bytes(), meta))
        assert outputs[0] == outputs[1]


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


class TestStartup:
    def test_cli_import_does_not_load_scipy(self):
        # the child must import the same package as this test process
        env = dict(os.environ)
        src = str(Path(zenogrover.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-c",
             "import zenogrover.cli, sys; assert 'scipy' not in sys.modules"],
            env=env, check=True, timeout=60,
        )


class TestRoundTrip:
    def test_sidecar_config_reproduces_file(self, tmp_path):
        import dataclasses

        out = tmp_path / "rt.csv"
        rc = main([
            "run", "--n", "1e6", "--k", "1", "--tau", "0.2", "--alpha", "0.3",
            "--steps", "100", "--out", str(out),
        ])
        assert rc == 0
        original = out.read_bytes()
        config = dataclasses.replace(
            RunConfig.from_dict(sidecar(out)["config"]), out=str(out)
        )
        out.unlink()
        assert run_config(config) == 0
        assert out.read_bytes() == original
