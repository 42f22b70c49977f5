"""zenogrover benchmark: the paper's CLI recipes, timed end to end and per module.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload recipes --seed 0 --seconds 60 --trace 0

Each workload is a closed loop with one client: a pass runs the workload's
commands one after another, each as a fresh ``python -m zenogrover.cli``
process with ``--jobs 1``, and passes repeat until ``--seconds`` is used up.
Every command's outputs are checked (see ``checks.py``) and must be
byte-identical to the first pass.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each pass in
one process through ``zenogrover.cli.main``, once untraced and once traced,
and reports the per-module metrics.  Both print human-readable lines, then an
environment record, then one JSON result line.  METRICS.md defines every
metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

SETUP_STARTS = 3  # timed `--version` starts before the passes, after a warm-up
# start; one more follows every pass, so the samples span the whole run
IMPORT_SAMPLES = 3  # `-X importtime` samples per traced run
RUN_LIMIT_S = 170.0  # no command may run past this point of a run


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    stdout: str


class Runner:
    """Starts the child processes of one run, one at a time, and waits for each."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.started = time.perf_counter()
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def spawn(self, argv: list[str]) -> Proc:
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(remaining, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss also counts this process's resident set at fork time, so
        # this process must stay smaller than the commands (about 30 MB)
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                    usage.ru_utime + usage.ru_stime, out_path.read_text())

    def cli(self, *args: str) -> Proc:
        return self.spawn([sys.executable, "-m", "zenogrover.cli", *args])

    def out_of_time(self) -> bool:
        return time.perf_counter() - self.started > RUN_LIMIT_S


class Outputs:
    """Checks each pass's outputs and compares their bytes with the first pass."""

    def __init__(self, commands, outdir: Path, refs: dict) -> None:
        self.commands = {c.name: c for c in commands}
        self.outdir = outdir
        self.refs = refs
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def clear(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)

    def _digest(self, name: str, stdout: str) -> str:
        h = hashlib.sha256(stdout.encode())
        for path in sorted(self.outdir.glob(f"{name}.*")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()

    def record(self, name: str, code: int, stdout: str) -> None:
        cmd = self.commands[name]
        self.attempted += 1
        problems = checks.check(cmd, code, stdout, self.outdir, self.refs.get(name))
        digest = self._digest(name, stdout)
        if self.first.setdefault(name, digest) != digest:
            problems.append("outputs differ from the first pass")
        if problems:
            self.failed += 1
            self.problems.append(f"{name}: " + "; ".join(problems))

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.outdir.iterdir())


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _passes(seconds: float, runner: Runner, one_pass, least: int) -> list:
    """Repeat ``one_pass`` at least ``least`` times and then while another
    pass fits into ``seconds``."""
    done = []
    start = time.perf_counter()
    while True:
        done.append(one_pass())
        elapsed = time.perf_counter() - start
        if runner.out_of_time() or (
            len(done) >= least and elapsed * (len(done) + 1) / len(done) > seconds
        ):
            return done


def end_to_end(workload: str, commands, seconds: float, runner: Runner,
               outputs: Outputs) -> tuple[dict, dict, dict]:
    runner.cli("--version")  # warm-up: bytecode caches, page cache
    starts = [runner.cli("--version").wall_s for _ in range(SETUP_STARTS)]
    outdir = str(outputs.outdir.relative_to(ROOT))

    def one_pass() -> list[Proc]:
        outputs.clear()
        procs = []
        for cmd in commands:
            procs.append(runner.cli(*cmd.argv(outdir)))
            outputs.record(cmd.name, procs[-1].code, procs[-1].stdout)
            if runner.out_of_time():
                break
        if not runner.out_of_time():
            starts.append(runner.cli("--version").wall_s)
        return procs

    passes = _passes(seconds, runner, one_pass, least=2)  # byte identity needs two
    walls = [sum(p.wall_s for p in ps) for ps in passes]
    metrics = {
        "setup_s": _median(starts),
        "wall_s": _median(walls),
        # each command's median over the passes, then the median over the
        # commands: a median of all command times pooled would sit in the gap
        # between the short and the long commands and jump across it
        "cmd_p50_s": _median([_median([ps[i].wall_s for ps in passes if i < len(ps)])
                              for i in range(len(passes[0]))]),
        "steps_per_s": _median([workloads.STEPS[workload] / w for w in walls]),
        "peak_rss_mb": _median([max(p.rss_mb for p in ps) for ps in passes]),
    }
    samples = {name: len(passes) for name in metrics}
    samples |= {"setup_s": len(starts)}
    raw = {"setup_s": starts, "command_walls": [[p.wall_s for p in ps] for ps in passes]}
    return metrics, samples, raw


def _import_times(runner: Runner) -> dict:
    """Import cost of ``zenogrover.cli`` split by package, from -X importtime."""
    runner.cli("--version")  # warm-up
    samples = []
    for _ in range(IMPORT_SAMPLES):
        runner.spawn([sys.executable, "-X", "importtime", "-c", "import zenogrover.cli"])
        log = (runner.workdir / "stderr.txt").read_text()
        totals = {"zenogrover": 0.0, "numpy": 0.0, "scipy": 0.0}
        ancestors: list[tuple[int, str]] = []
        # children are logged before their parent: walk backwards so each
        # entry's ancestors are on the stack.  An entry counts for its package
        # when no ancestor is of that package; numpy modules that scipy loads
        # count for scipy.
        for line in reversed(log.splitlines()):
            if not line.startswith("import time:") or "imported package" in line:
                continue
            _, cumulative, name = line.split("|")
            depth = len(name) - len(name.lstrip())
            name = name.strip()
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            top = name.split(".")[0]
            owners = {top} if top == "zenogrover" else {"numpy", "scipy"}
            if top in totals and not any(a[1] in owners for a in ancestors):
                totals[top] += int(cumulative) * 1e-6
            ancestors.append((depth, top))
        samples.append({
            "cli.import_s": totals["zenogrover"],
            "cli.import.numpy_s": totals["numpy"],
            "cli.import.scipy_s": totals["scipy"],
            "cli.import.zenogrover_s":
                totals["zenogrover"] - totals["numpy"] - totals["scipy"],
        })
    return {k: _median([s[k] for s in samples]) for k in samples[0]}


def _layers(result: dict, commands) -> tuple[dict, float]:
    """Per-module metrics of one traced pass, and the largest gap between a
    command span and the sum of the self times of its spans."""
    spans = result["spans"]
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[4] is not None:
            child[s[4]] += d
    self_t = [d - c for d, c in zip(dur, child)]

    def of(name, command=None):
        return [i for i, s in enumerate(spans)
                if s[0] == name and (command is None or s[1] == command)]

    def busy(name, command=None):
        return sum(dur[i] for i in of(name, command))

    def units(name, key, command=None):
        return sum(spans[i][5].get(key, 0) for i in of(name, command))

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    counts = result["counts"]
    m = {
        "cli.commands": len(commands),
        "cli.self_s": sum(self_t[i] for i in of("cli.main")),
        "model.make_params.calls": len(of("model.make_params")),
        "model.make_params.busy_s": busy("model.make_params"),
    }
    for fn in ("final_distance", "accumulate_process"):
        name = f"stroboscopic.{fn}"
        steps = units(name, "steps")
        m |= {f"{name}.calls": len(of(name)), f"{name}.steps": steps,
              f"{name}.busy_s": busy(name),
              f"{name}.us_per_step": ratio(busy(name), steps, 1e6)}
    name = "effective.integrate_effective"
    steps = units(name, "steps")
    m |= {f"{name}.calls": len(of(name)), f"{name}.protocol_steps": steps,
          f"{name}.busy_s": busy(name),
          f"{name}.us_per_protocol_step": ratio(busy(name), steps, 1e6),
          "effective.heff_evals": counts.get("effective.heff_evals", 0),
          "effective.heff_evals_per_step":
              ratio(counts.get("effective.heff_evals", 0), steps),
          "effective.attempts": counts.get("effective.attempts", 0),
          "effective.first_try_ratio":
              ratio(len(of(name)), counts.get("effective.attempts", 0))}
    name = "fullspace.simulate_full_protocol"
    m |= {f"{name}.calls": len(of(name)), f"{name}.steps": units(name, "steps"),
          f"{name}.busy_s": busy(name)}
    for label, command in (("N16", "verify_small"), ("N32", "verify_fault"),
                           ("N128", "verify_large")):
        m[f"fullspace.ms_per_step.{label}"] = ratio(
            busy(name, command), units(name, "steps", command), 1e3)
    suites = of("fullspace.equivalence_suite")
    expect_pass = {c.name for c in commands if c.expect_exit == 0}
    m |= {"fullspace.equivalence_suite.self_s": sum(self_t[i] for i in suites),
          "fullspace.cases_failed": sum(spans[i][5].get("failed", 0) for i in suites),
          "fullspace.max_dev": max((spans[i][5].get("max_dev", 0.0) for i in suites
                                    if spans[i][1] in expect_pass), default=0.0)}
    name = "scaling.quality_factor_sweep"
    points = units(name, "points")
    m |= {f"{name}.points": points, f"{name}.busy_s": busy(name),
          f"{name}.ms_per_point": ratio(busy(name), points, 1e3),
          "scaling.scaled_process_check.busy_s": busy("scaling.scaled_process_check"),
          "scaling.plan_scaled_instance.calls": len(of("scaling.plan_scaled_instance"))}

    gap = max(
        (abs(dur[i] - sum(self_t[j] for j, s in enumerate(spans) if s[1] == spans[i][1]))
         for i in of("cli.main")),
        default=0.0,
    )
    return m, gap


def per_layer(commands, seconds: float, runner: Runner,
              outputs: Outputs) -> tuple[dict, dict, dict]:
    metrics = _import_times(runner)
    outdir = str(outputs.outdir.relative_to(ROOT))
    spec = {"commands": [[c.name, c.argv(outdir)] for c in commands]}

    def in_process(trace: bool) -> tuple[dict, Proc, int]:
        outputs.clear()
        spec_path = runner.workdir / "spec.json"
        result_path = runner.workdir / "inproc.json"
        spec_path.write_text(json.dumps({**spec, "trace": trace}))
        proc = runner.spawn([sys.executable, str(HERE / "inproc.py"),
                             str(spec_path), str(result_path)])
        if proc.code != 0:
            raise RuntimeError(f"in-process pass exited {proc.code}: "
                               + (runner.workdir / "stderr.txt").read_text()[-2000:])
        result = json.loads(result_path.read_text())
        for cmd in result["commands"]:
            outputs.record(cmd["name"], cmd["code"], cmd["stdout"])
        return result, proc, outputs.bytes_written()

    def pair():
        return in_process(False), in_process(True)

    pairs = _passes(seconds, runner, pair, least=1)
    layers, gaps = [], []
    for (plain, proc, _), (traced, _, written) in pairs:
        m, gap = _layers(traced, commands)
        m["cli.bytes_written"] = written
        m["proc.cpu_s"] = proc.cpu_s
        m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        layers.append(m)
        gaps.append(gap)
    overhead = _median([m["trace.overhead_s"] for m in layers])
    if max(gaps) > abs(overhead):
        raise RuntimeError(f"self times miss their command span by {max(gaps):.3e} s")
    metrics |= {k: _median([m[k] for m in layers]) for k in layers[0]}
    samples = {k: len(layers) for k in metrics}
    for k in ("cli.import_s", "cli.import.numpy_s", "cli.import.scipy_s",
              "cli.import.zenogrover_s"):
        samples[k] = IMPORT_SAMPLES
    return metrics, samples, {"passes": layers}


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    threads = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    return {
        "cpu": cpu, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), **versions,
        "blas_threads": threads, "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zenogrover" / "cli.py").is_file():
        print(f"error: no zenogrover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    commands = workloads.commands(args.workload, args.seed)
    refs = {c.name: checks.effective_reference(*c.ref) for c in commands if c.ref}
    runner = Runner(workdir)
    outputs = Outputs(commands, workdir / "out", refs)
    if args.trace:
        measured, samples, raw = per_layer(commands, args.seconds, runner, outputs)
    else:
        measured, samples, raw = end_to_end(args.workload, commands, args.seconds,
                                       runner, outputs)
    metrics = {name: measured[name] for name in units}

    error_rate = outputs.failed / max(outputs.attempted, 1)
    for name, value in metrics.items():
        print(f"{name:<52} {value:>16.6g} {units[name]:<6} (n={samples[name]})")
    print(f"{'error_rate':<52} {error_rate:>16.6g} {'1':<6} "
          f"({outputs.failed}/{outputs.attempted} commands)")
    for problem in outputs.problems:
        print(f"FAILED {problem}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "commands": [" ".join(c.argv("OUT")) for c in commands],
              "environment": environment(), "samples": samples,
              "error_rate": error_rate, "problems": outputs.problems}
    print(json.dumps(record))
    record["raw"] = raw
    result = {
        "correct": outputs.failed == 0,
        "attempted": outputs.attempted,
        "failed": outputs.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps({**record, **result}, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
