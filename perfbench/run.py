"""ringmot CLI benchmark: closed-loop command sequences in fresh processes.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload oracle --seed 7 --seconds 28 --trace 0

One client issues ``python -m ringmot.cli <subcommand>`` commands strictly one
after another, each in a fresh process, so every command pays the
interpreter and numpy import plus ringmot's lazy set-up, as a real CLI call
does. The workload's whole sequence (a pass) repeats until ``--seconds`` is
used up, with at least two passes so that the byte-identity gate has a rerun
to compare. Wall time, CPU time and peak RSS of each command come from
``os.wait4``; its artifacts are checked for correctness and hashed.

With ``--trace 1`` untraced passes alternate with traced ones, in which each
command runs through ``perfbench/tracer.py`` (spans around each layer's
public functions, in a fresh worker process) and per-layer metrics are
reported instead of end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A run record (versions, BLAS,
thread environment, per-command figures) goes to
``.perfbench_out/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

RUN_LIMIT_S = 165.0       # stop issuing commands; the run must end within 180 s
SETUP_SAMPLES_PER_PASS = 4
MIN_PASSES = 2

# spans whose self time, call count, and counters the per-layer report gives
SPAN_TIMES = (
    "simplex.solve_equality_lp", "mmot.solve_mmot", "costs.eval",
    "costs.check_well_ordering", "costs.support_thresholds", "costs.envelopes",
    "kantorovich.c_transform", "kantorovich.feasibility_margin",
    "kantorovich.certify_potential", "semiclassical.GammaEta", "semiclassical.b_matrix",
    "semiclassical.interaction_energy", "semiclassical.kinetic_energy",
    "semiclassical.upper_bound_curve", "seidl.seidl_plan", "seidl.plan_cost", "cli.main",
)
SPAN_CALLS = ("costs.eval", "kantorovich.c_transform", "semiclassical.GammaEta", "measure1d.quantile")
COUNTS = (
    "simplex.pivots", "mmot.cells", "costs.eval.points",
    "costs.check_well_ordering.quadruples", "kantorovich.fp_iterations",
)


@dataclass
class Outcome:
    """One command as the client saw it."""

    command: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int | None      # None: killed at the time limit
    problems: list
    traced: bool


def spawn(argv: list, env: dict, log: Path, timeout: float) -> tuple:
    """Run argv to completion; return (wall_s, cpu_s, rss_mb, exit code or None)."""
    with open(log, "wb") as fh:
        actions = [(os.POSIX_SPAWN_DUP2, fh.fileno(), 1), (os.POSIX_SPAWN_DUP2, fh.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    ready = []
    try:
        ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
    finally:
        os.close(pidfd)
        if not ready:   # the time limit passed, or the client itself is being interrupted
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status) if ready else None
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code


class Bench:
    """One run: the workload's commands, their outcomes, traces and set-up samples."""

    def __init__(self, workload: str, seed: int, seconds: int, work: Path):
        self.seconds = seconds
        self.work = work
        self.started = time.perf_counter()
        self.commands = workloads.build(workload, seed, work / "inputs")
        self.env = dict(os.environ)
        paths = [str(ROOT / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        self.reference_hashes = {}
        self.outcomes = []
        self.traces = []          # per traced pass: list of per-command trace records
        self.setup_times = []
        self.passes = 0
        self.timed_out = False

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def sample_setup(self, count: int) -> None:
        """Time ``count`` fresh-process ``import ringmot.cli`` calls."""
        argv = [sys.executable, "-c", "import ringmot.cli"]
        log = self.work / "setup.log"
        for _ in range(count):
            wall, _, _, code = spawn(argv, self.env, log, self.remaining())
            if code != 0:
                raise RuntimeError(f"import ringmot.cli failed: {log.read_text(errors='replace')}")
            self.setup_times.append(wall)

    def run_pass(self, traced: bool) -> None:
        """One pass over the workload's commands, checked and hashed."""
        self.passes += 1
        pass_dir = self.work / f"pass{self.passes}"
        pass_dir.mkdir()
        earlier, outcomes, traces = {}, [], []
        for cmd in self.commands:
            out = pass_dir / cmd.name
            tail = [*cmd.argv, "--out", str(out)]
            trace_path = pass_dir / f"{cmd.name}.trace.json"
            if traced:
                argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path),
                        repr(time.perf_counter()), "--", *tail]
            else:
                argv = [sys.executable, "-m", "ringmot.cli", *tail]
            log = pass_dir / f"{cmd.name}.log"
            wall, cpu, rss, code = spawn(argv, self.env, log, self.remaining())
            problems = []
            if code is None:
                self.timed_out = True
                problems.append("killed at the run's time limit")
            elif code != 0:
                problems.append(f"exit code {code}: {log.read_text(errors='replace').strip()[-300:]}")
            else:
                problems += checks.check(cmd.check, out, cmd.params, earlier)
                hashes = checks.artifact_hashes(out)
                changed = checks.changed(self.reference_hashes.setdefault(cmd.name, hashes), hashes)
                if changed:
                    problems.append(f"artifacts differ from the first pass: {changed}")
                if traced:
                    record = json.loads(trace_path.read_text(encoding="utf-8"))
                    record["wall_s"] = wall
                    traces.append(record)
            earlier[cmd.name] = out
            outcomes.append(Outcome(cmd.name, wall, cpu, rss, code, problems, traced))
            if code is None:
                break
        shutil.rmtree(pass_dir)
        self.outcomes += outcomes
        if traced:
            self.traces.append(traces)

    def run(self, trace: bool) -> None:
        """Repeat passes (untraced, or untraced/traced pairs) until the time is used.

        One untimed import goes first, so that byte code compiled on the first
        run of a checkout is not counted (every later CLI call finds it cached).
        Set-up samples are taken before each untraced pass, spread over the run.
        """
        self.sample_setup(1)
        self.setup_times.clear()
        measure_start = time.perf_counter()
        rounds, last = 0, 0.0
        min_rounds = 1 if trace else MIN_PASSES
        while not self.timed_out:
            elapsed = time.perf_counter() - measure_start
            if rounds >= min_rounds and elapsed + last > self.seconds:
                break
            if rounds and self.remaining() < last:
                break
            t = time.perf_counter()
            if not trace:
                self.sample_setup(SETUP_SAMPLES_PER_PASS)
            self.run_pass(traced=False)
            if trace and not self.timed_out:
                self.run_pass(traced=True)
            last = time.perf_counter() - t
            rounds += 1


def _untraced_by_command(outcomes: list) -> dict:
    """Untraced outcomes grouped by command name."""
    groups = {}
    for o in outcomes:
        if not o.traced:
            groups.setdefault(o.command, []).append(o)
    return groups


def end_to_end_metrics(outcomes: list, setup_s: float) -> dict:
    """Per-command medians over passes, summed (times) or maxed (memory)."""
    groups = _untraced_by_command(outcomes).values()
    failed = sum(1 for o in outcomes if o.problems)
    return {
        "wall_s": (sum(statistics.median(o.wall_s for o in g) for g in groups), "s"),
        "cpu_s": (sum(statistics.median(o.cpu_s for o in g) for g in groups), "s"),
        "peak_rss_mb": (max(statistics.median(o.rss_mb for o in g) for g in groups), "MB"),
        "setup_s": (setup_s, "s"),
        "ok_share": ((len(outcomes) - failed) / len(outcomes), "share"),
    }


def layer_metrics(workload: str, passes: list, outcomes: list) -> tuple:
    """Per-layer metrics (medians over complete traced passes) and trace problems."""
    if not passes:
        return {}, ["no complete traced pass"]
    problems = []
    summaries = [_summarize(p) for p in passes]
    first = summaries[0]
    for s in summaries[1:]:
        for key in COUNTS + tuple(f"{n}.calls" for n in SPAN_CALLS):
            if s[key] != first[key]:
                problems.append(f"{key} differs between traced passes: {first[key]} vs {s[key]}")
    for layer in workloads.CLAIMED_LAYERS[workload]:
        if first["calls_by_layer"].get(layer, 0) == 0:
            problems.append(f"layer {layer} recorded no calls")

    def med(key):
        return statistics.median(s[key] for s in summaries)

    metrics = {}
    for name in SPAN_TIMES:
        metrics[f"{name}.self_s"] = (med(f"{name}.self_s"), "s")
    for name in SPAN_CALLS:
        metrics[f"{name}.calls"] = (first[f"{name}.calls"], "count")
    for key in COUNTS:
        metrics[key] = (first[key], "count")
    pivots, points = first["simplex.pivots"], first["costs.eval.points"]
    metrics["simplex.ms_per_pivot"] = (
        1e3 * med("simplex.solve_equality_lp.self_s") / pivots if pivots else 0.0, "ms")
    metrics["costs.eval.ns_per_point"] = (
        1e9 * med("costs.eval.self_s") / points if points else 0.0, "ns")
    reports = first["kantorovich.margin_reports"]
    metrics["kantorovich.margin_sampled_share"] = (
        first["kantorovich.margin_sampled"] / reports if reports else 0.0, "share")
    metrics["measure1d.self_s"] = (med("measure1d.self_s"), "s")
    metrics["cli.import_s"] = (med("cli.import_s"), "s")
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (med(f"{layer}.share"), "share")
    metrics["trace.coverage_share"] = (med("coverage_share"), "share")
    untraced = end_to_end_metrics(outcomes, 0.0)["wall_s"][0]
    metrics["trace.overhead_share"] = ((med("wall_s") - untraced) / untraced, "share")
    return metrics, problems


def _summarize(records: list) -> dict:
    """Totals of one traced pass, self times by span and by layer."""
    s = {"wall_s": 0.0, "cli.import_s": 0.0, "calls_by_layer": {}}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for r in records:
        s["wall_s"] += r["wall_s"]
        s["cli.import_s"] += r["import_s"]
        for name, t in r["self_s"].items():
            layer = r["layer_of"][name]
            s[f"{name}.self_s"] = s.get(f"{name}.self_s", 0.0) + t
            s[f"{name}.calls"] = s.get(f"{name}.calls", 0) + r["calls"][name]
            self_by_layer[layer] += t
            s["calls_by_layer"][layer] = s["calls_by_layer"].get(layer, 0) + r["calls"][name]
        for key, v in r["counts"].items():
            s[key] = s.get(key, 0) + v
    s["measure1d.self_s"] = self_by_layer["measure1d"]
    self_by_layer["cli"] += s["cli.import_s"]
    for layer in LAYERS:
        s[f"{layer}.share"] = self_by_layer[layer] / s["wall_s"]
    s["coverage_share"] = sum(s[f"{layer}.share"] for layer in LAYERS)
    return s


def run_record(args, bench: Bench) -> dict:
    """Where and on what the run measured."""
    src = ROOT / "src" / "ringmot"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k)
                    for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "passes": bench.passes,
        "commands": [
            {"command": o.command, "wall_s": o.wall_s, "cpu_s": o.cpu_s, "rss_mb": o.rss_mb,
             "code": o.code, "traced": o.traced, "problems": o.problems}
            for o in bench.outcomes
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CLAIMED_LAYERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ringmot" / "cli.py").is_file():
        print(f"error: no ringmot source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    out_root = ROOT / ".perfbench_out"
    work = out_root / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, args.seconds, work)
        bench.run(trace=bool(args.trace))
        attempted = len(bench.outcomes)
        failed = sum(1 for o in bench.outcomes if o.problems)
        problems = [f"{o.command}: {p}" for o in bench.outcomes for p in o.problems]
        if args.trace:
            complete = [p for p in bench.traces if len(p) == len(bench.commands)]
            metrics, trace_problems = layer_metrics(args.workload, complete, bench.outcomes)
            problems += trace_problems
        else:
            metrics = end_to_end_metrics(bench.outcomes, statistics.median(bench.setup_times))
        record = run_record(args, bench)
        record["problems"] = problems
        record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = out_root / "records"
    records.mkdir(exist_ok=True)
    (records / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} passes={bench.passes} commands={attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
