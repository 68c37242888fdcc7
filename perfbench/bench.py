"""Closed-loop benchmark of the susim command line, end to end and per layer.

One client in one process calls ``susim.cli.main`` the way a shell user
would: ``solve INST --out RES``, then ``verify INST RES`` unless the solve
ended ``failed`` or escaped, then ``canon INST --side a|b --out F`` for the
kinds that are canonicalised.  Each command is timed from the call to its
exit code, file read and write included.  The next command starts only
after the previous one returned.

Times are reported in reference-speed seconds.  A shared machine can change
speed by a factor of two for seconds at a time (on a 2-vCPU Xeon virtual
machine a fixed loop took 5.2 ms in some seconds and 9.3 ms in others), and
no amount of averaging inside a run of tens of seconds removes that.  So every timed
command is bracketed by :func:`calibrate`, a fixed loop of
small numpy calls whose wall time tracks the machine's current speed, and
its wall time is multiplied by ``CALIBRATION_NOMINAL_S`` over the mean of
the two calibrations.  One reference-speed second is the time in which the
calibration loop runs ``1 / CALIBRATION_NOMINAL_S`` times.  Raw wall-clock
medians are kept in the detail line.

Set-up (``setup_s``) is the median of ``SETUP_REPEATS`` repetitions of:
starting a Python process that imports susim (numpy included), generating
and writing the instance pool, and one warm-up pass over tiny instances of
every kind.  The warm-up commands count in ``setup_s`` and in no other
metric.  The timed window then runs whole rounds (one instance of every kind)
until ``--seconds`` have passed.

With ``--trace 1`` every round runs twice, once untraced and once with the
span wrappers of :mod:`spans` installed, alternating which goes first; the
per-layer metrics come from the traced half and ``trace_overhead`` is the
traced over the untraced command time of the same commands.  Per-layer
times (``*_s``) and counts are means per traced instance.

Erroneous commands (see :mod:`gate`) are counted in the result's
``failed``; their share of all commands is in the detail line.

The last line of standard output is the result object; the lines before it
record the environment and the details behind the metrics.  A full record,
with the spans of a traced run, is written under ``perfbench/_work/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from susim import __version__ as susim_version
from susim import cli
from susim.serialize import instance_to_json

import gate
import spans
import workloads
from gate import Op

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 5
CALIBRATION_LOOPS = 400
CALIBRATION_NOMINAL_S = 1e-3
_CALIBRATION_MATRIX = np.arange(64.0).reshape(8, 8)
TAIL_BEYOND = 10
ACCOUNTING_SLACK_S = 1e-6
COMMANDS = ("solve", "verify", "canon")

LAYER_TIMES = {
    "cli.self_s": "cli",
    "serialize.parse_s": "serialize.parse",
    "serialize.emit_s": "serialize.emit",
    "solver.self_s": "solver",
    "structure.scan_s": "structure.scan",
    "graph.paths_s": "graph.paths",
    "graph.check_pr_s": "graph.check_pr",
    "refine.self_s": "refine",
    "linalg.eig_s": "linalg.eig",
    "solver.assemble_s": "solver.assemble",
    "solver.residual_s": "solver.residual",
    "certcheck.replay_s": "certcheck.replay",
    "canonical.self_s": "canonical",
}

# Shares of solve command time, the quantities the workload predictions are
# stated in.
SOLVE_SHARES = {
    "solve.scan_paths_share": ("structure.scan", "graph.paths", "graph.check_pr"),
    "solve.io_share": ("cli", "serialize.parse", "serialize.emit"),
    "solve.refine_linalg_share": ("refine", "linalg.eig"),
}


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with ``TAIL_BEYOND`` samples above it; returns (percentile, value).

    The percentile moves smoothly with the sample count instead of stepping
    between fixed rungs, so runs that complete a few more or fewer commands
    do not jump from one rung to the next.  Below ``2 * TAIL_BEYOND``
    samples it is the median.
    """
    q = max(50.0, 100.0 * (1.0 - TAIL_BEYOND / len(values)))
    return q, float(np.percentile(values, q))


def import_in_child() -> None:
    """Start a Python process that imports the susim command line, and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import susim.cli"], env=env, check=True, timeout=120)


def calibrate() -> float:
    """Wall seconds of a fixed loop of small numpy calls: the machine's current speed."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(CALIBRATION_LOOPS):
        acc += float(np.trace(_CALIBRATION_MATRIX[:4, :4]))
    return time.perf_counter() - start


def reference_scale(before: float, after: float) -> float:
    return 2.0 * CALIBRATION_NOMINAL_S / (before + after)


def environment(workload: str, seed: int, seconds: float, trace: int, threads: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "susim": susim_version,
    }


class Runner:
    """One benchmark run: the instance pool, the ops and their timings."""

    def __init__(self, workload: workloads.Workload, seed: int, workdir: Path, tiny: bool):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.ops: list[Op] = []
        self.tracer: spans.Tracer | None = None
        self.files: dict[str, list[str]] = {}
        self._calibration: float | None = None

    # -- commands ------------------------------------------------------------

    def _timed(self, fn, *args):
        """Run ``fn(*args)``; returns its value, wall seconds and reference scale.

        Calibrations are chained: the one taken after a step is the one
        before the next, so back-to-back commands pay for one each.
        """
        before = self._calibration or calibrate()
        start = time.perf_counter()
        value = fn(*args)
        wall = time.perf_counter() - start
        self._calibration = calibrate()
        return value, wall, reference_scale(before, self._calibration)

    def call(self, argv: list[str], kind: workloads.Kind, instance: str, traced: bool = False,
             out: str | None = None, side: str | None = None, record: bool = True) -> Op:
        op = Op(len(self.ops), argv[0], kind.name, kind.expect, instance, argv, out=out,
                side=side, traced=traced)
        sink = io.StringIO()

        def command():
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    if traced:
                        return self.tracer.run_op(op.id, cli.main, argv)
                    return cli.main(argv)
                except Exception as exc:  # an escape is measured, never fatal
                    op.raised = f"{type(exc).__name__}: {exc}"
                    return None

        op.code, op.seconds, op.scale = self._timed(command)
        op.stderr = sink.getvalue()
        if record:
            self.ops.append(op)
        return op

    def process(self, kind: workloads.Kind, instance: str, side: str, tag: str,
                traced: bool = False, record: bool = True) -> list[Op]:
        """Solve, verify and canonicalise one instance file."""
        res = str(self.workdir / f"{tag}.result.json")
        done = [self.call(["solve", instance, "--out", res], kind, instance, traced, out=res,
                          record=record)]
        if done[0].code in (gate.EXIT_SOLVED, gate.EXIT_NOT_SIMILAR):
            done.append(self.call(["verify", instance, res], kind, instance, traced,
                                  record=record))
        if kind.canon:
            feat = str(self.workdir / f"{tag}.features.json")
            done.append(self.call(["canon", instance, "--side", side, "--out", feat], kind,
                                  instance, traced, out=feat, side=side, record=record))
        return done

    def run_round(self, r: int, traced: bool) -> None:
        for kind in self.workload.kinds:
            k, sweep = r % kind.pool, r // kind.pool
            # sides alternate from one instance to the next and swap on every
            # sweep of the pool, so a second sweep gives each planted
            # instance the features of its other side to diff against
            side = "ab"[(k + sweep) % 2]
            self.process(kind, self.files[kind.name][k], side, f"r{r}-{kind.name}-{int(traced)}",
                         traced)

    # -- set-up --------------------------------------------------------------

    def _write_instance(self, kind: workloads.Kind, k: int, path: Path, tiny: bool) -> None:
        inst = workloads.make_instance(kind, self.seed, k, tiny)
        path.write_text(json.dumps(instance_to_json(inst)))

    def setup_once(self, rep: int) -> float:
        """Import, generate, write and warm up once; returns reference-speed seconds."""
        pool_dir = self.workdir / f"pool{rep}"
        pool_dir.mkdir()
        self._calibration = None
        _, wall, scale = self._timed(import_in_child)
        elapsed = wall * scale
        files: dict[str, list[str]] = {}
        for kind in self.workload.kinds:
            files[kind.name] = [str(pool_dir / f"{kind.name}-{k}.json") for k in range(kind.pool)]
            for k, path in enumerate(files[kind.name]):
                _, wall, scale = self._timed(self._write_instance, kind, k, Path(path), self.tiny)
                elapsed += wall * scale
        for kind in self.workload.kinds:
            warm = pool_dir / f"warm-{kind.name}.json"
            _, wall, scale = self._timed(self._write_instance, kind, 0, warm, True)
            elapsed += wall * scale
            ops = self.process(kind, str(warm), "a", f"warm{rep}-{kind.name}", record=False)
            elapsed += sum(op.seconds * op.scale for op in ops)
        self.files = files
        return elapsed

    # -- timed window --------------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> list[float]:
        """Run whole rounds until ``seconds`` pass.

        Returns the reference-speed seconds of each untraced round.
        """
        if trace:
            self.tracer = spans.Tracer()
        round_s: list[float] = []
        self._calibration = None
        start = time.perf_counter()
        while not round_s or time.perf_counter() - start < seconds:
            r = len(round_s)
            halves = (False,) if not trace else ((False, True) if r % 2 == 0 else (True, False))
            for traced in halves:
                first = len(self.ops)
                if traced:
                    self.tracer.install()
                try:
                    self.run_round(r, traced)
                finally:
                    if traced:
                        self.tracer.uninstall()
                if not traced:
                    round_s.append(sum(op.seconds * op.scale for op in self.ops[first:]))
        return round_s

    def diff(self, first: str, second: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["diff", first, second])


def _percentiles(ops: list[Op]) -> tuple[dict, dict]:
    """Latency metrics per command.

    The p50 is the median across kinds of each kind's median.  With one kind
    that is the plain median; with kinds whose latencies form separate modes
    it stays inside a mode (or, for two kinds, halfway between their medians)
    instead of jumping with the order statistics at the gap between modes.
    """
    metrics, detail = {}, {}
    for cmd in COMMANDS:
        mine = [op for op in ops if op.cmd == cmd]
        if not mine:
            detail[cmd] = {"samples": 0}
            continue
        by_kind = {
            k: statistics.median(op.seconds * op.scale for op in mine if op.kind == k)
            for k in sorted({op.kind for op in mine})
        }
        p50 = statistics.median(by_kind.values())
        q, value = tail([op.seconds * op.scale for op in mine])
        metrics[f"{cmd}_p50_s"] = p50
        metrics[f"{cmd}_tail_s"] = value if q > 50.0 else p50
        detail[cmd] = {
            "samples": len(mine),
            "tail_percentile": q,
            "wall_p50_s": statistics.median(op.seconds for op in mine),
            "p50_by_kind_s": by_kind,
        }
    return metrics, detail


def layer_metrics(runner: Runner) -> tuple[dict, dict, bool]:
    """Per-layer metrics of the traced half, with the per-kind solve shares."""
    tracer = runner.tracer
    traced = {op.id: op for op in runner.ops if op.traced}
    untraced_s = sum(op.seconds * op.scale for op in runner.ops if not op.traced)
    instances = sum(1 for op in traced.values() if op.cmd == "solve")
    per = max(instances, 1)

    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    by_kind: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(tracer.spans, tracer.self_times()):
        op = traced[span.op]
        own *= op.scale
        total[span.name] += own
        calls[span.name] += 1
        if op.cmd == "solve":
            by_kind[op.kind][span.name] += own
            by_kind[op.kind]["_total"] += own
    solve_total = sum(k["_total"] for k in by_kind.values())

    metrics = {name: total[layer] / per for name, layer in LAYER_TIMES.items()}
    for name, layers in SOLVE_SHARES.items():
        metrics[name] = sum(k[l] for k in by_kind.values() for l in layers) / max(solve_total, 1e-300)
    scan_cells = tracer.counts[("structure.scan", "cells")] / 2
    refined = sum(1 for _, status in tracer.outcomes["refine"] if status == "refined")
    solves = tracer.outcomes["solver"]
    replays = tracer.outcomes["certcheck.replay"]
    metrics.update({
        "structure.scan_calls": calls["structure.scan"] / per,
        "structure.cells_visited": scan_cells / per,
        "structure.cells_per_refinement": scan_cells / max(refined, 1),
        "graph.edges_checked": tracer.counts[("graph.check_pr", "cells")] / 2 / per,
        "refine.calls": calls["refine"] / per,
        "linalg.eig_calls": calls["linalg.eig"] / per,
        "solver.iterations": sum(it for _, (_, it) in solves) / max(len(solves), 1),
        "solver.undecided": sum(1 for _, (st, _) in solves if st == "failed") / per,
        "certcheck.confirmed_ratio": sum(1 for _, ok in replays if ok) / max(len(replays), 1),
        "trace_overhead": sum(op.seconds * op.scale for op in traced.values())
        / max(untraced_s, 1e-300),
    })
    shares = {
        kind: {
            name: sum(d[l] for l in layers) / d["_total"] for name, layers in SOLVE_SHARES.items()
        }
        for kind, d in by_kind.items()
    }
    gap = tracer.accounting_gap()
    detail = {
        "traced_instances": instances,
        "solve_shares_by_kind": shares,
        "accounting_gap_s": gap,
        "certificate_replays": len(replays),
        "missing_patch_targets": tracer.missing,
    }
    return metrics, detail, gap <= ACCOUNTING_SLACK_S


UNITS = {"_s": "s", "_share": "share", "_ratio": "ratio", "_mb": "MB"}


def unit_of(name: str) -> str:
    if name == "instances_per_s":
        return "1/s"
    if name == "trace_overhead":
        return "ratio"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run(workload_name: str, seed: int, seconds: float, trace: int, threads: int,
        tiny: bool = False, out=sys.stdout) -> dict:
    """Run one benchmark and print its records; returns the result object."""
    workload = workloads.WORKLOADS[workload_name]
    env = environment(workload_name, seed, seconds, trace, threads)
    print(json.dumps({"env": env}), file=out)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-{seed}-", dir=WORK))
    runner = Runner(workload, seed, workdir, tiny)
    try:
        setups = [runner.setup_once(rep) for rep in range(SETUP_REPEATS)]
        start = time.perf_counter()
        round_s = runner.measure(seconds, bool(trace))
        wall = time.perf_counter() - start
        summary = gate.audit(runner.ops, runner.diff)
    finally:
        if runner.tracer is not None:
            runner.tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    correct = summary["wrong"] == 0 and bool(runner.ops)
    latency, latency_detail = _percentiles(runner.ops)
    detail = {
        "rounds": len(round_s),
        "wall_s": wall,
        "instances": len(round_s) * len(workload.kinds),
        "setup_repeats_s": setups,
        "reference_scale_p50": statistics.median(op.scale for op in runner.ops),
        "commands": latency_detail,
        "gate": {k: v for k, v in summary.items() if k != "escapes"},
        "escapes": len(summary["escapes"]),
        "escape_examples": sorted(set(summary["escapes"]))[:5],
        "error_share": summary["errors"] / max(summary["ops"], 1),
        "problems": [f"{op.cmd} {Path(op.instance).name}: {op.why}" for op in runner.ops
                     if op.verdict != gate.OK][:10],
    }
    if trace:
        values, layer_detail, accounted = layer_metrics(runner)
        detail["layers"] = layer_detail
        correct = correct and accounted
    else:
        correct = correct and len(latency) == 2 * len(COMMANDS)
        values = dict(latency)
        values.update({
            # a round processes one instance of every kind; the median round
            # is immune to the odd command whose calibration missed a slowdown
            "instances_per_s": len(workload.kinds) / statistics.median(round_s),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    result = {
        "correct": bool(correct),
        "attempted": summary["ops"],
        "failed": summary["errors"],
        "metrics": {name: {"value": float(v), "unit": unit_of(name)} for name, v in values.items()},
    }
    print(json.dumps({"detail": detail}), file=out)
    record = {"env": env, "detail": detail, "result": result}
    if trace:
        record["trace"] = runner.tracer.to_json()
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload_name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))
    print(json.dumps(result), file=out)
    return result


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str], threads: int) -> int:
    args = parse_args(argv)
    run(args.workload, args.seed, args.seconds, args.trace, threads)
    return 0
