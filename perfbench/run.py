"""Seeded benchmark of the paper's workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; ``repro`` is imported from ``src/``.
Workloads (see ``grids.py`` and ``README.md``): ``closed_loop_sweep``,
``charging_lanes_sweep``, ``queue_warm_sweep``.

``--trace 0`` repeats the workload's sweep for ``--seconds`` with no
wrapper installed and reports the end-to-end metrics.  ``--trace 1``
spends half the time the same way and half with the layer wrappers of
``tracer.py`` installed, and reports the per-layer metrics, including
the tracing overhead (traced vs untraced repetition time).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from grids import DEFAULT_SEED, WORKLOADS, make_inputs
from workloads import (
    CHECKOUT,
    ProgramMissing,
    RepCheck,
    Session,
    build_snapshot,
    check_rep,
    import_program,
    load_reference,
    set_environment,
)

#: fresh processes timed from spawn to ready; setup_s is their median
SETUP_SAMPLES = 5

#: the calibration kernel's time on the reference host that
#: ``sim_s_per_norm_host_s`` is expressed in (seconds)
CALIBRATION_REF_S = 0.15
CALIBRATION_LOOPS = 12000
#: calibration time after each repetition, as a share of its wall time
CALIBRATION_SHARE = 0.1

#: how far the traced windows may exceed the repetitions they enclose
WINDOW_SLACK_REL = 0.01
WINDOW_SLACK_S = 0.005

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END = {
    "sim_s_per_norm_host_s": "s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_COUNT, _S, _FRAC = "count", "s", "fraction"

#: per-layer metrics (``--trace 1``): name -> unit; counts and seconds
#: are per repetition (one sweep of the grid)
PER_LAYER = {
    "core.linearise.calls": _COUNT,
    "core.linearise.self_s": _S,
    "core.elimination.assemble_calls": _COUNT,
    "core.elimination.assemble_self_s": _S,
    "core.elimination.eliminate_self_s": _S,
    "core.integrators.calls": _COUNT,
    "core.integrators.self_s": _S,
    "core.stepper.calls": _COUNT,
    "core.stepper.self_s": _S,
    "core.solver.calls": _COUNT,
    "core.solver.self_s": _S,
    "core.digital.activations": _COUNT,
    "core.digital.self_s": _S,
    "core.batch.calls": _COUNT,
    "core.batch.lanes_per_call": "lanes",
    "core.batch.self_s": _S,
    "core.kernels.calls": _COUNT,
    "core.kernels.steps_per_call": "steps",
    "core.kernels.self_s": _S,
    "core.results.records": _COUNT,
    "core.results.self_s": _S,
    "cache.store.lookups": _COUNT,
    "cache.store.hit_frac": _FRAC,
    "cache.store.read_self_s": _S,
    "cache.store.write_self_s": _S,
    "cache.store.bytes_written": "bytes",
    "dist.executor.polls": _COUNT,
    "dist.executor.useful_poll_frac": _FRAC,
    "dist.executor.wait_s": _S,
    "dist.queue.put_self_s": _S,
    "dist.queue.self_s": _S,
    "dist.queue.task_overhead_s": _S,
    "dist.worker.tasks": _COUNT,
    "dist.worker.eval_s": _S,
    "dist.worker.self_s": _S,
    "api.planner.self_s": _S,
    "analysis.engine.self_s": _S,
    "analysis.engine.lane_blocks": _COUNT,
    "analysis.engine.fallback_frac": _FRAC,
    "analysis.engine.exact_rerun_frac": _FRAC,
    "harvester.build_calls": _COUNT,
    "harvester.self_s": _S,
    "trace.unattributed_frac": _FRAC,
    "trace.worker_busy_frac": _FRAC,
    "trace.overhead_frac": _FRAC,
    "check.max_rel_score_err": _FRAC,
    "check.failed_frac": _FRAC,
}


@dataclass
class Rep:
    wall_s: float
    check: RepCheck
    engine_info: object
    timed: bool = True
    #: mean time of the calibration runs on either side of the repetition
    calibration_s: float = CALIBRATION_REF_S


_CAL_M = np.random.default_rng(0).standard_normal((6, 6)) + 6.0 * np.eye(6)
_CAL_B = np.ones(6)


def calibrate(rounds: int = 1) -> float:
    """Mean time of ``rounds`` runs of a fixed kernel shaped like the
    program's hot loop: small numpy solves and products driven from an
    interpreted loop.

    The host is shared and its speed drifts; the program and this kernel
    slow down together, so the repetitions' time over the time of the
    calibrations between them measures the program, not the host.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(rounds * CALIBRATION_LOOPS):
        m = _CAL_M * 0.5 + _CAL_M.T
        x = np.linalg.solve(m, _CAL_B)
        total += float((m @ x - _CAL_B)[0]) + i % 7
    return (time.perf_counter() - start) / rounds


def measure(session: Session, inputs, reference, seconds: float, tracer=None,
            warmup: bool = False) -> List[Rep]:
    """Repeat the sweep for ``seconds`` (at least once): a repetition
    starts only if one of median length still ends in time.

    Only the sweep itself is timed; resetting the queue store and
    checking scores happen between repetitions.  With ``warmup``, one
    repetition runs first, before the clock starts: it is checked like
    the others but not timed, so one-off costs of a fresh process (lazy
    imports, first-touch allocations) stay out of the figures.
    """
    reps: List[Rep] = []
    if warmup:
        session.before_rep()
        _, result = session.rep()
        reps.append(Rep(0.0, check_rep(inputs, reference, result), None, timed=False))
    start = time.monotonic()
    calibration = calibrate()
    while True:
        timed = [rep.wall_s for rep in reps if rep.timed]
        if timed and time.monotonic() - start + statistics.median(timed) > seconds:
            break
        session.before_rep()
        if tracer is None:
            wall, result = session.rep()
        else:
            with tracer.window():
                wall, result = session.rep()
        info = result.engine_info if result is not None else None
        after = calibrate(max(1, round(CALIBRATION_SHARE * wall / calibration)))
        reps.append(Rep(wall, check_rep(inputs, reference, result), info,
                        calibration_s=(calibration + after) / 2))
        calibration = after
    return reps


def setup_seconds(args, run_dir: Path) -> float:
    """Median spawn-to-ready time of fresh set-up processes, scaled to
    the reference host like the throughput (by the median of the
    calibrations run between them).

    Each one imports ``repro``, builds the study from the seeded grid
    and, for the queue workload, restores the store snapshot and starts
    its worker, then reports ready and tears down.
    """
    samples = []
    calibrations = [calibrate()]
    for i in range(SETUP_SAMPLES):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--setup-probe", str(run_dir / f"probe{i}")]
        start = time.monotonic()
        probe = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=str(CHECKOUT))
        line = probe.stdout.readline()
        ready = time.monotonic() - start
        try:
            probe.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            probe.kill()
            probe.communicate()
        if line.strip() != "READY" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed (said {line!r}, exit {probe.returncode})")
        samples.append(ready)
        calibrations.append(calibrate())
    return statistics.median(samples) * CALIBRATION_REF_S / statistics.median(calibrations)


def peak_rss_mb(worker_peak_kib: Optional[int]) -> float:
    """Peak resident memory of this process plus the queue worker's own
    report (ru_maxrss is in KiB on Linux)."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + (worker_peak_kib or 0)) / 1024.0


def throughput(inputs, reps: List[Rep]) -> float:
    """Simulated seconds returned per wall second, with the wall time
    scaled to the reference host.

    Over the whole run: the repetitions' summed wall time, times how much
    slower than ``CALIBRATION_REF_S`` the calibrations between them ran
    on average.  The host's speed drifts by tens of percent within
    minutes; the ratio of the two sums keeps most of that drift out,
    where a median or the fastest repetition of the raw times does not.
    """
    timed = [rep for rep in reps if rep.timed]
    simulated = sum(rep.check.returned for rep in timed) * inputs.grid.duration_s
    wall = sum(rep.wall_s for rep in timed)
    calibration = sum(rep.calibration_s for rep in timed) / len(timed)
    return simulated / (wall * CALIBRATION_REF_S / calibration)


def _task_overhead(events: Dict[str, Dict[str, list]]) -> float:
    """Median over queue candidates of latency minus worker eval time.

    Latency runs from the parent's enqueue to the parent's poll that
    found the result; the i-th enqueue of a task pairs with its i-th
    observation and its i-th evaluation.
    """
    overheads = []
    for task_id, puts in events.get("put", {}).items():
        seen = events.get("observed", {}).get(task_id, [])
        evals = events.get("eval", {}).get(task_id, [])
        overheads += [o - p - e for p, o, e in zip(puts, seen, evals)]
    return statistics.median(overheads) if overheads else 0.0


def check_windows(windows_s: float, traced: List[Rep]) -> None:
    """The traced windows must match the repetitions' own wall times.

    A window's self times add up to its duration by construction, so the
    check that can fail compares the windows with ``Session.rep``'s
    separate clock readings: each window encloses one repetition's timed
    sweep and adds only a few clock calls to it.
    """
    reps_s = sum(rep.wall_s for rep in traced)
    slack = WINDOW_SLACK_REL * reps_s + WINDOW_SLACK_S * len(traced)
    if not reps_s <= windows_s <= reps_s + slack:
        raise RuntimeError(
            f"traced windows last {windows_s!r} s, their {len(traced)} repetitions "
            f"timed themselves at {reps_s!r} s"
        )


def layer_metrics(tracer, worker_trace, traced: List[Rep], untraced: List[Rep]) -> Dict[str, float]:
    """Per-layer metrics from the traced repetitions (per repetition)."""
    from tracer import ROOT, started_within, summed

    windows = [record for record in tracer.records if ROOT in record[2]]
    parent, wall = summed(windows)
    check_windows(wall, traced)
    worker, worker_busy = summed(started_within(worker_trace.get("records", []), windows))
    # the worker runs beside the parent, so its spans are counted in the
    # layers but not in the parent's wall time
    totals = {key: parent.get(key, 0.0) + worker.get(key, 0.0) for key in {*parent, *worker}}

    n = len(traced)

    def per_rep(key: str) -> float:
        return totals.get(key, 0.0) / n

    def ratio(num: str, den: str) -> float:
        return totals.get(num, 0.0) / totals[den] if totals.get(den) else 0.0

    events: Dict[str, Dict[str, list]] = {}
    for source in (tracer.events, worker_trace.get("events", {})):
        for kind, by_id in source.items():
            for task_id, values in by_id.items():
                events.setdefault(kind, {}).setdefault(task_id, []).extend(values)

    infos = [rep.engine_info for rep in traced if rep.engine_info is not None]
    n_candidates = sum(info.n_candidates for info in infos)
    every = traced + untraced
    metrics = {name: per_rep(name) for name in PER_LAYER}
    metrics.update({
        "core.batch.lanes_per_call": ratio("core.batch.lanes", "core.batch.calls"),
        "core.kernels.steps_per_call": ratio("core.kernels.steps", "core.kernels.calls"),
        "core.results.records": per_rep("core.results.calls"),
        "cache.store.hit_frac": ratio("cache.store.hits", "cache.store.lookups"),
        "dist.executor.useful_poll_frac": ratio("dist.executor.useful_polls", "dist.executor.polls"),
        "dist.executor.wait_s": per_rep("dist.executor.self_s"),
        "dist.queue.task_overhead_s": _task_overhead(events),
        "dist.worker.tasks": per_rep("dist.worker.calls"),
        "analysis.engine.lane_blocks": sum(info.n_lane_blocks for info in infos) / max(1, len(infos)),
        "analysis.engine.fallback_frac":
            sum(info.n_batch_fallbacks for info in infos) / n_candidates if n_candidates else 0.0,
        "analysis.engine.exact_rerun_frac":
            sum(info.n_exact_reruns for info in infos) / n_candidates if n_candidates else 0.0,
        "harvester.build_calls": per_rep("harvester.build_calls"),
        "trace.unattributed_frac": parent[ROOT] / wall,
        "trace.worker_busy_frac": worker_busy / wall,
        "trace.overhead_frac": statistics.median(rep.wall_s for rep in traced)
        / statistics.median(rep.wall_s for rep in untraced if rep.timed) - 1.0,
        "check.max_rel_score_err": max(rep.check.max_rel_err for rep in every),
        "check.failed_frac": sum(rep.check.failed for rep in every)
        / sum(rep.check.attempted for rep in every),
    })
    return metrics


def run(args, repro, run_dir: Path):
    from tracer import Tracer, wrapped_targets

    inputs = make_inputs(args.workload, args.seed)
    reference = load_reference(args.workload)
    if inputs.workload == "queue_warm_sweep":
        build_snapshot(repro, inputs, run_dir / "snapshot")

    problems: List[str] = []
    metrics: Dict[str, float] = {}
    if not args.trace:
        metrics["setup_s"] = setup_seconds(args, run_dir)
    session = Session(repro, inputs, run_dir / "main")
    worker_trace: Dict[str, object] = {}
    try:
        session.start()
        untraced = measure(session, inputs, reference,
                           args.seconds / 2 if args.trace else args.seconds, warmup=True)
        problems += [f"wrapper installed in an untraced run: {path}" for path in wrapped_targets()]
        traced: List[Rep] = []
        if args.trace:
            session.stop()
            tracer = Tracer()
            tracer.install()
            trace_out = run_dir / "worker-trace.json"
            try:
                session.start(trace_out)
                traced = measure(session, inputs, reference, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            session.stop()
            if trace_out.exists():
                worker_trace = json.loads(trace_out.read_text())
    finally:
        session.stop()

    reps = untraced + traced
    if args.trace:
        metrics = layer_metrics(tracer, worker_trace, traced, untraced)
    else:
        metrics["sim_s_per_norm_host_s"] = throughput(inputs, reps)
        worker_peak = session.queue.worker_peak_kib if session.queue is not None else None
        if session.queue is not None and worker_peak is None:
            problems.append("the queue worker reported no peak memory")
        metrics["peak_rss_mb"] = peak_rss_mb(worker_peak)
    for rep in reps:
        problems += rep.check.mismatches
    attempted = sum(rep.check.attempted for rep in reps)
    failed = sum(rep.check.failed for rep in reps)
    returned = sum(rep.check.returned for rep in reps)
    if not returned:
        problems.append("no candidate returned a score")
    units = PER_LAYER if args.trace else END_TO_END
    for problem in dict.fromkeys(problems):
        print(problem, file=sys.stderr)
    print(f"{inputs.workload} seed={args.seed} backend={_kernel_backend(repro)} "
          f"reps={len(reps)} candidates={inputs.n_candidates} "
          f"rep_wall_s={[round(rep.wall_s, 3) for rep in reps if rep.timed]} "
          f"calibration_s={[round(rep.calibration_s, 4) for rep in reps if rep.timed]}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def _kernel_backend(repro) -> str:
    """The march-kernel backend ``compiled="auto"`` resolves to here."""
    from repro.core.kernels import resolve_compiled

    return resolve_compiled("auto") or "off"


def setup_probe(repro, args) -> int:
    """One timed set-up (``setup_seconds``): prints READY when ready."""
    probe_dir = Path(args.setup_probe)
    session = Session(repro, make_inputs(args.workload, args.seed), probe_dir)
    try:
        session.start()
        print("READY", flush=True)
    finally:
        session.stop()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        repro = import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        set_environment(Path(args.setup_probe))
        return setup_probe(repro, args)

    run_dir = CHECKOUT / ".perfbench_work" / str(os.getpid())
    run_dir.mkdir(parents=True, exist_ok=True)
    set_environment(run_dir)
    try:
        result = run(args, repro, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
