"""The three workloads: program set-up, one repetition, and its check.

Every workload drives ``repro`` only through its public facade
(``Study`` / ``RunOptions``), in one process; the queue workload adds
one worker process (``worker.py``).  A *repetition* is one full sweep
of the seeded grid; the harness in ``run.py`` repeats it for the run's
measuring time.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from grids import Inputs, candidate_key

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"

#: relative score tolerance per workload: the exact scalar path must
#: reproduce the exact reference (bit-identical on one machine; the slack
#: only absorbs last-digit LAPACK differences between machines), the
#: adaptive lock-step lanes carry the batched backend's documented 10 %
TOLERANCE = {
    "closed_loop_sweep": 1e-9,
    "charging_lanes_sweep": 0.10,
    "queue_warm_sweep": 1e-9,
}

#: how often the benchmark's queue worker polls for a task (seconds)
WORKER_POLL_S = 0.02

#: the parent's overall wait budget for a queue sweep (a dead worker
#: then fails the repetition instead of hanging the run)
QUEUE_TIMEOUT_S = 60.0


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``repro`` package."""


def import_program():
    """Import ``repro`` from this checkout's ``src`` (never from elsewhere)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise ProgramMissing(f"cannot import repro from {SRC}: {exc}") from None
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"repro resolved outside this checkout: {repro.__file__}")
    return repro


def build_study(repro, inputs: Inputs, store_url: Optional[str] = None):
    """The workload's study: the paper scenario, the profile, the seeded grid."""
    grid = inputs.grid
    scenario = getattr(repro, grid.scenario)(duration_s=grid.duration_s)
    RunOptions = repro.RunOptions
    if inputs.workload == "closed_loop_sweep":
        options = RunOptions.batched(n_workers=1)
    elif inputs.workload == "charging_lanes_sweep":
        options = RunOptions.batched(lane_width=64, n_workers=1)
    else:
        options = RunOptions.queue(store_url, n_workers=1)
    return repro.Study.scenario(scenario).options(options).sweep(dict(inputs.axes))


# ---------------------------------------------------------------------- #
# correctness
# ---------------------------------------------------------------------- #
def load_reference(workload: str) -> Dict[tuple, float]:
    grid = json.loads((HERE / "reference.json").read_text())["grids"][workload]
    return {
        candidate_key(zip(grid["axes"], row[:-1])): float(row[-1])
        for row in grid["scores"]
    }


@dataclass
class RepCheck:
    """Outcome of one repetition against the reference scores."""

    attempted: int
    failed: int
    returned: int
    max_rel_err: float
    mismatches: List[str]


def check_rep(inputs: Inputs, reference: Dict[tuple, float], result) -> RepCheck:
    """Compare one sweep result with the reference, candidate by candidate.

    A candidate fails when it is missing from the result (including a
    sweep that raised: ``result is None``) or was re-run exactly (a lane
    the batched march retired, or a held model the stability guard
    rejected).  A returned score outside the workload's tolerance is a
    mismatch, named with its parameters.
    """
    expected = inputs.candidates()
    points = {}
    if result is not None:
        points = {candidate_key(point.parameters): point for point in result.points}
    tolerance = TOLERANCE[inputs.workload]
    failed = returned = 0
    max_err = 0.0
    mismatches = []
    for candidate in expected:
        key = candidate_key(candidate)
        point = points.get(key)
        if point is None:
            failed += 1
            continue
        returned += 1
        if point.metadata.get("exact_rerun"):
            failed += 1
        ref = reference[key]
        err = abs(point.score - ref) / abs(ref)
        max_err = max(max_err, err)
        if not err <= tolerance:
            mismatches.append(
                f"{inputs.workload} candidate {candidate}: score {point.score!r} vs "
                f"reference {ref!r} (relative error {err:.3g} > {tolerance:g})"
            )
    return RepCheck(len(expected), failed, returned, max_err, mismatches)


# ---------------------------------------------------------------------- #
# the queue workload's store, snapshot and worker
# ---------------------------------------------------------------------- #
def _file_url(path: Path) -> str:
    return "file://" + str(path)


def build_snapshot(repro, inputs: Inputs, snapshot: Path) -> None:
    """Store the scores of the seeded warm half in a fresh ``file://`` store.

    Computed once per run through the public facade on the process
    backend: queue and process share one execution fingerprint, hence one
    cache key per candidate.
    """
    scenario = getattr(repro, inputs.grid.scenario)(duration_s=inputs.grid.duration_s)
    options = repro.RunOptions(cache="readwrite", store_url=_file_url(snapshot))
    for candidate in inputs.warm:
        axes = {name: [value] for name, value in candidate}
        repro.Study.scenario(scenario).options(options).sweep(axes).run()


class QueueFixture:
    """A ``file://`` store restored from the snapshot, plus one queue worker.

    Before every repetition the store is put back to the snapshot: the
    entries the worker wrote and the queue's done records are removed, so
    each repetition serves the same hits and runs the same misses.
    """

    def __init__(self, workdir: Path, snapshot: Path) -> None:
        self.snapshot = snapshot
        self.store_dir = workdir / "store"
        self.url = _file_url(self.store_dir)
        self.worker: Optional[subprocess.Popen] = None
        #: the largest peak resident memory a stopped worker reported (KiB)
        self.worker_peak_kib: Optional[int] = None
        self._snapshot_keys: set = set()

    def _store(self):
        from repro.cache.store import open_store

        return open_store(store_url=self.url)

    def restore_snapshot(self) -> None:
        """Set-up: a fresh store holding exactly the snapshot."""
        shutil.rmtree(self.store_dir, ignore_errors=True)
        shutil.copytree(self.snapshot, self.store_dir)
        self._snapshot_keys = {key for key, _ in self._store().entries()}

    def reset(self) -> None:
        """Between repetitions: drop what the last repetition added."""
        from repro.dist.queue import QUEUE_DIR_NAME, open_queue

        queue = open_queue(self.url)
        deadline = time.monotonic() + QUEUE_TIMEOUT_S
        # wait for the worker's last acknowledgement, so no done record
        # lands after the queue state is cleared
        while True:
            stats = queue.stats()
            if not stats.get("pending") and not stats.get("leased"):
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"queue never drained: {stats}")
            time.sleep(0.01)
        store = self._store()
        for key in [key for key, _ in store.entries() if key not in self._snapshot_keys]:
            store.drop(key)
        for state in ("done", "failed"):
            shutil.rmtree(self.store_dir / QUEUE_DIR_NAME / state, ignore_errors=True)

    def start_worker(self, trace_out: Optional[Path] = None) -> None:
        """Start the worker and wait until it polls the queue."""
        command = [sys.executable, str(HERE / "worker.py"), self.url]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.worker = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=str(CHECKOUT)
        )
        line = self.worker.stdout.readline()
        if line.strip() != "polling":
            self.stop_worker()
            raise RuntimeError(f"queue worker did not start (said {line!r})")

    def stop_worker(self) -> None:
        """Stop the worker (SIGTERM, then SIGKILL), wait for it and keep
        the peak memory it reports in its last line."""
        worker, self.worker = self.worker, None
        if worker is None:
            return
        if worker.poll() is None:
            worker.send_signal(signal.SIGTERM)
        try:
            out, _ = worker.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            worker.kill()
            out, _ = worker.communicate()
        try:
            peak = int(json.loads(out.strip().splitlines()[-1])["max_rss_kib"])
        except (IndexError, ValueError, KeyError, TypeError):
            return  # killed, or died before reporting
        self.worker_peak_kib = max(peak, self.worker_peak_kib or 0)


# ---------------------------------------------------------------------- #
# one workload session
# ---------------------------------------------------------------------- #
class Session:
    """The program state of one run: the study and, for the queue
    workload, its store and worker."""

    def __init__(self, repro, inputs: Inputs, workdir: Path) -> None:
        self.inputs = inputs
        self.queue: Optional[QueueFixture] = None
        store_url = None
        if inputs.workload == "queue_warm_sweep":
            self.queue = QueueFixture(workdir, workdir.parent / "snapshot")
            store_url = self.queue.url
        self.study = build_study(repro, inputs, store_url)

    def start(self, trace_out: Optional[Path] = None) -> None:
        if self.queue is not None:
            self.queue.restore_snapshot()
            self.queue.start_worker(trace_out)

    def before_rep(self) -> None:
        if self.queue is not None:
            self.queue.reset()

    def rep(self):
        """One sweep; returns ``(wall_s, result or None)``.

        A sweep that raises counts all its candidates as failed (the
        check sees no result); it never aborts the run.
        """
        start = time.monotonic()
        try:
            result = self.study.run()
        except Exception as exc:  # noqa: BLE001 - a failed sweep is counted, not fatal
            print(f"{self.inputs.workload}: sweep failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            result = None
        return time.monotonic() - start, result

    def stop(self) -> None:
        if self.queue is not None:
            self.queue.stop_worker()


def set_environment(workdir: Path) -> None:
    """Keep every file the program writes inside this run's work directory."""
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    os.environ["REPRO_QUEUE_TIMEOUT_S"] = str(QUEUE_TIMEOUT_S)
