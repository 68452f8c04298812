"""Outside-in tracer: wraps public entry points of each ``repro`` layer.

The benchmark measures the program from outside: it never edits
``repro``.  :class:`Tracer` replaces each public function or method in
:data:`TARGETS` with a timing wrapper for the duration of a traced run
and puts the originals back afterwards.  Every wrapped call is a span;
a span's *self time* is its duration minus the durations of the wrapped
calls made inside it, so the self times of all spans under one root add
up to the root's duration by construction.  The root is the measured
window the harness opens around each repetition; its own self time is
the *unattributed* remainder (work no wrapped entry point covers).

Work with no public entry point stays in its caller's self time:

* the batched row recorder (``repro.core.batch._BatchedRecorder``)
  counts as ``core.batch`` self time;
* prepared stacked linearisers bound by ``BatchedAssembler.prepare``
  count as ``core.elimination`` self time;
* scalar probe evaluation (``LinearisedStateSpaceSolver._record``)
  counts as ``core.solver`` self time;
* cache-key hashing (``ResultStore.key_for``) counts as
  ``analysis.engine`` self time.

Only calls on the thread that created the tracer are recorded; other
threads (the queue worker's heartbeat) pass straight through.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: one clock for every process: CLOCK_MONOTONIC is system-wide on Linux,
#: so a worker's span stamps compare directly with the parent's
clock = time.monotonic

#: marks a wrapper (and points back at the original it replaced)
ORIGINAL_ATTR = "__perfbench_original__"

ROOT = "trace.unattributed_s"


class Target(NamedTuple):
    """One public entry point: ``"module:qualname"``, its layer, and the
    optional sub-metric (``part``) its self time and calls also count as."""

    path: str
    layer: str
    part: str = ""
    hook: Optional[Callable] = None
    #: the target returns a callable that is the real span (kernel factory)
    factory: bool = False


class TargetMissing(RuntimeError):
    """A wrapped entry point no longer resolves (renamed or removed)."""


# ---------------------------------------------------------------------- #
# counters that need more than the call count
# ---------------------------------------------------------------------- #
def _batch_lanes(tracer, call) -> None:
    tracer.add("core.batch.lanes", call.args[0].n_lanes)


def _kernel_steps(tracer, call) -> None:
    tracer.add("core.kernels.steps", int(getattr(call.result, "steps", 0)))


def _digital_activations(tracer, call) -> None:
    tracer.add("core.digital.activations", call.args[0].n_activations - call.before)


def _digital_before(args) -> int:
    return args[0].n_activations


def _store_read(tracer, call) -> None:
    hit = call.result is not None
    if call.caller == "dist.executor":
        # the queue parent polling the store for a worker's result
        tracer.add("dist.executor.polls", 1)
        tracer.add("dist.executor.useful_polls", int(hit))
        if hit:
            tracer.event("observed", str(call.args[1]), call.end)
    else:
        tracer.add("cache.store.lookups", 1)
        tracer.add("cache.store.hits", int(hit))


def _store_bytes(tracer, call) -> None:
    tracer.add("cache.store.bytes_written", sum(len(blob) for blob in call.args[2].values()))


def _queue_put(tracer, call) -> None:
    tracer.event("put", str(call.args[1]["id"]), call.end)


def _worker_eval(tracer, call) -> None:
    tracer.add("dist.worker.eval_s", call.end - call.start)
    tracer.event("eval", str(call.args[0]["id"]), call.end - call.start)


_E = "repro.core.elimination:"
_I = "repro.core.integrators."
_Q = "repro.dist.queue:DirWorkQueue."

#: every wrapped entry point, outermost layer first
TARGETS: Tuple[Target, ...] = (
    Target("repro.api.planner:plan", "api.planner"),
    Target("repro.api.planner:execute", "api.planner"),
    Target("repro.api.planner:execute_sweep", "api.planner"),
    Target("repro.analysis.engine:SweepEngine.run", "analysis.engine"),
    Target("repro.analysis.engine:SweepEngine.run_explore", "analysis.engine"),
    Target("repro.harvester.scenarios:Scenario.build_harvester", "harvester", "build"),
    Target("repro.harvester.topologies:SpecScenario.build_harvester", "harvester", "build"),
    Target("repro.harvester.scenarios:prepare_assembly", "harvester"),
    Target("repro.harvester.system:TunableEnergyHarvester.build_solver", "harvester"),
    Target("repro.core.solver:LinearisedStateSpaceSolver.run", "core.solver"),
    Target("repro.core.batch:BatchedSolver.run", "core.batch", hook=_batch_lanes),
    Target("repro.core.kernels:get_march_kernel", "core.kernels", hook=_kernel_steps, factory=True),
    Target(_E + "SystemAssembler.assemble", "core.elimination", "assemble"),
    Target(_E + "SystemAssembler.eliminate", "core.elimination", "eliminate"),
    Target(_E + "BatchedAssembler.assemble", "core.elimination", "assemble"),
    Target(_E + "BatchedAssembler.eliminate", "core.elimination", "eliminate"),
    Target("repro.core.linearise:linearise_block", "core.linearise"),
    Target("repro.core.linearise:linearise_block_lanes", "core.linearise"),
    Target(_I + "adams_bashforth:AdamsBashforth.step", "core.integrators"),
    Target(_I + "adams_bashforth:AdamsBashforth.step_batch", "core.integrators"),
    Target(_I + "base:ExplicitIntegrator.step_batch", "core.integrators"),
    Target(_I + "forward_euler:ForwardEuler.step", "core.integrators"),
    Target(_I + "runge_kutta:RungeKutta2.step", "core.integrators"),
    Target(_I + "runge_kutta:RungeKutta4.step", "core.integrators"),
    Target("repro.core.stepper:StepSizeController.propose", "core.stepper"),
    Target("repro.core.stepper:negotiate_shared_step", "core.stepper"),
    Target("repro.core.digital:DigitalEventKernel.run_due", "core.digital", hook=_digital_activations),
    Target("repro.core.results:TraceRecorder.record", "core.results"),
    Target("repro.cache.store:ResultStore.load_point", "cache.store", "read", hook=_store_read),
    Target("repro.cache.store:ResultStore.store_point", "cache.store", "write"),
    Target("repro.dist.backends:LocalDirBackend.put", "cache.store", "write", hook=_store_bytes),
    Target("repro.dist.executor:QueueSweepExecutor.run", "dist.executor"),
    Target(_Q + "put", "dist.queue", "put", hook=_queue_put),
    Target(_Q + "lease", "dist.queue"),
    Target(_Q + "done", "dist.queue"),
    Target(_Q + "fail", "dist.queue"),
    Target(_Q + "stats", "dist.queue"),
    Target("repro.dist.worker:evaluate_payload", "dist.worker", hook=_worker_eval),
)

#: hooks that need state from before the call
_BEFORE = {_digital_activations: _digital_before}

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(target.layer for target in TARGETS))


class _Call(NamedTuple):
    args: tuple
    result: object
    start: float
    end: float
    caller: Optional[str]
    before: object


def resolve(path: str):
    """``(owner, name, raw_value)`` of ``"module:qualname"``.

    ``owner`` is the class (for methods) or the module; raises
    :class:`TargetMissing` naming the path when any part is gone.
    """
    module_name, _, qualname = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise TargetMissing(f"traced entry point {path}: module missing ({exc})") from None
    *parents, name = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TargetMissing(f"traced entry point {path}: {part!r} not found")
    raw = vars(owner).get(name)
    if not callable(raw) or isinstance(raw, (staticmethod, classmethod)):
        raise TargetMissing(
            f"traced entry point {path}: {name!r} is missing or not a plain function"
        )
    return owner, name, raw


def _bindings(owner, name: str, original) -> List[Tuple[object, str]]:
    """Every place the wrapper must go: the owner itself, plus (for
    module-level functions) each ``repro`` module that imported it by name."""
    places = [(owner, name)]
    if isinstance(owner, type):
        return places
    for module_name, module in list(sys.modules.items()):
        if module is owner or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                places.append((module, attr))
    return places


class Tracer:
    """Span recorder plus the install/uninstall of the wrappers.

    Self times and counters accumulate into a *bucket* while a span is
    open; when the outermost span closes the bucket becomes one record
    ``(start, end, bucket)``.  In the benchmark process the outermost
    span is always a measured window (:meth:`window`); in a queue worker
    it is each top-level call (a lease, an evaluation ...), which the
    parent later keeps only when it started inside one of its windows.
    """

    def __init__(self, targets: Tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.records: List[Tuple[float, float, Dict[str, float]]] = []
        self.events: Dict[str, Dict[str, List[float]]] = defaultdict(dict)
        self._stack: List[List] = []  # [layer, child_seconds]
        self._bucket: Dict[str, float] = defaultdict(float)
        self._thread = threading.get_ident()
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ counters
    def add(self, key: str, value: float) -> None:
        self._bucket[key] += value

    def event(self, kind: str, key: str, value: float) -> None:
        self.events[kind].setdefault(key, []).append(value)

    # --------------------------------------------------------------- spans
    def _open(self, layer: str) -> List:
        frame = [layer, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: List, start: float, end: float, keys: Tuple[str, ...]) -> None:
        self._stack.pop()
        duration = end - start
        for key in keys:
            self._bucket[key] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.records.append((start, end, dict(self._bucket)))
            self._bucket = defaultdict(float)

    @contextlib.contextmanager
    def window(self):
        """One measured window: the root span of everything traced inside."""
        if self._stack:
            raise RuntimeError("a measured window cannot nest inside a span")
        frame = self._open("trace")
        start = clock()
        try:
            yield
        finally:
            self._close(frame, start, clock(), (ROOT,))

    # ------------------------------------------------------------ wrappers
    def _wrap(self, target: Target, original: Callable) -> Callable:
        keys = (f"{target.layer}.self_s",) + (
            (f"{target.layer}.{target.part}_self_s",) if target.part else ()
        )
        calls = (f"{target.layer}.calls",) + (
            (f"{target.layer}.{target.part}_calls",) if target.part else ()
        )
        hook = target.hook
        before = _BEFORE.get(hook)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return original(*args, **kwargs)
            caller = tracer._stack[-1][0] if tracer._stack else None
            state = before(args) if before is not None else None
            frame = tracer._open(target.layer)
            for key in calls:
                tracer._bucket[key] += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(frame, start, clock(), keys)
                raise
            end = clock()
            if hook is not None:
                hook(tracer, _Call(args, result, start, end, caller, state))
            tracer._close(frame, start, end, keys)
            return result

        setattr(wrapper, ORIGINAL_ATTR, original)
        return wrapper

    def _factory(self, target: Target, original: Callable) -> Callable:
        """Wrap a factory so the callable it returns is the traced span."""
        span = target._replace(factory=False)

        @functools.wraps(original)
        def factory(*args, **kwargs):
            return self._wrap(span, original(*args, **kwargs))

        setattr(factory, ORIGINAL_ATTR, original)
        return factory

    def install(self) -> None:
        """Resolve every target (all or nothing) and put the wrappers in place."""
        if self._installed:
            raise RuntimeError("tracer wrappers are already installed")
        resolved = [(target, *resolve(target.path)) for target in self.targets]
        wrapped = [target.path for target, _, _, raw in resolved if hasattr(raw, ORIGINAL_ATTR)]
        if wrapped:
            raise RuntimeError(f"already wrapped by another tracer: {wrapped}")
        for target, owner, name, original in resolved:
            wrapper = (self._factory if target.factory else self._wrap)(target, original)
            for place, attr in _bindings(owner, name, original):
                self._installed.append((place, attr, original))
                setattr(place, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back and check that it is back."""
        installed, self._installed = self._installed, []
        for place, attr, original in reversed(installed):
            setattr(place, attr, original)
        for place, attr, original in installed:
            if getattr(place, attr) is not original:
                raise RuntimeError(f"original of {attr} on {place!r} was not restored")


def wrapped_targets() -> List[str]:
    """Paths of the targets that currently carry a tracer wrapper."""
    return [target.path for target in TARGETS if hasattr(resolve(target.path)[2], ORIGINAL_ATTR)]


def started_within(
    records: List[Tuple[float, float, Dict[str, float]]],
    windows: List[Tuple[float, float, Dict[str, float]]],
) -> List[Tuple[float, float, Dict[str, float]]]:
    """The records (a queue worker's top-level spans) that started inside
    one of the parent's measured windows."""
    return [
        record
        for record in records
        if any(start <= record[0] <= end for start, end, _ in windows)
    ]


def summed(records: List[Tuple[float, float, Dict[str, float]]]) -> Tuple[Dict[str, float], float]:
    """``(totals, duration_s)``: the records' buckets and durations summed.

    Raises when a record holds a negative value: every bucket entry is a
    count, a byte total or a self time, and a negative self time means
    spans overlapped that should nest.
    """
    totals: Dict[str, float] = defaultdict(float)
    duration = 0.0
    for start, end, bucket in records:
        negative = {key: value for key, value in bucket.items() if value < 0}
        if negative or end < start:
            raise RuntimeError(f"traced span {start!r}..{end!r} has negative values: {negative}")
        duration += end - start
        for key, value in bucket.items():
            totals[key] += value
    return dict(totals), duration
