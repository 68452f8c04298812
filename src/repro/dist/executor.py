"""Parent side of the queue backend: enqueue tasks, assemble results.

:class:`QueueSweepExecutor` is what the sweep engine dispatches one
round of pending candidates to when ``RunOptions(backend="queue")``.
The flow is deliberately simple and crash-safe:

1. every pending candidate becomes a **task payload** — its serialised
   scenario, metric key, declarative execution options and code-version
   salt — whose id *is* the candidate's content-addressed cache key
   (``RunOptions.fingerprint()`` + candidate content, hashed with the
   salt), so enqueueing is idempotent and two parents sweeping the same
   grid share one queue entry per candidate;
2. the parent **polls the shared store** for the result keys.  Workers
   are the only writers; a key appearing means that candidate is done,
   wherever and however many times it ran (at-least-once execution is
   safe because every run writes the same bytes under the same key);
3. queue **stats are checked for failures** each poll — a task a worker
   failed (bad candidate, salt mismatch) or the queue gave up on
   (``max_attempts`` expired leases) aborts the sweep with the recorded
   error instead of hanging forever.

The executor never evaluates anything itself and holds no worker
handles: workers are external ``repro worker`` processes (or threads in
tests), discovered only through their effect on the store.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Callable, Dict, Optional, Sequence

from ..core.errors import CacheCorruptionError, ConfigurationError, SimulationError

__all__ = ["QueueSweepExecutor", "task_payload_for", "QUEUE_TIMEOUT_ENV_VAR"]

#: environment override for the parent's overall wait budget in seconds
#: ("" or unset: wait forever, warning periodically)
QUEUE_TIMEOUT_ENV_VAR = "REPRO_QUEUE_TIMEOUT_S"

#: seconds without any candidate completing before the parent warns that
#: the fleet looks absent
_STALL_WARN_S = 30.0


def task_payload_for(task, *, salt: str) -> Dict[str, object]:
    """The self-contained queue payload of one engine ``_Task``.

    Everything a stateless worker needs: the payload id doubles as the
    result's store key (``task.cache_key``), and the declarative options
    round-trip through ``RunOptions.from_dict`` on the worker.
    """
    from ..api.experiment import metric_key_for, scenario_to_dict

    if task.cache_key is None:
        raise ConfigurationError(
            "queue dispatch needs cache-armed tasks (cache='readwrite'); "
            "this is an engine invariant — report it if you hit it"
        )
    metric_key = metric_key_for(task.metric)
    if metric_key is None:
        raise ConfigurationError(
            "queue dispatch needs a named metric; the engine validates "
            "this before arming tasks"
        )
    options: Dict[str, object] = {}
    if task.integrator is not None:
        integrator = {
            "name": str(task.integrator.name),
            "order": getattr(task.integrator, "order", None),
        }
        if integrator["order"] is None:
            del integrator["order"]
        options["integrator"] = integrator
    if task.settings is not None:
        from ..core.serialise import encode_value

        options["settings"] = encode_value(task.settings)
    if task.relinearise_interval is not None:
        options["relinearise_interval"] = int(task.relinearise_interval)
    return {
        "id": task.cache_key,
        "kind": "sweep_point",
        "scenario": scenario_to_dict(task.scenario),
        "metric": metric_key,
        "options": options,
        "salt": salt,
        "label": ", ".join(f"{k}={v}" for k, v in task.parameters.items()),
    }


class QueueSweepExecutor:
    """Enqueue one round of candidates and await their store entries."""

    def __init__(
        self,
        store,
        queue,
        *,
        lease_s: float = 30.0,
        poll_s: float = 0.1,
        timeout_s: Optional[float] = None,
        stall_warn_s: float = _STALL_WARN_S,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_s <= 0:
            raise ConfigurationError("lease_s must be positive")
        if timeout_s is None:
            env = os.environ.get(QUEUE_TIMEOUT_ENV_VAR, "")
            timeout_s = float(env) if env else None
        self.store = store
        self.queue = queue
        self.lease_s = float(lease_s)
        self.poll_s = float(poll_s)
        self.timeout_s = timeout_s
        self.stall_warn_s = float(stall_warn_s)
        self._sleep = sleep
        self._clock = clock

    # ------------------------------------------------------------------ #
    def run(self, tasks: Sequence[object], record: Callable[[Dict[str, object]], None]) -> None:
        """Drive ``tasks`` through the queue; ``record(outcome_dict)`` is
        called once per candidate, in completion order, with
        ``{"index", "score", "cpu_time_s", "exact_rerun"}``."""
        if not tasks:
            return
        for task in tasks:
            payload = task_payload_for(task, salt=self.store.salt)
            self.queue.put(payload)

        missing: Dict[str, object] = {task.cache_key: task for task in tasks}
        start = self._clock()
        last_progress = start
        stall_warned = False
        while missing:
            progressed = False
            for key, task in list(missing.items()):
                try:
                    point = self.store.load_point(key)
                except CacheCorruptionError:
                    continue  # a torn/foreign entry: keep waiting for a clean one
                except OSError:
                    break  # store briefly unreachable: retry next poll
                if point is None:
                    continue
                record(
                    {
                        "index": task.index,
                        "score": float(point["score"]),
                        "cpu_time_s": float(point["cpu_time_s"]),
                        "exact_rerun": bool(point["exact_rerun"]),
                    }
                )
                del missing[key]
                progressed = True
            if not missing:
                break
            self._check_failures(missing)
            now = self._clock()
            if progressed:
                last_progress = now
                stall_warned = False
            elif not stall_warned and now - last_progress > self.stall_warn_s:
                warnings.warn(
                    f"queue sweep: {len(missing)} candidates pending and no "
                    f"progress for {now - last_progress:.0f}s — are `repro "
                    f"worker` processes running against "
                    f"{self.store.location}?",
                    stacklevel=2,
                )
                stall_warned = True
            if self.timeout_s is not None and now - start > self.timeout_s:
                raise SimulationError(
                    f"queue sweep timed out after {self.timeout_s:g}s with "
                    f"{len(missing)} candidates outstanding (store "
                    f"{self.store.location}); workers never delivered — "
                    f"check `repro worker` fleets and the {QUEUE_TIMEOUT_ENV_VAR} "
                    "budget"
                )
            self._sleep(self.poll_s)

    def _check_failures(self, missing: Dict[str, object]) -> None:
        """Abort on tasks the queue recorded as failed (only ones we wait on)."""
        try:
            stats = self.queue.stats()
        except (OSError, ConfigurationError):
            return  # stats are advisory; the store poll is the source of truth
        errors = stats.get("errors") or {}
        relevant = {
            task_id: message
            for task_id, message in dict(errors).items()
            if task_id in missing
        }
        if not relevant:
            return
        described = "; ".join(
            f"{task_id[:12]}: {message or 'no error recorded'}"
            for task_id, message in sorted(relevant.items())
        )
        raise SimulationError(
            f"queue sweep: {len(relevant)} candidate task(s) failed on the "
            f"worker fleet — {described}"
        )
