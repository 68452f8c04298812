"""Parent executor + worker loop: the distributed sweep end to end.

The unit tests drive :class:`QueueSweepExecutor` and
:func:`worker_loop` against in-memory stores and queues with injected
time; the integration test at the bottom runs a real facade sweep on
``backend="queue"`` with two worker threads and checks the scores are
*identical* to ``backend="process"`` — the subsystem's core promise.
"""

import inspect
import threading
import uuid
from types import SimpleNamespace

import pytest

from repro import RunOptions, Study, charging_scenario
from repro.cache.store import open_store
from repro.core.errors import ConfigurationError, SimulationError
from repro.dist import executor as executor_module
from repro.dist.executor import QueueSweepExecutor, task_payload_for
from repro.dist.queue import open_queue
from repro.dist.worker import worker_loop

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "1" * 62


def fresh_url() -> str:
    return f"memory://executor-{uuid.uuid4().hex}"


def stub_task(index: int, cache_key: str):
    return SimpleNamespace(index=index, cache_key=cache_key, parameters={})


@pytest.fixture
def light_payloads(monkeypatch):
    """Bypass scenario serialisation: executor unit tests only need ids."""
    monkeypatch.setattr(
        executor_module,
        "task_payload_for",
        lambda task, salt: {"id": task.cache_key, "salt": salt},
    )


# ---------------------------------------------------------------------- #
# task_payload_for: the engine-side contract
# ---------------------------------------------------------------------- #
def test_payload_requires_cache_armed_tasks():
    task = SimpleNamespace(cache_key=None)
    with pytest.raises(ConfigurationError, match="engine invariant"):
        task_payload_for(task, salt="s")


def test_payload_id_is_the_cache_key_and_carries_the_salt():
    from repro.analysis.engine import _Task
    from repro.analysis.sweep import harvested_energy_metric

    task = _Task(
        index=3,
        parameters={"excitation_frequency_hz": 50.0},
        scenario=charging_scenario(0.01),
        metric=harvested_energy_metric,
        integrator=None,
        settings=None,
        relinearise_interval=None,
        cache_key=KEY_A,
    )
    payload = task_payload_for(task, salt="salt-1")
    assert payload["id"] == KEY_A
    assert payload["salt"] == "salt-1"
    assert payload["metric"] == "harvested_energy"
    assert payload["label"] == "excitation_frequency_hz=50.0"
    assert isinstance(payload["scenario"], dict)


# ---------------------------------------------------------------------- #
# QueueSweepExecutor unit behaviour (no workers, injected time)
# ---------------------------------------------------------------------- #
def test_executor_records_results_as_the_store_fills(light_payloads):
    url = fresh_url()
    store = open_store(store_url=url)
    queue = open_queue(url)
    # "workers" already delivered one result; the other lands mid-run
    store.store_point(KEY_A, score=1.0, cpu_time_s=0.1, exact_rerun=True)

    def sleep_and_deliver(seconds):
        store.store_point(KEY_B, score=2.0, cpu_time_s=0.2, exact_rerun=False)

    recorded = []
    executor = QueueSweepExecutor(store, queue, sleep=sleep_and_deliver)
    executor.run([stub_task(0, KEY_A), stub_task(1, KEY_B)], recorded.append)
    assert sorted((o["index"], o["score"]) for o in recorded) == [(0, 1.0), (1, 2.0)]
    # the candidates were enqueued for the fleet exactly once
    assert queue.put({"id": KEY_A}) is False


def test_executor_aborts_on_a_failed_task(light_payloads):
    url = fresh_url()
    store = open_store(store_url=url)
    queue = open_queue(url)

    def fail_then_sleep(seconds):
        queue.lease("w1", 30.0)
        queue.fail(KEY_A, "candidate diverged")

    executor = QueueSweepExecutor(store, queue, sleep=fail_then_sleep)
    with pytest.raises(SimulationError, match="candidate diverged"):
        executor.run([stub_task(0, KEY_A)], lambda outcome: None)


def test_executor_times_out_when_no_worker_ever_delivers(light_payloads):
    url = fresh_url()
    store = open_store(store_url=url)
    clock = iter(float(i) for i in range(1000))
    executor = QueueSweepExecutor(
        store,
        open_queue(url),
        timeout_s=5.0,
        sleep=lambda seconds: None,
        clock=lambda: next(clock),
    )
    with pytest.raises(SimulationError, match="timed out"):
        executor.run([stub_task(0, KEY_A)], lambda outcome: None)


def test_executor_timeout_env_var_applies(light_payloads, monkeypatch):
    monkeypatch.setenv(executor_module.QUEUE_TIMEOUT_ENV_VAR, "7.5")
    url = fresh_url()
    executor = QueueSweepExecutor(open_store(store_url=url), open_queue(url))
    assert executor.timeout_s == 7.5


def test_executor_warns_about_an_absent_fleet(light_payloads):
    url = fresh_url()
    store = open_store(store_url=url)
    clock = iter(float(i * 10) for i in range(1000))
    sleeps = {"n": 0}

    def deliver_late(seconds):
        sleeps["n"] += 1
        if sleeps["n"] >= 2:  # only after the stall warning had its chance
            store.store_point(KEY_A, score=1.0, cpu_time_s=0.1, exact_rerun=True)

    executor = QueueSweepExecutor(
        store,
        open_queue(url),
        stall_warn_s=15.0,
        sleep=deliver_late,
        clock=lambda: next(clock),
    )
    with pytest.warns(UserWarning, match="repro.*worker"):
        executor.run([stub_task(0, KEY_A)], lambda outcome: None)


# ---------------------------------------------------------------------- #
# worker_loop unit behaviour
# ---------------------------------------------------------------------- #
def test_worker_fails_salt_mismatched_tasks():
    url = fresh_url()
    queue = open_queue(url)
    queue.put({"id": KEY_A, "salt": "some-other-version"})
    counts = worker_loop(url, worker_id="w1", max_tasks=1, sleep=lambda s: None)
    assert counts == {"done": 0, "failed": 1}
    assert "mixed-version fleets" in queue.stats()["errors"][KEY_A]


def test_worker_acknowledges_results_already_in_the_store():
    url = fresh_url()
    store = open_store(store_url=url)
    store.store_point(KEY_A, score=1.0, cpu_time_s=0.1, exact_rerun=True)
    queue = open_queue(url)
    queue.put({"id": KEY_A, "salt": store.salt})
    counts = worker_loop(url, worker_id="w1", max_tasks=1, sleep=lambda s: None)
    assert counts == {"done": 1, "failed": 0}
    assert queue.stats()["done"] == 1


def test_worker_records_evaluation_failures_instead_of_dying():
    url = fresh_url()
    store = open_store(store_url=url)
    queue = open_queue(url)
    queue.put({"id": KEY_A, "salt": store.salt, "scenario": {"bogus": True}})
    counts = worker_loop(url, worker_id="w1", max_tasks=1, sleep=lambda s: None)
    assert counts == {"done": 0, "failed": 1}
    assert queue.stats()["errors"][KEY_A]  # the exception text was recorded
    assert store.load_point(KEY_A) is None  # nothing was written to the store


def test_worker_exit_when_idle_with_an_empty_queue():
    url = fresh_url()
    counts = worker_loop(
        url, worker_id="w1", exit_when_idle=True, sleep=lambda s: None
    )
    assert counts == {"done": 0, "failed": 0}


def test_worker_idle_timeout():
    url = fresh_url()
    ticks = iter(float(i) for i in range(1000))
    counts = worker_loop(
        url,
        worker_id="w1",
        idle_timeout_s=3.0,
        sleep=lambda s: None,
        clock=lambda: next(ticks),
    )
    assert counts == {"done": 0, "failed": 0}


@pytest.mark.parametrize(
    "lease_timeout_s, expected",
    [
        (None, inspect.signature(QueueSweepExecutor).parameters["lease_s"].default),
        (5, 5.0),
    ],
)
def test_engine_passes_the_lease_only_when_set(
    monkeypatch, lease_timeout_s, expected
):
    """An unset ``lease_timeout_s`` leaves the lease to the executor."""
    built = []

    class Recording(QueueSweepExecutor):
        def run(self, tasks, record):
            built.append(self.lease_s)
            raise RuntimeError("stop after construction")

    monkeypatch.setattr(executor_module, "QueueSweepExecutor", Recording)
    options = RunOptions.queue(fresh_url(), lease_timeout_s=lease_timeout_s)
    study = (
        Study.scenario(charging_scenario(0.01))
        .options(options)
        .sweep({"excitation_frequency_hz": [60.0]})
    )
    with pytest.raises(RuntimeError, match="stop after construction"):
        study.run()
    assert built == [expected]


# ---------------------------------------------------------------------- #
# the core promise: queue scores == process scores
# ---------------------------------------------------------------------- #
def test_queue_backend_matches_process_backend_exactly():
    axes = {"excitation_frequency_hz": [40.0, 50.0, 60.0, 80.0]}

    def run_with(options):
        return (
            Study.scenario(charging_scenario(0.1))
            .options(options)
            .sweep(axes)
            .run()
        )

    url = fresh_url()
    stop = threading.Event()
    workers = [
        threading.Thread(
            target=worker_loop,
            args=(url,),
            kwargs=dict(
                worker_id=f"w{i}", lease_s=5.0, poll_s=0.05, stop=stop.is_set
            ),
            daemon=True,
        )
        for i in range(2)
    ]
    for worker in workers:
        worker.start()
    try:
        queued = run_with(RunOptions.queue(url))
    finally:
        stop.set()
        for worker in workers:
            worker.join(timeout=10.0)

    direct = run_with(RunOptions(backend="process", n_workers=1))

    def table(result):
        return sorted(
            (point.parameters["excitation_frequency_hz"], point.score)
            for point in result.points
        )

    assert table(queued) == table(direct)  # identical, not approximately
    assert queued.best().parameters == direct.best().parameters

    # queue and process share one execution fingerprint, so a process
    # sweep pointed at the same store is a pure cache hit
    store = open_store(store_url=url)
    assert store.stats()["n_points"] == 4
