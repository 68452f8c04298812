"""Cache-aware execution: planner single runs and engine sweeps.

The headline contract: enabling the cache never changes results — a
cache-off run, a cold ``readwrite`` run and a warm all-hits rerun produce
byte-identical scores and traces, on every backend (serial scalar,
process workers, batched lanes).  Corruption degrades to a recomputing
miss with a warning; ``read`` mode never writes; a code-version salt
bump invalidates everything.
"""

import warnings

import numpy as np
import pytest

import repro.cache.store as cache_store
from repro import RunOptions, Study, charging_scenario
from repro.cache import ResultStore


def single_study(tmp_path, mode="readwrite", **overrides):
    options = RunOptions(cache=mode, cache_dir=str(tmp_path), **overrides)
    return Study.scenario(charging_scenario(duration_s=0.05)).options(options)


SWEEP_AXES = {"excitation_frequency_hz": [66.0, 68.0, 70.0, 74.0]}


def sweep_study(options):
    return Study.scenario(charging_scenario(duration_s=0.05)).options(options).sweep(
        SWEEP_AXES
    )


# ---------------------------------------------------------------------- #
# single runs (planner path)
# ---------------------------------------------------------------------- #
def test_single_run_miss_then_hit_is_byte_identical(tmp_path):
    cold = single_study(tmp_path).run()
    assert cold.metadata["cache"] == "miss"
    warm = single_study(tmp_path).run()
    assert warm.metadata["cache"] == "hit"

    plain = Study.scenario(charging_scenario(duration_s=0.05)).run()
    assert "cache" not in plain.metadata  # cache off: no stamping
    for name in plain.trace_names():
        assert np.array_equal(warm[name].times, plain[name].times)
        assert np.array_equal(warm[name].values, plain[name].values)
    assert warm.stats.n_accepted_steps == plain.stats.n_accepted_steps


def test_single_run_read_mode_never_writes(tmp_path):
    first = single_study(tmp_path, mode="read").run()
    assert first.metadata["cache"] == "miss"
    second = single_study(tmp_path, mode="read").run()
    assert second.metadata["cache"] == "miss"
    assert ResultStore(tmp_path).stats()["n_entries"] == 0


def test_single_run_store_traces_off(tmp_path):
    single_study(tmp_path, store_traces=False).run()
    warm = single_study(tmp_path, store_traces=False).run()
    assert warm.metadata["cache"] == "hit"
    assert warm.trace_names() == []
    with pytest.raises(KeyError):
        warm["storage_voltage"]


def test_corrupt_entry_degrades_to_recomputed_miss(tmp_path):
    single_study(tmp_path).run()
    store = ResultStore(tmp_path)
    (key, _), = list(store.entries())
    (store._entry_dir(key) / "entry.json").write_text("{broken")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rerun = single_study(tmp_path).run()
    assert rerun.metadata["cache"] == "miss"
    assert any("corrupt" in str(w.message) for w in caught)
    # readwrite mode replaced the broken entry with a good one
    assert single_study(tmp_path).run().metadata["cache"] == "hit"


def test_salt_bump_invalidates_single_run_entries(tmp_path, monkeypatch):
    single_study(tmp_path).run()
    monkeypatch.setattr(
        cache_store, "code_version_salt", lambda: "repro-99.0+schema1"
    )
    assert single_study(tmp_path).run().metadata["cache"] == "miss"


def test_compare_legs_cache_individually(tmp_path):
    study = single_study(tmp_path).compare("proposed", "reference")
    cold = study.run()
    assert cold["proposed"].metadata["cache"] == "miss"
    warm = study.run()
    assert warm["proposed"].metadata["cache"] == "hit"
    assert warm["reference"].metadata["cache"] == "hit"
    assert np.array_equal(
        warm["proposed"]["storage_voltage"].values,
        cold["proposed"]["storage_voltage"].values,
    )


# ---------------------------------------------------------------------- #
# sweeps (engine path, all three backends)
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "label,options_factory",
    [
        ("serial", lambda d: RunOptions(cache="readwrite", cache_dir=d)),
        (
            "process",
            lambda d: RunOptions(n_workers=2, cache="readwrite", cache_dir=d),
        ),
        (
            "batched",
            lambda d: RunOptions.batched(
                lane_width=2, cache="readwrite", cache_dir=d
            ),
        ),
    ],
)
def test_sweep_cache_is_byte_identical_on_every_backend(
    tmp_path, label, options_factory
):
    cache_dir = str(tmp_path / label)
    baseline_options = options_factory(cache_dir).replace(
        cache="off", cache_dir=None
    )
    baseline = sweep_study(baseline_options).run()

    cold = sweep_study(options_factory(cache_dir)).run()
    assert cold.engine_info.n_cache_hits == 0
    warm = sweep_study(options_factory(cache_dir)).run()
    assert warm.engine_info.n_cache_hits == len(warm.points)
    assert warm.engine_info.n_evaluated == 0

    baseline_scores = [point.score for point in baseline.points]
    assert [point.score for point in cold.points] == baseline_scores
    assert [point.score for point in warm.points] == baseline_scores


def test_sweep_cache_read_mode_never_writes(tmp_path):
    options = RunOptions(cache="read", cache_dir=str(tmp_path))
    result = sweep_study(options).run()
    assert result.engine_info.n_cache_hits == 0
    assert ResultStore(tmp_path).stats()["n_entries"] == 0


def test_sweep_workers_write_the_entries(tmp_path):
    options = RunOptions(n_workers=2, cache="readwrite", cache_dir=str(tmp_path))
    sweep_study(options).run()
    stats = ResultStore(tmp_path).stats()
    assert stats["n_points"] == len(SWEEP_AXES["excitation_frequency_hz"])


def test_sweep_cache_keys_differ_across_backends(tmp_path):
    # the execution fingerprint covers the backend (documented adaptive
    # shared-step tolerance), so a process-cold cache gives the batched
    # backend no hits — hits never lie about what produced them
    cache_dir = str(tmp_path)
    sweep_study(RunOptions(cache="readwrite", cache_dir=cache_dir)).run()
    batched = sweep_study(
        RunOptions.batched(lane_width=2, cache="readwrite", cache_dir=cache_dir)
    ).run()
    assert batched.engine_info.n_cache_hits == 0


def test_sweep_cache_and_checkpoint_share_one_fingerprint(tmp_path):
    """One canonical options fingerprint feeds cache keys and checkpoints."""
    from repro.analysis.engine import SweepEngine
    from repro.api.experiment import metric_key_for, scenario_to_dict

    options = RunOptions.batched(
        relinearise_interval=3, cache="readwrite", cache_dir=str(tmp_path)
    )
    assert options.fingerprint() == {
        "integrator": None,
        "settings": None,
        "relinearise_interval": 3,
        "backend": "batched",
        "seed": None,
        "compiled": "off",
    }

    # every sweep-point key is derived from that fingerprint
    study = sweep_study(options)
    sweep = study.plan().sweep
    study.run()
    store = ResultStore(tmp_path)
    expected = {
        store.key_for(
            {
                "kind": "sweep_point",
                "scenario": scenario_to_dict(sweep.candidate_scenario(candidate)),
                "execution": options.fingerprint(),
                "metric": metric_key_for(sweep.metric),
            }
        )
        for candidate in sweep.candidates()
    }
    assert {key for key, _ in store.entries()} == expected

    # and the checkpoint grid hash moves with the shared fingerprint
    exact = SweepEngine(RunOptions())._checkpoint_metadata(sweep)
    held = SweepEngine(RunOptions(relinearise_interval=3))._checkpoint_metadata(
        sweep
    )
    assert exact["grid"] != held["grid"]


def test_sweep_cache_rejects_custom_metrics_by_name(tmp_path):
    # a custom callable has no canonical identity to key entries on; a
    # free-form label collision would serve one metric's scores as
    # another's, so the engine refuses loudly instead
    from repro.core.errors import ConfigurationError

    def my_metric(result):
        return 1.0

    study = (
        Study.scenario(charging_scenario(duration_s=0.05))
        .options(RunOptions(cache="readwrite", cache_dir=str(tmp_path)))
        .sweep(SWEEP_AXES, metric=my_metric)
    )
    with pytest.raises(ConfigurationError, match="my_metric"):
        study.run()


def test_unwritable_cache_degrades_to_uncached_run(tmp_path):
    # cache_dir nested under a regular file: every store write raises
    # OSError even when running as root — the finished simulation must
    # survive with a warning, not crash
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    bad_dir = str(blocker / "cache")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run = (
            Study.scenario(charging_scenario(duration_s=0.05))
            .options(RunOptions(cache="readwrite", cache_dir=bad_dir))
            .run()
        )
        sweep = sweep_study(
            RunOptions(cache="readwrite", cache_dir=bad_dir)
        ).run()
    assert run.metadata["cache"] == "miss"
    assert len(sweep.points) == len(SWEEP_AXES["excitation_frequency_hz"])
    assert sum("unwritable" in str(w.message) for w in caught) >= 2


def test_salt_bump_invalidates_sweep_entries(tmp_path, monkeypatch):
    options = RunOptions(cache="readwrite", cache_dir=str(tmp_path))
    sweep_study(options).run()
    monkeypatch.setattr(
        cache_store, "code_version_salt", lambda: "repro-99.0+schema1"
    )
    rerun = sweep_study(options).run()
    assert rerun.engine_info.n_cache_hits == 0
