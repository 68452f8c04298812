"""Engine-level tests of the batched lane-parallel backend."""

from dataclasses import replace

import pytest

from repro import RunOptions, Study
from repro.analysis.sweep import average_power_metric
from repro.core.errors import ConfigurationError
from repro.harvester.scenarios import (
    charging_scenario,
    scenario_1,
    scenario_solver_settings,
)


def make_study(duration_s=0.05, frequencies=(68.0, 70.0), amplitudes=(0.4, 0.59)):
    """A 2x2 average-power sweep of the charging scenario (options unset)."""
    return Study.scenario(charging_scenario(duration_s=duration_s)).sweep(
        {
            "excitation_frequency_hz": list(frequencies),
            "excitation_amplitude_ms2": list(amplitudes),
        },
        metric=average_power_metric,
        metric_name="average_power_W",
    )


def fixed_step_settings():
    scenario = charging_scenario(duration_s=0.05)
    return replace(scenario_solver_settings(scenario), fixed_step=1e-4)


class TestBatchedBackendParity:
    def test_fixed_step_scores_identical_to_process_backend(self):
        settings = fixed_step_settings()
        serial = make_study().options(RunOptions(settings=settings)).run()
        batched = make_study().options(RunOptions.batched(settings=settings)).run()
        for ref, got in zip(serial.points, batched.points):
            assert ref.parameters == got.parameters
            assert got.score == ref.score  # byte-identical waveforms
        info = batched.engine_info
        assert info.backend == "batched"
        assert info.n_lane_blocks == 1
        assert info.n_batch_fallbacks == 0
        assert info.n_batched_candidates == 4  # runtime truth, not planning

    def test_adaptive_scores_within_documented_tolerance(self):
        serial = make_study().run()
        batched = make_study().options(RunOptions.batched()).run()
        for ref, got in zip(serial.points, batched.points):
            assert got.score == pytest.approx(ref.score, rel=0.10)
        assert serial.best().parameters == batched.best().parameters

    def test_lane_width_splits_blocks_without_changing_results(self):
        settings = fixed_step_settings()
        whole = make_study().options(RunOptions.batched(settings=settings)).run()
        split = (
            make_study()
            .options(RunOptions.batched(lane_width=2, settings=settings))
            .run()
        )
        assert split.engine_info.n_lane_blocks == 2
        for ref, got in zip(whole.points, split.points):
            assert got.score == ref.score

    def test_controller_candidates_fall_back_to_scalar_path(self):
        # scenario_1 runs the digital tuning controller: the batched
        # backend must route every candidate through the scalar solver and
        # reproduce the process backend exactly
        study = Study.scenario(scenario_1(duration_s=0.05)).sweep(
            {"excitation_frequency_hz": [70.0, 70.5]},
            metric=average_power_metric,
            metric_name="average_power_W",
        )
        serial = study.run()
        batched = study.options(RunOptions.batched()).run()
        for ref, got in zip(serial.points, batched.points):
            assert got.score == ref.score
        info = batched.engine_info
        assert info.n_lane_blocks == 0
        assert info.n_batch_fallbacks == 2
        assert info.n_batched_candidates == 0

    def test_batched_composes_with_worker_processes(self):
        settings = fixed_step_settings()
        serial = make_study().options(RunOptions.batched(settings=settings)).run()
        parallel = (
            make_study()
            .options(RunOptions.batched(n_workers=2, settings=settings))
            .run()
        )
        assert parallel.engine_info.parallel
        assert parallel.engine_info.n_lane_blocks == 2  # one block per worker
        for ref, got in zip(serial.points, parallel.points):
            assert got.score == ref.score


    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            make_study().options(RunOptions(backend="gpu"))


class TestCheckpointGuard:
    def test_resume_with_same_grid_and_backend_is_accepted(self, tmp_path):
        options = RunOptions.batched(checkpoint_path=str(tmp_path / "ckpt.csv"))
        first = make_study().options(options).run()
        resumed = make_study().options(options).run()
        assert resumed.engine_info.n_resumed == 4
        assert resumed.engine_info.n_evaluated == 0
        for ref, got in zip(first.points, resumed.points):
            assert got.score == ref.score

    def test_resume_with_different_backend_raises(self, tmp_path):
        path = str(tmp_path / "ckpt.csv")
        make_study().options(RunOptions(checkpoint_path=path)).run()
        with pytest.raises(ConfigurationError, match="different sweep"):
            make_study().options(RunOptions.batched(checkpoint_path=path)).run()

    def test_resume_with_changed_grid_values_raises(self, tmp_path):
        options = RunOptions(checkpoint_path=str(tmp_path / "ckpt.csv"))
        make_study().options(options).run()
        reshaped = make_study(frequencies=(64.0, 70.0))
        with pytest.raises(ConfigurationError, match="different sweep"):
            reshaped.options(options).run()

    def test_resume_with_changed_base_config_raises(self, tmp_path):
        # same grid axes, different base scenario (duration): the config
        # hash must refuse to stitch the stale scores in
        options = RunOptions(checkpoint_path=str(tmp_path / "ckpt.csv"))
        make_study(duration_s=0.05).options(options).run()
        with pytest.raises(ConfigurationError, match="different sweep"):
            make_study(duration_s=0.02).options(options).run()
