"""Tests for the parallel sweep engine and cross-candidate assembly reuse."""

import inspect
import os
from dataclasses import replace

import numpy as np
import pytest

from repro import RunOptions, Study
from repro.analysis.engine import SweepEngine
from repro.analysis.sweep import (
    ParameterSweep,
    average_power_metric,
    sweep_excitation_frequency,
)
from repro.core.elimination import AssemblyStructure
from repro.core.errors import ConfigurationError
from repro.harvester.scenarios import charging_scenario, prepare_assembly
from repro.io.csvio import read_checkpoint


def axes(frequencies=(68.0, 70.0), amplitudes=(0.4, 0.59)):
    return {
        "excitation_frequency_hz": list(frequencies),
        "excitation_amplitude_ms2": list(amplitudes),
    }


def make_study(
    duration_s=0.05, frequencies=(68.0, 70.0), amplitudes=(0.4, 0.59), **options
):
    """A 2x2 average-power sweep of the charging scenario."""
    return (
        Study.scenario(charging_scenario(duration_s=duration_s))
        .options(RunOptions(**options))
        .sweep(
            axes(frequencies, amplitudes),
            metric=average_power_metric,
            metric_name="average_power_W",
        )
    )


def proposed_run(scenario, **options):
    """One scenario on the proposed solver, through the facade."""
    return Study.scenario(scenario).options(RunOptions(**options)).run().result


class TestPreparedAssemblyReuse:
    def test_prepared_assembly_matches_cold_solve(self):
        """A reused structure must give the same SimulationResult as a cold one."""
        scenario = charging_scenario(duration_s=0.05)
        structure = prepare_assembly(scenario)
        cold = proposed_run(scenario)
        warm = proposed_run(scenario, assembly_structure=structure)
        assert cold.trace_names() == warm.trace_names()
        for name in cold.trace_names():
            np.testing.assert_array_equal(cold[name].times, warm[name].times)
            np.testing.assert_array_equal(cold[name].values, warm[name].values)
        assert cold.stats.n_steps == warm.stats.n_steps

    def test_structure_is_adopted_for_matching_topology(self):
        scenario = charging_scenario(duration_s=0.05)
        harvester = scenario.build_harvester()
        structure = harvester.assembly_structure
        rebuilt = scenario.build_harvester(assembly_structure=structure)
        assert rebuilt.assembler.structure is structure

    def test_mismatched_structure_is_recomputed_not_adopted(self):
        scenario = charging_scenario(duration_s=0.05)
        harvester = scenario.build_harvester()
        # different topology: no controller changes nothing structural, but a
        # different multiplier stage count changes the state vector length
        from dataclasses import replace

        other_cfg = replace(scenario.config, multiplier_stages=4)
        other = charging_scenario(duration_s=0.05)
        other_harvester = other.build_harvester()
        assert other_harvester.assembler.n_states == harvester.assembler.n_states

        from repro.harvester.system import TunableEnergyHarvester

        smaller = TunableEnergyHarvester(
            config=other_cfg,
            with_controller=False,
            assembly_structure=harvester.assembly_structure,
        )
        assert smaller.assembler.structure is not harvester.assembly_structure
        assert smaller.assembler.n_states == harvester.assembler.n_states - 1

    def test_from_netlist_matches_assembler(self):
        scenario = charging_scenario(duration_s=0.05)
        harvester = scenario.build_harvester()
        structure = AssemblyStructure.from_netlist(harvester.netlist)
        assert structure.signature == harvester.assembly_structure.signature
        assert structure.n_states == harvester.assembler.n_states
        assert structure.n_terminals == harvester.assembler.n_terminals


class TestSweepEngineParity:
    def test_parallel_results_identical_to_serial(self):
        """Scores, parameters and ordering must match bit-for-bit."""
        serial = make_study().run()
        parallel = make_study(n_workers=2).run()
        assert parallel.engine_info.parallel
        assert len(serial.points) == len(parallel.points) == 4
        for a, b in zip(serial.points, parallel.points):
            assert a.parameters == b.parameters
            assert a.score == b.score  # exact float equality, no tolerance
        assert serial.best().parameters == parallel.best().parameters

    def test_engine_serial_matches_direct_single_run(self):
        """The engine's serial path reproduces the plain per-candidate loop."""
        engine_result = make_study(frequencies=(70.0,), amplitudes=(0.59,)).run()
        base = charging_scenario(duration_s=0.05)
        config = base.config.with_excitation(70.0, 0.59)
        direct = average_power_metric(proposed_run(replace(base, config=config)))
        assert engine_result.points[0].score == direct

    def test_deterministic_candidate_ordering(self):
        expected = list(
            ParameterSweep(charging_scenario(duration_s=0.05), axes()).candidates()
        )
        result = make_study(n_workers=2).run()
        assert [dict(p.parameters) for p in result.points] == expected

    def test_non_picklable_metric_falls_back_to_serial(self):
        study = (
            Study.scenario(charging_scenario(duration_s=0.05))
            .options(RunOptions(n_workers=2))
            .sweep(
                {"excitation_frequency_hz": [69.0, 70.0]},
                metric=lambda result: float(result["storage_voltage"].final()),
                metric_name="final_voltage_V",
            )
        )
        with pytest.warns(UserWarning, match="falling back to serial"):
            result = study.run()
        assert not result.engine_info.parallel
        assert len(result.points) == 2


    def test_invalid_worker_count_rejected(self):
        # the engine re-checks nothing: invalid knobs never reach it
        with pytest.raises(ConfigurationError):
            make_study(n_workers=0)
        with pytest.raises(ConfigurationError):
            make_study(n_workers=2, relinearise_interval=0)

    @pytest.mark.parametrize("backend", ["process", "batched"])
    def test_direct_engine_agrees_with_study(self, backend):
        options = RunOptions(backend=backend)
        sweep = ParameterSweep(
            charging_scenario(duration_s=0.05),
            axes(),
            metric=average_power_metric,
            metric_name="average_power_W",
        )
        engine = SweepEngine(options).run(sweep)
        facade = make_study(backend=backend).run()
        assert [dict(p.parameters) for p in engine.points] == [
            dict(p.parameters) for p in facade.points
        ]
        assert [p.score for p in engine.points] == [p.score for p in facade.points]
        assert engine.engine_info.backend == facade.engine_info.backend == backend

    def test_engine_is_built_from_options_alone(self):
        assert list(inspect.signature(SweepEngine).parameters) == ["options"]
        options = RunOptions.batched(n_workers=2)
        engine = SweepEngine(options)
        assert engine.options is options
        assert engine.n_workers == 2

    def test_unset_worker_count_resolves_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert SweepEngine(RunOptions(n_workers=None)).n_workers == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert SweepEngine(RunOptions(n_workers=None)).n_workers == 1


class TestCheckpointResume:
    def test_round_trip_resume_skips_completed(self, tmp_path):
        path = tmp_path / "sweep.csv"
        full = make_study(checkpoint_path=str(path)).run()
        assert full.engine_info.n_evaluated == 4

        resumed = make_study(checkpoint_path=str(path)).run()
        assert resumed.engine_info.n_resumed == 4
        assert resumed.engine_info.n_evaluated == 0
        assert [p.score for p in resumed.points] == [p.score for p in full.points]

    def test_partial_checkpoint_resumes_remaining(self, tmp_path):
        path = tmp_path / "sweep.csv"
        full = make_study(checkpoint_path=str(path)).run()

        # keep the header + magic + first two completed candidates
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:4]))

        resumed = make_study(n_workers=2, checkpoint_path=str(path)).run()
        assert resumed.engine_info.n_resumed == 2
        assert resumed.engine_info.n_evaluated == 2
        assert [p.score for p in resumed.points] == [p.score for p in full.points]

    def test_torn_final_row_is_skipped(self, tmp_path):
        path = tmp_path / "sweep.csv"
        make_study(checkpoint_path=str(path)).run()
        with path.open("a") as handle:
            handle.write("9,0.5")  # torn write: too few cells
        metadata, fieldnames, rows = read_checkpoint(path)
        assert len(rows) == 4  # torn row dropped
        resumed = make_study(checkpoint_path=str(path)).run()
        assert resumed.engine_info.n_resumed == 4

    def test_checkpoint_with_same_names_different_values_rejected(self, tmp_path):
        """A reshaped grid must not silently reuse stale indexed scores."""
        path = tmp_path / "sweep.csv"
        make_study(frequencies=(68.0, 70.0), checkpoint_path=str(path)).run()
        # same parameter names
        reshaped = make_study(frequencies=(75.0, 78.0), checkpoint_path=str(path))
        with pytest.raises(ConfigurationError, match="different sweep"):
            reshaped.run()

    def test_checkpoint_profile_change_rejected(self, tmp_path):
        """Exact and fast-profile scores must not be mixed in one checkpoint."""
        path = tmp_path / "sweep.csv"
        make_study(checkpoint_path=str(path)).run()
        with pytest.raises(ConfigurationError, match="different sweep"):
            make_study(checkpoint_path=str(path), relinearise_interval=4).run()

    def test_checkpoint_of_different_sweep_rejected(self, tmp_path):
        path = tmp_path / "sweep.csv"
        make_study(checkpoint_path=str(path)).run()
        other = (
            Study.scenario(charging_scenario(duration_s=0.05))
            .options(RunOptions(checkpoint_path=str(path)))
            .sweep(
                {"excitation_frequency_hz": [70.0]},
                metric=average_power_metric,
                metric_name="other_metric",
            )
        )
        with pytest.raises(ConfigurationError, match="different sweep"):
            other.run()

    def test_checkpoint_of_different_base_scenario_content_rejected(self, tmp_path):
        """Same name, duration and topology, 3x the excitation: no resume."""
        path = str(tmp_path / "sweep.csv")
        grid = {"initial_storage_voltage_v": [0.5, 1.0]}
        base = charging_scenario(duration_s=0.02)
        Study.scenario(base).options(checkpoint_path=path).sweep(grid).run()
        excitation = base.config.excitation
        louder = replace(
            base,
            config=base.config.with_excitation(
                excitation.frequency_hz, 3.0 * excitation.amplitude_ms2
            ),
        )
        with pytest.raises(ConfigurationError, match="different sweep"):
            Study.scenario(louder).options(checkpoint_path=path).sweep(grid).run()

    def test_progress_callback_reports_best(self, tmp_path):
        seen = []
        make_study(
            progress=lambda done, total, best: seen.append((done, total, best.score))
        ).run()
        assert [s[0] for s in seen] == [1, 2, 3, 4]
        assert all(s[1] == 4 for s in seen)
        # best-so-far score is monotonically non-decreasing
        scores = [s[2] for s in seen]
        assert scores == sorted(scores)


class TestFastProfile:
    def test_relinearise_hold_scores_close_and_ranking_stable(self):
        exact = make_study(duration_s=0.08).run()
        fast = make_study(duration_s=0.08, relinearise_interval=3).run()
        assert fast.engine_info.relinearise_interval == 3
        for a, b in zip(fast.points, exact.points):
            assert a.score == pytest.approx(b.score, rel=0.15)
        assert fast.best().parameters == exact.best().parameters

    def test_hold_metadata_reported_by_solver(self):
        scenario = charging_scenario(duration_s=0.05)
        from repro.harvester.scenarios import scenario_solver_settings

        settings = replace(scenario_solver_settings(scenario), relinearise_interval=4)
        result = proposed_run(scenario, settings=settings)
        assert result.metadata["relinearise_interval"] == 4
        assert result.metadata["n_jacobian_reuses"] > 0
        # roughly 3 of 4 steps reuse the held linearisation
        assert result.metadata["n_jacobian_reuses"] >= result.stats.n_steps // 2

    def test_default_interval_has_no_reuses(self):
        scenario = charging_scenario(duration_s=0.05)
        result = proposed_run(scenario)
        assert result.metadata["relinearise_interval"] == 1
        assert result.metadata["n_jacobian_reuses"] == 0


class TestConvenienceWrappers:
    def test_sweep_excitation_frequency_parallel(self):
        scenario = charging_scenario(duration_s=0.05)
        result = sweep_excitation_frequency(
            scenario, [69.0, 70.0, 71.0], n_workers=2
        )
        assert len(result.points) == 3
        serial = sweep_excitation_frequency(scenario, [69.0, 70.0, 71.0])
        assert [p.score for p in result.points] == [p.score for p in serial.points]
