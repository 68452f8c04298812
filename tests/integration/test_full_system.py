"""End-to-end integration tests of the complete harvester model.

These tests run short simulated windows (fractions of a second) so the
whole suite stays fast while still exercising every block, the digital
controller and all three solver families on the assembled system.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RunOptions, Study
from repro.analysis.power import average_power
from repro.analysis.waveforms import compare_traces
from repro.baselines.implicit_solver import ImplicitSolverSettings
from repro.baselines.reference import ReferenceSolver, ReferenceSolverSettings
from repro.core.integrators import AdamsBashforth, RungeKutta4
from repro.harvester.config import paper_harvester
from repro.harvester.scenarios import charging_scenario, scenario_1
from repro.harvester.system import TunableEnergyHarvester


def proposed_run(scenario, **options):
    """One scenario on the proposed solver, through the facade."""
    return Study.scenario(scenario).options(RunOptions(**options)).run().result


@pytest.fixture(scope="module")
def short_charging_result():
    """One shared short charging run used by several assertions."""
    return proposed_run(charging_scenario(duration_s=0.4))


class TestProposedSolverOnFullSystem:
    def test_charging_run_is_physical(self, short_charging_result):
        result = short_charging_result
        # every recorded waveform stays finite
        for name in result.trace_names():
            assert np.all(np.isfinite(result[name].values)), name
        # the generator oscillates and delivers positive average power
        power = average_power(result["generator_power"], 0.2, 0.4)
        assert power > 1e-6
        # the storage element charges (slowly) and never goes negative
        storage = result["storage_voltage"].values
        assert storage[-1] > storage[0]
        assert np.min(storage) >= -1e-6

    def test_displacement_stays_in_sub_millimetre_range(self, short_charging_result):
        z = short_charging_result["generator.z"].values
        assert np.max(np.abs(z)) < 5e-3

    def test_step_size_resolves_the_vibration_period(self, short_charging_result):
        stats = short_charging_result.stats
        assert stats.max_step <= 1.0 / (40 * 70.0) + 1e-12
        assert stats.n_accepted_steps > 500

    def test_rk4_and_ab3_agree(self):
        scenario = charging_scenario(duration_s=0.15)
        ab = proposed_run(scenario, integrator=AdamsBashforth(order=3))
        rk = proposed_run(scenario, integrator=RungeKutta4())
        comparison = compare_traces(ab["multiplier.Vin"], rk["multiplier.Vin"])
        assert comparison.normalised_rms_error < 0.05

    def test_matches_scipy_reference(self):
        scenario = charging_scenario(duration_s=0.2)
        proposed = proposed_run(scenario)
        reference = (
            Study.scenario(scenario)
            .solver(
                "reference",
                settings=ReferenceSolverSettings(rtol=1e-7, atol=1e-9, max_step=5e-4),
            )
            .run()
            .result
        )
        for trace_name in ("generator.z", "multiplier.Vin", "storage_voltage"):
            comparison = compare_traces(reference[trace_name], proposed[trace_name])
            assert comparison.normalised_rms_error < 0.08, trace_name
        # correlation of the oscillating input voltage should be high
        assert compare_traces(
            reference["multiplier.Vin"], proposed["multiplier.Vin"]
        ).correlation > 0.98


class TestClosedLoopTuning:
    def test_scenario_1_retunes_the_generator(self):
        result = proposed_run(scenario_1(duration_s=2.0, shift_time_s=0.3))
        assert result.metadata["n_tunings_completed"] >= 1
        assert result["resonant_frequency"].final() == pytest.approx(71.0, abs=0.3)
        assert result["ambient_frequency"].final() == pytest.approx(71.0)
        # the load resistance returned to the sleep value at the end
        assert result["load_resistance"].final() == pytest.approx(1e9)

    def test_controller_does_nothing_when_storage_is_empty(self):
        config = paper_harvester().with_initial_storage_voltage(0.5)
        scenario = scenario_1(duration_s=1.3, shift_time_s=0.2)
        scenario = type(scenario)(
            name=scenario.name,
            description=scenario.description,
            config=config.with_excitation(70.0),
            duration_s=scenario.duration_s,
            frequency_steps=scenario.frequency_steps,
            with_controller=True,
        )
        result = proposed_run(scenario)
        assert result.metadata["n_tunings_completed"] == 0
        assert result["resonant_frequency"].final() == pytest.approx(70.0, abs=0.1)


class TestBaselineComparison:
    def test_newton_raphson_baseline_agrees_and_is_slower(self):
        scenario = charging_scenario(duration_s=0.04)
        proposed = proposed_run(scenario)
        baseline = (
            Study.scenario(scenario)
            .solver(
                "baseline",
                settings=ImplicitSolverSettings(step_size=2e-4, record_interval=1e-3),
            )
            .run()
            .result
        )
        comparison = compare_traces(baseline["multiplier.Vin"], proposed["multiplier.Vin"])
        assert comparison.normalised_rms_error < 0.1
        # normalised CPU cost: the proposed technique must win clearly
        proposed_cost = proposed.stats.cpu_time_s / proposed.stats.final_time
        baseline_cost = baseline.stats.cpu_time_s / baseline.stats.final_time
        assert baseline_cost > 3.0 * proposed_cost

    def test_reference_solver_mirrors_probe_api(self):
        harvester = TunableEnergyHarvester(with_controller=False)
        solver = ReferenceSolver(
            harvester.assembler,
            settings=ReferenceSolverSettings(max_step=1e-3, record_interval=2e-3),
        )
        harvester._wire(solver)
        result = solver.run(0.02)
        assert "generator_power" in result.traces
        assert solver.current_time == pytest.approx(0.02)


class TestScalingProperties:
    @given(st.floats(min_value=0.2, max_value=1.2))
    @settings(max_examples=3, deadline=None)
    def test_output_scales_with_excitation_amplitude(self, amplitude):
        """Larger excitation never produces less generator output voltage."""
        config = paper_harvester().with_excitation(70.0, amplitude)
        scenario = charging_scenario(duration_s=0.1)
        scenario = type(scenario)(
            name="scaled",
            description="",
            config=config.with_initial_storage_voltage(0.0),
            duration_s=0.1,
            frequency_steps=(),
            with_controller=False,
        )
        result = proposed_run(scenario)
        peak = float(np.max(np.abs(result["multiplier.Vin"].values)))
        baseline_config = paper_harvester().with_excitation(70.0, 0.1)
        baseline_scenario = type(scenario)(
            name="baseline",
            description="",
            config=baseline_config.with_initial_storage_voltage(0.0),
            duration_s=0.1,
            frequency_steps=(),
            with_controller=False,
        )
        baseline_peak = float(
            np.max(np.abs(proposed_run(baseline_scenario)["multiplier.Vin"].values))
        )
        assert peak >= baseline_peak * 0.9
