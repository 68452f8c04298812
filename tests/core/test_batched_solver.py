"""Batched lock-step solver: byte-identity, retirement and guard rails."""

from dataclasses import replace

import numpy as np
import pytest

from repro import RunOptions, Study
from repro.core.batch import BatchedSolver
from repro.core.errors import (
    ConfigurationError,
    SingularSystemError,
    StabilityError,
)
from repro.harvester.scenarios import (
    charging_scenario,
    prepare_assembly,
    scenario_solver_settings,
)
from repro.harvester.topologies import piezoelectric_scenario


def proposed_run(scenario, settings):
    """One scenario on the scalar proposed solver, through the facade."""
    return (
        Study.scenario(scenario).options(RunOptions(settings=settings)).run().result
    )


def _lane_scenarios(duration_s=0.02):
    return [
        charging_scenario(duration_s=duration_s, frequency_hz=f)
        for f in (66.0, 70.0, 75.0)
    ]


def _batched_run(scenarios, settings_list):
    structure = prepare_assembly(scenarios[0])
    harvesters = [
        s.build_harvester(assembly_structure=structure) for s in scenarios
    ]
    solver = BatchedSolver(
        [h.assembler for h in harvesters], settings=settings_list
    )
    for i, harvester in enumerate(harvesters):
        harvester._wire(solver.lane_wiring(i))
    return solver.run([s.duration_s for s in scenarios])


def _assert_traces_identical(reference, result, context=""):
    assert sorted(reference.traces) == sorted(result.traces)
    for name in reference.traces:
        ref, got = reference[name], result[name]
        assert np.array_equal(ref.times, got.times), f"{context}{name}: times differ"
        assert np.array_equal(ref.values, got.values), (
            f"{context}{name}: values differ"
        )


class TestFixedStepByteIdentity:
    def test_paper_topology_lanes_match_serial_runs_exactly(self):
        scenarios = _lane_scenarios()
        settings_list = [
            replace(scenario_solver_settings(s), fixed_step=1e-4)
            for s in scenarios
        ]
        serial = [
            proposed_run(s, st)
            for s, st in zip(scenarios, settings_list)
        ]
        batch = _batched_run(scenarios, settings_list)
        assert not batch.failures
        for i, (ref, got) in enumerate(zip(serial, batch.results)):
            _assert_traces_identical(ref, got, context=f"lane {i} ")
            assert got.metadata["batched"] is True
            assert got.metadata["lane_index"] == i

    def test_hold_interval_lanes_match_serial_runs_exactly(self):
        # relinearise_interval > 1 keeps a shared step-count schedule, so
        # byte-identity must survive the amortised profile too
        scenarios = _lane_scenarios()
        settings_list = [
            replace(
                scenario_solver_settings(s),
                fixed_step=1e-4,
                relinearise_interval=4,
            )
            for s in scenarios
        ]
        serial = [
            proposed_run(s, st)
            for s, st in zip(scenarios, settings_list)
        ]
        batch = _batched_run(scenarios, settings_list)
        assert not batch.failures
        for ref, got in zip(serial, batch.results):
            _assert_traces_identical(ref, got)

    def test_spec_backed_topology_matches_serial_runs_exactly(self):
        scenarios = [
            piezoelectric_scenario(duration_s=0.01, excitation_frequency_hz=f)
            for f in (60.0, 70.0)
        ]
        settings_list = [
            replace(s.solver_settings(), fixed_step=5e-5) for s in scenarios
        ]
        serial = [
            proposed_run(s, st)
            for s, st in zip(scenarios, settings_list)
        ]
        batch = _batched_run(scenarios, settings_list)
        assert not batch.failures
        for ref, got in zip(serial, batch.results):
            _assert_traces_identical(ref, got)


class TestAdaptiveSharedStep:
    def test_scores_close_and_stats_populated(self):
        scenarios = _lane_scenarios(duration_s=0.05)
        settings_list = [scenario_solver_settings(s) for s in scenarios]
        serial = [
            proposed_run(s, st)
            for s, st in zip(scenarios, settings_list)
        ]
        batch = _batched_run(scenarios, settings_list)
        assert not batch.failures
        for ref, got in zip(serial, batch.results):
            ref_v = ref["storage_voltage"].final()
            got_v = got["storage_voltage"].final()
            assert got_v == pytest.approx(ref_v, rel=0.1)
            assert got.stats.n_accepted_steps > 10
            assert got.stats.final_time == pytest.approx(0.05)

    def test_solver_is_reusable_after_lane_retirement(self):
        # retiring lanes mid-march must not corrupt the solver object:
        # a second run() on the same instance has to see all lanes again
        scenarios = [
            charging_scenario(duration_s=d, frequency_hz=70.0)
            for d in (0.01, 0.02)
        ]
        structure = prepare_assembly(scenarios[0])
        harvesters = [
            s.build_harvester(assembly_structure=structure) for s in scenarios
        ]
        solver = BatchedSolver(
            [h.assembler for h in harvesters],
            settings=[scenario_solver_settings(s) for s in scenarios],
        )
        first = solver.run([0.01, 0.02])
        second = solver.run([0.01, 0.02])
        assert not first.failures and not second.failures
        for a, b in zip(first.results, second.results):
            assert a.stats.n_accepted_steps == b.stats.n_accepted_steps

    def test_stats_counters_match_scalar_run(self):
        # the initial consistency solve counts only as a linear solve,
        # exactly like the scalar solver's bookkeeping
        scenario = charging_scenario(duration_s=0.01, frequency_hz=70.0)
        settings = replace(scenario_solver_settings(scenario), fixed_step=1e-4)
        scalar = proposed_run(scenario, settings)
        batch = _batched_run([scenario], [settings])
        stats = batch.results[0].stats
        assert stats.n_jacobian_evaluations == scalar.stats.n_jacobian_evaluations
        assert stats.n_linear_solves == scalar.stats.n_linear_solves
        assert stats.n_accepted_steps == scalar.stats.n_accepted_steps

    def test_per_lane_end_times_retire_lanes_in_order(self):
        scenarios = [
            charging_scenario(duration_s=d, frequency_hz=70.0)
            for d in (0.01, 0.03)
        ]
        structure = prepare_assembly(scenarios[0])
        harvesters = [
            s.build_harvester(assembly_structure=structure) for s in scenarios
        ]
        solver = BatchedSolver(
            [h.assembler for h in harvesters],
            settings=[scenario_solver_settings(s) for s in scenarios],
        )
        batch = solver.run([0.01, 0.03])
        assert not batch.failures
        assert batch.results[0].stats.final_time == pytest.approx(0.01)
        assert batch.results[1].stats.final_time == pytest.approx(0.03)
        assert (
            batch.results[1].stats.n_accepted_steps
            > batch.results[0].stats.n_accepted_steps
        )


class TestLaneRetirement:
    def test_diverging_lane_is_retired_and_the_rest_survive(self):
        scenarios = _lane_scenarios()
        settings_list = [
            replace(scenario_solver_settings(s), fixed_step=1e-4)
            for s in scenarios
        ]
        # an absurdly tight divergence limit trips the guard on lane 1 only
        settings_list[1] = replace(settings_list[1], divergence_limit=1e-9)
        serial = [
            proposed_run(s, st)
            for s, st in (
                (scenarios[0], settings_list[0]),
                (scenarios[2], settings_list[2]),
            )
        ]
        batch = _batched_run(scenarios, settings_list)
        assert set(batch.failures) == {1}
        assert isinstance(batch.failures[1], StabilityError)
        assert batch.results[1] is None
        _assert_traces_identical(serial[0], batch.results[0])
        _assert_traces_identical(serial[1], batch.results[2])

    def test_all_lanes_diverging_returns_only_failures(self):
        scenarios = _lane_scenarios()
        settings_list = [
            replace(
                scenario_solver_settings(s),
                fixed_step=1e-4,
                divergence_limit=1e-9,
            )
            for s in scenarios
        ]
        batch = _batched_run(scenarios, settings_list)
        assert set(batch.failures) == {0, 1, 2}
        assert all(result is None for result in batch.results)


class TestGuardRails:
    def test_mixed_fixed_step_is_rejected(self):
        scenarios = _lane_scenarios()
        settings_list = [scenario_solver_settings(s) for s in scenarios]
        settings_list[0] = replace(settings_list[0], fixed_step=1e-4)
        with pytest.raises(ConfigurationError, match="fixed_step"):
            _batched_run(scenarios, settings_list)

    def test_mixed_relinearise_interval_is_rejected(self):
        scenarios = _lane_scenarios()
        settings_list = [scenario_solver_settings(s) for s in scenarios]
        settings_list[0] = replace(settings_list[0], relinearise_interval=4)
        with pytest.raises(ConfigurationError, match="relinearise_interval"):
            _batched_run(scenarios, settings_list)

    def test_monitor_lle_is_rejected(self):
        scenarios = _lane_scenarios()
        settings_list = [
            replace(scenario_solver_settings(s), monitor_lle=True)
            for s in scenarios
        ]
        with pytest.raises(ConfigurationError, match="monitor_lle"):
            _batched_run(scenarios, settings_list)

    def test_fixed_step_requires_shared_t_end(self):
        scenarios = _lane_scenarios()
        settings_list = [
            replace(scenario_solver_settings(s), fixed_step=1e-4)
            for s in scenarios
        ]
        structure = prepare_assembly(scenarios[0])
        harvesters = [
            s.build_harvester(assembly_structure=structure) for s in scenarios
        ]
        solver = BatchedSolver(
            [h.assembler for h in harvesters], settings=settings_list
        )
        with pytest.raises(ConfigurationError, match="shared t_end"):
            solver.run([0.01, 0.02, 0.03])

    def test_mismatched_topologies_are_rejected(self):
        charging = charging_scenario(duration_s=0.01)
        piezo = piezoelectric_scenario(duration_s=0.01)
        with pytest.raises(ConfigurationError, match="topology"):
            BatchedSolver(
                [
                    charging.build_harvester().assembler,
                    piezo.build_harvester().assembler,
                ]
            )

    def test_singular_lane_is_blamed_not_the_batch(self):
        # voltage-pinning load against a zero-series-resistance source is
        # the documented singular wiring; build it via a degenerate
        # supercapacitor lane whose Jyy row vanishes is hard to fabricate
        # from stock blocks, so exercise the error type directly instead
        from repro.core.block import LinearBlock
        from repro.core.elimination import BatchedAssembler, SystemAssembler
        from repro.core.netlist import Netlist

        def make(d_value):
            source = LinearBlock(
                "src",
                a=np.array([[-1.0]]),
                b=np.array([[1.0]]),
                state_names=("s",),
                terminal_names=("p",),
                c=np.array([[1.0]]),
                d=np.array([[d_value]]),
            )
            sink = LinearBlock(
                "sink",
                a=np.array([[-2.0]]),
                b=np.array([[0.5]]),
                state_names=("w",),
                terminal_names=("p",),
            )
            netlist = Netlist()
            netlist.add_block(source)
            netlist.add_block(sink)
            netlist.connect(source.terminal("p"), sink.terminal("p"))
            return SystemAssembler(netlist)

        healthy = make(1.0)
        singular = make(0.0)  # Jyy == [[0]]: no equation pins the net
        batched = BatchedAssembler([healthy, singular])
        x = np.zeros((2, 2))
        y = np.zeros((2, 1))
        lin = batched.assemble(0.0, x, y)
        with pytest.raises(SingularSystemError) as excinfo:
            batched.eliminate(lin, x)
        assert excinfo.value.lane_indices == (1,)
