"""Batched march kernels: backend resolution, byte-identity, guards."""

import re
from dataclasses import replace

import numpy as np
import pytest

from repro.core import kernels
from repro.core.batch import BatchedSolver, BatchResult
from repro.core.block import LinearBlock
from repro.core.elimination import SystemAssembler
from repro.core.errors import ConfigurationError, StabilityError
from repro.core.kernels import (
    available_backends,
    batched_state_norms,
    resolve_compiled,
)
from repro.core.netlist import Netlist
from repro.core.solver import LinearisedStateSpaceSolver, SolverSettings
from repro.harvester.scenarios import (
    charging_scenario,
    prepare_assembly,
    scenario_1,
    scenario_2,
    scenario_solver_settings,
)
from repro.harvester.topologies import (
    electrostatic_scenario,
    piezoelectric_scenario,
)

# one lane set per SCENARIO_FACTORIES entry (same topology per set, a
# varied parameter across lanes so the stacked march is not degenerate)
LANE_SETS = {
    "scenario_1": lambda: [
        scenario_1(duration_s=0.02, shift_time_s=t) for t in (0.005, 0.01)
    ],
    "scenario_2": lambda: [
        scenario_2(duration_s=0.02, shift_time_s=t) for t in (0.005, 0.01)
    ],
    "charging": lambda: [
        charging_scenario(duration_s=0.02, frequency_hz=f)
        for f in (66.0, 70.0, 75.0)
    ],
    "piezoelectric_charging": lambda: [
        piezoelectric_scenario(duration_s=0.01, excitation_frequency_hz=f)
        for f in (60.0, 70.0)
    ],
    "electrostatic_charging": lambda: [
        electrostatic_scenario(duration_s=0.01, excitation_frequency_hz=f)
        for f in (50.0, 70.0)
    ],
}


def _batched_run(scenarios, settings_list, compiled="off"):
    structure = prepare_assembly(scenarios[0])
    harvesters = [
        s.build_harvester(assembly_structure=structure) for s in scenarios
    ]
    solver = BatchedSolver(
        [h.assembler for h in harvesters],
        settings=settings_list,
        compiled=compiled,
    )
    for i, harvester in enumerate(harvesters):
        harvester._wire(solver.lane_wiring(i))
    return solver.run([s.duration_s for s in scenarios])


def _scalar_batch(scenarios, settings_list):
    """Each lane on the scalar solver: the fixed-step oracle of the march.

    The scalar solver runs without a digital kernel because batched lanes
    are controller-free; a lane whose scalar run diverges is reported as
    a failure, as the batched march retires it.
    """
    results, failures = [], {}
    for i, (scenario, settings) in enumerate(zip(scenarios, settings_list)):
        harvester = scenario.build_harvester()
        solver = LinearisedStateSpaceSolver(harvester.assembler, settings=settings)
        harvester._wire(solver)
        try:
            results.append(solver.run(scenario.duration_s))
        except StabilityError as exc:
            results.append(None)
            failures[i] = exc
    return BatchResult(results=results, failures=failures)


def _assert_batches_identical(reference, result):
    assert set(reference.failures) == set(result.failures)
    for i, (ref, got) in enumerate(zip(reference.results, result.results)):
        assert (ref is None) == (got is None)
        if ref is None:
            continue
        assert sorted(ref.traces) == sorted(got.traces)
        for name in ref.traces:
            assert np.array_equal(ref[name].times, got[name].times), (
                f"lane {i} {name}: times differ"
            )
            assert np.array_equal(ref[name].values, got[name].values), (
                f"lane {i} {name}: values differ"
            )
        for key in (
            "n_steps",
            "n_accepted_steps",
            "n_function_evaluations",
            "n_jacobian_evaluations",
            "n_linear_solves",
            "min_step",
            "max_step",
            "final_time",
        ):
            assert getattr(ref.stats, key) == getattr(got.stats, key), (
                f"lane {i} stats.{key} differs"
            )


def _fixed_settings(scenarios, fixed_step, **overrides):
    return [
        replace(
            scenario_solver_settings(s)
            if hasattr(s, "config")
            else s.solver_settings(),
            fixed_step=fixed_step,
            **overrides,
        )
        for s in scenarios
    ]


def _settings_for(scenario):
    if hasattr(scenario, "config"):
        return scenario_solver_settings(scenario)
    return scenario.solver_settings()


@pytest.mark.parametrize("factory", sorted(LANE_SETS))
@pytest.mark.parametrize("backend", available_backends())
class TestFixedStepByteIdentity:
    def test_backend_matches_scalar_solver_exactly(self, factory, backend):
        scenarios = LANE_SETS[factory]()
        step = 1e-4 if hasattr(scenarios[0], "config") else 5e-5
        settings_list = [
            replace(_settings_for(s), fixed_step=step) for s in scenarios
        ]
        reference = _scalar_batch(scenarios, settings_list)
        result = _batched_run(scenarios, settings_list, compiled=backend)
        assert not reference.failures
        for got in result.results:
            assert got.metadata["compiled"] == backend
        _assert_batches_identical(reference, result)

    def test_hold_interval_matches_scalar_solver_exactly(self, factory, backend):
        # the amortised profile is where the burst kernel actually runs
        # long windows; identity must survive it
        scenarios = LANE_SETS[factory]()
        step = 1e-4 if hasattr(scenarios[0], "config") else 5e-5
        settings_list = [
            replace(_settings_for(s), fixed_step=step, relinearise_interval=8)
            for s in scenarios
        ]
        reference = _scalar_batch(scenarios, settings_list)
        result = _batched_run(scenarios, settings_list, compiled=backend)
        assert not reference.failures
        _assert_batches_identical(reference, result)


def _assert_bursts_match_single_steps(per_step, burst):
    """Every sample and stat of a burst march equals the single-step march.

    ``per_step`` records every step, ``burst`` only at its record
    interval, so each burst sample is looked up at its own time in the
    per-step traces.
    """
    assert set(per_step.failures) == set(burst.failures)
    for i, (ref, got) in enumerate(zip(per_step.results, burst.results)):
        assert (ref is None) == (got is None)
        if ref is None:
            continue
        assert sorted(ref.traces) == sorted(got.traces)
        for name in ref.traces:
            ref_times = np.asarray(ref[name].times)
            got_times = np.asarray(got[name].times)
            rows = np.searchsorted(ref_times, got_times)
            assert np.array_equal(ref_times[rows], got_times), (
                f"lane {i} {name}: burst sample times are not step times"
            )
            assert np.array_equal(
                np.asarray(ref[name].values)[rows], got[name].values
            ), f"lane {i} {name}: values differ"
        ref_stats, got_stats = ref.stats.as_dict(), got.stats.as_dict()
        del ref_stats["cpu_time_s"], got_stats["cpu_time_s"]
        assert ref_stats == got_stats, f"lane {i}: stats differ"
        for key in (
            "n_jacobian_reuses",
            "lle_max_jacobian_change",
            "lle_flagged_steps",
        ):
            assert ref.metadata[key] == got.metadata[key], (
                f"lane {i} metadata {key} differs"
            )


@pytest.mark.parametrize("hold", (1, 4))
@pytest.mark.parametrize("factory", sorted(LANE_SETS))
class TestAdaptiveBurstOracle:
    """Adaptive kernel bursts are bitwise equal to single steps.

    The single-step march is the same loop with ``record_interval=0``:
    a lane that records every step keeps the recorder from ever being
    burst-ready, so no kernel burst runs.
    """

    def test_bursts_match_single_steps_bitwise(self, factory, hold):
        scenarios = LANE_SETS[factory]()
        settings = [
            replace(_settings_for(s), relinearise_interval=hold)
            for s in scenarios
        ]
        assert all(s.record_interval > 0.0 for s in settings)
        burst = _batched_run(scenarios, settings, compiled="numpy")
        per_step = _batched_run(
            LANE_SETS[factory](),
            [replace(s, record_interval=0.0) for s in settings],
            compiled="numpy",
        )
        assert not per_step.failures
        for got in burst.results:
            assert got.metadata["compiled_kernel_time_s"] > 0.0
        for ref in per_step.results:
            assert ref.metadata["compiled_kernel_time_s"] == 0.0
        _assert_bursts_match_single_steps(per_step, burst)


class TestLaneRetirement:
    def test_diverging_lane_is_retired_under_the_compiled_path(self):
        scenarios = LANE_SETS["charging"]()
        settings_list = _fixed_settings(scenarios, 1e-4)
        settings_list[1] = replace(settings_list[1], divergence_limit=1e-9)
        reference = _scalar_batch(scenarios, settings_list)
        result = _batched_run(scenarios, settings_list, compiled="numpy")
        assert set(result.failures) == {1}
        assert result.results[1] is None
        _assert_batches_identical(reference, result)


def _growth_assembler(rate: float) -> SystemAssembler:
    """A linear system whose state norm grows by about ``rate`` per second."""
    grow = LinearBlock(
        "grow",
        a=np.array([[rate, 0.0], [0.0, rate]]),
        b=np.array([[0.0], [0.0]]),
        state_names=("u", "v"),
        terminal_names=("p",),
        c=np.array([[1.0, 0.0]]),
        d=np.array([[1.0]]),
    )
    sink = LinearBlock(
        "sink",
        a=np.array([[-2.0]]),
        b=np.array([[0.5]]),
        state_names=("w",),
        terminal_names=("p",),
    )
    netlist = Netlist()
    netlist.add_block(grow)
    netlist.add_block(sink)
    netlist.connect(grow.terminal("p"), sink.terminal("p"))
    return SystemAssembler(netlist)


def _diverged_at(error: Exception) -> str:
    match = re.search(r"diverged at t=(\S+) ", str(error))
    assert match, str(error)
    return match.group(1)


class TestInBurstDivergence:
    """The numpy kernel checks the divergence guard after every step."""

    STEP = 1e-3
    HOLD = 4
    #: 1-based step after which the growing lane first exceeds its limit:
    #: steps 5-8 form one kernel burst at hold 4, so step 6 is strictly
    #: inside it
    TRIP_STEP = 6

    def _settings(self, divergence_limit=1e12):
        # a record interval longer than the run keeps every burst at
        # its full hold window
        return SolverSettings(
            fixed_step=self.STEP,
            relinearise_interval=self.HOLD,
            record_interval=1.0,
            divergence_limit=divergence_limit,
        )

    def test_lane_retires_at_the_step_that_trips_the_guard(self):
        x0 = np.array([1.0, 1.0, 0.0])
        t_end = 0.02
        probe = LinearisedStateSpaceSolver(
            _growth_assembler(100.0),
            settings=replace(self._settings(), record_interval=0.0),
        )
        traces = probe.run(t_end, x0=x0).traces
        states = [traces[name].values for name in probe.assembler.state_names()]
        norms = np.sqrt(np.sum(np.square(states), axis=0))
        # traces[0] is t=0, so norms[k] is the state after step k
        k = self.TRIP_STEP
        assert norms[k - 1] < norms[k]
        assert self.TRIP_STEP % self.HOLD != 0
        limit = 0.5 * (norms[k - 1] + norms[k])
        tight = self._settings(divergence_limit=limit)

        scalar = LinearisedStateSpaceSolver(_growth_assembler(100.0), settings=tight)
        with pytest.raises(StabilityError) as scalar_error:
            scalar.run(t_end, x0=x0)
        assert float(_diverged_at(scalar_error.value)) == pytest.approx(k * self.STEP)

        solver = BatchedSolver(
            [_growth_assembler(100.0), _growth_assembler(-50.0)],
            settings=[tight, self._settings()],
            compiled="numpy",
        )
        batch = solver.run(t_end, x0=np.tile(x0, (2, 1)))
        assert set(batch.failures) == {0}
        assert isinstance(batch.failures[0], StabilityError)
        assert _diverged_at(batch.failures[0]) == _diverged_at(scalar_error.value)
        survivor = batch.results[1]
        assert survivor.metadata["compiled_kernel_time_s"] > 0.0
        assert survivor.stats.final_time == pytest.approx(t_end)


class TestBackendResolution:
    def test_off_aliases_the_numpy_kernel(self):
        assert resolve_compiled("off") == "numpy"

    def test_numpy_is_always_available(self):
        assert "numpy" in available_backends()
        assert resolve_compiled("numpy") == "numpy"

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown compiled mode"):
            resolve_compiled("cuda")

    def test_solver_rejects_unknown_mode(self):
        scenarios = LANE_SETS["charging"]()[:1]
        structure = prepare_assembly(scenarios[0])
        harvester = scenarios[0].build_harvester(assembly_structure=structure)
        with pytest.raises(ConfigurationError, match="unknown compiled mode"):
            BatchedSolver([harvester.assembler], compiled="cuda")


class TestNoNumbaEnvironment:
    """Behaviour pinned for environments without the compiled extras."""

    @pytest.fixture(autouse=True)
    def no_native_backends(self, monkeypatch):
        monkeypatch.setattr(
            kernels, "_PROBE_CACHE", {"numba": False, "jax": False}
        )
        yield

    def test_auto_degrades_to_the_numpy_kernel(self):
        assert available_backends() == ("numpy",)
        assert resolve_compiled("auto") == "numpy"

    def test_auto_still_runs_and_matches_scalar_solver(self):
        scenarios = LANE_SETS["charging"]()
        settings_list = _fixed_settings(scenarios, 1e-4)
        reference = _scalar_batch(scenarios, settings_list)
        result = _batched_run(scenarios, settings_list, compiled="auto")
        for got in result.results:
            assert got.metadata["compiled"] == "numpy"
        _assert_batches_identical(reference, result)

    @pytest.mark.parametrize("mode", ("numba", "jax"))
    def test_explicit_native_backend_raises_a_clear_error(self, mode):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_compiled(mode)
        message = str(excinfo.value)
        assert mode in message
        assert "repro[compiled]" in message

    def test_run_options_reject_missing_backend_eagerly(self):
        from repro.api import RunOptions

        with pytest.raises(ConfigurationError, match="repro\\[compiled\\]"):
            RunOptions.batched(compiled="numba")


class TestOptionsPlumbing:
    def test_compiled_requires_the_batched_backend(self):
        from repro.api import RunOptions

        with pytest.raises(ConfigurationError, match="incoherent options"):
            RunOptions(compiled="numpy")

    def test_fingerprint_records_the_mode_only_where_results_can_move(self):
        from repro.api import RunOptions
        from repro.core.solver import SolverSettings

        adaptive = RunOptions.batched(compiled="numpy")
        assert adaptive.fingerprint()["compiled"] == "numpy"
        fixed = RunOptions.batched(
            compiled="numpy", settings=SolverSettings(fixed_step=1e-4)
        )
        assert fixed.fingerprint()["compiled"] == "off"
        assert RunOptions.batched().fingerprint()["compiled"] == "off"

    def test_batched_default_runs_the_numpy_kernel(self, monkeypatch):
        from repro.api import RunOptions, Study

        monkeypatch.setattr(
            kernels, "_PROBE_CACHE", {"numba": False, "jax": False}
        )
        result = (
            Study.scenario(charging_scenario(duration_s=0.01))
            .options(RunOptions.batched(n_workers=1))
            .sweep(excitation_frequency_hz=[68.0, 70.0])
            .run()
        )
        assert result.engine_info.n_batched_candidates == 2
        assert result.engine_info.compiled == "off"
        assert result.engine_info.compiled_backend == "numpy"
        assert result.engine_info.kernel_time_s > 0.0

    def test_options_round_trip_keeps_the_mode(self):
        from repro.api import RunOptions

        options = RunOptions.batched(compiled="numpy")
        assert RunOptions.from_dict(options.to_dict()).compiled == "numpy"
        assert "compiled" not in RunOptions.batched().to_dict()


class TestOverflowSafeGuard:
    def test_norms_survive_components_above_1e154(self):
        x = np.array([[1e200, 1e200], [3.0, 4.0], [np.inf, 1.0]])
        norms = batched_state_norms(x)
        assert norms[0] == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-12)
        assert norms[1] == 5.0  # safe range stays the plain expression
        assert np.isinf(norms[2])  # genuinely non-finite states still trip

    def test_large_finite_state_is_not_mislabelled_as_diverged(self):
        # before the fix, sqrt(sum(x*x)) overflowed to inf above ~1e154
        # and the guard retired a lane whose true norm was representable
        from repro.core.block import LinearBlock
        from repro.core.elimination import SystemAssembler
        from repro.core.netlist import Netlist
        from repro.core.solver import SolverSettings

        def make_assembler():
            decay = LinearBlock(
                "decay",
                a=np.array([[-1.0, 0.0], [0.0, -1.0]]),
                b=np.array([[0.0], [0.0]]),
                state_names=("u", "v"),
                terminal_names=("p",),
                c=np.array([[1.0, 0.0]]),
                d=np.array([[1.0]]),
            )
            sink = LinearBlock(
                "sink",
                a=np.array([[-2.0]]),
                b=np.array([[0.5]]),
                state_names=("w",),
                terminal_names=("p",),
            )
            netlist = Netlist()
            netlist.add_block(decay)
            netlist.add_block(sink)
            netlist.connect(decay.terminal("p"), sink.terminal("p"))
            return SystemAssembler(netlist)

        settings = SolverSettings(fixed_step=1e-3, divergence_limit=1e300)
        solver = BatchedSolver([make_assembler()], settings=[settings])
        x0 = np.array([[1e155, 1e155, 0.0]])
        batch = solver.run([0.01], x0=x0)
        assert not batch.failures  # decaying, finite: must not be retired
        assert batch.results[0].stats.final_time == pytest.approx(0.01)
