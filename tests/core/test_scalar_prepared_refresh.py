"""Scalar march on the one-lane prepared refresh: the byte-identity contract.

``LinearisedStateSpaceSolver.run`` refreshes through a one-lane prepared
``BatchedAssembler`` workspace and re-binds it after every digital action
that changes the model.  The oracle is a solver whose refresh is the
stateless ``SystemAssembler.reduce``: every trace sample, every
``SolverStats`` field and the run metadata must be equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.api.experiment import SCENARIO_FACTORIES
from repro.blocks.diode import DiodeParameters, build_diode_companion_table
from repro.blocks.voltage_multiplier import DicksonMultiplier
from repro.core.block import BatchedLinearisation
from repro.core.digital import DigitalEventKernel, DigitalProcess
from repro.core.elimination import BatchedAssembler
from repro.core.solver import LinearisedStateSpaceSolver, SolverSettings
from repro.harvester.scenarios import charging_scenario, scenario_solver_settings

from .test_batched_refresh import ELIMINATION, count_solves

#: simulated seconds per factory: the closed loops run past the scaled
#: controller's load switches (0, 0.2, 1.2 and 1.4 s) and its first
#: tuning-force write (1.403 s on scenario 1, the 1.5 s poll on scenario 2)
DURATIONS = {
    "scenario_1": 1.45,
    "scenario_2": 1.55,
    "charging": 0.2,
    "piezoelectric_charging": 0.1,
    "electrostatic_charging": 0.05,
}

FIELDS = ("jxx", "jxy", "ex", "jyx", "jyy", "ey")


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


class _StatelessSolver(LinearisedStateSpaceSolver):
    """The oracle: every refresh is a stateless assembly of the live model."""

    def _refresh(self, workspace):
        return self.assembler.reduce(self._t, self._x, self._y)


def _run(scenario, *, solver_cls=LinearisedStateSpaceSolver, settings=None, kernel=None):
    harvester = scenario.build_harvester()
    solver = solver_cls(
        harvester.assembler,
        settings=settings or scenario_solver_settings(scenario),
        digital_kernel=kernel or harvester._build_kernel(),
    )
    harvester._wire(solver)
    return solver.run(scenario.duration_s), harvester, solver


def _assert_runs_identical(reference, result):
    assert sorted(reference.traces) == sorted(result.traces)
    for name in reference.traces:
        assert _bits(reference[name].times) == _bits(result[name].times), name
        assert _bits(reference[name].values) == _bits(result[name].values), name
    ref_stats = reference.stats.as_dict()
    got_stats = result.stats.as_dict()
    ref_stats.pop("cpu_time_s")
    got_stats.pop("cpu_time_s")
    assert ref_stats == got_stats
    assert reference.metadata == result.metadata


class TestScalarPreparedRefreshOracle:
    def test_covers_every_scenario_factory(self):
        assert sorted(DURATIONS) == sorted(SCENARIO_FACTORIES)

    @pytest.mark.parametrize("name", sorted(DURATIONS))
    def test_prepared_march_matches_stateless_assembly(self, name):
        def scenario():
            return SCENARIO_FACTORIES[name](duration_s=DURATIONS[name])

        reference, _, _ = _run(scenario(), solver_cls=_StatelessSolver)
        result, harvester, _ = _run(scenario())
        _assert_runs_identical(reference, result)
        if name.startswith("scenario_"):
            # the run really crossed model-changing digital actions
            assert result.metadata["digital_activations"] >= 5
            assert harvester.generator.tuning_force > 0.0

    def test_held_refresh_with_drift_guard_matches(self):
        scenario = charging_scenario(duration_s=0.1)
        base = scenario_solver_settings(scenario)
        held = SolverSettings(
            step_control=base.step_control,
            record_interval=base.record_interval,
            relinearise_interval=4,
            relinearise_state_rtol=1e-3,
        )
        reference, _, _ = _run(scenario, solver_cls=_StatelessSolver, settings=held)
        result, _, _ = _run(charging_scenario(duration_s=0.1), settings=held)
        assert result.metadata["n_jacobian_reuses"] > 0
        _assert_runs_identical(reference, result)


class TestHeldEliminationScalarMarch:
    """The scalar march solves Eq. (4) once per bind, not once per step."""

    def test_one_factorisation_per_bind(self, monkeypatch):
        changes = []
        run_due = DigitalEventKernel.run_due

        def recording_run_due(self, t, analogue):
            changed = run_due(self, t, analogue)
            changes.append(changed)
            return changed

        monkeypatch.setattr(DigitalEventKernel, "run_due", recording_run_due)
        counts = count_solves(monkeypatch)
        result, _, _ = _run(SCENARIO_FACTORIES["scenario_1"](duration_s=1.6))
        n_binds = 1 + sum(changes)
        assert sum(changes) >= 5
        assert counts[ELIMINATION] == n_binds
        # the Adams-Bashforth weights are solved once per step pattern
        assert counts["repro.core.integrators.adams_bashforth"] <= 50
        assert result.stats.n_steps > 10_000
        # n_linear_solves keeps counting one elimination per refresh
        assert result.stats.n_linear_solves == result.stats.n_jacobian_evaluations + 1

    def test_unprepared_algebraic_group_keeps_per_refresh_solve(self, monkeypatch):
        scenario = SCENARIO_FACTORIES["piezoelectric_charging"](duration_s=0.02)
        workspace = BatchedAssembler([scenario.build_harvester().assembler])
        workspace.prepare()
        assert not workspace.holds_elimination
        counts = count_solves(monkeypatch)
        result, _, _ = _run(scenario)
        # every refresh plus the final consistency solve
        assert counts[ELIMINATION] == result.stats.n_linear_solves + 1


class _Writer(DigitalProcess):
    """Writes one analogue control at each scheduled time."""

    def __init__(self, writes):
        super().__init__("writer", start_time=writes[0][0])
        self._writes = list(writes)

    def execute(self, t, analogue):
        _, control, value = self._writes.pop(0)
        analogue.write(control, value)
        return self._writes[0][0] - t if self._writes else None


class _CheckedSolver(LinearisedStateSpaceSolver):
    """Checks every refresh against a stateless assembly of the live model."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.refresh_log = []

    def _refresh(self, workspace):
        reduced = super()._refresh(workspace)
        fresh = self.assembler.reduce(self._t, self._x, self._y)
        assert _bits(reduced.a_reduced) == _bits(fresh.a_reduced), self._t
        assert _bits(reduced.b_reduced) == _bits(fresh.b_reduced), self._t
        self.refresh_log.append(
            (self._t, self._x.copy(), self._y.copy(), reduced.a_reduced.copy())
        )
        return reduced


class TestScalarPreparedRefreshRebind:
    def test_digital_writes_reach_the_very_next_refresh(self):
        # charging has no controller: this kernel's writes are the only
        # model changes, to constants the prepared linearisers hold
        writes = [
            (0.004, "tuning_force", 2.0),
            (0.008, "load_resistance", 50.0),
            (0.012, "tuning_force", 0.5),
        ]
        kernel = DigitalEventKernel()
        kernel.add_process(_Writer(writes))
        result, harvester, solver = _run(
            charging_scenario(duration_s=0.016),
            kernel=kernel,
            solver_cls=_CheckedSolver,
        )
        assert result.metadata["digital_activations"] == len(writes)

        # every refresh matched the stateless assembly of the live model
        # (checked in _CheckedSolver); the check is not vacuous: at the
        # first refresh after each write, the model with the written
        # constant still at its old value reduces differently
        blocks = {"tuning_force": harvester.generator, "load_resistance": harvester.storage}
        initial = charging_scenario().build_harvester()
        live = {
            "tuning_force": initial.generator.tuning_force,
            "load_resistance": initial.storage.load_resistance,
        }
        log = solver.refresh_log
        times = np.array([entry[0] for entry in log])
        for t_write, control, value in writes:
            after = int(np.searchsorted(times, t_write - 1e-15))
            assert 0 < after < len(log)
            t, x, y, a_reduced = log[after]
            stale = dict(live)
            live[control] = value
            for model, expected in ((live, True), (stale, False)):
                for name, setting in model.items():
                    blocks[name].apply_control(name, setting)
                reduced = harvester.assembler.reduce(t, x, y)
                assert (_bits(reduced.a_reduced) == _bits(a_reduced)) is expected


# ---------------------------------------------------------------------- #
# the loop-free prepared multiplier lineariser
# ---------------------------------------------------------------------- #
TABLES = [
    build_diode_companion_table(DiodeParameters(saturation_current_a=i_s))
    for i_s in (1e-8, 3e-9, 2e-7)
]


@st.composite
def multiplier_lanes(draw):
    # the block rejects fewer than 2 stages; the pump pattern is drawn
    # freely (including a pumped output stage) to exercise every
    # input-node term sequence
    n = draw(st.integers(min_value=2, max_value=6))
    pump = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    b = draw(st.integers(min_value=1, max_value=3))
    shared = draw(st.booleans())
    lanes = []
    for i in range(b):
        lane = DicksonMultiplier(
            n_stages=n,
            stage_capacitance_f=draw(
                st.lists(st.floats(1e-7, 1e-3), min_size=n, max_size=n)
            ),
            output_capacitance_f=None,
            input_capacitance_f=draw(st.floats(1e-8, 1e-6)),
            companion_table=TABLES[0] if shared else TABLES[i],
        )
        lane._pump_active = list(pump)
        lane._pump_flags = np.array(pump, dtype=float)
        lane._vd_coefficients = lane._diode_voltage_coefficients()
        lanes.append(lane)
    x = draw(
        hnp.arrays(
            np.float64,
            (b, n + 1),
            elements=st.floats(-12.0, 12.0) | st.floats(-0.8, 0.8),
        )
    )
    return lanes, x


class TestScalarPreparedRefreshMultiplier:
    @given(multiplier_lanes())
    @settings(max_examples=150, deadline=None)
    def test_loop_free_lineariser_is_bitwise_equal(self, drawn):
        lanes, x = drawn
        y = np.zeros((len(lanes), 4))
        prepared = lanes[0].batched_lineariser(lanes)
        fast = prepared.lineariser(0.0, x, y)
        batched = lanes[0].linearise_batch(lanes, 0.0, x, y)
        scalar = BatchedLinearisation.stack(
            [lane.linearise(0.0, x[i], y[i]) for i, lane in enumerate(lanes)]
        )
        for field in FIELDS:
            assert _bits(getattr(fast, field)) == _bits(getattr(batched, field)), field
            assert _bits(getattr(fast, field)) == _bits(getattr(scalar, field)), field
