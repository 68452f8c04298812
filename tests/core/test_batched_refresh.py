"""Batched refresh path: byte-identity, fallbacks, held and fused elimination."""

import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core.batch import BatchedSolver
from repro.core.block import AnalogueBlock, LinearBlock, PreparedBlockLineariser
from repro.core.elimination import BatchedAssembler, SystemAssembler
from repro.core.errors import ConfigurationError, SingularLaneError
from repro.core.kernels import _eliminate_lanes_impl, available_backends
from repro.core.linearise import linearise_block_lanes
from repro.core.netlist import Netlist
from repro.core.solver import SolverSettings
from repro.harvester.scenarios import prepare_assembly, scenario_solver_settings
from repro.harvester.scenarios import charging_scenario
from repro.harvester.topologies import electrostatic_scenario, piezoelectric_scenario

from .test_compiled_kernels import (
    LANE_SETS,
    _assert_batches_identical,
    _fixed_settings,
    _scalar_batch,
    _settings_for,
)
from .test_solver import driven_rc_assembler


def _refresh_run(scenarios, settings_list, compiled="off", perlane=False,
                 t_end=None):
    """Batched march; ``perlane=True`` selects the per-lane refresh oracle."""
    structure = prepare_assembly(scenarios[0])
    harvesters = [
        s.build_harvester(assembly_structure=structure) for s in scenarios
    ]
    solver = BatchedSolver(
        [h.assembler for h in harvesters],
        settings=settings_list,
        compiled=compiled,
        _perlane_refresh=perlane,
    )
    for i, harvester in enumerate(harvesters):
        harvester._wire(solver.lane_wiring(i))
    if t_end is None:
        t_end = [s.duration_s for s in scenarios]
    return solver.run(t_end)


@pytest.mark.parametrize("factory", sorted(LANE_SETS))
class TestFixedStepByteIdentity:
    """The batched refresh is a caching layer, not an alternative model."""

    def test_compiled_batched_matches_perlane_exactly(self, factory):
        scenarios = LANE_SETS[factory]()
        step = 1e-4 if hasattr(scenarios[0], "config") else 5e-5
        settings = _fixed_settings(scenarios, step, relinearise_interval=8)
        reference = _refresh_run(
            LANE_SETS[factory](), settings, compiled="numpy", perlane=True
        )
        result = _refresh_run(LANE_SETS[factory](), settings, compiled="numpy")
        assert not reference.failures
        for got in result.results:
            assert got.metadata["batched_refresh"] is True
        _assert_batches_identical(reference, result)

    def test_drift_guard_matches_perlane_exactly(self, factory):
        scenarios = LANE_SETS[factory]()
        step = 1e-4 if hasattr(scenarios[0], "config") else 5e-5
        settings = _fixed_settings(
            scenarios, step, relinearise_interval=8,
            relinearise_state_rtol=1e-6,
        )
        reference = _refresh_run(
            LANE_SETS[factory](), settings, compiled="numpy", perlane=True
        )
        result = _refresh_run(LANE_SETS[factory](), settings, compiled="numpy")
        assert not reference.failures
        _assert_batches_identical(reference, result)

    def test_default_prepared_refresh_matches_scalar_solver(self, factory):
        # the user default (compiled="off", the numpy kernel) marches on
        # the prepared workspace path, byte for byte the scalar solver
        scenarios = LANE_SETS[factory]()
        step = 1e-4 if hasattr(scenarios[0], "config") else 5e-5
        settings = _fixed_settings(scenarios, step, relinearise_interval=8)
        reference = _scalar_batch(scenarios, settings)
        result = _refresh_run(LANE_SETS[factory](), settings)
        assert not reference.failures
        for got in result.results:
            assert got.metadata["batched_refresh"] is True
        _assert_batches_identical(reference, result)


class TestAdaptiveBursts:
    """Adaptive shared-step runs advance in multi-step kernel bursts."""

    def test_numpy_backend_is_bitwise_reproducible(self):
        # stronger than the documented 10 % tolerance: the prepared
        # refresh feeds adaptive full-window bursts the same reduced
        # models as the per-lane refresh, so the runs stay bitwise
        for factory in sorted(LANE_SETS):
            scenarios = LANE_SETS[factory]()
            settings = [
                replace(_settings_for(s), relinearise_interval=8)
                for s in scenarios
            ]
            reference = _refresh_run(
                LANE_SETS[factory](), settings, compiled="numpy", perlane=True
            )
            result = _refresh_run(
                LANE_SETS[factory](), settings, compiled="numpy"
            )
            assert not reference.failures, factory
            _assert_batches_identical(reference, result)

    @pytest.mark.parametrize("backend", available_backends())
    def test_scores_within_tolerance_on_every_backend(self, backend):
        # cross-backend runs may round differently (fused native
        # arithmetic); scores must stay inside the engine's documented
        # 10 % relative tolerance
        scenarios = LANE_SETS["charging"]()
        settings = [
            replace(_settings_for(s), relinearise_interval=8)
            for s in scenarios
        ]
        reference = _refresh_run(
            LANE_SETS["charging"](), settings, compiled="numpy", perlane=True
        )
        result = _refresh_run(LANE_SETS["charging"](), settings, compiled=backend)
        assert not reference.failures
        for ref, got in zip(reference.results, result.results):
            for name in ref.traces:
                a = np.asarray(ref[name].values)
                b = np.asarray(got[name].values)
                scale = max(float(np.max(np.abs(a))), 1e-30)
                assert float(np.max(np.abs(a[-1] - b[-1]))) <= 0.10 * scale

    def test_adaptive_bursts_actually_engage(self):
        scenarios = LANE_SETS["charging"]()
        settings = [
            replace(_settings_for(s), relinearise_interval=8)
            for s in scenarios
        ]
        result = _refresh_run(LANE_SETS["charging"](), settings, compiled="numpy")
        meta = result.results[0].metadata
        assert meta["compiled_kernel_time_s"] > 0.0
        assert meta["compiled_refresh_time_s"] > 0.0


class TestLaneRetirement:
    """select() must propagate the prepared workspace to compacted clones."""

    def test_perlane_end_times_keep_identity(self):
        scenarios = LANE_SETS["charging"]()
        settings = [
            replace(_settings_for(s), relinearise_interval=8)
            for s in scenarios
        ]
        t_end = [0.008, 0.014, 0.02]
        reference = _refresh_run(
            LANE_SETS["charging"](), settings, compiled="numpy",
            perlane=True, t_end=t_end,
        )
        result = _refresh_run(
            LANE_SETS["charging"](), settings, compiled="numpy", t_end=t_end,
        )
        assert not reference.failures
        _assert_batches_identical(reference, result)

    def test_diverging_lane_retires_identically(self):
        scenarios = LANE_SETS["charging"]()
        settings = _fixed_settings(scenarios, 1e-4, relinearise_interval=8)
        settings[1] = replace(settings[1], divergence_limit=1e-9)
        reference = _refresh_run(
            LANE_SETS["charging"](), settings, compiled="numpy", perlane=True
        )
        result = _refresh_run(LANE_SETS["charging"](), settings, compiled="numpy")
        assert set(result.failures) == {1}
        _assert_batches_identical(reference, result)


# --------------------------------------------------------------------- #
# fallback paths: blocks without (working) batched linearisers
# --------------------------------------------------------------------- #

class _UnpreparedBlock(LinearBlock):
    """A block that opts out of the prepared batched refresh."""

    def batched_lineariser(self, lanes):
        return None


class _VaryingCouplingBlock(LinearBlock):
    """A block whose prepared lineariser re-delivers ``J_xy`` every refresh."""

    def batched_lineariser(self, lanes):
        prepared = super().batched_lineariser(lanes)
        return PreparedBlockLineariser(
            prepared.lineariser, tuple(f for f in prepared.constant if f != "jxy")
        )


def _mixed_netlist_assembler(
    block_cls, gain: float, sink_cls=LinearBlock
) -> SystemAssembler:
    decay = block_cls(
        "decay",
        a=np.array([[-1.0, 0.2], [0.0, -1.5]]),
        b=np.array([[0.0], [0.3]]),
        state_names=("u", "v"),
        terminal_names=("p",),
        c=np.array([[1.0, 0.0]]),
        d=np.array([[1.0]]),
    )
    sink = sink_cls(
        "sink",
        a=np.array([[-2.0 * gain]]),
        b=np.array([[0.5]]),
        state_names=("w",),
        terminal_names=("p",),
    )
    netlist = Netlist()
    netlist.add_block(decay)
    netlist.add_block(sink)
    netlist.connect(decay.terminal("p"), sink.terminal("p"))
    return SystemAssembler(netlist)


class TestFallbackEquivalence:
    GAINS = (0.8, 1.0, 1.3)

    def _run(self, block_cls, perlane):
        assemblers = [
            _mixed_netlist_assembler(block_cls, g) for g in self.GAINS
        ]
        settings = SolverSettings(fixed_step=1e-3, relinearise_interval=8)
        solver = BatchedSolver(
            assemblers, settings=[settings] * len(assemblers),
            compiled="numpy", _perlane_refresh=perlane,
        )
        x0 = np.tile(np.array([1.0, -0.5, 0.25]), (len(assemblers), 1))
        return solver.run([0.05] * len(assemblers), x0=x0)

    def test_linear_block_prepared_path_matches_generic(self):
        reference = self._run(LinearBlock, perlane=True)
        result = self._run(LinearBlock, perlane=False)
        assert not reference.failures
        for got in result.results:
            assert got.metadata["batched_refresh"] is True
        _assert_batches_identical(reference, result)

    def test_group_without_batched_lineariser_falls_back_per_group(self):
        # "decay" returns None from batched_lineariser: its group runs
        # the generic per-refresh dispatch while "sink" stays prepared —
        # the mixed workspace must still be byte-identical
        reference = self._run(_UnpreparedBlock, perlane=True)
        result = self._run(_UnpreparedBlock, perlane=False)
        assert not reference.failures
        _assert_batches_identical(reference, result)

    def test_fully_unprepared_batch_degrades_to_generic_refresh(self):
        # the march unprepares when no group offers a batched lineariser

        class AllUnprepared(_UnpreparedBlock):
            pass

        def build():
            decay = AllUnprepared(
                "decay",
                a=np.array([[-1.0]]),
                b=np.array([[0.0]]),
                state_names=("u",),
                terminal_names=("p",),
                c=np.array([[1.0]]),
                d=np.array([[1.0]]),
            )
            sink = AllUnprepared(
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

        settings = SolverSettings(fixed_step=1e-3, relinearise_interval=4)
        solver = BatchedSolver(
            [build(), build()], settings=[settings] * 2, compiled="numpy"
        )
        batch = solver.run([0.02, 0.02], x0=np.ones((2, 2)))
        assert not batch.failures
        assert batch.results[0].metadata["batched_refresh"] is False


class _VectorisedDecay(AnalogueBlock):
    """dx/dt = -rate x with a vectorised evaluate_batch and no analytic Jacobian."""

    rate = 1.0

    def __init__(self):
        super().__init__("decay", state_names=("x",), terminal_names=())

    def derivatives(self, t, x, y):
        return -self.rate * x

    def evaluate_batch(self, lanes, t, x, y):
        return -self.rate * x, np.empty((len(lanes), 0))


class _FasterDecay(_VectorisedDecay):
    """Overrides the scalar equations below the vectorised evaluate_batch."""

    def derivatives(self, t, x, y):
        return -3.0 * x


class TestScalarOverrideBelowBatchedApi:
    """A subclass's scalar override beats the batched method it inherits."""

    @pytest.mark.parametrize("prepared", [False, True])
    def test_linearise_override_reaches_batched_assembly(self, prepared):
        # the test-suite source block overrides LinearBlock.linearise to
        # drive ey = -level; LinearBlock's batched methods do not know that
        lanes = [driven_rc_assembler() for _ in range(2)]
        lanes[1][1].level = 2.0
        batched = BatchedAssembler([assembler for assembler, _ in lanes])
        if prepared:
            batched.prepare()
        x = batched.initial_state()
        y = np.zeros((2, batched.n_terminals))
        lin = batched.assemble(0.0, x, y)
        for i, (assembler, source) in enumerate(lanes):
            scalar = assembler.assemble(0.0, x[i], y[i])
            assert scalar.ey[0] == -source.level
            for field in ("jxx", "jxy", "ex", "jyx", "jyy", "ey"):
                assert np.array_equal(getattr(lin.lane(i), field), getattr(scalar, field))

    def test_scalar_equations_override_reaches_batched_finite_differences(self):
        lanes = [_FasterDecay(), _FasterDecay()]
        x = np.array([[1.0], [2.0]])
        lin = linearise_block_lanes(lanes, 0.0, x, np.zeros((2, 0)))
        assert np.allclose(lin.jxx[:, 0, 0], -3.0)


class TestOneLanePreparedRefresh:
    """At one lane, unprepared groups take the scalar dispatch: same bits."""

    @pytest.mark.parametrize(
        "factory", [piezoelectric_scenario, electrostatic_scenario]
    )
    def test_one_lane_refresh_matches_batched_dispatch(self, factory):
        scenario = factory(duration_s=0.01)
        harvester = scenario.build_harvester()
        solver = harvester.build_solver(settings=scenario_solver_settings(scenario))
        solver.run(scenario.duration_s)
        t, x, y = solver._t, solver._x[None], solver._y[None]
        generic = BatchedAssembler([harvester.assembler]).assemble(t, x, y)
        workspace = BatchedAssembler([harvester.assembler])
        workspace.prepare()
        # the electrostatic transducer has no prepared lineariser; the
        # second call exercises the non-validating steady-state scatter
        assert any(grp.prepared is None for grp in workspace._groups)
        for _ in range(2):
            fast = workspace.assemble(t, x, y)
            for field in ("jxx", "jxy", "ex", "jyx", "jyy", "ey"):
                assert getattr(fast, field).tobytes() == getattr(generic, field).tobytes()


class TestPreparedBlockLineariserContract:
    def test_linear_block_prepared_matches_linearise_batch(self):
        block = LinearBlock(
            "decay",
            a=np.array([[-1.0, 0.2], [0.0, -1.5]]),
            b=np.array([[0.0], [0.3]]),
            state_names=("u", "v"),
            terminal_names=("p",),
            c=np.array([[1.0, 0.0]]),
            d=np.array([[1.0]]),
        )
        lanes = [block, block]
        prepared = block.batched_lineariser(lanes)
        assert isinstance(prepared, PreparedBlockLineariser)
        x = np.array([[0.5, -0.25], [1.0, 2.0]])
        y = np.array([[0.125], [-0.5]])
        fast = prepared.lineariser(0.01, x, y)
        generic = block.linearise_batch(lanes, 0.01, x, y)
        for field in ("jxx", "jxy", "ex", "jyx", "jyy", "ey"):
            assert np.array_equal(getattr(fast, field), getattr(generic, field))

    def test_default_block_offers_no_prepared_lineariser(self):
        block = _UnpreparedBlock(
            "decay",
            a=np.array([[-1.0]]),
            b=np.array([[0.0]]),
            state_names=("u",),
            terminal_names=("p",),
            c=np.array([[1.0]]),
            d=np.array([[1.0]]),
        )
        assert block.batched_lineariser([block]) is None


def count_solves(monkeypatch) -> Counter:
    """Count ``np.linalg.solve`` calls by the module that makes them."""
    counts: Counter = Counter()
    solve = np.linalg.solve

    def counting(a, b):
        counts[sys._getframe(1).f_globals["__name__"]] += 1
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return counts


ELIMINATION = "repro.core.elimination"


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


class TestHeldEliminationWorkspace:
    """A prepared workspace solves Eq. (4) once per bind (prepare/select)."""

    def test_lane_block_march_solves_once(self, monkeypatch):
        counts = count_solves(monkeypatch)
        scenarios = LANE_SETS["charging"]()
        settings = [_settings_for(s) for s in scenarios]
        result = _refresh_run(scenarios, settings)
        assert not result.failures
        assert counts[ELIMINATION] == 1
        # n_linear_solves still counts one elimination per refresh
        for got in result.results:
            assert got.stats.n_linear_solves == got.stats.n_jacobian_evaluations + 1 > 100

    def test_retired_lanes_resolve_their_own_operands(self, monkeypatch):
        structure = prepare_assembly(charging_scenario())
        harvesters = [
            charging_scenario().build_harvester(assembly_structure=structure)
            for _ in range(3)
        ]
        # Req sits in the supercapacitor's J_yy: every lane has its own M
        for harvester, load in zip(harvesters, (20.0, 50.0, 200.0)):
            harvester.storage.apply_control("load_resistance", load)
        batched = BatchedAssembler([h.assembler for h in harvesters])
        batched.prepare()
        assert batched.holds_elimination
        counts = count_solves(monkeypatch)
        x = batched.initial_state() + 0.25
        y = np.zeros((3, batched.n_terminals))
        for t in (0.0, 1e-4, 2e-4):
            batched.eliminate(batched.assemble(t, x, y), x)
        assert counts[ELIMINATION] == 1

        keep = np.array([0, 2])
        kept = batched.select(keep)
        assert kept.holds_elimination
        reduced = kept.eliminate(kept.assemble(0.0, x[keep], y[keep]), x[keep])
        assert counts[ELIMINATION] == 2
        for lane, source in enumerate(keep):
            scalar = harvesters[source].assembler.reduce(0.0, x[source], y[source])
            got = reduced.lane(lane)
            for field in (
                "elimination_matrix", "elimination_offset", "y_solution",
                "a_reduced", "b_reduced",
            ):
                assert _bits(getattr(got, field)) == _bits(getattr(scalar, field)), field
        assert not np.array_equal(
            reduced.elimination_matrix[0], reduced.elimination_matrix[1]
        )

    def test_singular_lane_is_still_named(self):
        assemblers = [
            _mixed_netlist_assembler(LinearBlock, 1.0) for _ in range(3)
        ]
        # lane 1: no equation pins the shared net
        assemblers[1].blocks[0].d[...] = 0.0
        batched = BatchedAssembler(assemblers)
        batched.prepare()
        assert batched.holds_elimination
        x = batched.initial_state()
        y = np.zeros((3, batched.n_terminals))
        with pytest.raises(SingularLaneError) as excinfo:
            batched.eliminate(batched.assemble(0.0, x, y), x)
        assert excinfo.value.lane_indices == (1,)

    def test_unprepared_algebraic_group_keeps_per_refresh_solve(self, monkeypatch):
        scenarios = LANE_SETS["piezoelectric_charging"]()
        settings = [_settings_for(s) for s in scenarios]
        structure = prepare_assembly(scenarios[0])
        batched = BatchedAssembler(
            [s.build_harvester(assembly_structure=structure).assembler for s in scenarios]
        )
        batched.prepare()
        assert not batched.holds_elimination
        counts = count_solves(monkeypatch)
        result = _refresh_run(scenarios, settings)
        assert not result.failures
        # one stacked solve per refresh, plus the final consistency solve
        refreshes = result.results[0].stats.n_linear_solves
        assert counts[ELIMINATION] == refreshes + 1

    def test_varying_algebraic_excitation_is_not_held(self):
        assembler = _mixed_netlist_assembler(LinearBlock, 1.0)
        assembler.blocks[0]._algebraic_excitation = lambda t: np.array([t])
        batched = BatchedAssembler([assembler])
        batched.prepare()
        assert not batched.holds_elimination
        batched.unprepare()
        assert not batched.holds_elimination

    @pytest.mark.parametrize("varying", ["decay", "sink"])
    def test_varying_terminal_coupling_is_not_held(self, varying):
        # decay has algebraic rows and terminals, sink terminals only:
        # either one's J_xy enters A_r = J_xx + J_xy M on every refresh
        classes = {"decay": LinearBlock, "sink": LinearBlock}
        classes[varying] = _VaryingCouplingBlock
        assembler = _mixed_netlist_assembler(
            classes["decay"], 1.0, sink_cls=classes["sink"]
        )
        batched = BatchedAssembler([assembler])
        batched.prepare()
        assert not batched.holds_elimination


class TestFusedElimination:
    def test_loop_impl_matches_stacked_numpy_bitwise(self):
        rng = np.random.default_rng(7)
        b, n, m = 5, 4, 3
        jxx = rng.standard_normal((b, n, n))
        jxy = rng.standard_normal((b, n, m))
        ex = rng.standard_normal((b, n))
        jyx = rng.standard_normal((b, m, n))
        jyy = rng.standard_normal((b, m, m)) + 3.0 * np.eye(m)
        ey = rng.standard_normal((b, m))

        # the stacked expressions of BatchedAssembler.eliminate
        rhs = np.empty((b, m, n + 1))
        rhs[:, :, :-1] = jyx
        rhs[:, :, -1] = ey
        solution = np.linalg.solve(jyy, rhs)
        em = -solution[:, :, :-1]
        eo = -solution[:, :, -1]
        a_red = jxx + np.matmul(jxy, em)
        b_red = ex + np.matmul(jxy, eo[..., None])[..., 0]

        k_em, k_eo, k_a, k_b = _eliminate_lanes_impl(jxx, jxy, ex, jyx, jyy, ey)
        assert np.array_equal(k_em, em)
        assert np.array_equal(k_eo, eo)
        assert np.array_equal(k_a, a_red)
        assert np.array_equal(k_b, b_red)

    def test_singular_lane_raises_linalg_error(self):
        jyy = np.zeros((1, 2, 2))
        with pytest.raises(np.linalg.LinAlgError):
            _eliminate_lanes_impl(
                np.zeros((1, 3, 3)), np.zeros((1, 3, 2)), np.zeros((1, 3)),
                np.zeros((1, 2, 3)), jyy, np.zeros((1, 2)),
            )


class TestSolverReusability:
    def test_run_leaves_no_prepared_state_behind(self):
        scenarios = LANE_SETS["charging"]()
        settings = _fixed_settings(scenarios, 1e-4, relinearise_interval=8)
        structure = prepare_assembly(scenarios[0])
        harvesters = [
            s.build_harvester(assembly_structure=structure) for s in scenarios
        ]
        solver = BatchedSolver(
            [h.assembler for h in harvesters],
            settings=settings,
            compiled="numpy",
        )
        for i, harvester in enumerate(harvesters):
            harvester._wire(solver.lane_wiring(i))
        first = solver.run([s.duration_s for s in scenarios])
        assert solver.batched_assembler.prepared is False
        second = solver.run([s.duration_s for s in scenarios])
        _assert_batches_identical(first, second)


class TestRemovedRefreshKnob:
    """``refresh=`` is no longer an option; old payloads fail loudly."""

    def test_run_options_has_no_refresh_field(self):
        from repro.api import RunOptions

        with pytest.raises(TypeError):
            RunOptions.batched(refresh="batched")
        assert "refresh" not in RunOptions.batched().fingerprint()

    def test_options_dict_naming_refresh_is_rejected(self):
        from repro.api import RunOptions

        with pytest.raises(ConfigurationError, match="refresh"):
            RunOptions.from_dict({"backend": "batched", "refresh": "perlane"})

    def test_experiment_file_naming_refresh_is_rejected(self, tmp_path):
        from repro.io import load_experiment

        path = tmp_path / "old.toml"
        path.write_text(
            '[scenario]\nfactory = "charging"\nduration_s = 0.05\n'
            '[options]\nbackend = "batched"\nrefresh = "perlane"\n'
        )
        with pytest.raises(ConfigurationError, match="removed field 'refresh'"):
            load_experiment(str(path))
