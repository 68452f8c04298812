"""API-surface snapshot: pins ``repro.__all__`` and the facade exports.

A name leaving (or silently joining) the top-level namespace is an API
break; this test forces the change to be deliberate — update the
snapshot below *and* the README/DESIGN docs together.
"""

import repro
import repro.api

#: the pinned public surface of the top-level ``repro`` namespace
EXPECTED_ALL = [
    # public API facade (the canonical entry layer)
    "Study",
    "RunOptions",
    "RunHandle",
    "StudyResult",
    "ExplorationResult",
    "ComparisonResult",
    # declarative experiments + result cache
    "ExperimentSpec",
    "ResultStore",
    "load_experiment",
    "save_experiment",
    # core engine
    "BLOCK_REGISTRY",
    "AdamsBashforth",
    "AnalogueBlock",
    "BlockSpec",
    "ConnectionSpec",
    "ControllerSpec",
    "ForwardEuler",
    "LinearisedStateSpaceSolver",
    "Netlist",
    "RungeKutta2",
    "RungeKutta4",
    "SimulationResult",
    "SingularLaneError",
    "SolverSettings",
    "SystemAssembler",
    "SystemBuilder",
    "SystemSpec",
    "Trace",
    "make_integrator",
    # analysis / sweeps
    "EngineRunInfo",
    "ParameterSweep",
    "SweepPoint",
    "SweepResult",
    "sweep_excitation_frequency",
    # harvester system + scenarios
    "HarvesterConfig",
    "Scenario",
    "SpecScenario",
    "TunableEnergyHarvester",
    "charging_scenario",
    "default_solver_settings",
    "electrostatic_scenario",
    "electrostatic_spec",
    "generator_variants",
    "paper_harvester",
    "paper_spec",
    "piezoelectric_scenario",
    "piezoelectric_spec",
    "prepare_assembly",
    "scenario_1",
    "scenario_2",
    "__version__",
]


def test_top_level_all_is_pinned():
    assert repro.__all__ == EXPECTED_ALL


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"


def test_sweep_engine_is_internal():
    import repro.analysis

    # a ParameterSweep is a definition; Study runs it
    assert not hasattr(repro.analysis.sweep.ParameterSweep, "run")
    # the engine is internal: importable from its module only
    assert "SweepEngine" not in repro.analysis.__all__
    assert not hasattr(repro, "SweepEngine")
    from repro.analysis.engine import SweepEngine

    assert SweepEngine.__module__ == "repro.analysis.engine"


def test_previously_unreachable_result_types_are_exported():
    # the satellite fix of PR 4: these used to require deep imports
    from repro import EngineRunInfo, SingularLaneError, SweepPoint, SweepResult

    assert SweepPoint is repro.analysis.sweep.SweepPoint
    assert SweepResult is repro.analysis.sweep.SweepResult
    assert EngineRunInfo is repro.analysis.engine.EngineRunInfo
    assert SingularLaneError is repro.core.errors.SingularLaneError


def test_api_package_surface():
    assert repro.api.__all__ == [
        "Study",
        "RunOptions",
        "RunHandle",
        "StudyResult",
        "ExplorationResult",
        "ComparisonResult",
        "ExecutionPlan",
        "ExperimentSpec",
        "SweepAxis",
        "SweepSpec",
        "BACKENDS",
        "SOLVERS",
        "CACHE_MODES",
    ]
    for name in repro.api.__all__:
        assert hasattr(repro.api, name)
    # the top-level re-exports are the same objects
    assert repro.Study is repro.api.Study
    assert repro.RunOptions is repro.api.RunOptions
