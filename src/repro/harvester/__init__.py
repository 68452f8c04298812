"""Complete tunable energy harvester assembly and evaluation scenarios."""

from .config import (
    ExcitationConfig,
    HarvesterConfig,
    TuningMechanismConfig,
    paper_harvester,
)
from .scenarios import (
    Scenario,
    charging_scenario,
    prepare_assembly,
    scenario_1,
    scenario_2,
    scenario_solver_settings,
)
from .system import TunableEnergyHarvester, default_solver_settings, paper_spec
from .topologies import (
    SpecScenario,
    electromagnetic_spec,
    electrostatic_scenario,
    electrostatic_spec,
    generator_variants,
    piezoelectric_scenario,
    piezoelectric_spec,
)

__all__ = [
    "SpecScenario",
    "paper_spec",
    "electromagnetic_spec",
    "electrostatic_scenario",
    "electrostatic_spec",
    "generator_variants",
    "piezoelectric_scenario",
    "piezoelectric_spec",
    "ExcitationConfig",
    "HarvesterConfig",
    "TuningMechanismConfig",
    "paper_harvester",
    "Scenario",
    "charging_scenario",
    "prepare_assembly",
    "scenario_solver_settings",
    "scenario_1",
    "scenario_2",
    "TunableEnergyHarvester",
    "default_solver_settings",
]
