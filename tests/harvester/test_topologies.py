"""End-to-end tests of the spec-defined piezoelectric/electrostatic systems.

Also covers the spec-built paper system with the digital controller
attached (full Fig. 7 interface, declared declaratively) against the
hand-written :class:`TunableEnergyHarvester`, and the spec file I/O.
"""

import dataclasses

import numpy as np
import pytest

from repro import Study
from repro.core import SystemBuilder
from repro.core.errors import ConfigurationError
from repro.harvester.config import paper_harvester
from repro.harvester.scenarios import (
    prepare_assembly,
    scenario_solver_settings,
)
from repro.harvester.system import TunableEnergyHarvester, paper_spec
from repro.harvester.topologies import (
    electrostatic_scenario,
    electrostatic_spec,
    generator_variants,
    piezoelectric_scenario,
    piezoelectric_spec,
)
from repro.io import load_spec, save_spec


class TestPiezoelectricTopology:
    def test_runs_and_charges(self):
        result = Study.scenario(piezoelectric_scenario(duration_s=0.05)).run()
        voltage = result["storage_voltage"].values
        assert np.all(np.isfinite(voltage))
        assert result["storage_voltage"].final() > 0.0
        assert np.all(np.isfinite(result["piezo_voltage"].values))
        assert result.metadata["scenario"] == "piezoelectric_charging"

    def test_assembly_structure_reuse_identical(self):
        scenario = piezoelectric_scenario(duration_s=0.03)
        structure = prepare_assembly(scenario)
        fresh = Study.scenario(scenario).run()
        reused = Study.scenario(scenario).options(assembly_structure=structure).run()
        assert np.array_equal(
            fresh["storage_voltage"].values, reused["storage_voltage"].values
        )

    def test_spec_is_valid_and_round_trips(self):
        spec = piezoelectric_spec()
        spec.validate()
        assert type(spec).from_dict(spec.to_dict()) == spec


class TestElectrostaticTopology:
    def test_runs_with_finite_difference_fallback(self):
        scenario = electrostatic_scenario(duration_s=0.03)
        built = scenario.build_harvester()
        generator = built.block("generator")
        # the block genuinely has no analytic linearisation
        x0 = generator.initial_state()
        assert generator.linearise(0.0, x0, np.zeros(2)) is None
        result = Study.scenario(scenario).run()
        assert np.all(np.isfinite(result["storage_voltage"].values))
        assert result["storage_voltage"].final() > 0.0

    def test_travel_stays_inside_gap(self):
        result = Study.scenario(electrostatic_scenario(duration_s=0.05)).run()
        z = result["generator.z"].values
        nominal_gap = 100e-6
        assert np.max(np.abs(z)) < nominal_gap


class TestSpecScenario:
    def test_duck_type_and_copies(self):
        scenario = piezoelectric_scenario(duration_s=0.5)
        assert scenario.scaled(0.1).duration_s == pytest.approx(0.1)
        other = scenario.with_spec(electrostatic_spec())
        assert other.spec.name == "electrostatic_harvester"
        assert other.topology_key() != scenario.topology_key()

    def test_solver_settings_follow_spec_hints(self):
        scenario = piezoelectric_scenario()
        spec = scenario.spec
        settings = scenario_solver_settings(scenario)
        expected_h_max = 1.0 / (
            spec.solver.points_per_period * spec.excitation.frequency_hz
        )
        assert settings.step_control.h_max == pytest.approx(expected_h_max)

    def test_generator_variants_share_name_and_resonance(self):
        variants = generator_variants(70.0)
        assert set(variants) == {"electromagnetic", "piezoelectric", "electrostatic"}
        for block in variants.values():
            assert block.name == "generator"
        # the piezo variant's stiffness places its resonance at 70 Hz
        piezo = variants["piezoelectric"]
        import math

        f = math.sqrt(piezo.params["spring_stiffness"] / 0.008) / (2 * math.pi)
        assert f == pytest.approx(70.0)


class TestPaperSpecWithController:
    def test_matches_hand_written_harvester_with_controller(self):
        """Spec-declared Fig. 7 interface == hand-written wiring, byte for byte."""
        cfg = paper_harvester()
        cfg = dataclasses.replace(
            cfg,
            controller=dataclasses.replace(
                cfg.controller,
                watchdog_period_s=0.2,
                measurement_duration_s=0.05,
                tuning_poll_interval_s=0.02,
            ),
        )
        duration_s = 0.6

        legacy2 = TunableEnergyHarvester(config=cfg)
        built2 = SystemBuilder(paper_spec(cfg)).build()
        r_legacy = legacy2.build_solver().run(duration_s)
        r_spec = built2.build_solver().run(duration_s)

        for trace in ("storage_voltage", "generator_power", "load_resistance"):
            assert np.array_equal(
                r_legacy[trace].values, r_spec[trace].values
            ), f"{trace} differs between hand-written and spec-built paths"
        # the controller actually did something comparable in both runs
        assert built2.controller.n_wakeups == legacy2.controller.n_wakeups


class TestSpecFileIO:
    def test_json_save_load_round_trip(self, tmp_path):
        spec = piezoelectric_spec()
        path = save_spec(spec, str(tmp_path / "piezo.json"))
        assert load_spec(path) == spec

    def test_save_rejects_non_json(self, tmp_path):
        with pytest.raises(ConfigurationError, match="JSON"):
            save_spec(piezoelectric_spec(), str(tmp_path / "piezo.toml"))

    def test_toml_load(self, tmp_path):
        pytest.importorskip("tomllib")  # standard library from Python 3.11
        toml_text = """
name = "toml_system"
description = "spec loaded from TOML"

[excitation]
frequency_hz = 70.0
amplitude_ms2 = 0.5

[[blocks]]
key = "piezoelectric_generator"
name = "generator"
[blocks.params]
series_resistance_ohm = 4700.0

[[blocks]]
key = "dickson_multiplier"
name = "multiplier"
[blocks.params]
n_stages = 3

[[blocks]]
key = "supercapacitor"
name = "storage"

[[connections]]
a = "generator"
b = "multiplier"
voltage = ["Vm", "Vm"]
current = ["Im", "Im"]

[[connections]]
a = "multiplier"
b = "storage"
voltage = ["Vc", "Vc"]
current = ["Ic", "Ic"]
"""
        path = tmp_path / "system.toml"
        path.write_text(toml_text)
        spec = load_spec(str(path))
        spec.validate()
        assert spec.name == "toml_system"
        assert spec.block("multiplier").params["n_stages"] == 3
        # a TOML-loaded spec builds and runs
        built = SystemBuilder(spec).build()
        assert built.n_states > 0

    def test_load_unknown_extension(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("{}")
        with pytest.raises(ConfigurationError, match="format"):
            load_spec(str(path))
