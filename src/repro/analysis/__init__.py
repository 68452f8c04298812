"""Post-processing: power/energy metrics, frequency detection, waveform
comparison, CPU-time tables and design-space sweeps (serial or parallel
through the sweep engine)."""

from .engine import EngineRunInfo
from .frequency import (
    detect_frequency_fft,
    detect_frequency_zero_crossing,
    frequency_mismatch,
    required_tuning_force,
    resonant_frequency,
    tuned_frequency,
)
from .power import (
    average_power,
    energy,
    power_before_after,
    rms_power,
    rms_value,
    windowed_rms_power,
)
from .speedup import SpeedupTable, TimingEntry, speedup
from .sweep import (
    ParameterSweep,
    SweepPoint,
    SweepResult,
    average_power_metric,
    format_sweep_value,
    harvested_energy_metric,
    sweep_excitation_frequency,
)
from .waveforms import (
    WaveformComparison,
    compare_traces,
    correlation_coefficient,
    max_absolute_error,
    normalised_rms_error,
)

__all__ = [
    "EngineRunInfo",
    "detect_frequency_fft",
    "detect_frequency_zero_crossing",
    "frequency_mismatch",
    "required_tuning_force",
    "resonant_frequency",
    "tuned_frequency",
    "average_power",
    "energy",
    "power_before_after",
    "rms_power",
    "rms_value",
    "windowed_rms_power",
    "SpeedupTable",
    "TimingEntry",
    "speedup",
    "ParameterSweep",
    "SweepPoint",
    "SweepResult",
    "average_power_metric",
    "format_sweep_value",
    "harvested_energy_metric",
    "sweep_excitation_frequency",
    "WaveformComparison",
    "compare_traces",
    "correlation_coefficient",
    "max_absolute_error",
    "normalised_rms_error",
]
