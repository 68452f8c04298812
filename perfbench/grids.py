"""Reference grids and the seeded choice of each workload's candidates.

Each workload runs a seeded subset of one *reference grid*; the
committed reference scores (``reference.json``, regenerated by
``make_reference.py``) cover the whole reference grid, so every
candidate a seed can pick has an exact score to be checked against.
The program only ever sees the generated axes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: the seed a run uses when ``--seed`` is not given
DEFAULT_SEED = 1

WORKLOADS = ("closed_loop_sweep", "charging_lanes_sweep", "queue_warm_sweep")


def _values(start: float, step: float, count: int) -> List[float]:
    return [round(start + step * i, 2) for i in range(count)]


@dataclass(frozen=True)
class RefGrid:
    """One reference grid: a paper scenario at a fixed duration, gridded."""

    scenario: str  # factory name in ``repro`` ("scenario_1", "charging_scenario")
    duration_s: float
    axes: Dict[str, Tuple[float, ...]]


#: Table II Scenario 1 (70 -> 71 Hz at 0.5 s): 1.6 s covers one full
#: watchdog (1.0 s) -> measure (0.2 s) -> retune cycle.  The tuned
#: frequencies stay near 70 Hz, where candidates cost about the same
#: (11.4k-12.5k steps), so the seed changes which candidate runs, not
#: how much work it is.
CLOSED_LOOP = RefGrid(
    "scenario_1",
    1.6,
    {
        "excitation_amplitude_ms2": tuple(_values(0.45, 0.05, 6)),
        "initial_tuned_frequency_hz": (69.9, 70.0, 70.1, 70.2),
    },
)

#: Table I supercapacitor charging as a design grid: 62-78 Hz around the
#: 70 Hz tuned resonance x the repository's standard 0.30-0.65 m/s^2
#: amplitudes, 0.1 s each so that a run holds many repetitions.  The
#: seed only orders this grid (see ``make_inputs``).
CHARGING = RefGrid(
    "charging_scenario",
    0.1,
    {
        "excitation_frequency_hz": (62.0, 64.0, 67.0, 69.0, 70.0, 71.0, 74.0, 78.0),
        "excitation_amplitude_ms2": tuple(_values(0.30, 0.05, 8)),
    },
)

#: short charging candidates: queue and cache overhead is a large share
QUEUE = RefGrid(
    "charging_scenario",
    0.02,
    {
        "excitation_frequency_hz": tuple(_values(62.0, 1.0, 16)),
        "excitation_amplitude_ms2": tuple(_values(0.30, 0.05, 16)),
    },
)

REFERENCE_GRIDS = {
    "closed_loop_sweep": CLOSED_LOOP,
    "charging_lanes_sweep": CHARGING,
    "queue_warm_sweep": QUEUE,
}


@dataclass(frozen=True)
class Inputs:
    """What one seeded run feeds the program."""

    workload: str
    seed: int
    grid: RefGrid
    axes: Dict[str, List[float]]  # ordered axis values handed to Study.sweep
    warm: Tuple[Tuple[Tuple[str, float], ...], ...] = ()  # pre-warmed candidates

    @property
    def n_candidates(self) -> int:
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count

    def candidates(self) -> List[Dict[str, float]]:
        """Every candidate, in the engine's enumeration order."""
        points: List[Dict[str, float]] = [{}]
        for name, values in self.axes.items():
            points = [dict(point, **{name: value}) for point in points for value in values]
        return points


def make_inputs(workload: str, seed: int) -> Inputs:
    """The seeded candidates of ``workload`` (same seed, same inputs)."""
    if workload not in REFERENCE_GRIDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    grid = REFERENCE_GRIDS[workload]
    if workload == "closed_loop_sweep":
        amplitudes, tunings = grid.axes.values()
        axes = {
            "excitation_amplitude_ms2": rng.sample(amplitudes, 1),
            "initial_tuned_frequency_hz": rng.sample(tunings, 1),
        }
        return Inputs(workload, seed, grid, axes)
    if workload == "charging_lanes_sweep":
        # the 64 candidates are the whole reference grid: the seed orders it
        axes = {name: rng.sample(values, len(values)) for name, values in grid.axes.items()}
        return Inputs(workload, seed, grid, axes)
    freqs, amps = grid.axes.values()
    axes = {
        "excitation_frequency_hz": rng.sample(freqs, len(freqs)),
        "excitation_amplitude_ms2": rng.sample(amps, 8),
    }
    inputs = Inputs(workload, seed, grid, axes)
    warm = rng.sample(inputs.candidates(), inputs.n_candidates // 2)
    return Inputs(workload, seed, grid, axes, tuple(tuple(c.items()) for c in warm))


def candidate_key(parameters) -> Tuple[Tuple[str, float], ...]:
    """Order-free identity of a candidate (reference-score lookup key)."""
    return tuple(sorted((str(k), float(v)) for k, v in dict(parameters).items()))
