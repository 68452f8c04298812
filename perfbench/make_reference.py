"""Regenerate ``reference.json``: exact scores over every reference grid.

Every candidate of every reference grid (``grids.REFERENCE_GRIDS``) runs
on the exact profile (relinearise every step) on the process backend,
the scalar path all other profiles are checked against::

    python3 perfbench/make_reference.py

Run it from the repository root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from grids import REFERENCE_GRIDS
from workloads import import_program

REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")
COMMAND = "python3 perfbench/make_reference.py"

#: process-backend workers; the scores do not depend on the count
N_WORKERS = 2


def reference_scores(grid):
    """``[value of each axis..., score]`` for every candidate of ``grid``."""
    repro = import_program()
    scenario = getattr(repro, grid.scenario)(duration_s=grid.duration_s)
    result = (
        repro.Study.scenario(scenario)
        .options(repro.RunOptions.exact(n_workers=N_WORKERS))
        .sweep({name: list(values) for name, values in grid.axes.items()})
        .run()
    )
    return [
        [float(point.parameters[name]) for name in grid.axes] + [float(point.score)]
        for point in result.points
    ]


def main() -> None:
    reference = {"command": COMMAND, "grids": {}}
    for name, grid in REFERENCE_GRIDS.items():
        start = time.monotonic()
        reference["grids"][name] = {
            "scenario": grid.scenario,
            "duration_s": grid.duration_s,
            "profile": "RunOptions.exact(), backend=process",
            "axes": list(grid.axes),
            "scores": reference_scores(grid),
        }
        print(f"{name}: {len(reference['grids'][name]['scores'])} candidates "
              f"in {time.monotonic() - start:.1f} s", flush=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
