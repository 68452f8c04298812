"""Sweep-engine scaling: parallel design exploration vs the serial loop.

The paper's motivation for a fast non-iterative solver is an "automated
design approach … using multiple simulations"; this benchmark measures
that workload end to end.  A 16-candidate design grid (ambient frequency x
excitation amplitude of the supercapacitor-charging scenario) is evaluated
two ways:

* **serial loop** — ``Study`` with default (exact) options: one
  candidate at a time, exact every-step relinearisation;
* **parallel engine** — ``RunOptions.fast(n_workers=4)``: 4 worker
  processes, per-worker assembly-structure reuse and the
  amortised-relinearisation profile (``relinearise_interval=4``).

Pass criteria (asserted):

* the engine is at least 2x faster wall-clock than the serial loop;
* every candidate score matches the exact serial score within the
  **documented tolerance of 10 % relative** (the amortised profile holds
  each linearisation over up to 4 explicit steps; measured deviations on
  this grid are typically below 7 %) and the best candidate is the same.

A second comparison measures the **batched lane-parallel backend**
(``backend="batched"``): a 64-candidate same-topology grid marched as
lanes of stacked ``(B, n, n)`` arrays (one linearise/eliminate/march
NumPy sweep per step for a whole lane block, composed with the same 4
worker processes).  Asserted: at least 3x wall-clock over the 4-worker
process engine, scores within the documented 10 % tolerance and the same
winner.  Writes ``BENCH_batch.json``.  The same grid additionally runs
with the **compiled lane core** (``compiled="auto"``,
:mod:`repro.core.kernels`) as a third leg, so ``BENCH_sweep.json``
tracks all four execution paths — serial / engine / batched /
compiled — in one file.

On a single-core host the speed-up comes from the amortised profile and
the lane vectorisation; on a multi-core host process parallelism
multiplies both further.

Run via pytest (writes ``benchmarks/results/sweep_scaling.txt`` and
``benchmarks/results/batch_scaling.txt``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_sweep_scaling.py -q

or directly, e.g. the CI smoke grids::

    PYTHONPATH=src python benchmarks/bench_sweep_scaling.py --quick

Both entry points additionally write ``BENCH_sweep.json`` and
``BENCH_batch.json`` so the perf trajectory stays machine-readable across
PRs.
"""

import argparse
import json
import time
from pathlib import Path

from repro import RunOptions, Study
from repro.analysis.sweep import average_power_metric
from repro.harvester.scenarios import charging_scenario
from repro.io.report import format_table

JSON_PATH = Path("BENCH_sweep.json")
BATCH_JSON_PATH = Path("BENCH_batch.json")

#: documented score tolerance of the amortised-relinearisation profile
#: (and of the batched shared-step march, which is measurably tighter)
SCORE_TOLERANCE_REL = 0.10
#: required wall-clock advantage of the engine over the serial loop
MIN_SPEEDUP = 2.0
#: required wall-clock advantage of the batched backend over the engine
MIN_BATCH_SPEEDUP = 3.0

WORKERS = 4
RELINEARISE_INTERVAL = 4

FULL_GRID = {
    "excitation_frequency_hz": [66.0, 69.0, 72.0, 75.0],
    "excitation_amplitude_ms2": [0.3, 0.45, 0.59, 0.75],
}
FULL_DURATION_S = 0.2

#: 64-candidate same-topology grid for the batched-backend comparison
BATCH_GRID = {
    "excitation_frequency_hz": [64.0, 66.0, 68.0, 69.0, 70.0, 72.0, 74.0, 75.0],
    "excitation_amplitude_ms2": [0.3, 0.4, 0.45, 0.5, 0.55, 0.59, 0.65, 0.75],
}
BATCH_DURATION_S = 0.2

#: tiny smoke grid for CI: exercises the full parallel/fast-profile path
#: in seconds without asserting the speed-up (CI runners are too noisy)
QUICK_GRID = {
    "excitation_frequency_hz": [69.0, 72.0],
    "excitation_amplitude_ms2": [0.45, 0.59],
}
QUICK_DURATION_S = 0.05


def build_study(grid, duration_s):
    scenario = charging_scenario(duration_s=duration_s)
    return Study.scenario(scenario).sweep(
        grid,
        metric=average_power_metric,
        metric_name="average_power_W",
    )


def grid_size(grid):
    n = 1
    for values in grid.values():
        n *= len(values)
    return n


def _write_json(n_candidates, duration_s, t_serial, t_engine, speedup, max_dev, quick):
    """Machine-readable record of the run (perf trajectory across PRs)."""
    JSON_PATH.write_text(
        json.dumps(
            {
                "benchmark": "sweep_scaling",
                "quick": quick,
                "n_candidates": n_candidates,
                "duration_s_per_candidate": duration_s,
                "workers": WORKERS,
                "relinearise_interval": RELINEARISE_INTERVAL,
                "t_serial_s": t_serial,
                "t_engine_s": t_engine,
                "speedup": speedup,
                "max_rel_score_deviation": max_dev,
                "score_tolerance_rel": SCORE_TOLERANCE_REL,
            },
            indent=2,
        )
        + "\n"
    )


def run_comparison(grid, duration_s, *, assert_speedup=True, quick=False):
    """Run serial vs engine, return (report_text, speedup, max_deviation)."""
    study = build_study(grid, duration_s)
    n_candidates = grid_size(grid)

    t0 = time.perf_counter()
    serial = study.run()
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    engine = study.options(
        RunOptions.fast(
            relinearise_interval=RELINEARISE_INTERVAL, n_workers=WORKERS
        )
    ).run()
    t_engine = time.perf_counter() - t0

    speedup = t_serial / t_engine
    deviations = [
        abs(fast.score - exact.score) / abs(exact.score)
        for fast, exact in zip(engine.points, serial.points)
    ]
    max_deviation = max(deviations)

    rows = [
        ["serial loop (exact)", f"{t_serial:.2f}", "1", "1.00", "0 (reference)"],
        [
            f"engine ({WORKERS} workers, hold {RELINEARISE_INTERVAL})",
            f"{t_engine:.2f}",
            str(WORKERS),
            f"{speedup:.2f}",
            f"{max_deviation:.2e}",
        ],
    ]
    report = format_table(
        ["path", "wall [s]", "workers", "speedup", "max score dev (rel)"],
        rows,
        title=(
            f"sweep scaling — {n_candidates}-candidate grid, "
            f"{duration_s:g} s simulated per candidate"
        ),
    )
    report += (
        f"\nbest candidate (serial): {dict(serial.best().parameters)}"
        f"\nbest candidate (engine): {dict(engine.best().parameters)}"
    )
    _write_json(
        n_candidates, duration_s, t_serial, t_engine, speedup, max_deviation, quick
    )

    assert serial.best().parameters == engine.best().parameters, (
        "the fast profile changed the winning candidate"
    )
    assert max_deviation <= SCORE_TOLERANCE_REL, (
        f"score deviation {max_deviation:.3e} exceeds the documented "
        f"tolerance {SCORE_TOLERANCE_REL}"
    )
    if assert_speedup:
        assert speedup >= MIN_SPEEDUP, (
            f"engine speedup {speedup:.2f}x below the required {MIN_SPEEDUP}x"
        )
    return report, speedup, max_deviation


def _write_batch_json(
    n_candidates,
    duration_s,
    t_engine,
    t_batched,
    speedup,
    max_dev,
    quick,
    batched_workers,
    t_compiled,
    compiled_speedup,
    compiled_max_dev,
    compiled_backend,
):
    """Machine-readable record of the batched-backend comparison."""
    BATCH_JSON_PATH.write_text(
        json.dumps(
            {
                "benchmark": "batch_scaling",
                "quick": quick,
                "n_candidates": n_candidates,
                "duration_s_per_candidate": duration_s,
                "engine_workers": WORKERS,
                "batched_workers": batched_workers,
                "relinearise_interval": RELINEARISE_INTERVAL,
                "t_process_engine_s": t_engine,
                "t_batched_s": t_batched,
                "speedup_vs_process_engine": speedup,
                "max_rel_score_deviation": max_dev,
                "t_compiled_s": t_compiled,
                "compiled_backend": compiled_backend,
                "compiled_speedup_vs_process_engine": compiled_speedup,
                "compiled_max_rel_score_deviation": compiled_max_dev,
                "score_tolerance_rel": SCORE_TOLERANCE_REL,
            },
            indent=2,
        )
        + "\n"
    )
    # merge the batched/compiled columns into BENCH_sweep.json so one file
    # tracks every execution path: serial / engine / batched / compiled
    if JSON_PATH.exists():
        merged = json.loads(JSON_PATH.read_text())
        merged["t_batched_s"] = t_batched
        merged["batched_speedup_vs_engine"] = speedup
        merged["t_compiled_s"] = t_compiled
        merged["compiled_backend"] = compiled_backend
        merged["compiled_speedup_vs_engine"] = compiled_speedup
        JSON_PATH.write_text(json.dumps(merged, indent=2) + "\n")


def run_batched_comparison(grid, duration_s, *, assert_speedup=True, quick=False):
    """Batched lane-parallel backend vs the 4-worker process engine.

    Returns ``(report_text, speedup, max_deviation)``; both paths run the
    same amortised-relinearisation profile, so the comparison isolates the
    lane vectorisation itself.  The quick smoke grid is too small to split
    across workers (one-lane blocks degrade to the scalar path), so quick
    mode marches it as a single lane block to actually exercise the
    batched loop.
    """
    study = build_study(grid, duration_s)
    n_candidates = grid_size(grid)
    batched_workers = 1 if quick else WORKERS

    t0 = time.perf_counter()
    engine = study.options(
        RunOptions.fast(
            relinearise_interval=RELINEARISE_INTERVAL, n_workers=WORKERS
        )
    ).run()
    t_engine = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = study.options(
        RunOptions.batched(
            lane_width=n_candidates if quick else None,
            n_workers=batched_workers,
            relinearise_interval=RELINEARISE_INTERVAL,
        )
    ).run()
    t_batched = time.perf_counter() - t0

    from repro.core.kernels import resolve_compiled

    compiled_backend = resolve_compiled("auto")
    t0 = time.perf_counter()
    compiled = study.options(
        RunOptions.batched(
            lane_width=n_candidates if quick else None,
            n_workers=batched_workers,
            relinearise_interval=RELINEARISE_INTERVAL,
            compiled="auto",
        )
    ).run()
    t_compiled = time.perf_counter() - t0
    # runtime truth, not the planning count: every candidate's score must
    # actually have come out of a batched lock-step march
    assert batched.engine_info.n_batched_candidates == n_candidates, (
        "the batched comparison did not exercise the batched path "
        f"({batched.engine_info.n_batched_candidates}/{n_candidates} "
        "candidates batched)"
    )

    speedup = t_engine / t_batched
    deviations = [
        abs(fast.score - ref.score) / abs(ref.score)
        for fast, ref in zip(batched.points, engine.points)
    ]
    max_deviation = max(deviations)
    compiled_speedup = t_engine / t_compiled
    compiled_max_dev = max(
        abs(fast.score - ref.score) / abs(ref.score)
        for fast, ref in zip(compiled.points, engine.points)
    )

    rows = [
        [
            f"process engine ({WORKERS} workers, hold {RELINEARISE_INTERVAL})",
            f"{t_engine:.2f}",
            "1.00",
            "0 (reference)",
        ],
        [
            f"batched backend ({batched_workers} worker(s), lane blocks)",
            f"{t_batched:.2f}",
            f"{speedup:.2f}",
            f"{max_deviation:.2e}",
        ],
        [
            f"compiled lane core ({compiled_backend} kernel)",
            f"{t_compiled:.2f}",
            f"{compiled_speedup:.2f}",
            f"{compiled_max_dev:.2e}",
        ],
    ]
    report = format_table(
        ["path", "wall [s]", "speedup", "max score dev (rel)"],
        rows,
        title=(
            f"batched lane-parallel backend — {n_candidates}-candidate "
            f"same-topology grid, {duration_s:g} s simulated per candidate"
        ),
    )
    report += (
        f"\nbest candidate (engine):  {dict(engine.best().parameters)}"
        f"\nbest candidate (batched): {dict(batched.best().parameters)}"
    )
    _write_batch_json(
        n_candidates,
        duration_s,
        t_engine,
        t_batched,
        speedup,
        max_deviation,
        quick,
        batched_workers,
        t_compiled,
        compiled_speedup,
        compiled_max_dev,
        compiled_backend,
    )

    assert engine.best().parameters == batched.best().parameters, (
        "the batched backend changed the winning candidate"
    )
    assert max_deviation <= SCORE_TOLERANCE_REL, (
        f"batched score deviation {max_deviation:.3e} exceeds the documented "
        f"tolerance {SCORE_TOLERANCE_REL}"
    )
    assert compiled_max_dev <= SCORE_TOLERANCE_REL, (
        f"compiled score deviation {compiled_max_dev:.3e} exceeds the "
        f"documented tolerance {SCORE_TOLERANCE_REL}"
    )
    if assert_speedup:
        assert speedup >= MIN_BATCH_SPEEDUP, (
            f"batched speedup {speedup:.2f}x below the required "
            f"{MIN_BATCH_SPEEDUP}x over the process engine"
        )
    return report, speedup, max_deviation


def test_sweep_engine_scaling(report_writer):
    report, speedup, max_dev = run_comparison(FULL_GRID, FULL_DURATION_S)
    report_writer("sweep_scaling", report)


def test_batched_backend_scaling(report_writer):
    report, speedup, max_dev = run_batched_comparison(BATCH_GRID, BATCH_DURATION_S)
    report_writer("batch_scaling", report)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny smoke grids (CI): check correctness, skip the speed-up assertions",
    )
    args = parser.parse_args()
    if args.quick:
        report, speedup, max_dev = run_comparison(
            QUICK_GRID, QUICK_DURATION_S, assert_speedup=False, quick=True
        )
        batch_report, batch_speedup, batch_dev = run_batched_comparison(
            QUICK_GRID, QUICK_DURATION_S, assert_speedup=False, quick=True
        )
    else:
        report, speedup, max_dev = run_comparison(FULL_GRID, FULL_DURATION_S)
        batch_report, batch_speedup, batch_dev = run_batched_comparison(
            BATCH_GRID, BATCH_DURATION_S
        )
    print(report)
    print(f"\nspeedup {speedup:.2f}x, max relative score deviation {max_dev:.2e}")
    print(f"written: {JSON_PATH}")
    print()
    print(batch_report)
    print(
        f"\nbatched speedup {batch_speedup:.2f}x over the process engine, "
        f"max relative score deviation {batch_dev:.2e}"
    )
    print(f"written: {BATCH_JSON_PATH}")


if __name__ == "__main__":
    main()
