"""Batched refresh: prepared stacked refresh vs the per-lane refresh oracle.

Every relinearisation of the batched march evaluates all lanes' block
models.  The prepared batched refresh (the default) scatters the
lane-constant Jacobian fields into a workspace once per march and
rebuilds only the state-dependent fields per refresh, one stacked call
per block group; the per-lane oracle (``BatchedSolver(...,
_perlane_refresh=True)``) dispatches every block of every lane
generically.  The two are bit-identical.

This benchmark marches B=256 supercapacitor-charging lanes (ambient
frequency swept across the tuning range) 0.5 s at a fixed 1e-4 step on a
refresh-bound profile (``relinearise_interval=4``) and asserts:

* **refresh-bound speedup**: the prepared batched refresh is at least 2x
  faster than the per-lane refresh on the same march kernel;
* **byte-identity**: every trace of every lane is bit-equal between the
  two refresh paths.

A record-path micro-bench additionally times the buffered row-recorder
mechanism (geometrically grown ``(cap, B, n)`` arrays materialised into
traces once per lane) against the naive per-sample Python appends it
replaced.

Run directly (writes ``BENCH_compiled.json``)::

    PYTHONPATH=src python benchmarks/bench_compiled.py            # full
    PYTHONPATH=src python benchmarks/bench_compiled.py --quick    # CI smoke

Quick mode shrinks the lane stack and still asserts identity and a
noise-tolerant refresh-bound floor (:data:`MIN_REFRESH_SPEEDUP_QUICK`);
the full-size floor stays out of CI (runners are too noisy for it).
"""

import argparse
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.batch import BatchedSolver
from repro.core.kernels import resolve_compiled
from repro.core.results import Trace
from repro.harvester.scenarios import (
    charging_scenario,
    prepare_assembly,
    scenario_solver_settings,
)
from repro.io.report import format_table

JSON_PATH = Path("BENCH_compiled.json")

#: required refresh-bound advantage of the batched refresh path over
#: per-lane refresh on the same compiled march (full mode)
MIN_REFRESH_SPEEDUP = 2.0
#: noise-tolerant refresh-bound floor asserted even in quick/CI mode
MIN_REFRESH_SPEEDUP_QUICK = 1.3

#: full-mode lane stack
FULL_B = 256
FULL_DURATION_S = 0.5
FIXED_STEP = 1e-4
RECORD_INTERVAL = 2e-2

#: refresh-bound profile: holds so short that linearise→eliminate
#: dominates the march, isolating the batched refresh path
REFRESH_BOUND_INTERVAL = 4
REFRESH_QUICK_B = 64
REFRESH_QUICK_DURATION_S = 0.1

#: lane count of the record-path micro-bench in quick mode
QUICK_B = 16


def build_lanes(b, duration_s):
    """Same-topology charging lanes across the magnetic tuning range.

    66 Hz is the floor: the initial tuned frequency cannot sit below the
    un-tuned resonance (magnetic tuning only raises it).
    """
    return [
        charging_scenario(duration_s=duration_s, frequency_hz=float(f))
        for f in np.linspace(66.0, 80.0, b)
    ]


def run_batch(scenarios, settings_list, compiled, perlane=False):
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
    return solver.run([s.duration_s for s in scenarios])


def assert_byte_identical(reference, result):
    assert set(reference.failures) == set(result.failures)
    for i, (ref, got) in enumerate(zip(reference.results, result.results)):
        assert (ref is None) == (got is None)
        if ref is None:
            continue
        assert sorted(ref.traces) == sorted(got.traces)
        for name in ref.traces:
            assert np.array_equal(ref[name].times, got[name].times), (
                f"lane {i} {name}: trace times differ"
            )
            assert np.array_equal(ref[name].values, got[name].values), (
                f"lane {i} {name}: trace values differ"
            )


def refresh_bound_comparison(b, duration_s, backend):
    """Per-lane vs batched refresh on a refresh-bound compiled march.

    Both legs run the same compiled kernel; only the relinearisation
    path differs, so the ratio isolates the stacked linearise→eliminate
    boundary.  The two paths must stay byte-identical.
    """
    scenarios = build_lanes(b, duration_s)
    settings_list = [
        replace(
            scenario_solver_settings(s),
            fixed_step=FIXED_STEP,
            relinearise_interval=REFRESH_BOUND_INTERVAL,
            record_interval=RECORD_INTERVAL,
        )
        for s in scenarios
    ]

    t0 = time.perf_counter()
    perlane = run_batch(scenarios, settings_list, backend, perlane=True)
    t_perlane = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = run_batch(scenarios, settings_list, backend)
    t_batched = time.perf_counter() - t0

    assert not perlane.failures
    for result in batched.results:
        assert result.metadata["batched_refresh"] is True
    assert_byte_identical(perlane, batched)
    return t_perlane, t_batched


def record_path_microbench(b=256, events=400, n_signals=6):
    """Buffered row-recorder mechanism vs naive per-sample appends.

    Returns ``(t_naive_s, t_buffered_s)`` for recording ``events``
    samples of ``n_signals`` quantities across ``b`` lanes: the naive
    path appends into per-lane :class:`Trace` objects sample by sample,
    the buffered path fills geometrically grown rows and materialises
    traces once per lane (the batched march's mechanism).
    """
    times = np.arange(events) * 1e-3
    values = np.sin(times[:, None, None] + np.arange(b * n_signals).reshape(b, n_signals))

    t0 = time.perf_counter()
    naive = [
        [Trace(f"s{j}") for j in range(n_signals)] for _ in range(b)
    ]
    for e in range(events):
        t = float(times[e])
        frame = values[e]
        for lane in range(b):
            lane_traces = naive[lane]
            lane_frame = frame[lane]
            for j in range(n_signals):
                lane_traces[j].append(t, lane_frame[j])
    t_naive = time.perf_counter() - t0

    t0 = time.perf_counter()
    cap, n = 64, 0
    buf = np.empty((cap, b, n_signals))
    buf_times = np.empty(cap)
    for e in range(events):
        if n == cap:
            cap *= 2
            grown = np.empty((cap, b, n_signals))
            grown[:n] = buf
            buf = grown
            grown_times = np.empty(cap)
            grown_times[:n] = buf_times
            buf_times = grown_times
        buf[n] = values[e]
        buf_times[n] = times[e]
        n += 1
    buffered = [
        [
            Trace.from_samples(f"s{j}", buf_times[:n], buf[:n, lane, j])
            for j in range(n_signals)
        ]
        for lane in range(b)
    ]
    t_buffered = time.perf_counter() - t0

    for lane in range(b):
        for j in range(n_signals):
            assert np.array_equal(
                naive[lane][j].values, buffered[lane][j].values
            )
    return t_naive, t_buffered


def run(quick=False):
    backend = resolve_compiled("auto")
    b = QUICK_B if quick else FULL_B

    refresh_b = REFRESH_QUICK_B if quick else FULL_B
    refresh_duration = REFRESH_QUICK_DURATION_S if quick else FULL_DURATION_S
    t_perlane, t_batched = refresh_bound_comparison(
        refresh_b, refresh_duration, backend
    )
    refresh_speedup = t_perlane / t_batched
    refresh_floor = MIN_REFRESH_SPEEDUP_QUICK if quick else MIN_REFRESH_SPEEDUP
    assert refresh_speedup >= refresh_floor, (
        f"batched refresh speedup {refresh_speedup:.2f}x below the required "
        f"{refresh_floor}x over per-lane refresh "
        f"(refresh-bound profile, hold {REFRESH_BOUND_INTERVAL})"
    )

    t_naive, t_buffered = record_path_microbench(b=b)
    record_ratio = t_naive / t_buffered

    rows = [
        [
            f"per-lane refresh, hold {REFRESH_BOUND_INTERVAL}",
            f"{t_perlane:.2f}",
            "1.00",
            "reference",
        ],
        [
            f"batched refresh, hold {REFRESH_BOUND_INTERVAL}",
            f"{t_batched:.2f}",
            f"{refresh_speedup:.2f}",
            "byte-identical",
        ],
    ]
    report = format_table(
        ["path", "wall [s]", "speedup", "fixed-step waveforms"],
        rows,
        title=(
            f"batched refresh ({backend} kernel) — B={refresh_b} lanes, "
            f"{refresh_duration:g} s at fixed step {FIXED_STEP:g}"
        ),
    )
    report += (
        f"\nrecord path micro-bench: per-sample appends {t_naive:.3f} s vs "
        f"buffered rows {t_buffered:.3f} s ({record_ratio:.1f}x)"
    )

    JSON_PATH.write_text(
        json.dumps(
            {
                "benchmark": "compiled_lane_core",
                "quick": quick,
                "backend": backend,
                "fixed_step": FIXED_STEP,
                "record_interval": RECORD_INTERVAL,
                "refresh_bound": {
                    "n_lanes": refresh_b,
                    "duration_s_per_lane": refresh_duration,
                    "relinearise_interval": REFRESH_BOUND_INTERVAL,
                    "t_perlane_refresh_s": t_perlane,
                    "t_batched_refresh_s": t_batched,
                    "speedup": refresh_speedup,
                    "byte_identical": True,
                    "asserted_floor": refresh_floor,
                },
                "record_microbench": {
                    "n_lanes": b,
                    "t_per_sample_appends_s": t_naive,
                    "t_buffered_rows_s": t_buffered,
                    "ratio": record_ratio,
                },
            },
            indent=2,
        )
        + "\n"
    )
    return report, refresh_speedup


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "small CI smoke stack: assert identity and the relaxed "
            "refresh-bound floor"
        ),
    )
    args = parser.parse_args()
    report, refresh_speedup = run(quick=args.quick)
    print(report)
    print(f"\nbatched refresh {refresh_speedup:.2f}x (refresh-bound)")
    print(f"written: {JSON_PATH}")


if __name__ == "__main__":
    main()
