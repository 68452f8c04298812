"""Self-tests of the benchmark's wrappers and harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import tracer as tracing
from grids import REFERENCE_GRIDS, WORKLOADS, candidate_key, make_inputs
from tracer import ROOT, Target, TargetMissing, Tracer, resolve, wrapped_targets
from workloads import HERE, import_program, load_reference

repro = import_program()


def test_every_wrapped_entry_point_resolves():
    for target in tracing.TARGETS:
        owner, name, original = resolve(target.path)
        assert callable(original), target.path


def test_a_renamed_entry_point_fails_the_install_and_names_it():
    missing = "repro.core.solver:LinearisedStateSpaceSolver.run_renamed"
    targets = (tracing.TARGETS[0], Target(missing, "core.solver"))
    with pytest.raises(TargetMissing, match="run_renamed"):
        Tracer(targets).install()
    assert wrapped_targets() == []  # all or nothing


def test_uninstall_restores_every_binding():
    from repro.core import elimination, linearise

    originals = {target.path: resolve(target.path)[2] for target in tracing.TARGETS}
    imported = elimination.linearise_block
    tracer = Tracer()
    tracer.install()
    try:
        assert sorted(wrapped_targets()) == sorted(originals)
        # a function imported by name elsewhere is wrapped there too
        assert elimination.linearise_block is linearise.linearise_block
        assert elimination.linearise_block is not imported
    finally:
        tracer.uninstall()
    assert wrapped_targets() == []
    for path, original in originals.items():
        assert resolve(path)[2] is original
    assert elimination.linearise_block is imported


def _traced_sweep(study):
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.window():
            study.run()
    finally:
        tracer.uninstall()
    (start, end, bucket), = tracer.records
    return end - start, bucket


def test_self_times_add_up_to_the_window():
    study = (
        repro.Study.scenario(repro.charging_scenario(duration_s=0.005))
        .options(repro.RunOptions.batched(relinearise_interval=4))
        .sweep({"excitation_frequency_hz": [66.0, 70.0]})
    )
    wall, bucket = _traced_sweep(study)
    accounted = sum(bucket.get(f"{layer}.self_s", 0.0) for layer in tracing.LAYERS)
    assert bucket[ROOT] >= 0.0
    assert accounted + bucket[ROOT] == pytest.approx(wall, rel=1e-9)
    assert all(value >= 0.0 for key, value in bucket.items() if key.endswith("_s"))
    assert bucket["core.batch.calls"] == 1
    assert bucket["core.batch.lanes"] == 2
    assert bucket["core.linearise.calls"] > 0
    assert "core.digital.calls" not in bucket
    assert "core.solver.calls" not in bucket


def test_trace_checks_can_fail():
    # windows that do not enclose the repetitions they time
    reps = [run.Rep(1.0, None, None), run.Rep(2.0, None, None)]
    run.check_windows(3.001, reps)
    with pytest.raises(RuntimeError, match="repetitions"):
        run.check_windows(2.9, reps)
    with pytest.raises(RuntimeError, match="repetitions"):
        run.check_windows(3.2, reps)
    # a negative self time (spans that overlapped instead of nesting)
    with pytest.raises(RuntimeError, match="negative"):
        tracing.summed([(0.0, 1.0, {ROOT: 0.5, "core.solver.self_s": -0.1})])
    assert tracing.summed([(0.0, 1.0, {ROOT: 1.0}), (2.0, 2.5, {ROOT: 0.5})]) == ({ROOT: 1.5}, 1.5)
    windows = [(0.0, 1.0, {}), (2.0, 3.0, {})]
    worker = [(0.5, 1.5, {}), (1.5, 1.8, {}), (2.9, 3.1, {})]
    assert tracing.started_within(worker, windows) == [worker[0], worker[2]]


def test_closed_loop_candidates_take_the_scalar_march():
    study = (
        repro.Study.scenario(repro.scenario_1(duration_s=0.05))
        .options(repro.RunOptions.batched())
        .sweep({"excitation_amplitude_ms2": [0.5, 0.6]})
    )
    _, bucket = _traced_sweep(study)
    assert bucket["core.solver.calls"] == 2
    assert bucket["core.digital.activations"] >= 2
    assert "core.batch.calls" not in bucket


def test_untraced_run_installs_no_wrapper(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(Tracer, "install", refuse)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    assert run.main(["--workload", "queue_warm_sweep", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 2 * 128  # the untimed warm-up and one timed sweep
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_seeds_pick_reference_candidates_reproducibly():
    for workload in WORKLOADS:
        reference = load_reference(workload)
        first = make_inputs(workload, 3)
        assert first == make_inputs(workload, 3)
        assert first.candidates() != make_inputs(workload, 4).candidates()
        for candidate in first.candidates():
            assert candidate_key(candidate) in reference
    queue = make_inputs("queue_warm_sweep", 3)
    assert queue.n_candidates == 128 and len(queue.warm) == 64
    assert make_inputs("charging_lanes_sweep", 3).n_candidates == 64
    assert make_inputs("closed_loop_sweep", 3).n_candidates == 1


def test_reference_covers_every_reference_grid():
    for workload, grid in REFERENCE_GRIDS.items():
        size = 1
        for values in grid.axes.values():
            size *= len(values)
        assert len(load_reference(workload)) == size


def test_benchmark_json_matches_the_reported_metrics():
    spec_path = Path(HERE).parent / "BENCHMARK.json"
    if not spec_path.exists():
        pytest.skip("no BENCHMARK.json beside the benchmark")
    spec = json.loads(spec_path.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.xfail(strict=True, reason=(
    "known program defect: with relinearise_interval=4 the resonant 70 Hz / "
    "0.65 m/s^2 charging candidate runs away after ~0.35 s and the stability "
    "guard neither retires nor re-runs it (see README, 'Known defect')"
))
def test_fast_profile_stays_within_its_tolerance_on_resonant_charging():
    def score(options):
        study = (
            repro.Study.scenario(repro.charging_scenario(duration_s=0.4))
            .options(options)
            .sweep({"excitation_amplitude_ms2": [0.65]})
        )
        return study.run().points[0].score

    exact = score(repro.RunOptions.exact())
    assert abs(score(repro.RunOptions.fast(4)) - exact) <= 0.10 * abs(exact)
