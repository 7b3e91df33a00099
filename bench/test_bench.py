"""Self-tests of the benchmark: inputs, tracer accounting, reported metrics.

    python3 -m pytest bench -q        # about half a minute
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl
from tracer import ROOT_PASS, ROOT_SETUP, Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Every end-to-end and per-layer figure the benchmark promises (see README.md).
PROMISED_END_TO_END = {"setup_s", "wall_s", "steps_per_s", "samples_per_s", "calib_runs_per_s",
                       "peak_rss_mb", "failed_frac", "safety_rate", "reach_rate"}
PROMISED_PER_LAYER = {
    "simulator.step.calls", "simulator.step.self_s",
    "estimators.bank_step.calls", "estimators.bank_step.self_s",
    "estimators.ekf_step.calls", "estimators.ekf_step.self_s",
    "estimators.make_bank.calls", "estimators.make_bank.self_s", "estimators.calibrate.self_s",
    "barriers.hoscbf_row.calls", "barriers.hoscbf_row.self_s",
    "clf.clf_row.calls", "clf.clf_row.self_s",
    "barriers.af_rows.calls", "barriers.af_rows.self_s",
    "policy.active_sets.self_s", "policy.assemble.calls", "policy.assemble.self_s",
    "policy.decide.calls", "policy.decide.self_s",
    "policy.decide_us.p50", "policy.decide_us.p99",
    "policy.solves_per_step", "policy.rows_per_solve",
    "policy.resolved_at.1", "policy.resolved_at.2", "policy.resolved_at.3",
    "policy.infeasible_steps", "policy.unfiltered_steps",
    "optimizer.qp_setup.calls", "optimizer.qp_setup.self_s",
    "optimizer.solve_qp.calls", "optimizer.solve_qp.self_s", "optimizer.solve_qp.feasible_frac",
    "optimizer.farkas.calls", "optimizer.farkas.self_s",
    "verifier.pointwise.calls", "verifier.pointwise.self_s", "verifier.falsify.self_s",
    "verifier.vacuous_frac",
    "scenarios.build.self_s", "scenarios.compensator.calls", "scenarios.compensator.self_s",
    "runner.loop.self_s", "runner.csv.self_s", "runner.csv.bytes",
    "runner.outputs_changed", "trace.overhead_frac",
}


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs(name):
    w = wl.WORKLOADS[name]
    assert wl.plan(w, 7) == wl.plan(w, 7)
    assert wl.plan(w, 7) != wl.plan(w, 8)
    items = wl.plan(w, 7)
    assert len({json.dumps(item, sort_keys=True) for item in items}) == len(items)
    for item in items:
        if w.sweep_size:
            assert all(0 <= s < w.sweep_size * w.sweep_groups for s in item["seeds"])
            assert 0 <= item["verify_seed"] < wl.VERIFY_POOL
        else:
            assert item["calib_seed"] % wl.CALIB_STRIDE == 0
            assert 0 <= item["calib_seed"] < wl.CALIB_POOL * wl.CALIB_STRIDE


def test_self_times_sum_to_traced_wall(tmp_path):
    outcome = wl.measure(wl.WORKLOADS["boeing-failure"], 0, 0.01, True, run.ROOT, tmp_path, {})
    spans = outcome.tracer.summary()
    wall = spans[ROOT_PASS]["total_s"] + spans[ROOT_SETUP]["total_s"]
    layers = sum(v["self_s"] for k, v in spans.items() if k not in (ROOT_PASS, ROOT_SETUP))
    remainder = spans[ROOT_PASS]["self_s"] + spans[ROOT_SETUP]["self_s"]
    assert remainder >= 0.0
    assert layers + remainder == pytest.approx(wall, rel=1e-9)
    assert remainder < 0.1 * wall
    assert wall == pytest.approx(sum(outcome.traced_passes) + spans[ROOT_SETUP]["total_s"])


def test_missing_target_is_absent_and_patches_are_undone():
    import ftcbf.barriers as barriers
    import ftcbf.policy as policy
    original = policy.hoscbf_row
    tr = Tracer(targets={"barriers.hoscbf_row": ["ftcbf.barriers:hoscbf_row"],
                         "gone": ["ftcbf.barriers:no_such_row", "ftcbf.no_such_module:f",
                                  "ftcbf.estimators:NoSuchClass.step"]})
    with tr.installed():
        assert policy.hoscbf_row is not original
        assert barriers.hoscbf_row is policy.hoscbf_row
    assert tr.absent == ["ftcbf.barriers:no_such_row", "ftcbf.no_such_module:f",
                         "ftcbf.estimators:NoSuchClass.step"]
    assert policy.hoscbf_row is original and barriers.hoscbf_row is original


def test_speed_probe_samples_outside_the_clock():
    import signal
    import time

    from speed import SpeedProbe
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval=0.005) as probe:
        t0, c0 = time.perf_counter(), probe.clock()
        while time.perf_counter() - t0 < 0.2:
            pass
        wall, clocked = time.perf_counter() - t0, probe.clock() - c0
    assert len(probe.samples) >= 5 and probe.factor() > 0
    assert clocked == pytest.approx(wall - sum(probe.samples), abs=1e-3)
    assert signal.getsignal(signal.SIGALRM) is before


def _last_json(capsys) -> dict:
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_every_metric_is_reported(name, capsys):
    args = ["--workload", name, "--seed", "0", "--seconds", "0.01"]
    assert run.main(args + ["--trace", "0"]) == 0
    plain = _last_json(capsys)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    full = json.loads((run.OUT_DIR / f"{name}-seed0-trace0.json").read_text())
    assert set(full["end_to_end"]) == PROMISED_END_TO_END
    assert full["provenance"]["workers"] == 1

    assert run.main(args + ["--trace", "1"]) == 0
    traced = _last_json(capsys)
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert PROMISED_PER_LAYER <= set(traced["metrics"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "wmr-attack",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".bench_out").exists()
