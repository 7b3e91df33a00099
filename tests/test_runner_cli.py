import csv
import json
import math
import os
import pickle
import time
from dataclasses import replace

import numpy as np
import pytest
import yaml

from ftcbf import cli, estimators, policy, runner
from ftcbf.cli import main
from ftcbf.errors import ContractError, RedundancyError, ScenarioValidationError, SolverError
from ftcbf.runner import csv_lines, run_scenario, run_sweep, sweep_metrics, write_csv
from ftcbf.scenarios import build_scenario, load_scenario

from conftest import SCENARIO_DIR


FAST = {"kind": "wmr", "sim": {"horizon": 2.0}, "model": {"sigma": 0.002, "nu": 0.002}}


def test_run_result_shapes():
    scn = build_scenario(FAST)
    res = run_scenario(scn, 0)
    steps = scn.n_steps
    assert res.states.shape == (steps + 1, 4)
    assert res.controls.shape == (steps, 2)
    assert res.estimates.shape == (steps + 1, 2, 4)
    assert res.h_labels == ["h0_b0", "h1_b0"]
    assert res.omega.shape == (steps, 2)
    assert set(res.metrics) >= {"min_h", "violated", "goal_reach_time",
                                "final_state_norm", "policy_infeasible_steps"}


def test_csv_byte_identical(tmp_path):
    scn = build_scenario(FAST)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_scenario(scn, 3), p1)
    write_csv(run_scenario(scn, 3), p2)
    assert p1.read_bytes() == p2.read_bytes()
    write_csv(run_scenario(scn, 4), tmp_path / "c.csv")
    assert p1.read_bytes() != (tmp_path / "c.csv").read_bytes()


def test_actuator_runs_compute_no_output_increment(boeing_yaml, monkeypatch):
    """Only the filters read the output increment, so an actuator run never
    calls measure; its CSV is the bytes of a run that may call it."""
    scn = load_scenario(boeing_yaml)
    expected = csv_lines(run_scenario(scn, 0))
    monkeypatch.setattr(runner, "measure", _never)
    assert csv_lines(run_scenario(scn, 0)) == expected


def test_parallel_sweep_matches_serial(monkeypatch):
    """Two workers run the scenario they are handed, edited after its build:
    the attack moves to pattern 0, and from this x0 the control reads the
    estimates, so a worker that ran another attack would write other lines."""
    scn = build_scenario(dict(FAST, sim={"horizon": 2.0, "x0": [-1.0, -0.05, 0.0, -0.1]}))
    scn.faults.active_fault = 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pooled = run_sweep(scn, [0, 1])
    assert [res.seed for res in pooled] == [0, 1]
    for res in pooled:
        assert np.max(np.abs(res.controls)) > 0.0
        assert csv_lines(res) == csv_lines(run_scenario(scn, res.seed))


def test_unfiltered_steps_are_events_and_final_goal_distance(wmr_yaml):
    """Each step that falls back to the unfiltered control is a
    safety_unfiltered event, and final_goal_distance is the goal norm at the
    last state."""
    scn = load_scenario(wmr_yaml)
    res = run_scenario(scn, 0)
    unfiltered = [k for k, e in res.events if e == "safety_unfiltered"]
    assert len(unfiltered) == res.metrics["unfiltered_steps"] > 0
    assert all(res.Z_log[k] == "" for k in unfiltered)
    idx = scn.goal_indices
    distance = np.linalg.norm(res.states[-1, idx] - scn.clf.x_goal[idx])
    assert res.metrics["final_goal_distance"] == pytest.approx(distance, rel=1e-12)
    metrics = sweep_metrics([res])
    assert metrics["hold_rate"] == float(distance <= scn.goal_radius)
    boeing = sweep_metrics([run_scenario(load_scenario(SCENARIO_DIR / "boeing.yaml"), 0)])
    assert boeing["hold_rate"] is None
    assert boeing["per_seed"]["0"]["final_goal_distance"] is None


def test_compensator_clamp_joins_the_policy_event_of_its_step(wmr_yaml):
    """A WMR run from rest with no active row: step 0 falls back to the
    unfiltered control and its wheel command is clamped at the singularity.
    The clamp, derived after the step loop, joins the policy event of its
    step in the CSV, and the events stay in step order."""
    cfg = yaml.safe_load(wmr_yaml.read_text())
    cfg["clf"] = None
    cfg["policy"] = {"mode": "sensor_ft", "delta": 1e-6}
    cfg["sim"].update(x0=[-1.0, -0.05, 0.0, 0.0], horizon=0.2)
    res = run_scenario(build_scenario(cfg), 0)
    events = [row.split(",")[-1] for row in csv_lines(res)]
    assert events[0] == "event"
    assert events[1] == "safety_unfiltered;compensator_clamped"
    assert (0, "compensator_clamped") in res.events
    assert [k for k, _ in res.events] == sorted(k for k, _ in res.events)


@pytest.mark.parametrize("name", ["wmr", "boeing"])
def test_golden_scenarios_survive_pickling(name):
    """A built scenario crosses a process boundary as it is."""
    scn = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    copy = pickle.loads(pickle.dumps(scn))
    assert csv_lines(run_scenario(copy, 0)) == csv_lines(run_scenario(scn, 0))


def _csv_rows(res, path):
    write_csv(res, path)
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _unfiltered_from_csv(rows):
    """Steps with an empty Z and no policy_infeasible event; the last line
    holds no decision."""
    return sum(r["Z"] == "" and "policy_infeasible" not in r["event"] for r in rows[:-1])


def test_metrics_match_csv_recomputation(tmp_path, wmr_yaml):
    scn = build_scenario(FAST)
    results = [run_scenario(scn, s) for s in (0, 1, 2)]
    metrics = sweep_metrics(results)
    safe = 0
    for res in results:
        rows = _csv_rows(res, tmp_path / f"s{res.seed}.csv")
        min_h = min(float(r["h0_b0"]) for r in rows)
        assert min_h == pytest.approx(res.metrics["min_h"])
        safe += min_h >= 0
        assert res.metrics["unfiltered_steps"] == _unfiltered_from_csv(rows)
    assert metrics["safety_rate"] == pytest.approx(safe / 3)
    # FAST never empties Z in its 2 s; golden seed 0 does from t = 7.14 s.
    res = run_scenario(load_scenario(wmr_yaml), 0)
    unfiltered = _unfiltered_from_csv(_csv_rows(res, tmp_path / "golden.csv"))
    assert res.metrics["unfiltered_steps"] == unfiltered > 0


def test_infinite_attack_stops_the_run_at_its_step(wmr_yaml):
    """An infinite bias on sensor 2 from t = 1 s would turn filter 0's
    estimate to NaN, which then drops out of Z and U unseen because every
    comparison with NaN is false. The run stops at the step instead."""
    scn = load_scenario(wmr_yaml)
    scn.faults.attack = lambda t: math.inf if t >= 1.0 else 0.0
    with pytest.raises(ContractError, match=r"^step 50 \(t = 1 s\): measurement channel \[2\] "
                                            r"is non-finite; filter \[0\] reads it$"):
        run_scenario(scn, 0)


@pytest.mark.parametrize("amplitude, message", [
    (1e160, r"^step 51 \(t = 1.02 s\): the residue of filter \[0\] is non-finite$"),
    (1e154, r"^step 51 \(t = 1.02 s\): row clf\(0\) is non-finite$")],
    ids=["residue", "clf-row"])
def test_huge_attack_stops_the_run_naming_what_overflowed(wmr_yaml, amplitude, message):
    """A huge but finite bias on sensor 2 from t = 1 s leaves filter 0's
    estimate finite but overflows its smoothed residue (1e160) or its CLF row
    (1e154). The run stops at the first step that reads the overflowed
    quantity and names it; no overflow warning escapes."""
    scn = load_scenario(wmr_yaml)
    scn.faults.attack = lambda t: amplitude if t >= 1.0 else 0.0
    with pytest.raises(ContractError, match=message):
        run_scenario(scn, 0)


def test_overflowing_barrier_value_stops_the_run(wmr_yaml):
    """Estimates [0, 1e308, 0, 1e308] are finite, but the golden barrier's
    top-degree value x2 + v2 overflows to +inf at both, and inf < delta is
    false even for delta = +inf, so both filters would leave Z unseen. The
    run stops at the step instead, naming the filters."""
    scn = load_scenario(wmr_yaml)
    scn.policy = replace(scn.policy, mode="sensor_ft")
    scn.x0 = np.array([0.0, 1e308, 0.0, 1e308])
    with pytest.raises(ContractError, match=r"^step 0 \(t = 0 s\): the barrier value of filter "
                                            r"\[0, 1\] is non-finite$"):
        run_scenario(scn, 0)
    # Without the check, the active sets read those values and return no filter.
    bank = estimators.make_bank(scn.model, scn.bank_patterns, scn.x0, gammas=scn.gammas)
    with np.errstate(over="ignore"):
        assert policy.active_sets(bank, scn.chains, scn.clf, scn.policy) == ([], [])


def test_non_finite_estimate_stops_the_run():
    scn = build_scenario(FAST)
    scn.x0 = np.array([np.nan, 0.0, 0.0, 0.0])
    with pytest.raises(ContractError, match=r"^step 0 \(t = 0 s\): the estimate of filter "
                                            r"\[0, 1\] is non-finite$"):
        run_scenario(scn, 0)


def test_cli_run_and_outputs(tmp_path, wmr_yaml):
    out = tmp_path / "runs"
    rc = main(["run", "--scenario", str(wmr_yaml), "--seeds", "2",
               "--out", str(out)])
    assert rc == 0
    csvs = sorted(out.glob("*.csv"))
    assert len(csvs) == 2
    metrics = json.loads((out / "wmr-sensor-attack_metrics.json").read_text())
    assert metrics["seeds"] == [0, 1]
    header = csvs[0].read_text().splitlines()[0].split(",")
    assert "omega1" in header and "slack_min" in header and "removed" in header


def test_cli_run_empty_seeds(tmp_path, wmr_yaml, capsys):
    """A seed count below 1, or a comma list without a seed, runs nothing: it
    is an error that names the comma-list form, and nothing is written."""
    out = tmp_path / "none"
    for spec in ("0", "-1", ","):
        rc = main(["run", "--scenario", str(wmr_yaml), "--seeds", spec, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "--seeds 0," in err
        assert "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "--seeds", "2,-1"], "--seeds: entry 1 must be nonnegative, got -1"),
    (["run", "--seeds", "1,1"], "--seeds lists seed 1 twice"),
    (["run", "--seeds", "1.5"], "--seeds 1.5 must be a count or a comma list of integers"),
    (["verify", "--seed", "-1"], "--seed must be nonnegative, got -1"),
    (["calibrate", "--seed", "-3"], "--seed must be nonnegative, got -3")],
    ids=["negative-seed", "repeated-seed", "fractional-seed", "negative-verify-seed",
         "negative-calibrate-seed"])
def test_cli_bad_seeds_are_errors(tmp_path, wmr_yaml, capsys, argv, message):
    """Seeds are distinct nonnegative integers; anything else is an error that
    names the flag, and nothing is written."""
    out = tmp_path / "out"
    rc = main(argv + ["--scenario", str(wmr_yaml), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_run_defaults_to_the_scenario_seeds(tmp_path, boeing_yaml):
    """Without --seeds, run takes the file's seeds: list."""
    cfg = yaml.safe_load(boeing_yaml.read_text())
    cfg["seeds"] = [3, 5]
    path = tmp_path / "two_seeds.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "b"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    names = {p.name for p in out.glob("*.csv")}
    assert names == {"boeing-actuator-failure_seed3.csv", "boeing-actuator-failure_seed5.csv"}
    metrics = json.loads((out / "boeing-actuator-failure_metrics.json").read_text())
    assert metrics["seeds"] == [3, 5]


def test_cli_seed_list_parsing(tmp_path, boeing_yaml):
    out = tmp_path / "b"
    rc = main(["run", "--scenario", str(boeing_yaml), "--seeds", "5,9", "--out", str(out)])
    assert rc == 0
    names = {p.name for p in out.glob("*.csv")}
    assert names == {"boeing-actuator-failure_seed5.csv", "boeing-actuator-failure_seed9.csv"}


def test_cli_missing_scenario_is_error(tmp_path):
    rc = main(["run", "--scenario", str(tmp_path / "nope.yaml"), "--seeds", "1",
               "--out", str(tmp_path)])
    assert rc == 1


def _never(*args, **kwargs):
    raise AssertionError("the work ran before --out was checked")


@pytest.mark.parametrize("case", ["run-out-is-a-file", "calibrate-out-below-a-file",
                                  "verify-out-below-a-file", "run-scenario-is-a-directory"])
def test_cli_file_errors_are_error_lines(tmp_path, wmr_yaml, capsys, monkeypatch, case):
    """A file error is an error line; run, calibrate and verify find a --out
    they cannot write before the sweep, the Monte Carlo or the falsifier
    runs."""
    for work in ("run_sweep", "calibrate_gammas", "falsify_sensor_region",
                 "falsify_actuator_region"):
        monkeypatch.setattr(cli, work, _never)
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = {"run-out-is-a-file": ["run", "--scenario", str(wmr_yaml), "--seeds", "0,",
                                  "--out", str(taken)],
            "calibrate-out-below-a-file": ["calibrate", "--scenario", str(wmr_yaml),
                                           "--runs", "50", "--out", str(taken / "x.yaml")],
            "verify-out-below-a-file": ["verify", "--scenario", str(wmr_yaml),
                                        "--out", str(taken / "r.json")],
            "run-scenario-is-a-directory": ["run", "--scenario", str(tmp_path), "--seeds", "0,",
                                            "--out", str(tmp_path / "out")]}[case]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.splitlines()[-1].startswith("error:") and "Traceback" not in err
    assert taken.read_text() == ""


@pytest.mark.parametrize("command", ["run", "calibrate"])
def test_cli_refuses_a_gain_its_euler_step_cannot_carry(tmp_path, wmr_yaml, capsys, monkeypatch,
                                                        command):
    """With model: nu: 2e-5 the golden WMR's single filters get a gain whose
    fastest error mode the Euler step at dt = 0.02 scales by 1.83; run and
    calibrate stop with an error line before any filter step, and leave no
    output behind: no file, and no empty --out directory."""
    monkeypatch.setattr(estimators, "ekf_step", _never)
    cfg = yaml.safe_load(wmr_yaml.read_text())
    cfg["model"]["nu"] = 2e-5
    path = tmp_path / "quiet_sensors.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = {"run": ["--seeds", "0,", "--out", str(tmp_path / "out")],
           "calibrate": ["--runs", "50", "--out", str(tmp_path / "c.yaml")]}[command]
    rc = main([command, "--scenario", str(path)] + out)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.splitlines()[-1].startswith(
        "error: filter single 0: its Euler step scales a decaying error mode "
        "by |1 + mu dt| = 1.83 >= 1; sim: dt = 0.02")
    assert "Traceback" not in err
    assert not (tmp_path / "c.yaml").exists()
    assert not (tmp_path / "out").exists()


def test_cli_clf_without_a_stabilizable_pair_fails_at_once(tmp_path, capsys):
    """The second state of F = [[0, 1], [0, 0]] gets no input from
    G = [[1], [0]] and does not decay, so no LQR gain stabilizes F for the
    CLF. The detectability test of the dual pair says so at once, before
    the Riccati solve."""
    doc = {"kind": "custom",
           "model": {"F": [[0.0, 1.0], [0.0, 0.0]], "G": [[1.0], [0.0]],
                     "c": [[1.0, 0.0], [0.0, 1.0]], "sigma": 0.01, "nu": 0.01},
           "barriers": [{"type": "half_plane", "a": [1.0, 0.0], "b": 1.0}],
           "clf": {"radius": 0.1, "goal_indices": [0]}}
    path = tmp_path / "unstabilizable.yaml"
    path.write_text(yaml.safe_dump(doc))
    t0 = time.perf_counter()
    rc = main(["run", "--scenario", str(path), "--seeds", "0,", "--out", str(tmp_path / "out")])
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: clf: the Lyapunov solve on F is singular, and the unit LQR "
                          "weights that would stabilize F give no gain ((F, c_r) is not "
                          "detectable: the mode of eigenvalue 0 of F")
    assert elapsed < 1.0
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("q", [1e308, [1e200] * 4], ids=["scalar-1e308", "diagonal-1e200"])
def test_cli_refuses_lqr_weights_whose_hamiltonian_is_not_resolved(tmp_path, boeing_yaml, capsys,
                                                                    q):
    """At these weights the Riccati Hamiltonian's eigenvalues at F's scale
    drown in its rounding, and one lands on the imaginary axis where F has
    no eigenvalue. The error names the nominal block and no eigenvalue."""
    cfg = yaml.safe_load(boeing_yaml.read_text())
    cfg["policy"]["nominal"]["q"] = q
    path = tmp_path / "huge_weights.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = main(["run", "--scenario", str(path), "--seeds", "0,", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("error: policy: nominal: the LQR weights q and r give no gain (the Riccati "
                   "Hamiltonian's spectrum is not resolved in double precision: it shows an "
                   "eigenvalue on the imaginary axis that F does not have)\n")
    assert not (tmp_path / "out").exists()


def test_cli_solver_error_names_its_step(tmp_path, boeing_yaml, capsys):
    """The golden Boeing in baseline mode with the bank-angle box |phi| <= 0.1
    diverges, and at step 121 the QP kernel finds neither an active set nor
    a certificate. The SolverError is raised again, chained, naming the
    step and its time; the CLI prints it and writes nothing."""
    cfg = yaml.safe_load(boeing_yaml.read_text())
    cfg["policy"]["mode"] = "baseline"
    cfg["barriers"] += [{"type": "half_plane", "a": [0, 0, 0, sign], "b": 0.1}
                        for sign in (1, -1)]
    with pytest.raises(SolverError, match=r"^step 121 \(t = 12\.1 s\): no KKT active set and "
                                          r"no Farkas certificate$") as info:
        run_scenario(build_scenario(cfg), 0)
    assert type(info.value.__cause__) is SolverError
    path = tmp_path / "bank_box.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = main(["run", "--scenario", str(path), "--seeds", "0,", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == ("error: step 121 (t = 12.1 s): no KKT active set and no "
                                       "Farkas certificate\n")
    assert not (tmp_path / "out").exists()


def test_cli_calibrate_block_merges(tmp_path, wmr_yaml):
    out = tmp_path / "calib.yaml"
    rc = main(["calibrate", "--scenario", str(wmr_yaml), "--runs", "50",
               "--epsilon", "0.1", "--out", str(out)])
    assert rc == 0
    block = yaml.safe_load(out.read_text())
    assert set(block["calibration"]) == {"gammas", "thetas", "epsilon", "n_runs"}
    cfg = yaml.safe_load(wmr_yaml.read_text())
    cfg["calibration"] = block["calibration"]
    scn = build_scenario(cfg)
    assert np.allclose(scn.gammas, block["calibration"]["gammas"])


def test_cli_calibrate_too_few_runs(tmp_path, wmr_yaml):
    rc = main(["calibrate", "--scenario", str(wmr_yaml), "--runs", "10",
               "--out", str(tmp_path / "c.yaml")])
    assert rc == 1


@pytest.mark.parametrize("epsilon", ["-1", "3", "nan"])
def test_cli_calibrate_bad_epsilon(tmp_path, wmr_yaml, capsys, epsilon):
    rc = main(["calibrate", "--scenario", str(wmr_yaml), "--runs", "50",
               "--epsilon", epsilon, "--out", str(tmp_path / "c.yaml")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "epsilon" in err
    assert not (tmp_path / "c.yaml").exists()


def test_cli_verify_exit_codes(tmp_path, boeing_yaml):
    rc = main(["verify", "--scenario", str(boeing_yaml), "--budget", "200",
               "--out", str(tmp_path / "rep.json")])
    assert rc == 0
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["counterexample"] is None and report["samples"] == 200

    degenerate = {
        "name": "dead", "kind": "custom",
        "model": {"F": [[0.0, 1.0], [0.0, 0.0]], "G": [[0.0], [0.0]],
                  "c": [[1.0, 0.0]], "sigma": 0.0, "nu": 0.01},
        "faults": {"patterns": [[]]},
        "barriers": [{"type": "half_plane", "a": [1.0, 0.0], "b": 0.5,
                      "force_degree": 0}],
        "sim": {"dt": 0.01, "horizon": 1.0, "x0": [0.0, 0.0]},
    }
    path = tmp_path / "degenerate.yaml"
    path.write_text(yaml.safe_dump(degenerate))
    rc = main(["verify", "--scenario", str(path), "--budget", "100",
               "--out", str(tmp_path / "rep2.json")])
    assert rc == 2
    report = json.loads((tmp_path / "rep2.json").read_text())
    assert report["counterexample"] is not None


def test_an_actuator_pattern_without_authority_fails_as_before(tmp_path, boeing_yaml, capsys,
                                                              monkeypatch):
    """Golden Boeing with the pattern [0, 0, 0] added and its barriers pinned
    at degree 0 (force_degree) loads, but that pattern's rows are zero.
    The run raises RedundancyError at step 0's decision, before any plant
    step; `ftcbf run` prints it as an error line and leaves no --out
    directory; `ftcbf verify` reports it at sample 0 with the reason, in
    the bytes it has always had."""
    cfg = yaml.safe_load(boeing_yaml.read_text())
    cfg["policy"]["patterns"] = [[1, 1, 1], [0, 0, 0]]
    for spec in cfg["barriers"]:
        spec["force_degree"] = 0
    path = tmp_path / "no_authority.yaml"
    path.write_text(yaml.safe_dump(cfg))
    message = "pattern 1 has no control authority at this state"

    calls = []
    monkeypatch.setattr(policy, "af_rows",
                        lambda *a, f=policy.af_rows, **kw: calls.append(1) or f(*a, **kw))
    monkeypatch.setattr(runner, "step_true_state", _never)
    with pytest.raises(RedundancyError, match=f"^{message}$"):
        run_scenario(load_scenario(path), 0)
    assert calls == [1]

    rc = main(["run", "--scenario", str(path), "--seeds", "0,", "--out", str(tmp_path / "out")])
    assert rc == 1 and capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()

    rc = main(["verify", "--scenario", str(path), "--budget", "100",
               "--out", str(tmp_path / "rep.json")])
    assert rc == 2
    point = [-0.8462891603103861, 0.025000000000000022, 0.16185490951046755, 0.6334959729993455]
    expected = {"budget": 100, "checked_conditions": "actuator CBF set, patterns=2, box=1.0",
                "counterexample": {"certificate": None, "feasible": False, "point": {"x": point},
                                   "reason": message},
                "samples": 1, "seeds": [0], "verdict": "counterexample"}
    assert (tmp_path / "rep.json").read_text() == cli._report_json(expected) + "\n"


def test_cli_verify_uncalibrated_sensor_scenario(tmp_path, wmr_yaml, capsys):
    """Without a calibration block theta is +inf: rejected before sampling."""
    cfg = yaml.safe_load(wmr_yaml.read_text())
    del cfg["calibration"]
    path = tmp_path / "uncalibrated.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = main(["verify", "--scenario", str(path), "--budget", "10",
               "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "ftcbf calibrate" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_cli_run_notes_uncalibrated_sensor_scenario(tmp_path, wmr_yaml, capsys):
    """`run` keeps going without a calibration block but says what that costs."""
    assert main(["run", "--scenario", str(wmr_yaml), "--seeds", "0,",
                 "--out", str(tmp_path / "golden")]) == 0
    assert "ftcbf calibrate" not in capsys.readouterr().err
    cfg = yaml.safe_load(wmr_yaml.read_text())
    del cfg["calibration"]
    path = tmp_path / "uncalibrated.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["run", "--scenario", str(path), "--seeds", "0,",
                 "--out", str(tmp_path / "out")]) == 0
    assert "ftcbf calibrate" in capsys.readouterr().err


def _without_model(cfg):
    cfg.update(kind="custom")
    del cfg["model"]


def _without_half_plane_normal(cfg):
    del cfg["barriers"][0]["a"]


def _misspelt_block(cfg):
    cfg["calibraton"] = cfg.pop("calibration")


def _actuator_mode_without_patterns(cfg):
    cfg["policy"]["mode"] = "actuator_ft"


def _sensor_mode_with_patterns(cfg):
    cfg["policy"]["patterns"] = [[1, 1]]


def _one_gamma(cfg):
    del cfg["calibration"]["gammas"][1:]


def _extra_fault_pattern(cfg):
    cfg["faults"]["patterns"].append([4])


def _null_sim(cfg):
    cfg["sim"] = None


def _scalar_gammas(cfg):
    cfg["calibration"]["gammas"] = 0.01


def _list_thetas(cfg):
    cfg["calibration"]["thetas"] = [0.02]


def _scalar_patterns(cfg):
    cfg["faults"]["patterns"] = 5


def _bare_barrier_name(cfg):
    cfg["barriers"] = ["half_plane"]


def _scalar_failure_patterns(cfg):
    cfg["policy"].update(mode="actuator_ft", patterns=5)


def _scalar_attack(cfg):
    cfg["faults"]["attack"] = 5


def _scalar_nominal(cfg):
    cfg["policy"]["nominal"] = 5


def _scalar_goal_indices(cfg):
    cfg["clf"]["goal_indices"] = 5


def _text_dt(cfg):
    cfg["sim"]["dt"] = "x"


def _infinite_dt(cfg):
    cfg["sim"]["dt"] = float("inf")


def _text_attack_amplitude(cfg):
    cfg["faults"]["attack"]["amplitude"] = "big"


def _indefinite_cost(cfg):
    cfg["sim"]["cost"] = [[1.0, 0.0], [0.0, -1.0]]


def _three_by_three_cost(cfg):
    cfg["sim"]["cost"] = np.eye(3).tolist()


def _text_cost(cfg):
    cfg["sim"]["cost"] = [["a", 0.0], [0.0, 1.0]]


def _infinite_attack_amplitude(cfg):
    cfg["faults"]["attack"]["amplitude"] = float("inf")


def _nan_attack_start(cfg):
    cfg["faults"]["attack"]["start"] = float("nan")


def _infinite_ramp_rate(cfg):
    cfg["faults"]["attack"] = {"type": "ramp", "rate": float("-inf")}


@pytest.mark.parametrize("edit, key", [(_without_model, "'model'"),
                                       (_without_half_plane_normal, "'a'"),
                                       (_misspelt_block, "'calibraton'"),
                                       (_actuator_mode_without_patterns, "needs failure patterns"),
                                       (_sensor_mode_with_patterns, "'sensor_ft_clf'"),
                                       (_one_gamma, "1 gammas given for 2 fault patterns"),
                                       (_extra_fault_pattern, "2 gammas given for 3 fault patterns"),
                                       (_null_sim, "sim must be a mapping"),
                                       (_scalar_gammas, "calibration: gammas must be a list"),
                                       (_list_thetas, "calibration: thetas must be a mapping"),
                                       (_scalar_patterns, "faults: patterns must be a list"),
                                       (_bare_barrier_name,
                                        "barriers: entry 0 must be a mapping"),
                                       (_scalar_failure_patterns,
                                        "policy: patterns must be a list"),
                                       (_scalar_attack, "faults: attack must be a mapping"),
                                       (_scalar_nominal, "policy: nominal must be a mapping"),
                                       (_scalar_goal_indices, "clf: goal_indices must be a list"),
                                       (_text_dt, "sim: dt must be a number"),
                                       (_infinite_dt, "sim: dt must be finite"),
                                       (_indefinite_cost, "sim: cost"),
                                       (_three_by_three_cost, "sim: cost"),
                                       (_text_cost, "sim: cost"),
                                       (_infinite_attack_amplitude,
                                        "faults: attack amplitude must be finite"),
                                       (_nan_attack_start,
                                        "faults: attack start must be finite"),
                                       (_infinite_ramp_rate,
                                        "faults: attack rate must be finite"),
                                       (_text_attack_amplitude,
                                        "faults: attack amplitude must be a number")],
                         ids=["custom-without-model", "half-plane-without-a", "unknown-block",
                              "actuator-mode-without-patterns", "sensor-mode-with-patterns",
                              "one-gamma", "extra-fault-pattern", "null-sim", "scalar-gammas",
                              "list-thetas", "scalar-patterns", "bare-barrier-name",
                              "scalar-failure-patterns", "scalar-attack", "scalar-nominal",
                              "scalar-goal-indices", "text-dt", "infinite-dt", "indefinite-cost",
                              "three-by-three-cost", "text-cost", "infinite-attack-amplitude",
                              "nan-attack-start", "infinite-ramp-rate",
                              "text-attack-amplitude"])
def test_cli_bad_scenario_keys_are_errors(tmp_path, wmr_yaml, capsys, edit, key):
    cfg = yaml.safe_load(wmr_yaml.read_text())
    edit(cfg)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = main(["run", "--scenario", str(path), "--seeds", "0", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err


def _set(*path_and_value):
    """An edit that sets the value at the path of keys, creating mappings
    on the way."""
    *path, last, value = path_and_value

    def edit(cfg):
        node = cfg
        for key in path:
            node = node.setdefault(key, {})
        node[last] = value
    return edit


def _on_boeing(*edits):
    """An edit that replaces the document by the Boeing scenario, then
    applies edits to it."""
    def edit(cfg):
        cfg.clear()
        cfg.update(yaml.safe_load((SCENARIO_DIR / "boeing.yaml").read_text()))
        for e in edits:
            e(cfg)
    return edit


@pytest.mark.parametrize("edit, message", [
    (_set("policy", "u_mx", 3.0), "policy: unknown key 'u_mx' (allowed: mode, delta, u_max"),
    (_set("sim", "horizn", 3.0), "sim: unknown key 'horizn'"),
    (_set("clf", "radus", 0.1), "clf: unknown key 'radus'"),
    (_set("faults", "attack", "amplitud", 0.1), "faults: attack: unknown key 'amplitud'"),
    (_set("policy", "nominal", {"type": "lqr", "qq": 1.0}),
     "policy: nominal: unknown key 'qq'"),
    (_set("barriers", [{"type": "half_plane", "a": [0.0, 1.0, 0.0, 0.0], "b": 0.1, "bb": 1.0}]),
     "barriers: entry 0: unknown key 'bb' (allowed: type, force_degree, a, b)"),
    (_set("calibration", "epsilom", 0.05), "calibration: unknown key 'epsilom'"),
    (_set("policy", "u_max", -1.0), "policy: u_max must be positive"),
    (_set("policy", "u_max", 0.0), "policy: u_max must be positive"),
    (_set("sim", "dt", -0.02), "sim: dt must be positive"),
    (_set("sim", "horizon", float("nan")), "sim: horizon must be finite"),
    (_set("sim", "horizon", 0.0), "sim: horizon must be positive"),
    (_set("clf", "radius", [1]), "clf: radius must be a number"),
    (_set("faults", "active", "1"), "faults: active must be an integer"),
    (_set("policy", "mode", "sensor-ft"),
     "policy: mode must be one of actuator_ft, baseline, sensor_ft, sensor_ft_clf, "
     "got 'sensor-ft'"),
    (_set("estimators", "mode", "kalman"),
     "estimators: mode must be one of constant_gain, open_loop, got 'kalman'"),
    (_set("estimators", "mode", "riccati_ode"),
     "estimators: mode must be one of constant_gain, open_loop, got 'riccati_ode'"),
    (_set("seeds", ["0"]), "seeds: entry 0 must be an integer"),
    (_set("seeds", [-1, 0, 0]), "seeds: entry 0 must be nonnegative, got -1"),
    (_set("seeds", [0, 1, 0]), "seeds lists seed 0 twice"),
    (_set("clf", "pos_dim", 9), "clf: pos_dim must lie in 0..4, got 9"),
    (_on_boeing(_set("policy", "patterns", [[1, 1, 1], [1, 0, 1], [0, 1]])),
     "policy: patterns entry 2 must have 3 entries"),
    (_on_boeing(_set("policy", "nominal", "q", [1.0, 200.0])),
     "policy: nominal q must have 4 entries"),
    (_set("sim", "x0", [-1.0, -0.05, 0.15]), "sim: x0 must have 4 entries"),
    (_set("calibration", "gammas", [-0.01, 0.01]),
     "calibration: gammas entry 0 must be nonnegative"),
    (_set("calibration", "thetas", {"0,1": -0.02}), "calibration: thetas 0,1 must be nonnegative"),
    (_set("estimators", "smoothing", 2.0), "estimators: smoothing must lie in [0, 1)"),
    (_set("estimators", "smoothing", 1.0), "estimators: smoothing must lie in [0, 1), got 1.0"),
    (_set("barriers", [{"type": "half_plane", "a": [0.0, 1.0, 0.0, 0.0], "b": 0.1,
                        "force_degree": -1}]),
     "barriers: entry 0 force_degree must be nonnegative"),
    (_set("barriers", [{"type": "half_plane", "a": [0.0, 1.0, 0.0], "b": 0.1}]),
     "barriers: entry 0 a must have 4 entries"),
    (_set("barriers", [{"type": "ellipsoid", "Phi": [[1.0, 0.0], [0.0, 1.0]],
                        "center": [0.0, 0.0, 0.0, 0.0]}]),
     "barriers: entry 0 Phi must be a 4 x 4 matrix"),
    (_set("model", "c", [[1.0, 0.0, 0.0]]), "model: c must be a matrix with 4 columns"),
    (_set("barriers", [{"type": "polynomial",
                        "terms": [{"exponents": [0, -1, 0, 0], "coeff": 1.0}]}]),
     "barriers: entry 0 terms entry 0 exponents entry 1 must be nonnegative"),
    (_set("clf", "v_bar_fraction", -1.0), "clf: v_bar_fraction must be nonnegative"),
    (_set("sim", "horizon", 0.001), "sim: horizon 0.001 is shorter than one step"),
    (_on_boeing(_set("policy", "patterns", [[1, 1, 1], [0.5, 0, 1]])),
     "policy: patterns entry 1 entry 0 must be 0 or 1, got 0.5"),
    (_on_boeing(_set("faults", "failure_schedule", [{"step": 10, "time": 50.0, "L": [1, 0, 1]}])),
     "faults: failure_schedule entry 0 must name exactly one of step and time"),
    (_on_boeing(_set("policy", "nominal", "r", 0)), "policy: nominal r must be positive, got 0"),
    (_on_boeing(_set("policy", "nominal", "q", -1)),
     "policy: nominal q must be nonnegative, got -1"),
    (_on_boeing(_set("faults", "failure_schedule", [{"step": 0.5, "L": [1, 0, 1]}])),
     "faults: failure_schedule entry 0 step must be an integer, got 0.5"),
    (_on_boeing(_set("faults", "failure_schedule", [{"step": -5, "L": [1, 0, 1]}])),
     "faults: failure_schedule entry 0 step must be nonnegative, got -5"),
    (_on_boeing(_set("policy", "nominal", "q", 1e308)),
     "policy: nominal: the LQR weights q and r give no gain"),
    (_set("policy", "delta", 0), "policy: delta must be positive or .inf, got 0"),
    (_set("clf", "goal_indices", []), "clf: goal_indices: at least one entry is required"),
    (_set("clf", {"radius": 0.05, "goal_indices": [], "v_bar": 0.1}),
     "clf: goal_indices: at least one entry is required"),
    (_set("barriers", [{"type": "half_plane", "a": [0.0, 1.0, 0.0, 0.0], "b": 0.1},
                       {"type": "ellipsoid", "Phi": np.eye(4).tolist(), "center": [0.0] * 4}]),
     "barriers: entry 1 is not a half-plane, so the nonzero calibration: gammas"),
    (_set("sim", {"dt": 1.0e-300, "horizon": 1.0e+300}),
     "sim: horizon 1e+300 / dt = 1e-300 is not a finite step count"),
    (_set("faults", {"patterns": [], "active": None, "attack": None}),
     "faults: patterns: at least one entry is required"),
    (_set("model", "sigma", 1.0e+200), "model: sigma: the covariance sigma sigma^T overflows"),
    (_set("model", "nu", 1.0e+200), "model: nu: the covariance nu nu^T overflows")],
    ids=["policy-key", "sim-key", "clf-key", "attack-key", "nominal-key", "barrier-key",
         "calibration-key", "negative-u-max", "zero-u-max", "negative-dt", "nan-horizon",
         "zero-horizon", "list-radius", "text-active", "unknown-mode",
         "unknown-estimator-mode", "removed-estimator-mode", "text-seed", "negative-seed",
         "repeated-seed", "pos-dim-past-n", "short-failure-pattern",
         "short-nominal-q", "short-x0", "negative-gamma", "negative-theta",
         "smoothing-above-one", "smoothing-of-one", "negative-force-degree", "short-barrier-normal",
         "small-ellipsoid", "narrow-output-matrix", "negative-exponent",
         "negative-v-bar-fraction", "horizon-below-dt", "fractional-failure-pattern",
         "step-and-time", "zero-lqr-r", "negative-lqr-q", "fractional-failure-step",
         "negative-failure-step", "huge-lqr-q", "zero-delta",
         "empty-goal-indices", "empty-goal-indices-with-v-bar", "gamma-on-an-ellipsoid",
         "step-count-overflow", "empty-sensor-patterns", "huge-sigma", "huge-nu"])
def test_cli_unread_keys_and_unusable_values_are_errors(tmp_path, wmr_yaml, capsys, edit,
                                                         message):
    cfg = yaml.safe_load(wmr_yaml.read_text())
    edit(cfg)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = main(["run", "--scenario", str(path), "--seeds", "0,", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_failure_schedule_entry_keys_are_checked(boeing_yaml):
    cfg = yaml.safe_load(boeing_yaml.read_text())
    cfg["faults"]["failure_schedule"][1]["stpe"] = 100
    with pytest.raises(ScenarioValidationError,
                       match=r"faults: failure_schedule entry 1: unknown key 'stpe' "
                             r"\(allowed: step, time, L\)"):
        build_scenario(cfg)


def test_cli_malformed_yaml_is_an_error(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("kind: wmr\nsim: {dt: 0.02\n")
    rc = main(["run", "--scenario", str(path), "--seeds", "0", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "not valid YAML" in err
    assert "Traceback" not in err


def test_cli_scenario_past_the_qp_budget_is_an_error(tmp_path, boeing_yaml, capsys):
    """Four barriers under three failure patterns give a control QP of 12
    rows in p = 3, more row sets than the optimizer enumerates."""
    cfg = yaml.safe_load(boeing_yaml.read_text())
    cfg["barriers"] += [{"type": "half_plane", "a": [1.0, 0.0, 0.0, 0.0], "b": 1.0},
                        {"type": "half_plane", "a": [-1.0, 0.0, 0.0, 0.0], "b": 1.0}]
    path = tmp_path / "four_barriers.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = main(["run", "--scenario", str(path), "--seeds", "0", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "12 rows in p = 3" in err
    assert "Traceback" not in err


def test_wmr_with_three_barriers_runs(wmr_yaml):
    """Three barriers at two estimates, two CLF rows and the input box: 12
    rows in p = 2, whose infeasible steps need certificates of 3 rows."""
    cfg = yaml.safe_load(wmr_yaml.read_text())
    cfg["barriers"] += [{"type": "half_plane", "a": [0.0, -1.0, 0.0, 0.0], "b": 1.0},
                        {"type": "half_plane", "a": [1.0, 0.0, 0.0, 0.0], "b": 2.0}]
    res = run_scenario(build_scenario(cfg), 0)
    assert res.metrics["steps"] == 600
    assert not res.metrics["violated"]


def test_cli_verify_zero_budget(tmp_path, boeing_yaml):
    rc = main(["verify", "--scenario", str(boeing_yaml), "--budget", "0",
               "--out", str(tmp_path / "r.json")])
    assert rc == 1


def test_events_logged_on_boeing(boeing_yaml):
    scn = load_scenario(boeing_yaml)
    res = run_scenario(scn, 0)
    assert res.metrics["policy_infeasible_steps"] == 0
    assert res.omega is None  # compensator is WMR-only
