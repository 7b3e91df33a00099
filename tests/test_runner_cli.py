import csv
import json
import math

import numpy as np
import pytest
import yaml

from ftcbf.cli import main
from ftcbf.errors import ContractError
from ftcbf.runner import run_scenario, run_sweep, sweep_metrics, write_csv
from ftcbf.scenarios import build_scenario, load_scenario


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


def test_parallel_sweep_matches_serial():
    scn = build_scenario(FAST)
    serial = run_sweep(scn, [0, 1], workers=1)
    par = run_sweep(scn, [0, 1], workers=2)
    for a, b in zip(serial, par):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.controls, b.controls)


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


def test_cli_run_empty_seeds(tmp_path, wmr_yaml):
    out = tmp_path / "none"
    rc = main(["run", "--scenario", str(wmr_yaml), "--seeds", "0", "--out", str(out)])
    assert rc == 0
    assert not out.exists()


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
    assert main(["run", "--scenario", str(wmr_yaml), "--seeds", "0",
                 "--out", str(tmp_path / "golden")]) == 0
    assert "ftcbf calibrate" not in capsys.readouterr().err
    cfg = yaml.safe_load(wmr_yaml.read_text())
    del cfg["calibration"]
    path = tmp_path / "uncalibrated.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["run", "--scenario", str(path), "--seeds", "0",
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
                                       (_null_sim, "sim: block must be a mapping"),
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
