"""Command-line front end: run scenarios, calibrate radii, verify feasibility.

    ftcbf run       --scenario wmr.yaml --seeds 20 --out results/
    ftcbf calibrate --scenario wmr.yaml --runs 200 --epsilon 0.05 --out calib.yaml
    ftcbf verify    --scenario boeing.yaml --budget 10000 --out report.json

--seeds takes either a count n >= 1 (seeds 0..n-1) or a comma list (`0,` is seed 0
alone); without it, run takes the scenario file's `seeds:` list. Seeds, and
the --seed of calibrate and verify, are distinct nonnegative integers. run
spreads its seeds over one worker process per usable CPU (taskset limits
them). Exit codes: 0 success, 1 validation/parse error, 2 verify found a
counterexample.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import FtcbfError
from .estimators import calibrate_gammas, make_bank
from .runner import run_sweep, sweep_metrics, write_csv, write_metrics
from .scenarios import check_seed, check_seeds, load_scenario, save_config
from .verifier import falsify_actuator_region, falsify_sensor_region


def _parse_seeds(spec: str) -> list:
    try:
        numbers = [int(s) for s in spec.split(",") if s.strip() != ""]
    except ValueError:
        raise FtcbfError(f"--seeds {spec} must be a count or a comma list of integers") from None
    seeds = numbers if "," in spec else list(range(numbers[0] if numbers else 0))
    if not seeds:
        raise FtcbfError(f"--seeds {spec} names no seed: a count must be at least 1, and "
                         "a comma list names seeds, e.g. --seeds 0, for seed 0 alone")
    return check_seeds(seeds, "--seeds")


def _out_file(path: str) -> Path:
    """--out as a file path that can be written, checked before the work."""
    out = Path(path)
    if out.is_dir():
        raise FtcbfError(f"--out {path} is a directory")
    if not out.parent.is_dir():
        raise FtcbfError(f"--out {path}: {out.parent} is not an existing directory")
    return out


def cmd_run(args) -> int:
    scn = load_scenario(args.scenario)
    seeds = scn.seeds if args.seeds is None else _parse_seeds(args.seeds)
    for note in scn.notes:
        print(f"note: {note}", file=sys.stderr)
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise FtcbfError(f"--out {args.out} is not a directory")
    results = run_sweep(scn, seeds)
    # Made only now, so that a run stopped by a check leaves no directory.
    out.mkdir(parents=True, exist_ok=True)
    for res in results:
        write_csv(res, out / f"{scn.name}_seed{res.seed}.csv")
    metrics = sweep_metrics(results)
    write_metrics(metrics, out / f"{scn.name}_metrics.json")
    print(f"{scn.name}: {len(results)} runs, safety_rate={metrics['safety_rate']}, "
          f"min_h={metrics['min_h']:.6g}")
    return 0


def cmd_calibrate(args) -> int:
    check_seed(args.seed, "--seed")
    out = _out_file(args.out)
    scn = load_scenario(args.scenario)
    if scn.family != "sensor":
        raise FtcbfError("calibration applies to sensor-fault scenarios")
    calib = calibrate_gammas(scn.model, scn.faults, args.runs, scn.horizon,
                             args.epsilon, dt=scn.dt, seed=args.seed,
                             mode=scn.estimator_mode)
    block = {"calibration": calib.as_config()}
    save_config(block, out)
    print(f"gammas={[round(float(g), 6) for g in calib.gammas]} -> {args.out}")
    return 0


def cmd_verify(args) -> int:
    check_seed(args.seed, "--seed")
    out = _out_file(args.out)
    scn = load_scenario(args.scenario)
    if args.budget < 1:
        raise FtcbfError("verification budget must be positive")
    if scn.family == "actuator":
        report = falsify_actuator_region(
            scn.af_chain_sets, scn.af_patterns, scn.model, scn.verify_box,
            args.budget, seed=args.seed,
            alpha=lambda s, k=scn.policy.alpha_kappa: k * s)
    else:
        bank = make_bank(scn.model, scn.bank_patterns, scn.x0,
                         mode=scn.estimator_mode, with_pairs=False)
        gammas = [float(g) for g in scn.gammas]
        report = falsify_sensor_region(scn.chains, scn.model, bank.singles, gammas,
                                       scn.thetas, scn.verify_box, args.budget,
                                       seed=args.seed)
    out.write_text(_report_json(report) + "\n", encoding="utf-8")
    print(report["verdict"])
    return 2 if report["counterexample"] is not None else 0


def _report_json(report: dict) -> str:
    """The report as JSON: arrays as lists, any other non-JSON value as its str."""
    return json.dumps(report, indent=2, sort_keys=True,
                      default=lambda obj: obj.tolist() if hasattr(obj, "tolist") else str(obj))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ftcbf", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scenario over seeds")
    run.add_argument("--scenario", required=True)
    run.add_argument("--seeds", help="count or comma list (default: the scenario's seeds)")
    run.add_argument("--out", required=True)
    run.set_defaults(fn=cmd_run)

    cal = sub.add_parser("calibrate", help="Monte Carlo gamma/theta calibration")
    cal.add_argument("--scenario", required=True)
    cal.add_argument("--runs", type=int, default=200)
    cal.add_argument("--epsilon", type=float, default=0.05)
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--out", required=True)
    cal.set_defaults(fn=cmd_calibrate)

    ver = sub.add_parser("verify", help="sampling-based feasibility falsification")
    ver.add_argument("--scenario", required=True)
    ver.add_argument("--budget", type=int, default=10_000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", required=True)
    ver.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FtcbfError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
