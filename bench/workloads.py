"""The three benchmark workloads and the measurement loop that drives them.

Every workload is a closed loop with one caller: each operation starts when
the previous one has finished, in one process, with no worker pool. A run
repeats *passes* until the time budget is spent, building the scenario
(set-up) before each one. A pass is the fixed unit of work a user would ask
the command line for:

- wmr-attack: `ftcbf run` on two seeds of scenarios/wmr.yaml (CSV per seed
  plus the sweep metrics JSON), then `ftcbf verify` on the same scenario.
- boeing-failure: `ftcbf run` on four seeds of scenarios/boeing.yaml, then
  `ftcbf verify` (actuator falsification).
- wmr-calibrate: `ftcbf calibrate` (attack-free Monte Carlo, 50 runs) on the
  WMR model, writing the calibration block.

All program inputs (sweep seeds, verify sampler seeds, calibration base
seeds) come from the benchmark seed. They are drawn from fixed pools so that
`digests.json` can hold the output digest of every input the benchmark can
generate.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import ftcbf.cli as cli
import ftcbf.estimators as estimators
import ftcbf.runner as runner
import ftcbf.scenarios as scenarios
import ftcbf.verifier as verifier

from speed import SpeedProbe
from tracer import ROOT_PASS, ROOT_SETUP, Tracer

VERIFY_BUDGET = 2000
VERIFY_POOL = 100
CALIB_RUNS = 50
CALIB_EPSILON = 0.05
CALIB_POOL = 40
CALIB_STRIDE = CALIB_RUNS  # base seeds 0, 50, 100, ...: no run seed is shared


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    sweep_size: int = 0      # seeds per pass; 0 for the calibration workload
    sweep_groups: int = 0    # seed pool = range(sweep_size * sweep_groups)


WORKLOADS = {
    w.name: w for w in (
        Workload("wmr-attack", "scenarios/wmr.yaml", sweep_size=2, sweep_groups=50),
        Workload("boeing-failure", "scenarios/boeing.yaml", sweep_size=4, sweep_groups=50),
        Workload("wmr-calibrate", "scenarios/wmr.yaml"),
    )
}


def plan(workload: Workload, seed: int) -> list:
    """The pass inputs a benchmark seed generates, in run order.

    Pass k of a run uses entry k modulo the list length; the same seed always
    gives the same list.
    """
    rng = np.random.default_rng(seed)
    if workload.sweep_size == 0:
        bases = rng.permutation(CALIB_POOL) * CALIB_STRIDE
        return [{"calib_seed": int(b)} for b in bases]
    groups = rng.permutation(workload.sweep_groups)
    vseeds = rng.permutation(VERIFY_POOL)
    return [{"seeds": [int(groups[k % len(groups)]) * workload.sweep_size + i
                       for i in range(workload.sweep_size)],
             "verify_seed": int(vseeds[k % len(vseeds)])}
            for k in range(max(len(groups), len(vseeds)))]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    """One operation: a seed run, a falsification or a calibration."""

    kind: str          # "seed" | "verify" | "calibrate"
    seconds: float
    units: int         # steps, samples or Monte Carlo runs
    steps: int         # simulated time steps
    ok: bool
    detail: str = ""
    start: float = 0.0  # wall interval (perf_counter) the operation ran in
    end: float = 0.0


class _Stopwatch:
    """Times one operation on the context's clock and stamps its wall interval."""

    def __init__(self, ctx: "Context"):
        self.ctx = ctx
        self.t0 = ctx.clock()
        self.start = time.perf_counter()

    def op(self, kind: str, units: int, steps: int, ok: bool = True, detail: str = "") -> Op:
        return Op(kind, self.ctx.clock() - self.t0, units, steps, ok, detail,
                  self.start, time.perf_counter())

    def failed(self, kind: str) -> Op:
        return self.op(kind, 0, 0, False, traceback.format_exc(limit=3))


@dataclass
class Context:
    scn: object
    out: Path
    reference: dict
    clock: Callable = time.perf_counter
    digests: dict = field(default_factory=dict)
    changed: set = field(default_factory=set)
    seed_metrics: dict = field(default_factory=dict)  # seed -> run metrics

    def record(self, key: str, data: bytes) -> bool:
        """Store an output digest; False when the same output came out different."""
        d = digest(data)
        prev = self.digests.setdefault(key, d)
        ref = self.reference.get(key)
        if ref is not None and ref != d:
            self.changed.add(key)
        return prev == d


def _verify(scn, seed: int) -> dict:
    """Exactly what `ftcbf verify` runs after loading the scenario."""
    if scn.family == "actuator":
        return verifier.falsify_actuator_region(
            scn.af_chain_sets, scn.af_patterns, scn.model, scn.verify_box,
            VERIFY_BUDGET, seed=seed, alpha=lambda s, k=scn.policy.alpha_kappa: k * s)
    bank = estimators.make_bank(scn.model, scn.bank_patterns, scn.x0,
                                mode=scn.estimator_mode, with_pairs=False)
    return verifier.falsify_sensor_region(scn.chains, scn.model, bank.singles,
                                          [float(g) for g in scn.gammas], scn.thetas,
                                          scn.verify_box, VERIFY_BUDGET, seed=seed)


def _check_run(scn, res) -> str:
    m = res.metrics
    if m.get("steps") != scn.n_steps or len(res.controls) != scn.n_steps:
        return f"run has {len(res.controls)} steps, expected {scn.n_steps}"
    if not (math.isfinite(m["min_h"]) and np.all(np.isfinite(res.states))):
        return "non-finite state or barrier value"
    return ""


def _seed_op(ctx: Context, s: int, csv_path: Path):
    watch = _Stopwatch(ctx)
    try:
        res = runner.run_scenario(ctx.scn, s)
        runner.write_csv(res, csv_path)
    except Exception:
        return watch.failed("seed"), None
    op = watch.op("seed", res.metrics["steps"], res.metrics["steps"])
    op.detail = _check_run(ctx.scn, res)
    if not ctx.record(f"{ctx.scn.name}/csv/seed={s}", csv_path.read_bytes()):
        op.detail = op.detail or "CSV differs from an earlier run of the same seed"
    op.ok = not op.detail
    return op, res


def sweep_pass(ctx: Context, inputs: dict, check_rerun: bool) -> tuple:
    """`ftcbf run --seeds a,b,..` then `ftcbf verify --seed v`; returns (ops, timed_s)."""
    scn = ctx.scn
    ops, results = [], []
    for s in inputs["seeds"]:
        op, res = _seed_op(ctx, s, ctx.out / f"{scn.name}_seed{s}.csv")
        ops.append(op)
        if res is not None:
            results.append(res)
            ctx.seed_metrics[s] = res.metrics
    timed = sum(o.seconds for o in ops)

    if results:
        t0 = ctx.clock()
        mpath = ctx.out / f"{scn.name}_metrics.json"
        runner.write_metrics(runner.sweep_metrics(results), mpath)
        timed += ctx.clock() - t0
        seeds = ",".join(str(r.seed) for r in results)
        if not ctx.record(f"{scn.name}/metrics/seeds={seeds}", mpath.read_bytes()):
            ops[0].ok, ops[0].detail = False, "metrics JSON differs from an earlier run"

    watch = _Stopwatch(ctx)
    try:
        report = _verify(scn, inputs["verify_seed"])
        rpath = ctx.out / f"{scn.name}_verify.json"
        rpath.write_text(cli._report_json(report) + "\n", encoding="utf-8")
        vop = watch.op("verify", report["samples"], 0)
        if report["counterexample"] is not None or report["samples"] != VERIFY_BUDGET:
            vop.ok, vop.detail = False, f"verify: {report['verdict']}"
        key = f"{scn.name}/verify/seed={inputs['verify_seed']},budget={VERIFY_BUDGET}"
        if not ctx.record(key, rpath.read_bytes()):
            vop.ok, vop.detail = False, "verify report differs from an earlier run"
    except Exception:
        vop = watch.failed("verify")
    ops.append(vop)
    timed += vop.seconds

    if check_rerun and results:
        # Rerun the sweep's first seed: CSV and per-seed metrics must repeat byte for byte.
        first = results[0]
        again, res2 = _seed_op(ctx, first.seed, ctx.out / f"{scn.name}_rerun.csv")
        same = res2 is not None and again.ok and json.dumps(res2.metrics, sort_keys=True) \
            == json.dumps(first.metrics, sort_keys=True)
        if not same:
            ops[0].ok, ops[0].detail = False, "rerun of the first seed is not identical"
    return ops, timed


def _calibrate(ctx: Context, seed: int):
    scn = ctx.scn
    return estimators.calibrate_gammas(scn.model, scn.faults, CALIB_RUNS, scn.horizon,
                                       CALIB_EPSILON, dt=scn.dt, seed=seed,
                                       mode=scn.estimator_mode)


def _check_calibration(cal) -> str:
    g = np.asarray(cal.gammas, dtype=float)
    if not (np.all(np.isfinite(g)) and np.all(g > 0)):
        return f"gammas not finite and positive: {g.tolist()}"
    for (i, j), th in cal.thetas.items():
        if th != float(g[i] + g[j]):
            return f"theta_{i}{j} != gamma_{i} + gamma_{j}"
    return ""


def calibrate_pass(ctx: Context, inputs: dict, check_rerun: bool) -> tuple:
    """`ftcbf calibrate --runs 50 --epsilon 0.05 --seed b`; returns (ops, timed_s)."""
    seed = inputs["calib_seed"]
    path = ctx.out / "calibration.yaml"
    watch = _Stopwatch(ctx)
    try:
        cal = _calibrate(ctx, seed)
        scenarios.save_config({"calibration": cal.as_config()}, path)
    except Exception:
        op = watch.failed("calibrate")
        return [op], op.seconds
    op = watch.op("calibrate", CALIB_RUNS, CALIB_RUNS * ctx.scn.n_steps)
    op.detail = _check_calibration(cal)
    key = f"{ctx.scn.name}/calibration/seed={seed},runs={CALIB_RUNS}"
    if not ctx.record(key, path.read_bytes()):
        op.detail = op.detail or "calibration block differs from an earlier run"
    if check_rerun and not op.detail:
        again = _calibrate(ctx, seed)
        if again.as_config() != cal.as_config() or \
                not np.array_equal(again.sup_errors, cal.sup_errors):
            op.detail = "calibration repeat with the same seed is not identical"
    op.ok = not op.detail
    return [op], op.seconds


def _median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunOutcome:
    inputs: list
    ctx: Optional[Context] = None
    tracer: Optional[Tracer] = None
    speed: Optional[SpeedProbe] = None
    ops: list = field(default_factory=list)
    passes: list = field(default_factory=list)         # (timed seconds, wall start, wall end)
    setup: list = field(default_factory=list)          # seconds of each scenario build
    setup_speed: list = field(default_factory=list)    # host slowness around each build
    traced_passes: list = field(default_factory=list)  # traced seconds, paired with passes

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.ops if not o.ok)


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            root: Path, out: Path, reference: dict) -> RunOutcome:
    """Run the seed's pass inputs in order until `seconds` of wall time are gone.

    At least one pass runs. The scenario is built once before each pass, so
    set-up is sampled across the whole run. Untraced runs sample the host's
    speed throughout (see speed.py). With trace on, each pass runs twice on
    the same inputs, once plain and once with the tracer installed, so the
    trace overhead is measured pass by pass.
    """
    if trace:
        outcome = RunOutcome(plan(workload, seed), tracer=Tracer())
        _loop(outcome, workload, seconds, root, out, reference, time.perf_counter)
    else:
        outcome = RunOutcome(plan(workload, seed), speed=SpeedProbe())
        with outcome.speed:
            _loop(outcome, workload, seconds, root, out, reference, outcome.speed.clock)
    return outcome


def _loop(outcome: RunOutcome, workload: Workload, seconds: float, root: Path, out: Path,
          reference: dict, clock: Callable) -> None:
    scenario_path = root / workload.scenario
    tracer = outcome.tracer
    run_pass = calibrate_pass if workload.sweep_size == 0 else sweep_pass
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        item = outcome.inputs[k % len(outcome.inputs)]
        if tracer is None:
            before = outcome.speed.local_factor()
            t0 = clock()
            scn = scenarios.load_scenario(scenario_path)
            outcome.setup.append(clock() - t0)
            outcome.setup_speed.append((before + outcome.speed.local_factor()) / 2.0)
        else:
            t0 = clock()
            with tracer.installed(), tracer.span(ROOT_SETUP):
                scn = scenarios.load_scenario(scenario_path)
            outcome.setup.append(clock() - t0)
        if outcome.ctx is None:
            outcome.ctx = Context(scn, out, reference, clock)
        p0 = time.perf_counter()
        ops, timed = run_pass(outcome.ctx, item, check_rerun=(k == 0))
        outcome.ops += ops
        outcome.passes.append((timed, p0, time.perf_counter()))
        if tracer is not None:
            with tracer.installed(), tracer.span(ROOT_PASS) as sid:
                ops, _ = run_pass(outcome.ctx, item, check_rerun=False)
            outcome.ops += ops
            outcome.traced_passes.append(tracer.t1[sid] - tracer.t0[sid])
        k += 1


def _rate(ops, kinds, attr, seconds) -> float:
    sel = [o for o in ops if o.ok and o.kind in kinds]
    secs = sum(seconds(o) for o in sel)
    return sum(getattr(o, attr) for o in sel) / secs if secs > 0 else 0.0


def _timings(outcome: RunOutcome, normalised: bool) -> dict:
    """Timing figures of one untraced run, at the reference speed or as measured.

    Rates are work over time summed across the run's successful operations
    and wall_s is the mean pass time: means follow the host's mix of fast and
    slow phases more smoothly than medians, which flip between the two. When
    normalised, each operation and pass is scaled by the host speed sampled
    while it ran, and each scenario build by the speed measured around it.
    """
    speed = outcome.speed
    if normalised:
        def op_s(o):
            return o.seconds / speed.factor_between(o.start, o.end)
        pass_s = [t / speed.factor_between(a, b) for t, a, b in outcome.passes]
        setup = [t / g for t, g in zip(outcome.setup, outcome.setup_speed)]
    else:
        def op_s(o):
            return o.seconds
        pass_s = [t for t, _, _ in outcome.passes]
        setup = outcome.setup
    calibrating = any(o.kind == "calibrate" for o in outcome.ops)
    steps = ("calibrate", "steps") if calibrating else ("seed", "units")
    return {
        "setup_s": _median(setup),
        "wall_s": float(np.mean(pass_s)),
        "steps_per_s": _rate(outcome.ops, (steps[0],), steps[1], op_s),
        "samples_per_s": _rate(outcome.ops, ("calibrate", "verify"), "units", op_s),
        "calib_runs_per_s": _rate(outcome.ops, ("calibrate",), "units", op_s)
        if calibrating else None,
    }


def raw_timings(outcome: RunOutcome) -> dict:
    """The timing figures as measured, with the run's mean host speed factor."""
    return dict(_timings(outcome, normalised=False), speed_factor=outcome.speed.factor(),
                speed_samples=len(outcome.speed.samples))


def end_to_end(outcome: RunOutcome) -> dict:
    """Every end-to-end figure of one untraced run, by name; times at reference speed."""
    seeds = list(outcome.ctx.seed_metrics.values())
    return dict(
        _timings(outcome, normalised=True),
        peak_rss_mb=_rss_mb(),
        failed_frac=outcome.failed / max(1, outcome.attempted),
        safety_rate=(sum(1 for m in seeds if m["min_h"] >= 0) / len(seeds)) if seeds else None,
        reach_rate=(sum(1 for m in seeds if m["goal_reach_time"] is not None) / len(seeds))
        if seeds and outcome.ctx.scn.clf is not None else None,
    )


# Per-layer figures: span name -> which of calls / self_s to report.
LAYER_SPANS = {
    "simulator.step": ("calls", "self_s"),
    "estimators.bank_step": ("calls", "self_s"),
    "estimators.ekf_step": ("calls", "self_s"),
    "estimators.make_bank": ("calls", "self_s"),
    "estimators.calibrate": ("self_s",),
    "barriers.hoscbf_row": ("calls", "self_s"),
    "clf.clf_row": ("calls", "self_s"),
    "barriers.af_rows": ("calls", "self_s"),
    "policy.active_sets": ("self_s",),
    "policy.assemble": ("calls", "self_s"),
    "policy.decide": ("calls", "self_s"),
    "optimizer.qp_setup": ("calls", "self_s"),
    "optimizer.solve_qp": ("calls", "self_s"),
    "optimizer.farkas": ("calls", "self_s"),
    "verifier.pointwise": ("calls", "self_s"),
    "verifier.falsify": ("self_s",),
    "scenarios.compensator": ("calls", "self_s"),
    "runner.loop": ("self_s",),
    "runner.csv": ("self_s",),
}


def per_layer(outcome: RunOutcome) -> dict:
    """Per-layer figures of one traced run, each per measured pass.

    Set-up spans are reported per scenario build instead.
    """
    tr = outcome.tracer
    passes = len(outcome.traced_passes)
    summary = tr.summary()
    c = tr.counters

    def total(name, key):
        return summary.get(name, {}).get(key, 0)

    out = {}
    for name, keys in LAYER_SPANS.items():
        for key in keys:
            out[f"{name}.{key}"] = total(name, key) / passes
    out["scenarios.build.self_s"] = total("scenarios.build", "self_s") / len(outcome.setup)
    decide_us = tr.durations("policy.decide") * 1e6
    out["policy.decide_us.p50"] = float(np.percentile(decide_us, 50)) if decide_us.size else 0.0
    out["policy.decide_us.p99"] = float(np.percentile(decide_us, 99)) if decide_us.size else 0.0
    out["policy.decide_over_dt"] = float(np.sum(decide_us > outcome.ctx.scn.dt * 1e6)) / passes
    steps = c["decide.steps"]
    out["policy.solves_per_step"] = c["decide.solves"] / steps if steps else 0.0
    out["policy.rows_per_solve"] = c["qp.rows"] / c["qp.solves"] if c["qp.solves"] else 0.0
    for s in (1, 2, 3):
        out[f"policy.resolved_at.{s}"] = c[f"decide.resolved_at.{s}"] / passes
    out["policy.infeasible_steps"] = c["decide.infeasible"] / passes
    out["policy.unfiltered_steps"] = c["decide.unfiltered"] / passes
    out["optimizer.solve_qp.feasible_frac"] = c["qp.feasible"] / c["qp.solves"] if c["qp.solves"] else 0.0
    pw = c["pointwise.calls"]
    out["verifier.vacuous_frac"] = c["pointwise.vacuous"] / pw if pw else 0.0
    out["runner.csv.bytes"] = c["csv.bytes"] / passes
    out["runner.outputs_changed"] = float(len(outcome.ctx.changed))
    ratios = [t / u for t, (u, _, _) in zip(outcome.traced_passes, outcome.passes) if u > 0]
    out["trace.overhead_frac"] = _median(ratios, 1.0) - 1.0
    out["trace.remainder_s"] = total(ROOT_PASS, "self_s") / passes
    out["trace.absent_targets"] = float(len(tr.absent))
    return out
