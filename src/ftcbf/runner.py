"""Per-seed simulation runs, trajectory records, CSV and metrics emission.

One run integrates the true SDE, feeds attacked measurements to the estimator
bank, resolves the per-step constraint set into a control, and logs
everything the diagnostics need: per-estimator estimates and residues, active
sets and removal reasons, barrier chain values on the true state, CLF value,
minimum constraint slack, and policy events. Identical (scenario, seed)
inputs produce byte-identical CSVs; floats are printed with 17 significant
digits so files round-trip exactly. A non-finite measurement or estimate
stops the run with a ContractError naming the step, its time and the filter,
since NaN would otherwise fail every comparison and drop out of the active
sets unseen.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .clf import goal_reach_time
from .errors import ContractError
from .estimators import make_bank
from .policy import (ResolveOutcome, active_sets, actuator_control,
                     assemble_constraints, resolve_conflicts)
from .scenarios import Scenario, build_scenario, wmr_compensator
from .simulator import apply_actuator_failure, measure, step_true_state


@dataclass
class RunResult:
    seed: int
    scenario: str
    times: np.ndarray
    states: np.ndarray
    estimates: Optional[np.ndarray]   # (steps+1, m, n) single-filter estimates
    controls: np.ndarray              # (steps, p)
    h_values: np.ndarray              # (steps+1, total chain members)
    h_labels: list
    V: Optional[np.ndarray]
    Z_log: list
    U_log: list
    removed_log: list
    residues: Optional[np.ndarray]
    slack_min: np.ndarray
    omega: Optional[np.ndarray]
    events: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


def _chain_values(scn: Scenario, x: np.ndarray) -> np.ndarray:
    vals = []
    for ch in scn.chains:
        for d in range(len(ch)):
            vals.append(ch.value(d, x))
    return np.array(vals)


def _chain_labels(scn: Scenario) -> list:
    labels = []
    for b, ch in enumerate(scn.chains):
        for d in range(len(ch)):
            labels.append(f"h{d}_b{b}")
    return labels


def _estimates(bank, k: int, t: float) -> np.ndarray:
    """The single filters' estimates at step k; a non-finite one is an error
    naming the step and the filter."""
    x_hats = np.array([est.x_hat for est in bank.singles])
    bad = np.flatnonzero(~np.isfinite(x_hats).all(axis=1)).tolist()
    if bad:
        raise ContractError(f"step {k} (t = {t:.6g} s): the estimate of filter {bad} is non-finite")
    return x_hats


def run_scenario(scn: Scenario, seed: int) -> RunResult:
    rng = np.random.default_rng(seed)
    model = scn.model
    dt = scn.dt
    steps = scn.n_steps
    n, p, q = model.n, model.p, model.q
    sensor_family = scn.family == "sensor"

    bank = None
    m = 0
    if sensor_family:
        with_pairs = len(scn.bank_patterns) > 1
        bank = make_bank(model, scn.bank_patterns, scn.x0, mode=scn.estimator_mode,
                         gammas=scn.gammas, thetas=scn.thetas, with_pairs=with_pairs,
                         smoothing=scn.estimator_smoothing)
        m = bank.m

    x = scn.x0.copy()
    times = np.arange(steps + 1) * dt
    states = np.zeros((steps + 1, n))
    estimates = np.zeros((steps + 1, m, n)) if sensor_family else None
    controls = np.zeros((steps, p))
    h_values = np.zeros((steps + 1, len(_chain_labels(scn))))
    V_vals = np.zeros(steps + 1) if scn.clf is not None else None
    residues = np.zeros((steps, m)) if sensor_family else None
    slack_min = np.full(steps, np.nan)
    Z_log, U_log, removed_log = [], [], []
    omega = np.zeros((steps, 2)) if scn.compensator else None
    events = []
    unfiltered = 0

    theta = 0.0
    omega1 = 0.0
    if scn.compensator:
        vx, vy = x[2], x[3]
        omega1 = math.hypot(vx, vy)
        theta = math.atan2(vy, vx) if omega1 > 0 else 0.0

    for k in range(steps):
        t = k * dt
        states[k] = x
        h_values[k] = _chain_values(scn, x)
        if V_vals is not None:
            V_vals[k] = scn.clf.value(x)
        if sensor_family:
            estimates[k] = _estimates(bank, k, t)
            residues[k] = bank.residues()
            Z0, U0 = active_sets(bank, scn.chains, scn.clf, scn.policy)
            builder = lambda Zs, Us: assemble_constraints(  # noqa: E731
                scn.policy, model, scn.chains, bank, scn.clf, Zs, Us)
            outcome: ResolveOutcome = resolve_conflicts(bank, Z0, U0, builder, scn.qp)
        else:
            outcome = actuator_control(scn.policy, model, x, scn.af_chain_sets,
                                       scn.af_patterns, scn.qp)
        u = outcome.u
        controls[k] = u
        Z_log.append(";".join(str(i) for i in outcome.Z))
        U_log.append(";".join(str(i) for i in outcome.U))
        removed_log.append(";".join(f"{i}:{why}" for i, why in outcome.removed))
        if len(outcome.b):
            slack_min[k] = np.min(np.vecdot(outcome.A, u) - outcome.b)
        if outcome.infeasible_event:
            events.append((k, "policy_infeasible"))
        elif sensor_family and not outcome.Z:
            # Z names the estimators whose safety rows the accepted QP holds;
            # every actuator row is a safety row.
            unfiltered += 1

        if scn.compensator:
            comp = wmr_compensator(u, theta, omega1, dt)
            omega1 = comp.omega1
            theta += comp.omega2 * dt
            omega[k] = (comp.omega1, comp.omega2)
            if comp.clamped:
                events.append((k, "compensator_clamped"))

        u_applied = apply_actuator_failure(u, scn.faults.effectiveness_at(t))
        # one RNG stream per run, state draw before measurement draw
        w = rng.standard_normal(n)
        v = rng.standard_normal(q)
        y_inc = measure(model, x, t, scn.faults, v, dt)
        x = step_true_state(model, x, u_applied, dt, w)
        if sensor_family:
            bad = np.flatnonzero(~np.isfinite(y_inc)).tolist()
            if bad:
                readers = [i for i, est in enumerate(bank.singles) if set(bad) & set(est.sensors)]
                raise ContractError(f"step {k} (t = {t:.6g} s): measurement channel {bad} "
                                    f"is non-finite; filter {readers} reads it")
            bank.step(model, u, y_inc, dt)

    states[steps] = x
    h_values[steps] = _chain_values(scn, x)
    if V_vals is not None:
        V_vals[steps] = scn.clf.value(x)
    if sensor_family:
        estimates[steps] = _estimates(bank, steps, steps * dt)

    h0_cols = [_chain_labels(scn).index(f"h0_b{b}") for b in range(len(scn.chains))]
    min_h = float(np.min(h_values[:, h0_cols]))
    reach = None
    if scn.clf is not None and scn.goal_radius is not None:
        reach = goal_reach_time(times, states, scn.clf, scn.goal_radius,
                                indices=scn.goal_indices)
    metrics = {
        "min_h": min_h,
        "violated": bool(min_h < 0.0),
        "goal_reach_time": reach,
        "final_state_norm": float(np.linalg.norm(x)),
        "policy_infeasible_steps": sum(1 for _, e in events if e == "policy_infeasible"),
        "unfiltered_steps": unfiltered,
        "steps": steps,
    }
    return RunResult(seed=seed, scenario=scn.name, times=times, states=states,
                     estimates=estimates, controls=controls, h_values=h_values,
                     h_labels=_chain_labels(scn), V=V_vals, Z_log=Z_log, U_log=U_log,
                     removed_log=removed_log, residues=residues, slack_min=slack_min,
                     omega=omega, events=events, metrics=metrics)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def csv_lines(res: RunResult) -> list:
    steps = len(res.controls)
    m = res.estimates.shape[1] if res.estimates is not None else 0
    n = res.states.shape[1]
    p = res.controls.shape[1]
    header = ["t"] + [f"x{j + 1}" for j in range(n)]
    for i in range(m):
        header += [f"xhat{i}_{j + 1}" for j in range(n)]
    header += [f"u{j + 1}" for j in range(p)]
    header += res.h_labels
    header += ["V", "Z", "U", "removed"]
    header += [f"res{i}" for i in range(m)]
    header += ["slack_min"]
    if res.omega is not None:
        header += ["omega1", "omega2"]
    header += ["event"]
    lines = [",".join(header)]
    ev: dict = {}
    for k, e in res.events:
        ev[k] = f"{ev[k]};{e}" if k in ev else e
    for k in range(steps + 1):
        row = [_fmt(res.times[k])] + [_fmt(v) for v in res.states[k]]
        for i in range(m):
            row += [_fmt(v) for v in res.estimates[k, i]]
        last = k == steps
        row += [""] * p if last else [_fmt(v) for v in res.controls[k]]
        row += [_fmt(v) for v in res.h_values[k]]
        row += [_fmt(res.V[k]) if res.V is not None else ""]
        row += ["" if last else res.Z_log[k], "" if last else res.U_log[k],
                "" if last else res.removed_log[k]]
        for i in range(m):
            row += ["" if last else _fmt(res.residues[k, i])]
        row += ["" if last or math.isnan(res.slack_min[k]) else _fmt(res.slack_min[k])]
        if res.omega is not None:
            row += ["", ""] if last else [_fmt(res.omega[k, 0]), _fmt(res.omega[k, 1])]
        row += ["" if last else ev.get(k, "")]
        lines.append(",".join(row))
    return lines


def write_csv(res: RunResult, path) -> None:
    Path(path).write_text("\n".join(csv_lines(res)) + "\n", encoding="utf-8")


def sweep_metrics(results: list) -> dict:
    per_seed = {}
    reach_times = []
    violations = 0
    for r in results:
        per_seed[str(r.seed)] = r.metrics
        if r.metrics["violated"]:
            violations += 1
        if r.metrics["goal_reach_time"] is not None:
            reach_times.append(r.metrics["goal_reach_time"])
    n = len(results)
    return {
        "scenario": results[0].scenario if results else "",
        "seeds": [r.seed for r in results],
        "per_seed": per_seed,
        "safety_violations": violations,
        "safety_rate": (n - violations) / n if n else None,
        "mean_reach_time": float(np.mean(reach_times)) if reach_times else None,
        "reach_rate": len(reach_times) / n if n else None,
        "min_h": min((r.metrics["min_h"] for r in results), default=None),
    }


def _run_from_config(args) -> RunResult:
    cfg, seed = args
    return run_scenario(build_scenario(cfg), seed)


def worker_count(n_jobs: int) -> int:
    cap = os.environ.get("FTCBF_THREADS")
    cap = int(cap) if cap else (os.cpu_count() or 1)
    return max(1, min(cap, n_jobs))


def run_sweep(scn: Scenario, seeds, workers: Optional[int] = None) -> list:
    """Run one scenario over seeds; parallel across processes when allowed.

    Workers rebuild the scenario from its config dict (model callables do not
    cross process boundaries). Results come back in seed order regardless of
    scheduling.
    """
    seeds = list(seeds)
    if not seeds:
        return []
    w = worker_count(len(seeds)) if workers is None else workers
    if w <= 1 or len(seeds) == 1:
        return [run_scenario(scn, s) for s in seeds]
    with ProcessPoolExecutor(max_workers=w) as pool:
        return list(pool.map(_run_from_config, [(scn.config, s) for s in seeds]))


def write_metrics(metrics: dict, path) -> None:
    Path(path).write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
