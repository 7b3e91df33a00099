"""Per-seed simulation runs, trajectory records, CSV and metrics emission.

One run integrates the true SDE, feeds attacked measurements to the estimator
bank, resolves the per-step constraint set into a control, and logs
everything the diagnostics need: per-estimator estimates and residues, active
sets and removal reasons, barrier chain values on the true state, CLF value,
minimum constraint slack, WMR wheel commands, and policy events. Identical
(scenario, seed) inputs produce byte-identical CSVs; floats are printed with
17 significant digits so files round-trip exactly.

The step loop holds only the feedback: it observes the filters, decides the
control, records the decision, applies the actuator failure, and steps the
plant and the bank. What a run only records is derived once from the
finished trajectory: the barrier values from one stacked BarrierChain.value
call per chain member, the CLF values from one QuadraticClf.value call,
and the wheel commands from the compensator recurrence over the controls,
whose clamp events are merged into the policy events in step order.

A sensor-fault step assembles the rows of its active sets once, with the row
terms a run never changes computed before the first step
(policy.fixed_row_terms), and hands them to the policy, whose pruning
re-solves select from those rows. An actuator step likewise computes only
its bounds, from the terms of the failure rows built before the first step
(barriers.af_fixed_terms); only the sensor family computes the output
increment, which its filters read, but both draw the same noise. A
non-finite measurement, estimate, smoothed residue or constraint row stops
the run with a ContractError naming the step, its time and the filter or
the row's source, since NaN would otherwise fail every comparison and drop
out of the active sets unseen. A huge but finite measurement overflows to
such a value; the overflow itself raises no floating-point warning. A
SolverError from a step's decision is raised again, chained, with the step
and its time in front of its message.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .barriers import af_fixed_terms
from .clf import goal_distances, goal_reach_time
from .errors import ContractError, SolverError
from .estimators import make_bank
from .policy import (active_sets, actuator_control, assemble_constraints,
                     fixed_row_terms, resolve_conflicts)
from .scenarios import Scenario, wmr_compensator
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
    goal_radius: Optional[float]      # the scenario's, for the sweep's hold_rate
    events: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


def _wheel_commands(x0: np.ndarray, controls: np.ndarray, dt: float):
    """The WMR compensator recurrence over a run's controls, from the
    heading of x0: the (steps, 2) wheel commands and the steps it clamped."""
    omega1 = math.hypot(x0[2], x0[3])
    theta = math.atan2(x0[3], x0[2]) if omega1 > 0 else 0.0
    omega = np.zeros((len(controls), 2))
    clamped = []
    for k, u in enumerate(controls):
        comp = wmr_compensator(u, theta, omega1, dt)
        omega1 = comp.omega1
        theta += comp.omega2 * dt
        omega[k] = (comp.omega1, comp.omega2)
        if comp.clamped:
            clamped.append(k)
    return omega, clamped


def _filter_state(bank, k: int, t: float):
    """The single filters' estimates and smoothed residues at step k; a
    non-finite one is an error naming the step and the filter."""
    x_hats = np.array([est.x_hat for est in bank.singles])
    residues = bank.residues()
    if not (np.isfinite(x_hats).all() and np.isfinite(residues).all()):
        for what, values in (("estimate", x_hats), ("residue", residues[:, None])):
            bad = np.flatnonzero(~np.isfinite(values).all(axis=1)).tolist()
            if bad:
                raise ContractError(f"step {k} (t = {t:.6g} s): the {what} of filter {bad} "
                                    "is non-finite")
    return x_hats, residues


def _check_rows(rows, k: int, t: float) -> None:
    """A non-finite row is an error naming the step and the row's source."""
    A, b, sources, _ = rows
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        bad = np.flatnonzero(~(np.isfinite(A).all(axis=1) & np.isfinite(b)))[0]
        raise ContractError(f"step {k} (t = {t:.6g} s): row {sources[bad]} is non-finite")


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
        bank = make_bank(model, scn.bank_patterns, scn.x0, mode=scn.estimator_mode,
                         gammas=scn.gammas, thetas=scn.thetas, smoothing=scn.estimator_smoothing)
        bank.check_euler_step(model, dt)
        m = bank.m
        fixed = fixed_row_terms(model, scn.chains, bank, scn.clf)
    else:
        fixed = af_fixed_terms(scn.af_chain_sets, scn.af_patterns, model)

    x = scn.x0.copy()
    times = np.arange(steps + 1) * dt
    states = np.zeros((steps + 1, n))
    estimates = np.zeros((steps + 1, m, n)) if sensor_family else None
    controls = np.zeros((steps, p))
    residues = np.zeros((steps, m)) if sensor_family else None
    slack_min = np.full(steps, np.nan)
    Z_log, U_log, removed_log = [], [], []
    events = []

    for k in range(steps):
        t = k * dt
        states[k] = x
        if sensor_family:
            estimates[k], residues[k] = _filter_state(bank, k, t)
            # A huge but finite estimate can overflow a CLF value or a row:
            # the overflow is caught by the check below, which names it.
            with np.errstate(over="ignore", invalid="ignore"):
                Z0, U0 = active_sets(bank, scn.chains, scn.clf, scn.policy)
                rows = assemble_constraints(scn.policy, model, scn.chains, bank, scn.clf,
                                            Z0, U0, fixed)
            _check_rows(rows, k, t)
        try:
            outcome = (resolve_conflicts(bank, Z0, U0, rows, scn.qp) if sensor_family
                       else actuator_control(scn.policy, model, x, scn.af_chain_sets,
                                             scn.af_patterns, scn.qp, fixed))
        except SolverError as exc:
            raise type(exc)(f"step {k} (t = {t:.6g} s): {exc}") from exc
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
            events.append((k, "safety_unfiltered"))

        u_applied = apply_actuator_failure(u, scn.faults.effectiveness_at(t))
        # One RNG stream per run, state draw before measurement draw, in
        # either family; only the filters read the output increment.
        w = rng.standard_normal(n)
        v = rng.standard_normal(q)
        if sensor_family:
            y_inc = measure(model, x, t, scn.faults, v, dt)
            bad = np.flatnonzero(~np.isfinite(y_inc)).tolist()
            if bad:
                readers = [i for i, est in enumerate(bank.singles) if set(bad) & set(est.sensors)]
                raise ContractError(f"step {k} (t = {t:.6g} s): measurement channel {bad} "
                                    f"is non-finite; filter {readers} reads it")
            # An overflowing residue is named at the next step's check.
            with np.errstate(over="ignore", invalid="ignore"):
                bank.step(model, u, y_inc, dt)
        x = step_true_state(model, x, u_applied, dt, w)

    states[steps] = x
    if sensor_family:
        estimates[steps] = _filter_state(bank, steps, steps * dt)[0]

    members = [(b, d) for b, ch in enumerate(scn.chains) for d in range(len(ch))]
    h_labels = [f"h{d}_b{b}" for b, d in members]
    h_values = np.stack([scn.chains[b].value(d, states) for b, d in members], axis=1)
    min_h = float(np.min(h_values[:, [d == 0 for _, d in members]]))
    V_vals = scn.clf.value(states) if scn.clf is not None else None
    omega = None
    if scn.compensator:
        omega, clamped = _wheel_commands(scn.x0, controls, dt)
        # a stable sort keeps a step's policy event before its clamp
        events = sorted(events + [(k, "compensator_clamped") for k in clamped],
                        key=lambda e: e[0])
    reach = final_distance = None
    if scn.clf is not None:
        reach = goal_reach_time(times, states, scn.clf, scn.goal_radius,
                                indices=scn.goal_indices)
        final_distance = float(goal_distances(states[-1:], scn.clf, scn.goal_indices)[0])
    counts = Counter(e for _, e in events)
    metrics = {
        "min_h": min_h,
        "violated": bool(min_h < 0.0),
        "goal_reach_time": reach,
        "final_goal_distance": final_distance,
        "final_state_norm": float(np.linalg.norm(x)),
        "policy_infeasible_steps": counts["policy_infeasible"],
        "unfiltered_steps": counts["safety_unfiltered"],
        "steps": steps,
    }
    return RunResult(seed=seed, scenario=scn.name, times=times, states=states,
                     estimates=estimates, controls=controls, h_values=h_values,
                     h_labels=h_labels, V=V_vals, Z_log=Z_log, U_log=U_log,
                     removed_log=removed_log, residues=residues, slack_min=slack_min,
                     omega=omega, goal_radius=scn.goal_radius, events=events, metrics=metrics)


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
    held = []
    violations = 0
    for r in results:
        per_seed[str(r.seed)] = r.metrics
        if r.metrics["violated"]:
            violations += 1
        if r.metrics["goal_reach_time"] is not None:
            reach_times.append(r.metrics["goal_reach_time"])
        if r.metrics["final_goal_distance"] is not None:
            held.append(r.metrics["final_goal_distance"] <= r.goal_radius)
    n = len(results)
    return {
        "scenario": results[0].scenario if results else "",
        "seeds": [r.seed for r in results],
        "per_seed": per_seed,
        "safety_violations": violations,
        "safety_rate": (n - violations) / n if n else None,
        "mean_reach_time": float(np.mean(reach_times)) if reach_times else None,
        "reach_rate": len(reach_times) / n if n else None,
        "hold_rate": sum(held) / n if held else None,
        "min_h": min((r.metrics["min_h"] for r in results), default=None),
    }


def run_sweep(scn: Scenario, seeds) -> list:
    """Run one scenario over seeds, in seed order.

    The seeds are spread over a process pool with one worker per CPU this
    process may use, at most one per seed; each worker runs a pickled copy
    of scn itself, so a scenario edited after its build runs as edited. With
    one usable CPU, or one seed, the seeds run in this process.
    """
    seeds = list(seeds)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, len(seeds))
    if workers <= 1:
        return [run_scenario(scn, s) for s in seeds]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_scenario, [scn] * len(seeds), seeds))


def write_metrics(metrics: dict, path) -> None:
    Path(path).write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
