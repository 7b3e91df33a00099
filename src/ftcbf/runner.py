"""Per-seed simulation runs, trajectory records, CSV and metrics emission.

One run integrates the true SDE and, at every step, asks the run's
controller for a control, records the decision, applies the actuator
failure, lets the controller advance on the step's noise, and steps the
plant. Identical (scenario, seed) inputs produce byte-identical CSVs; floats
are printed with 17 significant digits so files round-trip exactly.

The paper's two feedback laws are one controller each, picked once from the
scenario's fault family and built before step 0; the step loop holds no
family branch. Both families draw the same noise from one RNG stream per
run, the state draw before the measurement draw.
- _SensorControl runs FT-CBF rows over a bank of reduced-sensor filters. It
  owns the bank, the row terms no step changes (policy.fixed_row_terms) and
  the records of the filters' estimates and smoothed residues, each taken
  when the bank reaches its step. A decision computes once, from the
  estimates, what its active sets and rows read (policy.step_terms),
  assembles the rows of its active sets once and hands them to the pruning
  policy (policy.resolve_conflicts). Advancing measures the output
  increment, which only its filters read, and steps the bank in place.
- _ActuatorControl evaluates HOCBF rows over the redundant failure patterns
  at the true state (policy.actuator_control), from the terms of those rows
  built once per run (barriers.af_fixed_terms). Every one of its rows is a
  safety row, so no step of it is safety_unfiltered.

The sensor controller stops the run with a ContractError naming the step,
its time and the filter or the row's source at a non-finite measurement
channel that a filter reads, estimate, smoothed residue, barrier value at
an estimate or constraint row, since NaN would otherwise fail every
comparison and drop out of the active sets unseen, and so would a barrier
value of +inf, which no delta exceeds. A huge but finite measurement or
estimate overflows to such a value; the overflow itself raises no
floating-point warning. A SolverError from a step's decision is raised
again, chained, with the step and its time in front of its message.

What a run only records is derived once from the finished trajectory: the
barrier values from one stacked BarrierChain.value call per chain member,
the CLF values from one QuadraticClf.value call, and the WMR wheel commands
in closed form from the controls (_wheel_commands): the polar form of the
commanded velocity, whose Euler unicycle retraces the noise-free plant.
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
from .policy import (ResolveOutcome, active_sets, actuator_control, assemble_constraints,
                     fixed_row_terms, resolve_conflicts, step_terms)
from .scenarios import Scenario
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
    residues: Optional[np.ndarray]    # (steps, m) smoothed residues
    slack_min: np.ndarray
    omega: Optional[np.ndarray]
    goal_radius: Optional[float]      # the scenario's, for the sweep's hold_rate
    events: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


def _wheel_commands(x0: np.ndarray, controls: np.ndarray, dt: float) -> np.ndarray:
    """The (steps, 2) wheel commands of a run's controls, in closed form.

    The commanded velocity is v_k = x0[2:4] + dt sum_{j<k} u_j. Its heading
    is unwrapped modulo pi, so it stays continuous through zero speed, where
    the robot reverses, and a speed of exactly zero keeps the last heading.
    Row k is the signed speed omega1 = v_{k+1} . (cos, sin) theta_{k+1} and
    the turn rate omega2 = (theta_{k+1} - theta_k) / dt.
    """
    v = np.vstack([x0[2:4], x0[2:4] + dt * np.cumsum(controls, axis=0)])
    moving = np.any(v != 0.0, axis=1)
    last = np.maximum.accumulate(np.where(moving, np.arange(len(v)), 0))
    theta = np.unwrap(np.arctan2(v[last, 1], v[last, 0]), period=np.pi)
    heading = np.stack([np.cos(theta[1:]), np.sin(theta[1:])], axis=1)
    return np.stack([np.vecdot(v[1:], heading), np.diff(theta) / dt], axis=1)


def _at(k: int, dt: float) -> str:
    """Step k and its time, as an error message names them."""
    return f"step {k} (t = {k * dt:.6g} s)"


class _SensorControl:
    """The sensor-fault law over a bank of reduced-sensor filters."""

    def __init__(self, scn: Scenario):
        self.scn = scn
        self.bank = make_bank(scn.model, scn.bank_patterns, scn.x0, mode=scn.estimator_mode,
                              gammas=scn.gammas, thetas=scn.thetas,
                              smoothing=scn.estimator_smoothing)
        self.bank.check_euler_step(scn.model, scn.dt)
        self.fixed = fixed_row_terms(scn.policy, scn.model, scn.chains, self.bank, scn.clf)
        # The channels some single filter reads; a pair filter reads fewer.
        self.read = np.isin(np.arange(scn.model.q),
                            [c for est in self.bank.singles for c in est.sensors])
        self.estimates = np.zeros((scn.n_steps + 1, self.bank.m, scn.model.n))
        self.residues = np.zeros((scn.n_steps, self.bank.m))
        self._record(0)

    def _record(self, k: int) -> None:
        """Record the filters' estimates at step k, and their smoothed
        residues before the last step; a non-finite one is an error naming
        the step and the filter."""
        x_hats = self.estimates[k]
        x_hats[:] = [est.x_hat for est in self.bank.singles]
        residues = self.bank.residues()
        if k < len(self.residues):
            self.residues[k] = residues
        if not (np.isfinite(x_hats).all() and np.isfinite(residues).all()):
            for what, values in (("estimate", x_hats), ("residue", residues[:, None])):
                bad = np.flatnonzero(~np.isfinite(values).all(axis=1)).tolist()
                if bad:
                    raise ContractError(f"{_at(k, self.scn.dt)}: the {what} of filter {bad} "
                                        "is non-finite")

    def decide(self, k: int, x: np.ndarray) -> ResolveOutcome:
        """Steps 1-3 of the pruning policy over the rows of the active sets
        at the filters' estimates of step k; the true state x is not read."""
        scn = self.scn
        # A huge but finite estimate can overflow a barrier value or a row:
        # the checks below name the overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            terms = step_terms(self.estimates[k], scn.chains, scn.clf, scn.policy,
                               self.fixed.offsets)
            # +inf would fail every comparison with delta, even delta = +inf,
            # and NaN every comparison at all, so the filter would leave Z unseen.
            if not np.isfinite(terms.shrunk).all():
                bad = np.flatnonzero(~np.isfinite(terms.shrunk).all(axis=1)).tolist()
                raise ContractError(f"{_at(k, scn.dt)}: the barrier value of filter {bad} "
                                    "is non-finite")
            Z, U = active_sets(terms, scn.policy)
            rows = assemble_constraints(scn.policy, scn.model, scn.chains, self.bank, scn.clf,
                                        Z, U, self.fixed, terms)
        A, b, sources, _ = rows
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            bad = np.flatnonzero(~(np.isfinite(A).all(axis=1) & np.isfinite(b)))[0]
            raise ContractError(f"{_at(k, scn.dt)}: row {sources[bad]} is non-finite")
        return resolve_conflicts(self.bank, Z, U, rows, scn.qp)

    def unfiltered(self, outcome: ResolveOutcome) -> bool:
        """Whether the accepted QP holds no safety row: Z names the
        estimators whose safety rows it holds."""
        return not outcome.Z

    def advance(self, k: int, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
        """Step the filters on the output increment of step k, drawn with the
        measurement noise v, and record them at step k + 1."""
        scn = self.scn
        y_inc = measure(scn.model, x, k * scn.dt, scn.faults, v, scn.dt)
        bad = np.flatnonzero(self.read & ~np.isfinite(y_inc)).tolist()
        if bad:
            readers = [i for i, est in enumerate(self.bank.singles) if set(bad) & set(est.sensors)]
            raise ContractError(f"{_at(k, scn.dt)}: measurement channel {bad} is non-finite; "
                                f"filter {readers} reads it")
        # An overflowing residue is named by the record.
        with np.errstate(over="ignore", invalid="ignore"):
            self.bank.step(scn.model, u, y_inc, scn.dt)
        self._record(k + 1)


class _ActuatorControl:
    """The actuator-failure law at the true state; it keeps no filters."""

    estimates = residues = None

    def __init__(self, scn: Scenario):
        self.scn = scn
        self.fixed = af_fixed_terms(scn.af_chain_sets, scn.af_patterns, scn.model)

    def decide(self, k: int, x: np.ndarray) -> ResolveOutcome:
        scn = self.scn
        return actuator_control(scn.policy, scn.model, x, scn.af_chain_sets, scn.af_patterns,
                                scn.qp, self.fixed)

    def unfiltered(self, outcome: ResolveOutcome) -> bool:
        """Never: every actuator row is a safety row."""
        return False

    def advance(self, k: int, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
        """Nothing reads the output increment, so it is not computed."""


def run_scenario(scn: Scenario, seed: int) -> RunResult:
    rng = np.random.default_rng(seed)
    model, dt, steps = scn.model, scn.dt, scn.n_steps
    control = (_SensorControl if scn.family == "sensor" else _ActuatorControl)(scn)
    x = scn.x0.copy()
    times = np.arange(steps + 1) * dt
    states = np.zeros((steps + 1, model.n))
    controls = np.zeros((steps, model.p))
    slack_min = np.full(steps, np.nan)
    Z_log, U_log, removed_log = [], [], []
    events = []

    for k in range(steps):
        states[k] = x
        try:
            outcome = control.decide(k, x)
        except SolverError as exc:
            raise type(exc)(f"{_at(k, dt)}: {exc}") from exc
        u = outcome.u
        controls[k] = u
        Z_log.append(";".join(str(i) for i in outcome.Z))
        U_log.append(";".join(str(i) for i in outcome.U))
        removed_log.append(";".join(f"{i}:{why}" for i, why in outcome.removed))
        if len(outcome.b):
            slack_min[k] = np.min(np.vecdot(outcome.A, u) - outcome.b)
        if outcome.infeasible_event:
            events.append((k, "policy_infeasible"))
        elif control.unfiltered(outcome):
            events.append((k, "safety_unfiltered"))

        u_applied = apply_actuator_failure(u, scn.faults.effectiveness_at(k * dt))
        # State draw before measurement draw, in either family.
        w = rng.standard_normal(model.n)
        v = rng.standard_normal(model.q)
        control.advance(k, x, u, v)
        x = step_true_state(model, x, u_applied, dt, w)

    states[steps] = x
    members = [(b, d) for b, ch in enumerate(scn.chains) for d in range(len(ch))]
    h_labels = [f"h{d}_b{b}" for b, d in members]
    h_values = np.stack([scn.chains[b].value(d, states) for b, d in members], axis=1)
    min_h = float(np.min(h_values[:, [d == 0 for _, d in members]]))
    V_vals = scn.clf.value(states) if scn.clf is not None else None
    omega = _wheel_commands(scn.x0, controls, dt) if scn.wheel_commands else None
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
                     estimates=control.estimates, controls=controls, h_values=h_values,
                     h_labels=h_labels, V=V_vals, Z_log=Z_log, U_log=U_log,
                     removed_log=removed_log, residues=control.residues, slack_min=slack_min,
                     omega=omega, goal_radius=scn.goal_radius, events=events, metrics=metrics)


def _texts(values: np.ndarray) -> list:
    """The values of a float array as texts with 17 significant digits. They
    become Python floats first, which format faster than numpy scalars and
    to the same text."""
    return ["%.17g" % v for v in values.tolist()]


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
    # policy_infeasible and safety_unfiltered exclude each other: a step has
    # at most one event.
    ev = dict(res.events)
    times, slack = res.times.tolist(), res.slack_min.tolist()
    V = None if res.V is None else res.V.tolist()
    for k in range(steps + 1):
        row = ["%.17g" % times[k]] + _texts(res.states[k])
        if m:
            row += _texts(res.estimates[k].ravel())
        last = k == steps
        row += [""] * p if last else _texts(res.controls[k])
        row += _texts(res.h_values[k])
        row += ["" if V is None else "%.17g" % V[k]]
        row += ["" if last else res.Z_log[k], "" if last else res.U_log[k],
                "" if last else res.removed_log[k]]
        if m:
            row += [""] * m if last else _texts(res.residues[k])
        row += ["" if last or math.isnan(slack[k]) else "%.17g" % slack[k]]
        if res.omega is not None:
            row += ["", ""] if last else _texts(res.omega[k])
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
