"""Conflict-resolving control policies over the estimator bank.

Each step assembles one safety row per active estimator (plus one CLF row per
estimator still above the deactivation level) and asks the QP for a control.
On infeasibility the policy prunes outlier estimators: first by pairwise
distances checked against the dedicated pairwise filters, then by largest
smoothed residue, one at a time. Nothing is dropped silently; every removal
is recorded with its reason, and total infeasibility is surfaced as an event
(the simulation then applies u = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .barriers import BarrierChain, ConstraintRow, af_rows, hoscbf_row
from .clf import QuadraticClf, clf_row
from .errors import ContractError
from .estimators import EstimatorBank
from .optimizer import QpProblem, QpResult, solve_qp
from .simulator import SystemModel

MODES = ("sensor_ft", "sensor_ft_clf", "actuator_ft", "baseline")


@dataclass
class PolicyConfig:
    """Mode plus the activation thresholds.

    delta = +inf keeps every safety constraint always on (the sound default;
    finite delta only arms constraints near the boundary). V_bar is the CLF
    deactivation level; alpha_kappa the class-K slope for actuator rows.
    nominal_gain, when set, adds reference-tracking feedback u_nom = -K x in
    actuator mode; the QP then minimizes the deviation v = u - u_nom (a
    variable shift, the solved program is still min v^T R v over shifted
    rows).
    """

    mode: str = "sensor_ft"
    delta: float = np.inf
    V_bar: float = 0.0
    clf_decay: bool = False
    alpha_kappa: float = 1.0
    nominal_gain: Optional[np.ndarray] = None
    u_max: Optional[float] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ContractError(f"unknown policy mode {self.mode!r}")
        if not (self.delta > 0):
            raise ContractError("delta must be positive (or +inf)")
        if self.V_bar < 0:
            raise ContractError("V_bar must be nonnegative")


@dataclass
class ResolveOutcome:
    result: QpResult
    u: np.ndarray
    rows: list
    Z: list
    U: list
    removed: list = field(default_factory=list)  # (index, reason)
    step: int = 1
    infeasible_event: bool = False


def active_sets(bank: EstimatorBank, chains: Sequence[BarrierChain],
                clf: Optional[QuadraticClf], cfg: PolicyConfig):
    """Z = estimators whose shrunk top-degree barrier value is below delta;
    U = estimators whose CLF value still exceeds V_bar."""
    Z = []
    for i, est in enumerate(bank.singles):
        worst = min(ch.shrunk(ch.rel_degree, est.x_hat, bank.gamma(i)) for ch in chains)
        if worst < cfg.delta:
            Z.append(i)
    U = []
    if clf is not None and cfg.mode in ("sensor_ft_clf", "baseline"):
        U = [j for j, est in enumerate(bank.singles) if clf.value(est.x_hat) > cfg.V_bar]
    return Z, U


def assemble_constraints(cfg: PolicyConfig, model: SystemModel,
                         chains: Sequence[BarrierChain], bank: EstimatorBank,
                         clf: Optional[QuadraticClf],
                         Z: Sequence[int], U: Sequence[int]) -> list:
    """Sensor-fault rows: one row per (barrier, i in Z), one CLF row per
    j in U (active_sets leaves U empty unless the mode carries a CLF), and
    the input box when u_max is set. baseline is the same machinery over a
    single-filter bank.
    """
    rows: list = []
    for i in Z:
        est = bank.singles[i]
        for ch in chains:
            rows.append(hoscbf_row(ch, est, model, bank.gamma(i), source=f"hoscbf({i})"))
    for j in U:
        r = clf_row(clf, bank.singles[j], model, bank.gamma(j),
                    decay=cfg.clf_decay, source=f"clf({j})")
        if r is not None:
            rows.append(r)
    if cfg.u_max is not None:
        # Input box: never pruned, turns outlier-driven control blowups
        # into infeasibilities the pruning steps can act on.
        for i in range(model.p):
            e = np.zeros(model.p)
            e[i] = 1.0
            rows.append(ConstraintRow(e, -cfg.u_max, source=f"ubox(+{i})"))
            rows.append(ConstraintRow(-e, -cfg.u_max, source=f"ubox(-{i})"))
    return rows


def resolve_conflicts(bank: EstimatorBank, Z: Sequence[int], U: Sequence[int],
                      constraint_builder: Callable[[Sequence[int], Sequence[int]], list],
                      R: np.ndarray) -> ResolveOutcome:
    """Steps 1-3: full intersection, pairwise pruning, residue pruning.

    Step 2 removes i from both Z and U only when some pairwise distance
    exceeds theta_ij and i disagrees with the dedicated (i, j) filter by more
    than theta_ij / 2; an estimator consistent with all active peers is never
    removed here. Step 3 removes by descending smoothed residue, ties broken
    toward the lower index, re-solving after each removal.
    """
    Z = sorted(Z)
    U = sorted(U)
    rows = constraint_builder(Z, U)
    res = solve_qp(QpProblem(R, rows))
    if res.is_feasible:
        return ResolveOutcome(res, res.u, rows, Z, U, step=1)

    removed = []
    active = sorted(set(Z) | set(U))
    drop = set()
    for a in range(len(active)):
        for b in range(a + 1, len(active)):
            i, j = active[a], active[b]
            if (i, j) not in bank.pairs:
                continue
            if np.linalg.norm(bank.estimate(i) - bank.estimate(j)) > bank.theta(i, j):
                x_ij = bank.pair_estimate(i, j)
                half = bank.theta(i, j) / 2.0
                if np.linalg.norm(bank.estimate(i) - x_ij) > half and i not in drop:
                    drop.add(i)
                    removed.append((i, "pairwise"))
                if np.linalg.norm(bank.estimate(j) - x_ij) > half and j not in drop:
                    drop.add(j)
                    removed.append((j, "pairwise"))
    Z = [i for i in Z if i not in drop]
    U = [i for i in U if i not in drop]
    rows = constraint_builder(Z, U)
    res = solve_qp(QpProblem(R, rows))
    if res.is_feasible:
        return ResolveOutcome(res, res.u, rows, Z, U, removed=removed, step=2)

    residues = bank.residues()
    order = sorted(set(Z) | set(U), key=lambda i: (-residues[i], i))
    for idx in order:
        removed.append((idx, "residue"))
        Z = [i for i in Z if i != idx]
        U = [i for i in U if i != idx]
        rows = constraint_builder(Z, U)
        res = solve_qp(QpProblem(R, rows))
        if res.is_feasible:
            return ResolveOutcome(res, res.u, rows, Z, U, removed=removed, step=3)

    p = R.shape[0]
    return ResolveOutcome(res, np.zeros(p), rows, Z, U, removed=removed, step=3,
                          infeasible_event=True)


def actuator_control(cfg: PolicyConfig, model: SystemModel, x: np.ndarray,
                     af_chain_sets, patterns, R: np.ndarray) -> ResolveOutcome:
    """Actuator-failure policy: one QP over all pattern rows at the true state.

    af_chain_sets holds one chain list per barrier, aligned with patterns.
    With a nominal gain the QP runs on the deviation v = u - u_nom (rows get
    their bounds shifted by row . u_nom), acting as a safety filter around the
    reference-tracking feedback.
    """
    alpha = (lambda s, k=cfg.alpha_kappa: k * s)
    rows: list = []
    for b_idx, chain_set in enumerate(af_chain_sets):
        rows.extend(af_rows(chain_set, x, patterns, model, alpha=alpha,
                            barrier_label=str(b_idx)))
    u_nom = np.zeros(R.shape[0])
    qp_rows = rows
    if cfg.nominal_gain is not None:
        u_nom = -np.asarray(cfg.nominal_gain) @ np.asarray(x, dtype=float)
        qp_rows = [ConstraintRow(r.row, r.bound - float(r.row @ u_nom), r.source)
                   for r in rows]
    res = solve_qp(QpProblem(R, qp_rows))
    if res.is_feasible:
        return ResolveOutcome(res, u_nom + res.u, rows, [], [], step=1)
    return ResolveOutcome(res, np.zeros(R.shape[0]), rows, [], [], step=1,
                          infeasible_event=True)

