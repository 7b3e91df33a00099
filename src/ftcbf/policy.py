"""Conflict-resolving control policies over the estimator bank.

Each step assembles one safety row per active estimator (plus one CLF row per
estimator still above the deactivation level) and asks the QP for a control.
On infeasibility the policy prunes outlier estimators: first by pairwise
distances checked against the dedicated pairwise filters, then by largest
smoothed residue, one at a time. Nothing is dropped silently; every removal
is recorded with its reason, and total infeasibility is surfaced as an event
(the simulation then applies u = 0). Rows travel as the QP's arrays A u >= b
with parallel lists of source tags and owning estimators. A step's rows are
assembled and factored once: pruning never changes a row, so each re-solve
keeps the rows of the estimators still active and selects over the same
factors (optimizer.RowFactors).

What the rows read is computed once at the rate it changes. FixedTerms holds
what no step of a run changes: each affine row's terms, each filter's CLF
trace term, the gamma offset of every (filter, barrier) pair and the input
box's rows. StepTerms holds what each step reads of the estimates: every
filter's shrunk barrier values and CLF value, read by active_sets and by
the rows alike; assemble_constraints computes each filter's F x_hat once
for all of its rows. hoscbf_pair and clf_row stay the one place each row
formula lives, and take these terms as arguments; the rows are the bits of
computing every term per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .barriers import AfTerms, BarrierChain, af_rows, fixed_terms, hoscbf_row
from .clf import QuadraticClf, clf_row, clf_trace
from .errors import ContractError
from .estimators import EstimatorBank
from .optimizer import QpProblem, QpResult, RowFactors, solve_qp
from .simulator import SystemModel

MODES = ("sensor_ft", "sensor_ft_clf", "actuator_ft", "baseline")
CLF_MODES = ("sensor_ft_clf", "baseline")     # the modes that carry a CLF row


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
    """The accepted QP, its control and its rows A u >= b tagged by sources."""

    result: QpResult
    u: np.ndarray
    A: np.ndarray
    b: np.ndarray
    sources: list
    Z: list
    U: list
    removed: list = field(default_factory=list)  # (index, reason)
    step: int = 1
    infeasible_event: bool = False


@dataclass(frozen=True)
class FixedTerms:
    """The row terms that no step of a run changes. Per filter i:
    hoscbf[i][c] from barriers.fixed_terms for chain c (None marks a
    polynomial chain), clf[i] from clf.clf_trace (None without a CLF), and
    offsets[i, c] the gamma offset of chain c's top degree under filter i's
    radius. box holds the input box's (rows, bounds, sources, owners) as
    assemble_constraints emits them, empty lists without u_max."""

    hoscbf: list
    clf: list
    offsets: np.ndarray
    box: tuple


def gamma_offsets(chains: Sequence[BarrierChain], bank: EstimatorBank) -> np.ndarray:
    """(m, chains): the gamma offset of each chain's top degree under each
    filter's radius."""
    return np.array([[ch.gamma_offset(ch.rel_degree, bank.gamma(i)) for ch in chains]
                     for i in range(bank.m)]).reshape(bank.m, len(chains))


def fixed_row_terms(cfg: PolicyConfig, model: SystemModel, chains: Sequence[BarrierChain],
                    bank: EstimatorBank, clf: Optional[QuadraticClf]) -> FixedTerms:
    """The fixed row terms of a run over bank, computed once before its first step."""
    rows, bounds, sources = [], [], []
    if cfg.u_max is not None:
        # Input box: never pruned, turns outlier-driven control blowups
        # into infeasibilities the pruning steps can act on.
        for i, e in enumerate(np.eye(model.p)):
            rows += [e, -e]
            sources += [f"ubox(+{i})", f"ubox(-{i})"]
        bounds = [-cfg.u_max] * len(rows)
    for row in rows:
        row.setflags(write=False)
    box = (rows, bounds, sources, [-1] * len(rows))
    return FixedTerms(
        hoscbf=[[fixed_terms(ch, est, model, bank.gamma(i)) for ch in chains]
                for i, est in enumerate(bank.singles)],
        clf=[None if clf is None else clf_trace(clf, est) for est in bank.singles],
        offsets=gamma_offsets(chains, bank), box=box)


@dataclass(frozen=True)
class StepTerms:
    """What a step's active sets and rows read of the single filters'
    estimates, each computed once per step: the estimates x_hats (m, n),
    shrunk[i, c] = hat h^{d'}(x_hat_i) of chain c, and V[i] = V(x_hat_i),
    None unless the mode carries a CLF row."""

    x_hats: np.ndarray
    shrunk: np.ndarray
    V: Optional[np.ndarray]


def step_terms(x_hats: np.ndarray, chains: Sequence[BarrierChain],
               clf: Optional[QuadraticClf], cfg: PolicyConfig,
               offsets: np.ndarray) -> StepTerms:
    """The step terms at the estimates x_hats (m, n), with offsets from
    gamma_offsets; each filter's values are the bits its estimate gives
    alone (BarrierChain.value and QuadraticClf.value on a stack)."""
    values = np.array([ch.value(ch.rel_degree, x_hats) for ch in chains])
    V = clf.value(x_hats) if clf is not None and cfg.mode in CLF_MODES else None
    return StepTerms(x_hats, values.reshape(len(chains), len(x_hats)).T - offsets, V)


def _estimates(bank: EstimatorBank) -> np.ndarray:
    return np.array([est.x_hat for est in bank.singles])


def active_sets(bank: EstimatorBank, chains: Sequence[BarrierChain],
                clf: Optional[QuadraticClf], cfg: PolicyConfig,
                terms: Optional[StepTerms] = None):
    """Z = estimators whose shrunk top-degree barrier value is below delta
    for some chain; U = estimators whose CLF value still exceeds V_bar.
    terms, from step_terms, holds those values (computed here when not
    given)."""
    if terms is None:
        terms = step_terms(_estimates(bank), chains, clf, cfg, gamma_offsets(chains, bank))
    Z = [i for i, values in enumerate(terms.shrunk.tolist()) if min(values) < cfg.delta]
    U = [] if terms.V is None else [j for j, V in enumerate(terms.V.tolist()) if V > cfg.V_bar]
    return Z, U


def assemble_constraints(cfg: PolicyConfig, model: SystemModel,
                         chains: Sequence[BarrierChain], bank: EstimatorBank,
                         clf: Optional[QuadraticClf],
                         Z: Sequence[int], U: Sequence[int],
                         fixed: Optional[FixedTerms] = None,
                         terms: Optional[StepTerms] = None):
    """Sensor-fault rows (A, b, sources, owners): one row per (barrier, i in
    Z), one CLF row per j in U (active_sets leaves U empty unless the mode
    carries a CLF), and the input box when u_max is set. owners[r] is the
    estimator row r belongs to, -1 for the input box. fixed, from
    fixed_row_terms, and terms, from step_terms, are computed here when not
    given; every row reads its filter's F x_hat, computed once.
    baseline is the same machinery over a single-filter bank.
    """
    if fixed is None:
        fixed = fixed_row_terms(cfg, model, chains, bank, clf)
    if terms is None:
        terms = step_terms(_estimates(bank), chains, clf, cfg, fixed.offsets)
    drift = model.f(terms.x_hats)
    rows, bounds, sources, owners = [], [], [], []
    for i in Z:
        est = bank.singles[i]
        for c, ch in enumerate(chains):
            row, bound = hoscbf_row(ch, est, model, bank.gamma(i), fixed.hoscbf[i][c],
                                    terms.shrunk[i, c], drift[i])
            rows.append(row)
            bounds.append(bound)
            sources.append(f"hoscbf({i})")
            owners.append(i)
    for j in U:
        r = clf_row(clf, bank.singles[j], model, bank.gamma(j), decay=cfg.clf_decay,
                    trace=fixed.clf[j], drift=drift[j],
                    V=None if terms.V is None else terms.V[j])
        if r is not None:
            rows.append(r[0])
            bounds.append(r[1])
            sources.append(f"clf({j})")
            owners.append(j)
    box_rows, box_bounds, box_sources, box_owners = fixed.box
    return (np.array(rows + box_rows).reshape(-1, model.p), np.array(bounds + box_bounds),
            sources + box_sources, np.array(owners + box_owners, dtype=np.intp))


def resolve_conflicts(bank: EstimatorBank, Z: Sequence[int], U: Sequence[int],
                      rows: tuple, qp: QpProblem) -> ResolveOutcome:
    """Steps 1-3: full intersection, pairwise pruning, residue pruning.

    rows = (A, b, sources, owners) are the rows of Z and U, as
    assemble_constraints returns them; owners[r] is the estimator row r
    belongs to, and a row owned by -1 (the input box) is never pruned. The
    rows are factored once. One mask of pruned estimators is the whole
    pruning state: each re-solve keeps the rows of the estimators not yet
    pruned, and the outcome's Z, U and rows are read from it. Step 2 removes
    i from both Z and U only when some pairwise distance exceeds theta_ij
    and i disagrees with the dedicated (i, j) filter by more than
    theta_ij / 2; an estimator consistent with all active peers is never
    removed here. Step 3 removes by descending smoothed residue, ties
    broken toward the lower index, re-solving after each removal.
    """
    Z = sorted(Z)
    U = sorted(U)
    A, b, sources, owners = rows
    factors = RowFactors(A, b, qp)
    res = factors.solve()
    if res.is_feasible:
        return ResolveOutcome(res, res.u, A, b, sources, Z, U, step=1)

    removed = []
    # By estimator; the extra last entry stands for owner -1 and stays False.
    pruned = np.zeros(bank.m + 1, dtype=bool)

    def outcome(res, step):
        keep = ~pruned[owners]
        return ResolveOutcome(res, res.u if res.is_feasible else np.zeros(qp.p),
                              A[keep], b[keep], [s for s, k in zip(sources, keep) if k],
                              [i for i in Z if not pruned[i]], [i for i in U if not pruned[i]],
                              removed=removed, step=step, infeasible_event=not res.is_feasible)

    active = sorted(set(Z) | set(U))
    for a, i in enumerate(active):
        for j in active[a + 1:]:
            if (i, j) not in bank.pairs:
                continue
            if np.linalg.norm(bank.estimate(i) - bank.estimate(j)) > bank.theta(i, j):
                x_ij = bank.pair_estimate(i, j)
                half = bank.theta(i, j) / 2.0
                for k in (i, j):
                    if np.linalg.norm(bank.estimate(k) - x_ij) > half and not pruned[k]:
                        pruned[k] = True
                        removed.append((k, "pairwise"))
    # With nothing pruned, step 2 would solve step 1's rows again.
    if removed:
        res = factors.solve(~pruned[owners])
        if res.is_feasible:
            return outcome(res, 2)

    residues = bank.residues()
    for idx in sorted((i for i in active if not pruned[i]), key=lambda i: (-residues[i], i)):
        removed.append((idx, "residue"))
        pruned[idx] = True
        res = factors.solve(~pruned[owners])
        if res.is_feasible:
            break
    return outcome(res, 3)


def actuator_control(cfg: PolicyConfig, model: SystemModel, x: np.ndarray,
                     af_chain_sets, patterns, qp: QpProblem,
                     fixed: Optional[AfTerms] = None) -> ResolveOutcome:
    """Actuator-failure policy: one QP over all pattern rows at the true state.

    af_chain_sets holds one chain list per barrier, aligned with patterns;
    fixed, from barriers.af_fixed_terms, holds what of their rows no state
    changes, computed once per run.
    With a nominal gain the QP runs on the deviation v = u - u_nom (the
    bounds shift by A u_nom), acting as a safety filter around the
    reference-tracking feedback. The outcome keeps the unshifted rows, which
    hold for u itself.
    """
    A, b, sources = af_rows(af_chain_sets, x, patterns, model,
                            alpha=lambda s, k=cfg.alpha_kappa: k * s, fixed=fixed)
    u_nom, b_qp = np.zeros(qp.p), b
    if cfg.nominal_gain is not None:
        u_nom = -np.asarray(cfg.nominal_gain) @ np.asarray(x, dtype=float)
        b_qp = b - np.vecdot(A, u_nom)
    res = solve_qp(qp, A, b_qp)
    u = u_nom + res.u if res.is_feasible else np.zeros(qp.p)
    return ResolveOutcome(res, u, A, b, sources, [], [], step=1,
                          infeasible_event=not res.is_feasible)
