"""Per-step quadratic program and Farkas infeasibility certificates.

Solves   minimize u^T R u   subject to   A u >= b
by enumerating KKT active sets. QpProblem holds the checked cost R and its
Cholesky factor, built once per scenario and shared by every solve. With
R = L L^T and v = L^T u the program is the projection of the origin onto the
rows of A L^-T, so the rows are taken in that metric, scaled to unit length.
The problems here are tiny (the golden scenarios have p <= 3 and at most 8
rows), so one batched QR factors every set S of at most p rows at once, each
padded to width p with unit rows in dimensions of their own. One rule
decides dependence everywhere: a pivot of unit rows at or below _INDEP_TOL
is zero. For an independent set,
N_S^T = Q R gives the KKT point v = Q z with R^T z = b_S and the multipliers
mu = R^-1 z. A strictly convex QP has exactly one KKT point, so the first
independent set, by size and then lexicographically, whose multipliers are
nonnegative and whose point satisfies every row is the optimum. A point
satisfies a row when it lies within a distance of 1e-9 of the row's
half-space.

When no set passes, the rows are infeasible. By Helly's theorem some p + 1
of them already are, and a Farkas certificate y >= 0 with A^T y = 0 and
b^T y = 1 then lies on a minimal dependent set: an independent set S and a
row j whose pivot after S is zero. The same factors give its weights. Both
outcomes are re-checked on the original data before they are returned, and
a problem with more row sets than the budget below is an error rather than
a long enumeration.

Every row set, from the policy's QP to the verifier's Farkas check, is
posed as A u >= b, in the orientation barriers.hoscbf_pair and
barriers.af_rows build it. A control step that prunes estimators solves
again over a subset of the same rows. RowFactors checks a step's rows once
and solves over any mask of kept rows; solve_qp and farkas_certificate are
the one-shot case. farkas_verdicts takes a stack of row sets, as a verify
loop poses them, and settles each that a point shows feasible; the rest,
infeasible or undecidable, are left to farkas_certificate. The work splits
by what it reads:
- once per distinct A (and metric L), in the module's record of the last
  row matrix posed, keyed by the bytes of A and L (_RowRecord): the checks
  of A (finite, within the row-set budget), each row's tolerance and, at
  the first solve that needs factors, the unit rows and the QR factors of
  every set, of which only the independent sets are kept, and, at the first
  infeasible solve, every (set, row) pair's certificate weights and whether
  the pair is dependent with nonnegative weights (_RowBasis). A Boeing run
  and every verify loop pose one A, which is checked and factored once, and
  each later row set on it checks only its bounds; a WMR step poses a new A.
  farkas_verdicts checks its whole stack once and takes the tolerances of
  all its runs of equal matrices in one call (or the kept record's, for a
  stack of that one matrix), and makes a record from those for each run
  that needs factors, so a stack of distinct matrices (a polynomial
  barrier's verify) repeats no check per sample.
- once per stack of bounds on one A (_Factors, with a leading sample axis; a
  RowFactors holds a stack of one b): every independent set's KKT point and
  the rows it misses for each b, and, at a RowFactors' first infeasible
  solve, each pair's margin b^T y.
- per solve, for every b of the stack: the multipliers of the sets that
  meet the kept rows and the check of the chosen point on the original
  rows; then, for one b, the certificate and its validation. A solve whose
  kept bounds u = 0 meets (b <= tol) returns u = 0, zero multipliers and
  the rows with |b| <= tol as active without factors or checks: the row
  check reads b - A 0 = b and the stationarity check 2 R 0 = A^T 0 = 0,
  both exact.
The same bytes pass through the same arithmetic whether the record is
fresh or kept, and each b of a stack through its own solves and products,
so neither a kept record nor the stack changes a bit of any result.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Optional

import numpy as np

from .errors import ContractError, SolverError
from .simulator import matvec

_FEAS_TOL = 1e-9
# A pivot of unit rows at or below this counts as zero, both when a set is
# solved and when a row is appended to it for a certificate. For two rows
# the pivot is the sine of their angle: exactly parallel rows come out near
# 1e-16, rows 1e-9 apart stay apart, and a null vector this far from exact
# still passes _validate_certificate's residual bound.
_INDEP_TOL = 1e-10
# Sets of at most p rows one QP may take, the empty set included. The largest
# problem that a shipped scenario or an oracle test builds is p = 5 with 8
# rows (219 sets, the projected-gradient oracle test); the golden WMR QP,
# p = 2 with up to 8 rows, takes 37 and the golden Boeing QP, p = 3 with 6
# rows, 42. The certificate search pairs each set with each row.
_SUBSET_BUDGET = 256


def check_problem_size(m: int, p: int) -> None:
    """Raise SolverError when m rows in p dimensions exceed the budget."""
    if sum(comb(m, k) for k in range(p + 1)) > _SUBSET_BUDGET:
        raise SolverError(f"{m} rows in p = {p} exceed the active-set budget "
                          f"of {_SUBSET_BUDGET} row sets")


@dataclass
class QpProblem:
    """Cost matrix R, checked symmetric positive definite and factored once."""

    R: np.ndarray
    # R = L L^T, the factor the kernel works in; None when R is the identity.
    _L: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.R = np.asarray(self.R, dtype=float)
        if self.R.ndim != 2 or self.R.shape[0] != self.R.shape[1]:
            raise ContractError("R must be square")
        if not np.isfinite(self.R).all():
            raise ContractError("R must be finite")
        if np.max(np.abs(self.R - self.R.T)) > 1e-10:
            raise ContractError("R must be symmetric")
        try:
            L = np.linalg.cholesky(self.R)
            definite = np.min(np.diagonal(L), initial=np.inf) ** 2 > 1e-12
        except np.linalg.LinAlgError:
            definite = False
        if not definite:
            raise ContractError("R must be positive definite")
        self._L = None if np.array_equal(self.R, np.eye(self.p)) else L

    @property
    def p(self) -> int:
        return self.R.shape[0]


@dataclass
class QpResult:
    status: str  # "optimal" | "infeasible"
    u: Optional[np.ndarray] = None
    active: tuple = ()
    multipliers: Optional[np.ndarray] = None
    certificate: Optional[np.ndarray] = None

    @property
    def is_feasible(self) -> bool:
        return self.status == "optimal"


@functools.cache
def _row_sets(m: int, p: int) -> tuple:
    """The empty set and every set of at most p of m rows, by size and then
    lexicographically, padded in front to width p with the indices
    m, m + 1, ...; and which of the m rows each set holds."""
    check_problem_size(m, p)
    sets = np.array([tuple(range(m, m + p - k)) + s for k in range(min(p, m) + 1)
                     for s in itertools.combinations(range(m), k)], dtype=np.intp)
    holds = np.zeros((len(sets), m + p), dtype=bool)
    holds[np.arange(len(sets))[:, None], sets] = True
    holds = np.ascontiguousarray(holds[:, :m])
    sets.flags.writeable = holds.flags.writeable = False
    return sets, holds


def _metric_rows(A: np.ndarray, L: Optional[np.ndarray]) -> np.ndarray:
    """A L^-T by forward substitution in elementwise steps, so that each row
    comes out the same whatever other rows A holds."""
    if L is None:
        return A
    AL = np.empty_like(A)
    for i in range(A.shape[1]):
        AL[:, i] = (A[:, i] - (AL[:, :i] * L[i, :i]).sum(axis=1)) / L[i, i]
    return AL


@dataclass
class _RowBasis:
    """The independent row sets' factors in the metric: the terms that depend
    on A and L alone, read-only and shared by every b posed on the same A."""

    AL: np.ndarray       # A L^-T
    unit: np.ndarray     # row norms in the metric, then 1 for the p padding rows
    N: np.ndarray        # the unit rows, then the padding rows
    sets: np.ndarray     # the sets of _row_sets whose rows are independent, in its order
    holds: np.ndarray    # which of the m rows each of them holds
    Q: np.ndarray        # N_S^T = Q R, one pair per set
    Rs: np.ndarray
    # Each row's weights W on each set, and which (set, row) pairs have a
    # zero pivot and nonnegative weights; computed at the first infeasible
    # solve.
    _pair_terms: Optional[tuple] = field(default=None, repr=False)

    @classmethod
    def factor(cls, A: np.ndarray, L: Optional[np.ndarray]) -> "_RowBasis":
        m, p = A.shape
        sets, holds = _row_sets(m, p)
        AL = _metric_rows(A, L)
        # The unit rows in the metric, then p padding rows: unit vectors in
        # dimensions of their own, with bound 0.
        unit = np.ones(m + p)
        unit[:m] = np.sqrt(np.einsum("ij,ij->i", AL, AL))
        unit[unit == 0.0] = 1.0
        N = np.zeros((m + p, 2 * p))
        N[:m, :p] = AL / unit[:m, None]
        N[m:, p:] = np.eye(p)
        Q, Rs = np.linalg.qr(N[sets].transpose(0, 2, 1))
        indep = (np.abs(np.diagonal(Rs, axis1=1, axis2=2)) > _INDEP_TOL).all(axis=1)
        return cls(*_read_only(AL, unit, N, sets[indep], holds[indep], Q[indep], Rs[indep]))

    def pair_terms(self) -> tuple:
        """For every set S and row j: the weights w = -R^-1 Q^T n_j of S's
        unit rows, and whether j's pivot after S is zero and w >= 0."""
        if self._pair_terms is None:
            m = len(self.AL)
            # Every row in every set's basis, and what the basis leaves of it.
            C = self.Q.transpose(0, 2, 1) @ self.N[:m].T
            left = self.N[:m].T - self.Q @ C
            W = -np.linalg.solve(self.Rs, C)
            dependent = np.einsum("sdj,sdj->sj", left, left) <= _INDEP_TOL ** 2
            self._pair_terms = _read_only(W, dependent & (W >= 0.0).all(axis=1))
        return self._pair_terms


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass
class _RowRecord:
    """What one row matrix A and metric L give alone, read-only and shared
    by every b posed on them: each row's tolerance, at once, and the basis,
    at the first solve that needs factors. A record is made only for rows
    that passed _checked, so finding one vouches for their finiteness and
    row-set budget."""

    key: tuple           # (A.shape, A.tobytes(), L.tobytes() or None)
    A: np.ndarray        # a copy, so that the record neither aliases nor pins the caller's rows
    L: Optional[np.ndarray]
    tol: np.ndarray      # _FEAS_TOL times each row's norm
    _basis: Optional[_RowBasis] = field(default=None, repr=False)

    @property
    def basis(self) -> _RowBasis:
        if self._basis is None:
            self._basis = _RowBasis.factor(self.A, self.L)
        return self._basis


# The record of the last row matrix posed; a miss replaces it. One record
# serves every caller: a run or a verify loop poses one A throughout or a
# new A at each step, and then a miss adds only the key and a copy of A to
# the checks and tolerances that every new A needs.
_record: Optional[_RowRecord] = None


def _row_tolerances(A: np.ndarray) -> np.ndarray:
    """_FEAS_TOL times each row's norm, for one row matrix or a stack, each
    row's the bits it gets alone.

    The tolerance is a distance, the same for a row and any multiple of it:
    in value, 1e-9 on a row scaled by 1e6 asks more than double precision
    gives, and on a row scaled by 1e-6 allows a point 1e-3 outside it.
    """
    return _FEAS_TOL * np.sqrt(np.einsum("...ij,...ij->...i", A, A))


def _new_record(key: tuple, A: np.ndarray, L: Optional[np.ndarray],
                tol: Optional[np.ndarray] = None) -> _RowRecord:
    """Record the checked float rows A (copied) in the metric L under key,
    replacing the module's record; tol, A's _row_tolerances, is computed
    when not given."""
    global _record
    A = np.array(A)
    A, tol = _read_only(A, _row_tolerances(A) if tol is None else tol)
    _record = _RowRecord(key, A, L, tol)
    return _record


def _row_record(A: np.ndarray, b: np.ndarray, qp: Optional[QpProblem] = None) -> _RowRecord:
    """The module's record of the float rows A in qp's metric (the identity
    when qp is None), after _checked's checks of A and its bounds b: every
    check on a miss, which then records A; on a hit, which vouches for A,
    only b's shape and finiteness and the size of R."""
    L = None if qp is None else qp._L
    key = (A.shape, A.tobytes(), None if L is None else L.tobytes())
    hit = _record is not None and _record.key == key
    _checked(A, b, False, qp, recorded=hit)
    return _record if hit else _new_record(key, A, L)


@dataclass
class _Factors:
    """What the independent sets' factors give for a stack of bounds posed
    on one row matrix: each array's leading axis is the stack's."""

    basis: _RowBasis
    bS: np.ndarray       # each set's bounds on its unit rows
    z: np.ndarray        # R^T z = b_S
    vs: np.ndarray       # each set's KKT point v = Q z
    misses: np.ndarray   # (sample, set, row): the set's point misses the row

    @classmethod
    def build(cls, record: _RowRecord, bs: np.ndarray) -> "_Factors":
        B = record.basis
        m, p = record.A.shape
        bN = np.zeros((len(bs), len(B.unit)))
        bN[:, :m] = bs / B.unit[:m]
        bS = bN[:, B.sets]
        # N_S v = b_S with v = N_S^T mu: R^T z = b_S, v = Q z, R mu = z; and
        # A u = A L^-T v. Each sample's products and solves are its own
        # calls, so its bits do not depend on the stack.
        z = np.linalg.solve(B.Rs.transpose(0, 2, 1), bS[..., None])
        vs = (B.Q @ z)[..., :p, 0]
        misses = ~(vs @ B.AL.T - bs[:, None] >= -record.tol)
        return cls(B, bS, z, vs, misses)

    def first_kkt(self, keep: Optional[np.ndarray] = None) -> tuple:
        """For each sample that has a KKT point over the kept rows (keep None
        keeps every row): the sample, its pick (the first set of kept rows
        whose point meets every kept row and whose multipliers mu = R^-1 z
        are nonnegative) and the pick's mu. Multipliers are solved for only
        where a set's point meets the kept rows."""
        meets = (~self.misses.any(axis=2) if keep is None
                 else ~(self.misses @ keep) & ~(self.basis.holds @ ~keep))
        s, j = np.nonzero(meets)
        mu = np.linalg.solve(self.basis.Rs[j], self.z[s, j])[..., 0]
        ok = np.flatnonzero((mu >= -_FEAS_TOL / 2.0).all(axis=1))
        # The pairs run by sample, then by set: a sample's first passing pair is its pick.
        s_ok = s[ok]
        first = np.ones(len(ok), dtype=bool)
        first[1:] = s_ok[1:] != s_ok[:-1]
        first = ok[first]
        return s[first], j[first], mu[first]


def _checked(A: np.ndarray, b: np.ndarray, stacked: bool, qp: Optional[QpProblem] = None,
             recorded: bool = False) -> None:
    """ContractError unless the float rows A and bounds b are one row matrix
    and its bounds or (stacked) a stack of each, A (S, m, p) and b (S, m),
    of R's size and finite, and SolverError beyond the row-set budget,
    whatever the bounds. Rows that are recorded (_row_record) were found
    finite and within the budget when their record was made."""
    if (A.ndim != 2 + stacked or b.shape != A.shape[:-1]
            or (qp is not None and A.shape[1] != qp.p)):
        raise ContractError(f"constraint rows of shape {A.shape} and bounds of shape {b.shape} "
                            "do not match" + ("" if qp is None else f" R of size {qp.p}"))
    if not ((recorded or np.isfinite(A).all()) and np.isfinite(b).all()):
        raise ContractError("non-finite constraint data")
    if not recorded:
        _row_sets(*A.shape[-2:])


def _slack(A: np.ndarray, b: np.ndarray, u: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """b - A u, by how much u misses each row; SolverError beyond the tolerance."""
    viol = b - matvec(A, u)
    if (viol > tol).any():
        raise SolverError(f"active-set solution violates a row by {np.max(viol - tol):.2e} "
                          "beyond the tolerance")
    return viol


class RowFactors:
    """Rows A u >= b, checked for shape and finiteness and factored once for
    solves over any subset of them.

    A control step that prunes estimators solves again over fewer of the
    same rows. solve(keep) takes a mask of kept rows and returns what a fresh
    solve over A[keep], b[keep] returns: the sets of kept rows come in the
    same order, and each row enters the metric on its own (_metric_rows), so
    a set's factors, point and multipliers are the same bits whatever rows
    lie outside it. Only the test of each point against each row is one
    product over all rows, which may round differently from a product over
    fewer; it can change a decision only for a slack within rounding of the
    1e-9 tolerance. What depends on A and the metric alone comes from the
    module's record of the last row matrix (_row_record), made again only
    when A or the metric differs from it: the checks of A, each row's
    tolerance and, at the first solve that needs factors, the independent
    sets' factors. A hit checks only b and the size of R. The factors are
    needed by no solve whose u = 0 meets the kept rows; such a solve returns
    u = 0 as it stands. The points, misses and margins, which read b, are
    this object's, a stack of one, built at the first solve that needs them,
    and every certificate the rows offer at the first infeasible solve. With
    qp None the metric is the identity and a feasible result is not checked
    for stationarity (the Farkas check asks for feasibility only).
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, qp: Optional[QpProblem] = None):
        self.b = np.asarray(b, dtype=float)
        self.record = _row_record(np.asarray(A, dtype=float), self.b, qp)
        self.A, self.tol = self.record.A, self.record.tol
        self.qp = qp
        self._factors: Optional[_Factors] = None
        self._pair_table = None

    def _factored(self) -> _Factors:
        if self._factors is None:
            self._factors = _Factors.build(self.record, self.b[None])
        return self._factors

    def solve(self, keep: Optional[np.ndarray] = None) -> QpResult:
        """minimize u^T R u s.t. A[keep] u >= b[keep]; keep None keeps every row.

        The optimum is the first set of _row_sets over the kept rows whose
        rows are independent, whose multipliers are nonnegative and whose
        point satisfies every kept row. Active sets, multipliers and the
        certificate index the kept rows. ContractError unless keep is None
        or a boolean mask over the rows.
        """
        every = keep is None
        if every:
            keep = np.ones(len(self.b), dtype=bool)
        else:
            keep = np.asarray(keep)
            if keep.dtype != bool or keep.shape != self.b.shape:
                raise ContractError(f"keep must be a boolean mask of shape {self.b.shape}, "
                                    f"not {keep.dtype} of shape {keep.shape}")
        # With every row kept, the stored arrays serve uncopied.
        A, b, tol = ((self.A, self.b, self.tol) if every
                     else (self.A[keep], self.b[keep], self.tol[keep]))
        m, p = A.shape
        if (b <= tol).all():
            # The empty set: u = 0 meets every kept row, for b - A 0 = b <= tol,
            # and 2 R 0 = A^T 0 = 0 with zero multipliers, so the row and
            # stationarity checks below hold exactly and are not run.
            return QpResult("optimal", u=np.zeros(p),
                            active=tuple(np.flatnonzero(np.abs(b) <= tol).tolist()),
                            multipliers=np.zeros(m))
        f = self._factored()
        found, picks, mus = f.first_kkt(None if every else keep)
        if not len(found):
            return QpResult("infeasible", certificate=self._certificate(keep))
        B, j, mu, L = f.basis, picks[0], mus[0], self.record.L
        u = f.vs[0, j] if L is None else np.linalg.solve(L.T, f.vs[0, j])
        lam = np.zeros(len(B.unit))
        lam[B.sets[j]] = 2.0 * mu / B.unit[B.sets[j]]
        lam = np.maximum(lam[:len(self.b)][keep], 0.0)
        viol = _slack(A, b, u, tol)
        if self.qp is not None:
            grad = 2.0 * self.qp.R @ u
            if np.abs(grad - A.T @ lam).max() > 1e-7 * max(1.0, np.abs(grad).max()):
                raise SolverError("KKT stationarity residual out of tolerance")
        active = tuple(np.flatnonzero(np.abs(viol) <= tol).tolist())
        return QpResult("optimal", u=u, active=active, multipliers=lam)

    def _pairs(self):
        """Every certificate the rows offer, computed at the first infeasible
        solve: for each pair of an independent set S and a row j whose pivot
        after S is zero, with nonnegative weights and a positive margin, the
        set, the row, y over all rows, whether y meets _validate_certificate's
        bound, and the margin per unit of weight."""
        if self._pair_table is None:
            f = self._factored()
            B, m = f.basis, len(self.b)
            W, candidates = B.pair_terms()
            # The margin b^T y of each pair.
            margin = self.b / B.unit[:m] + np.einsum("sk,skj->sj", f.bS[0], W)
            s, j = np.nonzero(candidates & (margin > 0.0))
            W, margin, members = W[s, :, j], margin[s, j], B.sets[s]
            ys = np.zeros((len(s), len(B.unit)))
            ys[np.arange(len(s))[:, None], members] = W / B.unit[members]
            ys[np.arange(len(s)), j] += 1.0 / B.unit[j]
            ys = ys[:, :m] / margin[:, None]
            ok = np.abs(ys @ self.A).max(axis=1, initial=0.0) \
                <= _FEAS_TOL * np.maximum(1.0, ys.max(axis=1, initial=0.0))
            self._pair_table = (s, j, ys, ok, margin / (1.0 + W.sum(axis=1)))
        return self._pair_table

    def _certificate(self, keep: np.ndarray) -> np.ndarray:
        """y >= 0 on at most p + 1 kept rows with A^T y = 0 and b^T y = 1.

        Such a y lies on a minimal dependent row set: an independent set S and
        a row j whose pivot after S is zero. With S's factors N_S^T = Q R, the
        weights w = -R^-1 Q^T n_j on the unit rows of S and 1 on row j take them
        to zero. Among the pairs of a kept set and a kept row whose weights are
        nonnegative and meet _validate_certificate's bound, the certificate is
        the one with the largest margin b^T y per unit of weight.
        """
        s, j, ys, ok, score = self._pairs()
        ok = ok & ~(self._factored().basis.holds[s] @ ~keep) & keep[j]
        if not ok.any():
            raise SolverError("no KKT active set and no Farkas certificate")
        y = ys[int(np.where(ok, score, -np.inf).argmax())][keep]
        _validate_certificate(self.A[keep], self.b[keep], y)
        return y


def farkas_certificate(A: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """Farkas certificate for the rows A u >= b, or None when they are feasible.

    The returned y satisfies y >= 0, ||A^T y||_inf <= 1e-9 and b^T y = 1
    (scaled), is nonzero on at most p + 1 rows and is re-checked before
    returning. A feasible verdict rests on a point that meets every row.
    """
    return RowFactors(A, b).solve().certificate


def farkas_verdicts(A: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """Whether a point shows the rows A[i] u >= bs[i] feasible, for each i
    of a stack (A (S, m, p), bs (S, m)): True where u = 0 or the KKT point
    that RowFactors(A[i], bs[i]).solve() picks meets every row, with the
    bits of that solve; False otherwise. A False settles nothing: the rows
    are infeasible, or their solve raises, and farkas_certificate on them
    tells which.

    The stack is checked, and the tolerances of every run of samples whose
    row matrices are the same bytes taken, once. The samples of a run that
    u = 0 does not settle take one _Factors pass over the record of that
    matrix, made from the checked rows and their tolerances on a miss.
    """
    A = np.ascontiguousarray(A, dtype=float)
    bs = np.asarray(bs, dtype=float)
    _checked(A, bs, True)
    bits = A.view(np.int64)
    new = np.ones(len(A), dtype=bool)
    new[1:] = (bits[1:] != bits[:-1]).any(axis=(1, 2))
    heads = np.flatnonzero(new).tolist()
    keys = [(A.shape[1:], A[lo].tobytes(), None) for lo in heads]
    # One tolerance per run: the kept record's for a stack of its one
    # matrix, else every run's in one call.
    tols = ([_record.tol] if len(keys) == 1 and _record is not None and _record.key == keys[0]
            else _row_tolerances(A[heads]))
    verdicts = np.zeros(len(A), dtype=bool)
    for lo, hi, key, tol in zip(heads, heads[1:] + [len(A)], keys, tols):
        b, ok = bs[lo:hi], verdicts[lo:hi]
        ok[:] = (b <= tol).all(axis=1)
        rest = np.flatnonzero(~ok)
        if not rest.size:
            continue
        record = (_record if _record is not None and _record.key == key
                  else _new_record(key, A[lo], None, tol))
        f = _Factors.build(record, b[rest])
        found, picks, _ = f.first_kkt()
        points = rest[found]
        ok[points] = (b[points] - matvec(record.A, f.vs[found, picks]) <= record.tol).all(axis=1)
    return verdicts


def _validate_certificate(A, b, y):
    """Raise SolverError unless y certifies that A u >= b has no solution."""
    if np.min(y) < -1e-12:
        raise SolverError("certificate has negative multipliers")
    if np.max(np.abs(A.T @ y)) > 1e-9 * max(1.0, np.max(np.abs(y))):
        raise SolverError("certificate fails A^T y = 0")
    if b @ y <= 0.0:
        raise SolverError("certificate fails b^T y > 0")


def solve_qp(qp: QpProblem, A: np.ndarray, b: np.ndarray) -> QpResult:
    """Solve min u^T R u s.t. A u >= b, with R from qp.

    Returns the optimum with its active set, or an infeasibility result
    carrying the Farkas certificate of the same rows (farkas_certificate).
    """
    return RowFactors(A, b, qp).solve()
