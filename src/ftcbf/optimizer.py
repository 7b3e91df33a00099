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
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Optional

import numpy as np

from .errors import ContractError, SolverError

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
def _row_sets(m: int, p: int) -> np.ndarray:
    """The empty set and every set of at most p of m rows, by size and then
    lexicographically, padded in front to width p with the indices
    m, m + 1, ..."""
    check_problem_size(m, p)
    sets = np.array([tuple(range(m, m + p - k)) + s for k in range(min(p, m) + 1)
                     for s in itertools.combinations(range(m), k)], dtype=np.intp)
    sets.flags.writeable = False
    return sets


def _certificate(A: np.ndarray, b: np.ndarray, unit: np.ndarray, N: np.ndarray,
                 sets: np.ndarray, bS: np.ndarray, Q: np.ndarray, Rs: np.ndarray) -> np.ndarray:
    """y >= 0 on at most p + 1 rows with A^T y = 0 and b^T y = 1.

    Such a y lies on a minimal dependent row set: an independent set S and
    a row j whose pivot after S is zero. With S's factors N_S^T = Q R, the
    weights w = -R^-1 Q^T n_j on the unit rows of S and 1 on row j take them
    to zero. sets holds the independent sets, with their bounds and factors;
    N the m unit rows. Among the pairs whose weights are nonnegative and
    meet _validate_certificate's bound, the certificate is the one with the
    largest margin b^T y per unit of weight.
    """
    m = A.shape[0]
    # Every row in every set's basis, what the basis leaves of it, and the
    # weights and the margin b^T y of the pair.
    C = Q.transpose(0, 2, 1) @ N.T
    left = N.T - Q @ C
    W = -np.linalg.solve(Rs, C)
    margin = b / unit[:m] + np.einsum("sk,skj->sj", bS, W)
    dependent = np.einsum("sdj,sdj->sj", left, left) <= _INDEP_TOL ** 2
    s, j = np.nonzero(dependent & (W >= 0.0).all(axis=1) & (margin > 0.0))
    W, margin = W[s, :, j], margin[s, j]
    ys = np.zeros((len(s), len(unit)))
    ys[np.arange(len(s))[:, None], sets[s]] = W / unit[sets[s]]
    ys[np.arange(len(s)), j] += 1.0 / unit[j]
    ys = ys[:, :m] / margin[:, None]
    ok = np.abs(ys @ A).max(axis=1, initial=0.0) \
        <= _FEAS_TOL * np.maximum(1.0, ys.max(axis=1, initial=0.0))
    if not ok.any():
        raise SolverError("no KKT active set and no Farkas certificate")
    y = ys[int(np.where(ok, margin / (1.0 + W.sum(axis=1)), -np.inf).argmax())]
    _validate_certificate(-A, -b, y)
    return y


def _solve(A: np.ndarray, b: np.ndarray, L: Optional[np.ndarray] = None) -> QpResult:
    """minimize u^T R u s.t. A u >= b, for finite A and b, with R = L L^T,
    or with L None for the identity.

    The optimum is the first set of _row_sets whose rows are independent,
    whose multipliers are nonnegative and whose point satisfies every row.
    """
    m, p = A.shape
    sets = _row_sets(m, p)
    # The tolerance is a distance, the same for a row and any multiple of it:
    # in value, 1e-9 on a row scaled by 1e6 asks more than double precision
    # gives, and on a row scaled by 1e-6 allows a point 1e-3 outside it.
    tol = _FEAS_TOL * np.sqrt(np.einsum("ij,ij->i", A, A))
    if (b <= tol).all():
        # The empty set, u = 0, needs no factors.
        u, lam = np.zeros(p), np.zeros(m)
    else:
        AL = A if L is None else np.linalg.solve(L, A.T).T
        # The unit rows in the metric, then p padding rows: unit vectors in
        # dimensions of their own, with bound 0.
        unit = np.ones(m + p)
        unit[:m] = np.sqrt(np.einsum("ij,ij->i", AL, AL))
        unit[unit == 0.0] = 1.0
        N = np.zeros((m + p, 2 * p))
        N[:m, :p] = AL / unit[:m, None]
        N[m:, p:] = np.eye(p)
        bN = np.zeros(m + p)
        bN[:m] = b / unit[:m]
        bS = bN[sets]
        Q, Rs = np.linalg.qr(N[sets].transpose(0, 2, 1))
        indep = (np.abs(np.diagonal(Rs, axis1=1, axis2=2)) > _INDEP_TOL).all(axis=1)
        Rs[~indep] = np.eye(p)
        # N_S v = b_S with v = N_S^T mu: R^T z = b_S, v = Q z, R mu = z; and
        # A u = A L^-T v. The multipliers are needed only where v is feasible.
        z = np.linalg.solve(Rs.transpose(0, 2, 1), bS[..., None])
        vs = (Q @ z)[:, :p, 0]
        feasible = np.flatnonzero(indep & (vs @ AL.T - b >= -tol).all(axis=1))
        mu = np.linalg.solve(Rs[feasible], z[feasible])[..., 0]
        ok = (mu >= -_FEAS_TOL / 2.0).all(axis=1)
        if not ok.any():
            return QpResult("infeasible", certificate=_certificate(
                A, b, unit, N[:m], sets[indep], bS[indep], Q[indep], Rs[indep]))
        k = int(ok.argmax())
        j = feasible[k]
        u = vs[j] if L is None else np.linalg.solve(L.T, vs[j])
        lam = np.zeros(m + p)
        lam[sets[j]] = 2.0 * mu[k] / unit[sets[j]]
        lam = np.maximum(lam[:m], 0.0)
    viol = b - A @ u
    if (viol > tol).any():
        raise SolverError(f"active-set solution violates a row by {np.max(viol - tol):.2e} "
                          "beyond the tolerance")
    active = tuple(np.flatnonzero(np.abs(viol) <= tol).tolist())
    return QpResult("optimal", u=u, active=active, multipliers=lam)


def farkas_certificate(A: np.ndarray, Xi: np.ndarray) -> Optional[np.ndarray]:
    """Farkas certificate for A u <= Xi, or None when the system is feasible.

    The returned y satisfies y >= 0, ||A^T y||_inf <= 1e-9 and Xi^T y = -1
    (scaled), is nonzero on at most p + 1 rows and is re-checked before
    returning. A feasible verdict rests on a point that meets every row.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Xi = np.atleast_1d(np.asarray(Xi, dtype=float))
    if A.shape[0] != Xi.shape[0]:
        raise ContractError("A and Xi row counts differ")
    if not (np.isfinite(A).all() and np.isfinite(Xi).all()):
        raise ContractError("non-finite entries in Farkas system")
    return _solve(-A, -Xi).certificate


def _validate_certificate(A, Xi, y):
    if np.min(y) < -1e-12:
        raise SolverError("certificate has negative multipliers")
    if np.max(np.abs(A.T @ y)) > 1e-9 * max(1.0, np.max(np.abs(y))):
        raise SolverError("certificate fails A^T y = 0")
    if Xi @ y >= 0.0:
        raise SolverError("certificate fails Xi^T y < 0")


def solve_qp(qp: QpProblem, A: np.ndarray, b: np.ndarray) -> QpResult:
    """Solve min u^T R u s.t. A u >= b, with R from qp.

    Returns the optimum with its active set, or an infeasibility result
    carrying the Farkas certificate for the equivalent system -A u <= -b,
    scaled to -b^T y = -1.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[1] != qp.p or b.shape != A.shape[:1]:
        raise ContractError(f"constraint rows of shape {A.shape} and bounds of shape {b.shape} "
                            f"do not match R of size {qp.p}")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ContractError("non-finite constraint data")
    res = _solve(A, b, qp._L)
    if res.is_feasible:
        grad = 2.0 * qp.R @ res.u
        if np.abs(grad - A.T @ res.multipliers).max() > 1e-7 * max(1.0, np.abs(grad).max()):
            raise SolverError("KKT stationarity residual out of tolerance")
    return res
