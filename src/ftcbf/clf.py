"""Quadratic control Lyapunov functions for LTI goal reaching.

V(x) = (x - x_goal)^T Psi (x - x_goal) with Psi built from the Lyapunov
equation F^T P_L + P_L F = -I, position coordinates rescaled by the goal
radius, and decay rate rho = 1 / (d * max eigenvalue). The constraint row
enforces the estimator-conditioned decrease condition

    dV/dx (F x + G u) + gamma ||dV/dx K c|| + 1/2 tr(nu^T K^T 2Psi K nu) < 0

robustly over the gamma error ball (strict inequality realized with a fixed
margin; an optional rho V(x_hat) decay term gives the exponential version
used when driving to a goal within a finite horizon).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .barriers import _error_term, _trace_term
from .errors import ContractError, LyapunovError
from .simulator import SystemModel, matvec

STRICT_MARGIN = 1e-9


def solve_lyapunov(F: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve F^T P + P F = rhs via the Kronecker-product linear system.

    Raises LyapunovError naming the offending eigenvalue pair when the
    operator is singular (lambda_i + lambda_j = 0 for some pair).
    """
    F = np.asarray(F, dtype=float)
    n = F.shape[0]
    M = np.kron(np.eye(n), F.T) + np.kron(F.T, np.eye(n))
    if np.linalg.matrix_rank(M, tol=1e-10) < n * n:
        eig = np.linalg.eigvals(F)
        for i in range(n):
            for j in range(n):
                if abs(eig[i] + eig[j]) < 1e-8:
                    raise LyapunovError(
                        f"Lyapunov operator singular: eigenvalues {eig[i]:.4g} and {eig[j]:.4g} sum to zero")
        raise LyapunovError("Lyapunov operator numerically singular")
    P = np.linalg.solve(M, np.asarray(rhs, dtype=float).reshape(-1)).reshape(n, n)
    P = (P + P.T) / 2.0
    resid = np.max(np.abs(F.T @ P + P @ F - rhs))
    if resid > 1e-9:
        raise LyapunovError(f"Lyapunov residual {resid:.2e} exceeds 1e-9")
    return P


@dataclass
class QuadraticClf:
    """V(x) = (x - x_goal)^T Psi (x - x_goal)."""

    Psi: np.ndarray
    x_goal: np.ndarray
    rho: float

    def __post_init__(self):
        self.Psi = np.asarray(self.Psi, dtype=float)
        self.x_goal = np.asarray(self.x_goal, dtype=float)
        if self.Psi.shape != (self.x_goal.shape[0],) * 2:
            raise ContractError("Psi / x_goal dimension mismatch")
        if np.max(np.abs(self.Psi - self.Psi.T)) > 1e-10:
            raise ContractError("Psi must be symmetric")
        if np.min(np.linalg.eigvalsh(self.Psi)) <= 0:
            raise ContractError("Psi must be positive definite")
        if self.rho <= 0:
            raise ContractError("rho must be positive")

    def value(self, x: np.ndarray):
        """V at the state x (n,), or at each state of a stack (..., n)."""
        e = np.asarray(x, dtype=float) - self.x_goal
        return np.vecdot(e @ self.Psi, e)

    def grad(self, x: np.ndarray) -> np.ndarray:
        """dV/dx at x, or at each state of a stack (..., n)."""
        return 2.0 * matvec(self.Psi, np.asarray(x, dtype=float) - self.x_goal)

    def hessian(self) -> np.ndarray:
        return 2.0 * self.Psi


def build_quadratic_clf(F: np.ndarray, d: float, x_goal=None,
                        pos_dim: Optional[int] = None) -> QuadraticClf:
    """CLF from the Lyapunov solve with goal-radius scaling.

    Psi = S P_L S with S = diag(1/d on the first pos_dim coordinates, 1
    elsewhere) and rho = 1 / (d * max eigenvalue of Psi). F must make the
    Lyapunov equation solvable (pre-stabilize it otherwise; the scenario
    builder does this and logs the substitution).
    """
    F = np.asarray(F, dtype=float)
    n = F.shape[0]
    if d <= 0:
        raise ContractError("goal radius d must be positive")
    P_L = solve_lyapunov(F, -np.eye(n))
    if pos_dim is None:
        pos_dim = n // 2
    S = np.diag([1.0 / d] * pos_dim + [1.0] * (n - pos_dim))
    Psi = S @ P_L @ S
    Psi = (Psi + Psi.T) / 2.0
    lam_max = float(np.max(np.linalg.eigvalsh(Psi)))
    x_goal = np.zeros(n) if x_goal is None else np.asarray(x_goal, dtype=float)
    return QuadraticClf(Psi=Psi, x_goal=x_goal, rho=1.0 / (d * lam_max))


def clf_trace(clf: QuadraticClf, est) -> float:
    """The trace term of clf_row under est, fixed through a run: the
    Hessian of V and the filter's gain never change."""
    return _trace_term(est, clf.hessian())


def clf_row(clf: QuadraticClf, est, model: SystemModel, gamma: float,
            decay: bool = False, trace: Optional[float] = None,
            drift: Optional[np.ndarray] = None, V=None):
    """Decrease-condition (row, bound) at est.x_hat, or None when degenerate.

    Degenerate means the gradient vanishes (estimate at the goal): the row
    would read 0.u >= positive and is flagged inactive instead of emitted.
    With decay=True the bound additionally includes rho V(x_hat), asking for
    exponential descent rather than bare decrease. trace, from clf_trace,
    stands in for the trace term; drift and V, when the caller has computed
    them at est.x_hat, for F x_hat and V(x_hat).
    """
    x_hat = est.x_hat
    dv = clf.grad(x_hat)
    if np.max(np.abs(dv)) <= 1e-12:
        return None
    row = -(dv @ model.G)
    bound = float(dv @ (model.f(x_hat) if drift is None else drift)) + STRICT_MARGIN
    bound += _error_term(est, dv, gamma)
    bound += _trace_term(est, clf.hessian()) if trace is None else trace
    if decay:
        bound += clf.rho * (clf.value(x_hat) if V is None else V)
    return row, bound


def goal_distances(states: np.ndarray, clf: QuadraticClf,
                   indices: Optional[Sequence[int]] = None) -> np.ndarray:
    """||x - x_goal|| for each row x of states.

    indices restricts the norm to a coordinate subset (e.g. positions only).
    """
    states = np.asarray(states, dtype=float)
    goal = clf.x_goal
    if indices is not None:
        idx = list(indices)
        states = states[:, idx]
        goal = goal[idx]
    return np.linalg.norm(states - goal, axis=1)


def goal_reach_time(times: Sequence[float], states: np.ndarray, clf: QuadraticClf,
                    d: float, indices: Optional[Sequence[int]] = None) -> Optional[float]:
    """First sample time with goal distance <= d, or None."""
    hit = np.nonzero(goal_distances(states, clf, indices) <= d)[0]
    return float(times[hit[0]]) if hit.size else None
