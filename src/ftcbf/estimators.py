"""Banks of reduced-sensor Kalman/extended Kalman filters.

For m declared fault patterns the bank holds m single-pattern filters (pattern
sensors removed), one per pair (both patterns removed, open loop if nothing is
left), steady-state gains for LTI models, smoothed innovation residues for the
conflict-resolution policy, and the Monte Carlo calibration that turns the
existence statement "there is a gamma bounding the estimation error with high
probability" into usable per-filter radii.

A bank built from x0 of shape (runs, n) carries one estimate per run in each
filter (x_hat and residue gain the leading run axis) and is stepped on output
increments of shape (runs, q). Gains and covariances stay one per filter:
for an LTI model the Riccati flow does not depend on the state, so every run
shares it exactly. Calibration steps all its Monte Carlo runs this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ContractError, DetectabilityError, EstimatorConfigError
from .simulator import FaultScenario, SystemModel, matvec, measure, step_true_state


def reduce_output(y_inc: np.ndarray, pattern: Sequence[int]) -> np.ndarray:
    """Delete the trailing-axis entries indexed by pattern, preserving the order of the rest."""
    y_inc = np.asarray(y_inc, dtype=float)
    if not pattern:
        return y_inc.copy()
    return np.delete(y_inc, list(pattern), axis=-1)


def reduce_model_rows(c: np.ndarray, nu: np.ndarray, pattern: Sequence[int]):
    """c with pattern rows removed; nu with pattern rows and columns removed."""
    idx = [i for i in range(c.shape[0]) if i not in set(pattern)]
    return c[idx, :], nu[np.ix_(idx, idx)]


@dataclass
class EstimatorState:
    """One filter: estimate, covariance, gain, and its retained sensor set.

    mode is one of constant_gain, riccati_ode, open_loop. In open_loop mode
    (empty sensor set) there is no gain and the innovation term is dropped.
    """

    id: tuple
    removed: tuple
    sensors: tuple
    x_hat: np.ndarray
    P: np.ndarray
    mode: str
    K: Optional[np.ndarray] = None
    c_r: Optional[np.ndarray] = None
    nu_r: Optional[np.ndarray] = None
    R_r_inv: Optional[np.ndarray] = None
    residue: float = 0.0
    smoothing: float = 0.95


def _sym_check(P: np.ndarray) -> np.ndarray:
    asym = np.max(np.abs(P - P.T))
    if asym > 1e-6 * max(1.0, np.max(np.abs(P))):
        raise EstimatorConfigError(f"covariance lost symmetry by {asym:.2e}")
    return (P + P.T) / 2.0


def residue(est: EstimatorState, y_reduced: np.ndarray, dt: float,
            smoothing: Optional[float] = None):
    """Smoothed innovation norm ||y_reduced - c_r x_hat dt||, one per run.

    smoothing = 0 gives the instantaneous value. The raw per-step innovation
    is noise-dominated at small dt, so the policy compares smoothed values.
    """
    if est.mode == "open_loop" or est.c_r is None:
        return est.residue
    lam = est.smoothing if smoothing is None else smoothing
    d = np.asarray(y_reduced, dtype=float) - matvec(est.c_r, est.x_hat) * dt
    return _smoothed_residue(est, d, lam)


def _smoothed_residue(est: EstimatorState, innov: np.ndarray, lam: float):
    return lam * est.residue + (1.0 - lam) * np.sqrt(np.vecdot(innov, innov))


def ekf_step(est: EstimatorState, u: np.ndarray, y_reduced: np.ndarray, dt: float,
             model: SystemModel) -> EstimatorState:
    """Advance one Euler step of the filter SDE.

    dx_hat = (f(x_hat) + g(x_hat) u) dt + K (dy_r - c_r x_hat dt)

    In riccati_ode mode the covariance follows
    dP/dt = F P + P F^T + Q - P c_r^T R_r^-1 c_r P and the gain is recomputed
    as P c_r^T R_r^-1; constant_gain keeps K frozen at the steady-state value.
    A stacked x_hat of shape (runs, n) steps every run; P and K stay shared,
    which is exact for an LTI model (drift_jacobian is F whatever the state).
    """
    x = est.x_hat
    u = np.asarray(u, dtype=float)
    drift = (model.f(x) + matvec(model.g(x), u)) * dt
    if est.mode == "open_loop":
        return replace(est, x_hat=x + drift)

    innov = np.asarray(y_reduced, dtype=float) - matvec(est.c_r, x) * dt
    x_new = x + drift + matvec(est.K, innov)
    res = _smoothed_residue(est, innov, est.smoothing)

    if est.mode == "constant_gain":
        return replace(est, x_hat=x_new, residue=res)

    Ft = model.drift_jacobian(x, u)
    Q = model.sigma @ model.sigma.T
    S = est.c_r.T @ est.R_r_inv @ est.c_r
    # Substep the Riccati Euler update: one full-dt step from P0 = I is
    # unstable when the measurement noise is small (||S P|| dt >> 1).
    P_new = est.P
    remaining = dt
    for _ in range(10_000):
        stable = 0.2 / max(1.0, np.max(np.abs(Ft)), np.max(np.abs(P_new @ S)))
        h = min(remaining, stable)
        P_new = _sym_check(P_new + h * (Ft @ P_new + P_new @ Ft.T + Q - P_new @ S @ P_new))
        remaining -= h
        if remaining <= 0.0:
            break
    else:
        raise EstimatorConfigError("Riccati substepping stalled; dt too large for this model")
    K_new = P_new @ est.c_r.T @ est.R_r_inv
    return replace(est, x_hat=x_new, P=P_new, K=K_new, residue=res)


def steady_state_gain(F: np.ndarray, c_r: np.ndarray, Q: np.ndarray, R_r: np.ndarray,
                      tol: float = 1e-10, max_iter: int = 400_000) -> np.ndarray:
    """Constant Kalman gain K = P c_r^T R_r^-1 at the Riccati fixed point.

    Integrates dP/dt = F P + P F^T + Q - P c_r^T R_r^-1 c_r P with an
    adaptive Euler step until ||dP/dt||_inf <= tol * scale, where scale is
    the magnitude of the problem (max of ||Q|| and ||P||): small-noise models
    need the residual driven proportionally further because the gain
    multiplies P by R^-1. Non-convergence within the budget is reported as a
    detectability failure.
    """
    F = np.asarray(F, dtype=float)
    c_r = np.atleast_2d(np.asarray(c_r, dtype=float))
    Q = np.asarray(Q, dtype=float)
    R_r = np.atleast_2d(np.asarray(R_r, dtype=float))
    if np.min(np.linalg.svd(R_r, compute_uv=False)) <= 1e-12:
        raise EstimatorConfigError("reduced measurement noise R_r is singular")
    R_inv = np.linalg.inv(R_r)
    S = c_r.T @ R_inv @ c_r
    q0 = max(np.max(np.abs(Q)), 0.0)
    r0 = max(np.max(np.abs(R_r)), 1e-300)
    P = math.sqrt(q0 * r0) * np.eye(F.shape[0]) if q0 > 0 else np.zeros_like(F)
    f_norm = max(1.0, np.max(np.abs(F)))
    for _ in range(max_iter):
        dP = F @ P + P @ F.T + Q - P @ S @ P
        scale = max(q0, np.max(np.abs(P)), 1e-12)
        if np.max(np.abs(dP)) <= tol * scale:
            return P @ c_r.T @ R_inv
        if not np.all(np.isfinite(dP)) or np.max(np.abs(P)) > 1e12:
            raise DetectabilityError("Riccati ODE diverged; (F, c_r) is not detectable")
        step = 0.35 / (f_norm + max(1.0, np.max(np.abs(S @ P))))
        P = (P + step * dP)
        P = (P + P.T) / 2.0
    raise DetectabilityError("Riccati ODE did not reach steady state within the iteration budget")


@dataclass
class EstimatorBank:
    """Single-pattern and pairwise filters plus their calibrated radii."""

    patterns: list
    singles: list
    pairs: dict
    gammas: np.ndarray
    thetas: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.singles)

    def theta(self, i: int, j: int) -> float:
        return self.thetas[(min(i, j), max(i, j))]

    def gamma(self, i: int) -> float:
        return float(self.gammas[i])

    def all_states(self):
        yield from self.singles
        yield from self.pairs.values()

    def step(self, model: SystemModel, u: np.ndarray, y_inc: np.ndarray, dt: float) -> None:
        """Advance every filter one step on the shared output increment."""
        for k, est in enumerate(self.singles):
            self.singles[k] = ekf_step(est, u, reduce_output(y_inc, est.removed), dt, model)
        for key, est in self.pairs.items():
            self.pairs[key] = ekf_step(est, u, reduce_output(y_inc, est.removed), dt, model)

    def estimate(self, i: int) -> np.ndarray:
        return self.singles[i].x_hat

    def pair_estimate(self, i: int, j: int) -> np.ndarray:
        return self.pairs[(min(i, j), max(i, j))].x_hat

    def residues(self) -> np.ndarray:
        return np.array([e.residue for e in self.singles])


def _make_state(model: SystemModel, ident: tuple, removed: tuple, x0: np.ndarray,
                mode: str, smoothing: float) -> EstimatorState:
    q = model.q
    sensors = tuple(i for i in range(q) if i not in set(removed))
    if not sensors or mode == "open_loop":
        return EstimatorState(id=ident, removed=removed, sensors=sensors, x_hat=x0.copy(),
                              P=np.eye(model.n), mode="open_loop", smoothing=smoothing)
    c_r, nu_r = reduce_model_rows(model.c, model.nu, removed)
    R_r = nu_r @ nu_r.T
    if np.min(np.linalg.svd(R_r, compute_uv=False)) <= 1e-12:
        raise EstimatorConfigError(
            f"estimator {ident}: reduced R is singular; add measurement noise on retained sensors")
    R_inv = np.linalg.inv(R_r)
    Q = model.sigma @ model.sigma.T
    if mode == "constant_gain":
        if not model.is_linear:
            raise EstimatorConfigError("constant_gain mode requires an LTI model")
        K = steady_state_gain(model.F, c_r, Q, R_r)
        P = np.eye(model.n)
    else:
        P = np.eye(model.n)
        K = P @ c_r.T @ R_inv
    return EstimatorState(id=ident, removed=removed, sensors=sensors, x_hat=x0.copy(),
                          P=P, mode=mode, K=K, c_r=c_r, nu_r=nu_r, R_r_inv=R_inv,
                          smoothing=smoothing)


def make_bank(model: SystemModel, patterns: Sequence[Sequence[int]], x0: np.ndarray,
              mode: str = "constant_gain", gammas=None, thetas=None,
              smoothing: float = 0.95, with_pairs: bool = True) -> EstimatorBank:
    """Build the m single filters and the pairwise filters.

    x_hat(0) = x0 for every filter (the system starts known-safe) and
    P(0) = I. x0 may be a stack (runs, n); each filter then tracks every run
    in lockstep. gammas/thetas may be filled in later by calibration.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim > 2 or x0.shape[-1:] != (model.n,):
        raise ContractError("x0 dimension mismatch")
    pats = [tuple(sorted(int(s) for s in p)) for p in patterns]
    singles = [_make_state(model, ("single", i), pat, x0, mode, smoothing)
               for i, pat in enumerate(pats)]
    pairs = {}
    if with_pairs:
        for i in range(len(pats)):
            for j in range(i + 1, len(pats)):
                both = tuple(sorted(set(pats[i]) | set(pats[j])))
                pairs[(i, j)] = _make_state(model, ("pair", i, j), both, x0, mode, smoothing)
    m = len(pats)
    g = np.zeros(m) if gammas is None else np.asarray(gammas, dtype=float)
    th = dict(thetas) if thetas else {}
    return EstimatorBank(patterns=pats, singles=singles, pairs=pairs, gammas=g, thetas=th)


@dataclass
class CalibrationResult:
    gammas: np.ndarray
    thetas: dict
    epsilon: float
    n_runs: int
    sup_errors: np.ndarray  # (n_runs, m)

    def as_config(self) -> dict:
        return {
            "gammas": [float(g) for g in self.gammas],
            "thetas": {f"{i},{j}": float(v) for (i, j), v in sorted(self.thetas.items())},
            "epsilon": self.epsilon,
            "n_runs": self.n_runs,
        }


NOISE_BLOCK = 50  # steps of noise drawn per run at a time during calibration


def calibrate_gammas(model: SystemModel, scen: FaultScenario, n_runs: int, horizon: float,
                     epsilon: float, dt: float = 0.01, seed: int = 0,
                     mode: str = "constant_gain") -> CalibrationResult:
    """Attack-free Monte Carlo estimate of the per-filter error radii.

    gamma_i is the empirical (1 - epsilon/2)-quantile over runs of
    sup_t ||x_t - x_hat_{t,i}||, splitting epsilon evenly between the
    estimation-error event and the pairwise-deviation event; theta_ij is set
    to gamma_i + gamma_j. Runs use u = 0: for LTI filters the error dynamics
    do not depend on the input, so this loses no generality for the shipped
    scenarios. A model that is not LTI is rejected.

    All runs step in lockstep as one (n_runs, n) stack through measure,
    step_true_state and one bank. Run r draws its noise from
    default_rng(seed + r), each step's state draw before its measurement
    draw, NOISE_BLOCK steps at a time; the results are bitwise those of
    stepping the runs one after another.
    """
    if not 0.0 < epsilon <= 1.0:  # also false for nan
        raise ContractError(f"epsilon must be a finite number in (0, 1], got {epsilon!r}")
    if n_runs < 50:
        raise ContractError("calibration needs n_runs >= 50")
    if not model.is_linear:
        raise ContractError("calibration needs an LTI model (SystemModel.linear): "
                            "the u = 0 runs do not bound the error of a nonlinear filter")
    clean = FaultScenario(q=model.q, p=model.p, sensor_patterns=scen.sensor_patterns,
                          active_fault=None, attack=None, failure_schedule=[])
    m = len(clean.sensor_patterns)
    n, q = model.n, model.q
    steps = int(round(horizon / dt))
    u = np.zeros(model.p)
    x = np.zeros((n_runs, n))
    bank = make_bank(model, clean.sensor_patterns, x, mode=mode, with_pairs=False)
    rngs = [np.random.default_rng(seed + run) for run in range(n_runs)]
    noise = np.empty((NOISE_BLOCK, n_runs, n + q))
    sups = np.zeros((n_runs, m))
    for k in range(steps):
        b = k % NOISE_BLOCK
        if b == 0:
            block = min(NOISE_BLOCK, steps - k)
            for run, rng in enumerate(rngs):
                noise[:block, run] = rng.standard_normal((block, n + q))
        y_inc = measure(model, x, k * dt, clean, noise[b, :, n:], dt)
        x = step_true_state(model, x, u, dt, noise[b, :, :n])
        bank.step(model, u, y_inc, dt)
        for i, est in enumerate(bank.singles):
            d = x - est.x_hat
            sups[:, i] = np.maximum(sups[:, i], np.sqrt(np.vecdot(d, d)))
    gammas = np.quantile(sups, 1.0 - epsilon / 2.0, axis=0)
    thetas = {(i, j): float(gammas[i] + gammas[j])
              for i in range(m) for j in range(i + 1, m)}
    return CalibrationResult(gammas=gammas, thetas=thetas, epsilon=epsilon,
                             n_runs=n_runs, sup_errors=sups)
