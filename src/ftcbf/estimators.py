"""Banks of reduced-sensor Kalman filters on the LTI model.

For m declared fault patterns the bank holds m single-pattern filters (pattern
sensors removed), one per pair (both patterns removed, open loop if nothing is
left), steady-state gains, smoothed innovation residues for the
conflict-resolution policy, and the Monte Carlo calibration that turns the
existence statement "there is a gamma bounding the estimation error with high
probability" into usable per-filter radii. The covariance flow of the LTI
model does not depend on the state, so every filter with sensors runs its
steady-state gain, one Riccati solve, from step 0; the others run open loop.

A bank built from x0 of shape (runs, n) carries one estimate per run in each
filter (x_hat and residue gain the leading run axis) and is stepped on output
increments of shape (runs, q). Gains stay one per filter, shared by every
run. Calibration steps all its Monte Carlo runs this way.

A bank step computes the input term G u once for all its filters and
advances each filter in place through ekf_step, which replaces the filter's
estimate and residue with new arrays; no filter state is copied per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ContractError, DetectabilityError, EstimatorConfigError
from .simulator import (FaultScenario, SystemModel, matvec, measure, step_count,
                        step_true_state)

MODES = ("constant_gain", "open_loop")
_RESIDUAL_TOL = 1e-8  # steady_state_gain's relative Riccati residual
_ZERO_TOL = 1e-9      # relative size below which a singular value or Re mu counts as 0
_AXIS_TOL = 1e-3      # relative distance within which an axis eigenvalue of H is one of F


@dataclass
class EstimatorState:
    """One filter: estimate, gain, and its retained sensor set.

    K is the steady-state gain; a filter without one (K None: no sensors
    left, or open_loop mode) runs open loop and drops the innovation term.
    """

    sensors: tuple
    x_hat: np.ndarray
    K: Optional[np.ndarray] = None
    c_r: Optional[np.ndarray] = None
    nu_r: Optional[np.ndarray] = None
    residue: float = 0.0
    smoothing: float = 0.95


def ekf_step(est: EstimatorState, Gu: np.ndarray, y_reduced: np.ndarray, dt: float,
             model: SystemModel) -> None:
    """Advance est one Euler step of the filter SDE, in place.

    dx_hat = (F x_hat + G u) dt + K (dy_r - c_r x_hat dt)

    Gu is the input term G u, which every filter of a bank shares. The
    residue smooths the innovation norm, one per run: residue <-
    s residue + (1 - s) ||dy_r - c_r x_hat dt|| with s = smoothing, since the
    raw innovation is noise-dominated at small dt. A filter without a gain
    has no innovation and keeps its residue. A stacked x_hat of shape
    (runs, n) steps every run with the one gain. x_hat and residue are
    replaced by new values, never written into, so an estimate read before
    the step keeps its value.
    """
    x = est.x_hat
    drift = (model.f(x) + Gu) * dt
    if est.K is None:
        est.x_hat = x + drift
        return
    innov = y_reduced - matvec(est.c_r, x) * dt
    s = est.smoothing
    est.residue = s * est.residue + (1.0 - s) * np.sqrt(np.vecdot(innov, innov))
    est.x_hat = x + drift + matvec(est.K, innov)


def _check_detectable(F: np.ndarray, c_r: np.ndarray) -> None:
    """PBH test: every eigenvalue lambda of F with Re lambda >= 0 (up to
    rounding) must have rank [F - lambda I; c_r] = n, else that mode neither
    decays nor shows in c_r, and no stabilizing Riccati solution exists."""
    n = F.shape[0]
    scale = max(1.0, np.max(np.abs(F)), np.max(np.abs(c_r)))
    for lam in np.linalg.eigvals(F):
        if lam.real >= -_ZERO_TOL * scale:
            M = np.vstack([F - lam * np.eye(n), c_r])
            if np.linalg.svd(M, compute_uv=False)[-1] <= _ZERO_TOL * scale:
                raise DetectabilityError(
                    f"(F, c_r) is not detectable: the mode of eigenvalue {lam:.6g} of F "
                    "does not decay and c_r does not observe it")


def steady_state_gain(F: np.ndarray, c_r: np.ndarray, Q: np.ndarray,
                      R_r: np.ndarray) -> np.ndarray:
    """Kalman gain K = P c_r^T R_r^-1 (float arrays, c_r 2-D) at the stabilizing
    solution P of F P + P F^T + Q - P S P = 0, S = c_r^T R_r^-1 c_r.

    Q = 0 gives K = 0, the flow's fixed point P = 0. Otherwise a pair (F, c_r)
    that fails the PBH detectability test is a DetectabilityError, and
    P = U2 U1^-1, symmetrized, comes from the n eigenvectors [U1; U2] of
    H = [[F^T, -S], [-Q, -F]] with Re mu < 0 (Laub's invariant-subspace method).
    Fewer such mu, an eigenvalue on the imaginary axis, is a DetectabilityError
    naming it; so is a residual above _RESIDUAL_TOL times the largest term.
    With S, Q >= 0 such an eigenvalue is one of F; one that is not shows a
    spectrum lost in rounding (huge weights), an error naming no eigenvalue.
    """
    if np.min(np.linalg.svd(R_r, compute_uv=False)) <= 1e-12:
        raise EstimatorConfigError("reduced measurement noise R_r is singular")
    n = F.shape[0]
    R_inv = np.linalg.inv(R_r)
    if not np.any(Q):
        return np.zeros((n, c_r.shape[0]))
    _check_detectable(F, c_r)
    S = c_r.T @ R_inv @ c_r
    mu, V = np.linalg.eig(np.block([[F.T, -S], [-Q, -F]]))
    # Scaled by the spectrum: the size of S or Q alone can dwarf every mu.
    stable = mu.real < -_ZERO_TOL * max(1.0, np.max(np.abs(mu)))
    if np.count_nonzero(stable) < n:
        axis = mu[~stable][np.argmin(np.abs(mu[~stable].real))]
        lam = np.linalg.eigvals(F)
        if np.min(np.abs(lam - axis)) > _AXIS_TOL * max(1.0, np.max(np.abs(lam))):
            raise DetectabilityError(
                "the Riccati Hamiltonian's spectrum is not resolved in double precision: "
                "it shows an eigenvalue on the imaginary axis that F does not have")
        raise DetectabilityError(
            f"no stabilizing Riccati solution: the Hamiltonian has the eigenvalue {axis:.6g} "
            "on the imaginary axis, a mode of F that does not decay and that Q does not reach")
    # A singular U1 gives the least-squares P, which the residual check refuses.
    P = np.linalg.lstsq(V[:n, stable].T, V[n:, stable].T, rcond=None)[0].T.real
    P = (P + P.T) / 2.0
    terms = np.array([F @ P, P @ F.T, Q, -P @ S @ P])
    residual = np.max(np.abs(terms.sum(axis=0)))
    if not residual <= _RESIDUAL_TOL * np.max(np.abs(terms)):
        raise DetectabilityError(
            f"the stable eigenvectors of the Riccati Hamiltonian give no solution: residual "
            f"{residual:.3g} against a largest term of {np.max(np.abs(terms)):.3g}")
    return P @ c_r.T @ R_inv


@dataclass
class EstimatorBank:
    """Single-pattern and pairwise filters plus their calibrated radii."""

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

    def step(self, model: SystemModel, u: np.ndarray, y_inc: np.ndarray, dt: float) -> None:
        """Advance every filter in place one step on the shared output
        increment, each on its retained channels; G u is computed once for
        all of them."""
        y_inc = np.asarray(y_inc, dtype=float)
        Gu = matvec(model.G, np.asarray(u, dtype=float))
        for est in [*self.singles, *self.pairs.values()]:
            ekf_step(est, Gu, y_inc.take(est.sensors, axis=-1), dt, model)

    def estimate(self, i: int) -> np.ndarray:
        return self.singles[i].x_hat

    def pair_estimate(self, i: int, j: int) -> np.ndarray:
        return self.pairs[(min(i, j), max(i, j))].x_hat

    def residues(self) -> np.ndarray:
        return np.array([e.residue for e in self.singles])

    def check_euler_step(self, model: SystemModel, dt: float) -> None:
        """Refuse a dt at which some filter's Euler step cannot carry its
        gain: each eigenvalue mu of F - K c_r with Re mu < 0 must give
        |1 + mu dt| < 1, or the error of that decaying mode grows at every
        step. Marginal modes (mu = 0) are the model's and are left alone."""
        named = [(f"single {i}", est) for i, est in enumerate(self.singles)]
        named += [(f"pair {i},{j}", est) for (i, j), est in self.pairs.items()]
        for name, est in named:
            if est.K is None:
                continue
            A = model.F - est.K @ est.c_r
            mu = np.linalg.eigvals(A)
            decaying = mu.real < -_ZERO_TOL * max(1.0, np.max(np.abs(A)))
            factor = float(np.max(np.abs(1.0 + mu[decaying] * dt), initial=0.0))
            if factor >= 1.0:
                raise ContractError(
                    f"filter {name}: its Euler step scales a decaying error mode by "
                    f"|1 + mu dt| = {factor:.3g} >= 1; sim: dt = {dt:g} is too large for "
                    "its gain")


def _make_state(model: SystemModel, ident: str, removed: tuple, x0: np.ndarray,
                open_loop: bool, smoothing: float) -> EstimatorState:
    sensors = tuple(i for i in range(model.q) if i not in set(removed))
    if not sensors or open_loop:
        return EstimatorState(sensors=sensors, x_hat=x0.copy(), smoothing=smoothing)
    c_r, nu_r = model.c[sensors, :], model.nu[np.ix_(sensors, sensors)]
    R_r = nu_r @ nu_r.T
    if np.min(np.linalg.svd(R_r, compute_uv=False)) <= 1e-12:
        raise EstimatorConfigError(
            f"estimator {ident}: reduced R is singular; add measurement noise on retained sensors")
    K = steady_state_gain(model.F, c_r, model.sigma @ model.sigma.T, R_r)
    return EstimatorState(sensors=sensors, x_hat=x0.copy(), K=K, c_r=c_r, nu_r=nu_r,
                          smoothing=smoothing)


def make_bank(model: SystemModel, patterns: Sequence[Sequence[int]], x0: np.ndarray,
              mode: str = "constant_gain", gammas=None, thetas=None,
              smoothing: float = 0.95, with_pairs: bool = True) -> EstimatorBank:
    """Build the m single filters and the pairwise filters.

    x_hat(0) = x0 for every filter (the system starts known-safe). In
    constant_gain mode each filter with sensors gets its steady-state gain;
    in open_loop mode every filter runs open loop. x0 may be a stack
    (runs, n); each filter then tracks every run in lockstep. gammas/thetas
    may be filled in later by calibration.
    """
    if mode not in MODES:
        raise ContractError(f"unknown filter mode {mode!r}: use one of {', '.join(MODES)}")
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim > 2 or x0.shape[-1:] != (model.n,):
        raise ContractError("x0 dimension mismatch")
    open_loop = mode == "open_loop"
    pats = [tuple(sorted(int(s) for s in p)) for p in patterns]
    singles = [_make_state(model, f"single {i}", pat, x0, open_loop, smoothing)
               for i, pat in enumerate(pats)]
    pairs = {}
    if with_pairs:
        for i in range(len(pats)):
            for j in range(i + 1, len(pats)):
                both = tuple(sorted(set(pats[i]) | set(pats[j])))
                pairs[(i, j)] = _make_state(model, f"pair {i},{j}", both, x0, open_loop,
                                            smoothing)
    m = len(pats)
    g = np.zeros(m) if gammas is None else np.asarray(gammas, dtype=float)
    th = dict(thetas) if thetas else {}
    return EstimatorBank(singles=singles, pairs=pairs, gammas=g, thetas=th)


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
    do not depend on the input, so this loses no generality.

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
    clean = FaultScenario(q=model.q, p=model.p, sensor_patterns=scen.sensor_patterns,
                          active_fault=None, attack=None, failure_schedule=[])
    m = len(clean.sensor_patterns)
    n, q = model.n, model.q
    steps = step_count(horizon, dt)
    u = np.zeros(model.p)
    x = np.zeros((n_runs, n))
    bank = make_bank(model, clean.sensor_patterns, x, mode=mode, with_pairs=False)
    bank.check_euler_step(model, dt)
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
