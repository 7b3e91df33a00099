"""LTI plant simulation under sensor attacks and actuator failures.

The plant is the Ito SDE

    dx = (F x + G u) dt + sigma dW
    dy = (c x + a_t) dt + nu dV

integrated with Euler-Maruyama at a fixed step. Both case studies reach the
controller as such a model: the WMR after feedback linearization (the
scenario's compensator maps its input back to wheel commands) and the
Boeing 747 lateral axis directly. The attack vector a_t is supported on the
sensor indices of the active fault pattern; actuator failures multiply the
commanded input by a diagonal 0/1 effectiveness matrix L.

`measure` and `step_true_state` also take a stack of states of shape
(runs, n), with noise draws of the same leading shape, and step every run at
once. Their matrix-vector products go through `matvec`, which gives the same
bits for one run of a stack as for that state alone, so a Monte Carlo batch
reproduces its per-run loop exactly.

Sensor and actuator indices are 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, ScenarioValidationError


def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x over the trailing axis of x; for one vector it equals A @ x bit for bit."""
    return (A @ x[..., None])[..., 0]


def step_count(horizon: float, dt: float) -> int:
    """The number of dt steps in horizon, rounded to the nearest; a
    ContractError when horizon / dt is not finite."""
    steps = horizon / dt
    if not math.isfinite(steps):
        raise ContractError(f"{horizon!r} / dt = {dt!r} is not a finite step count")
    return int(round(steps))


def _as_matrix(m, rows: int, cols: int, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.shape != (rows, cols):
        raise ContractError(f"{name} must have shape ({rows}, {cols}), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ContractError(f"{name} has non-finite entries")
    return a


@dataclass
class SystemModel:
    """The drift and input matrices F and G, the output map c and the noise
    intensities sigma and nu.

    G gives the dimensions n (state) and p (input), c gives q (output); every
    other matrix is checked against them.
    """

    F: np.ndarray
    G: np.ndarray
    c: np.ndarray
    sigma: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        G, c = np.asarray(self.G, dtype=float), np.asarray(self.c, dtype=float)
        for a, name in ((G, "G"), (c, "c")):
            if a.ndim != 2 or a.size == 0:
                raise ContractError(f"{name} must be a nonempty 2-D matrix, got shape {a.shape}")
        (n, p), q = G.shape, c.shape[0]
        self.F = _as_matrix(self.F, n, n, "F")
        self.G = _as_matrix(G, n, p, "G")
        self.c = _as_matrix(c, q, n, "c")
        self.sigma = _as_matrix(self.sigma, n, n, "sigma")
        self.nu = _as_matrix(self.nu, q, q, "nu")

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def p(self) -> int:
        return self.G.shape[1]

    @property
    def q(self) -> int:
        return self.c.shape[0]

    def f(self, x: np.ndarray) -> np.ndarray:
        """The drift F x of a state, or of each state of a stack (..., n)."""
        return matvec(self.F, x)


def _bias_attack(amplitude: float, start: float, t: float) -> float:
    return amplitude if t >= start else 0.0


def _ramp_attack(rate: float, start: float, t: float) -> float:
    return rate * (t - start) if t >= start else 0.0


@cache
def _identity(p: int) -> np.ndarray:
    """The read-only p x p identity, built once per size."""
    eye = np.eye(p)
    eye.setflags(write=False)
    return eye


@dataclass
class FaultScenario:
    """Disjoint sensor fault patterns, an attack signal, and a failure schedule.

    sensor_patterns: list of disjoint 0-based sensor index sets.
    attack: callable t -> scalar applied to every sensor in the active
        pattern, or None for no attack. active_fault selects which pattern
        carries the attack; None means attack-free.
    failure_schedule: ordered (t_start, L) pairs, L diagonal 0/1 of size p.
    """

    q: int
    p: int
    sensor_patterns: list = field(default_factory=list)
    active_fault: Optional[int] = None
    attack: Optional[Callable[[float], float]] = None
    failure_schedule: list = field(default_factory=list)

    def __post_init__(self):
        pats = []
        seen = set()
        for pat in self.sensor_patterns:
            idx = tuple(sorted(int(i) for i in pat))
            if any(i < 0 or i >= self.q for i in idx):
                raise ScenarioValidationError(f"pattern {idx} outside sensor range 0..{self.q - 1}")
            if seen.intersection(idx):
                raise ScenarioValidationError("fault patterns must be pairwise disjoint")
            seen.update(idx)
            pats.append(idx)
        self.sensor_patterns = pats
        if self.active_fault is not None:
            if not 0 <= self.active_fault < len(pats):
                raise ScenarioValidationError(f"active_fault {self.active_fault} has no pattern")
            if self.attack is not None and not pats[self.active_fault]:
                raise ScenarioValidationError("attack declared on an empty fault pattern")
        sched = []
        last_t = -np.inf
        for t_start, L in self.failure_schedule:
            L = np.asarray(L, dtype=float)
            if L.shape != (self.p, self.p):
                raise ScenarioValidationError(f"effectiveness matrix must be {self.p}x{self.p}")
            d = np.diag(L)
            if np.any(L - np.diag(d) != 0.0) or not np.all(np.isin(d, (0.0, 1.0))):
                raise ScenarioValidationError("effectiveness matrix must be diagonal with 0/1 entries")
            if t_start < last_t:
                raise ScenarioValidationError("failure schedule must be ordered by start time")
            last_t = t_start
            L = L.copy()
            L.setflags(write=False)
            sched.append((float(t_start), L))
        self.failure_schedule = sched

    @classmethod
    def from_attack_spec(cls, q, p, sensor_patterns, active_fault=None, attack_spec=None,
                         failure_schedule=()) -> "FaultScenario":
        """Build from a declarative attack spec: {type: bias|ramp, amplitude|rate, start}."""
        attack = None
        if attack_spec is not None:
            kind = attack_spec.get("type", "bias")
            start = float(attack_spec.get("start", 0.0))
            if kind == "bias":
                attack = partial(_bias_attack, float(attack_spec["amplitude"]), start)
            elif kind == "ramp":
                attack = partial(_ramp_attack, float(attack_spec["rate"]), start)
            else:
                raise ScenarioValidationError(f"unknown attack type {kind!r}")
        return cls(q=q, p=p, sensor_patterns=list(sensor_patterns), active_fault=active_fault,
                   attack=attack, failure_schedule=list(failure_schedule))

    def attack_vector(self, t: float) -> np.ndarray:
        """a_t with support confined to the active fault pattern."""
        a = np.zeros(self.q)
        if self.attack is None or self.active_fault is None:
            return a
        a[list(self.sensor_patterns[self.active_fault])] = self.attack(t)
        return a

    def effectiveness_at(self, t: float) -> np.ndarray:
        """Active effectiveness matrix L at time t (identity before any
        failure), read-only: the identity is built once per size and each
        scheduled L is the schedule's own."""
        L = _identity(self.p)
        for t_start, Lj in self.failure_schedule:
            if t >= t_start:
                L = Lj
        return L


def step_true_state(model: SystemModel, x: np.ndarray, u: np.ndarray, dt: float,
                    noise_draw: np.ndarray) -> np.ndarray:
    """One Euler-Maruyama step: x + (F x + G u) dt + sigma w sqrt(dt).

    x and noise_draw are (n,) or a stack (runs, n); u is (p,) or (runs, p).
    """
    if dt <= 0:
        raise ContractError("dt must be positive")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    noise_draw = np.asarray(noise_draw, dtype=float)
    if x.shape[-1:] != (model.n,) or u.shape[-1:] != (model.p,) \
            or noise_draw.shape != x.shape:
        raise ContractError("state/input/noise dimension mismatch")
    return (x + (model.f(x) + matvec(model.G, u)) * dt
            + matvec(model.sigma, noise_draw) * np.sqrt(dt))


def measure(model: SystemModel, x: np.ndarray, t: float, scen: FaultScenario,
            noise_draw: np.ndarray, dt: float) -> np.ndarray:
    """Output increment dy = (c x + a_t) dt + nu v sqrt(dt).

    x is (n,) or a stack (runs, n); noise_draw has the same leading shape
    and q entries per run.
    """
    x = np.asarray(x, dtype=float)
    noise_draw = np.asarray(noise_draw, dtype=float)
    if x.shape[-1:] != (model.n,) or noise_draw.shape != x.shape[:-1] + (model.q,):
        raise ContractError("state/noise dimension mismatch in measure")
    return ((matvec(model.c, x) + scen.attack_vector(t)) * dt
            + matvec(model.nu, noise_draw) * np.sqrt(dt))


def apply_actuator_failure(u: np.ndarray, L: np.ndarray) -> np.ndarray:
    """u^F = L u. Entries at failed channels come out exactly zero."""
    u = np.asarray(u, dtype=float)
    L = np.asarray(L, dtype=float)
    if L.shape != (u.shape[0], u.shape[0]):
        raise ContractError("effectiveness matrix size mismatch")
    return L @ u
