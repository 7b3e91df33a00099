"""Executable case-study scenarios and the scenario file format.

Two golden fixtures ship with the repo: a wheeled mobile robot driven through
feedback linearization under a false-data injection on one redundant position
sensor, and the Boeing 747 lateral axis under a scheduled loss of two rudder
servos. Scenario files are declarative YAML documents with blocks
model / faults / barriers / clf / policy / sim / calibration / seeds; every
default below can be overridden there. Matrices are nested arrays; sensor and
actuator indices are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
import yaml

from .barriers import HalfPlane, Poly, build_chain, ellipsoid_barrier
from .clf import QuadraticClf, build_quadratic_clf, solve_lyapunov
from .errors import (LyapunovError, RedundancyError, ScenarioValidationError,
                     UncontrollableBarrierError)
from .estimators import steady_state_gain
from .policy import PolicyConfig
from .simulator import FaultScenario, SystemModel

WMR_F = np.array([
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
])
WMR_G = np.array([
    [0.0, 0.0],
    [0.0, 0.0],
    [1.0, 0.0],
    [0.0, 1.0],
])
# Six outputs of the four linearized states: duplicated position channels give
# one redundant sensor per coordinate, single velocity channels.
WMR_C = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])

BOEING_F = np.array([
    [-0.0558, -0.9968, 0.0802, 0.0415],
    [0.598, -0.115, -0.0318, 0.0],
    [-3.05, 0.388, -0.465, 0.0],
    [0.0, 0.0805, 1.0, 0.0],
])
BOEING_G = np.array([
    [0.00729, 0.01, 0.005],
    [-0.475, -0.5, -0.3],
    [0.153, 0.2, 0.1],
    [0.0, 0.0, 0.0],
])
BOEING_C = np.array([[0.0, 1.0, 0.0, 0.0]])

WMR_OMEGA_FLOOR = 1e-3


class CompensatorOutput(NamedTuple):
    omega1: float
    omega2: float
    clamped: bool


def wmr_compensator(u, theta: float, omega1_prev: float, dt: float,
                    floor: float = WMR_OMEGA_FLOOR) -> CompensatorOutput:
    """Map linearized inputs back to wheel commands.

    omega1 accumulates u1 cos(theta) + u2 sin(theta); omega2 divides by
    omega1, so |omega1| is clamped to a signed floor at the singularity (the
    clamp is reported so runs can log the event).
    """
    u = np.asarray(u, dtype=float)
    omega1 = omega1_prev + (u[0] * math.cos(theta) + u[1] * math.sin(theta)) * dt
    clamped = False
    if abs(omega1) < floor:
        omega1 = math.copysign(floor, omega1 if omega1 != 0.0 else 1.0)
        clamped = True
    omega2 = (u[1] * math.cos(theta) - u[0] * math.sin(theta)) / omega1
    return CompensatorOutput(omega1, omega2, clamped)


@dataclass
class Scenario:
    """Everything a run needs, plus the merged config that rebuilds it."""

    name: str
    kind: str
    family: str                       # "sensor" | "actuator"
    model: SystemModel
    faults: FaultScenario
    chains: list
    policy: PolicyConfig
    R: np.ndarray
    dt: float
    horizon: float
    x0: np.ndarray
    config: dict
    barrier_specs: list = field(default_factory=list)
    af_chain_sets: list = field(default_factory=list)
    af_patterns: list = field(default_factory=list)
    clf: Optional[QuadraticClf] = None
    goal_radius: Optional[float] = None
    goal_indices: Optional[list] = None
    estimator_mode: str = "constant_gain"
    estimator_smoothing: float = 0.95
    bank_patterns: list = field(default_factory=list)
    gammas: Optional[np.ndarray] = None
    thetas: dict = field(default_factory=dict)
    seeds: list = field(default_factory=list)
    verify_box: float = 1.0
    compensator: bool = False
    notes: list = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in (override or {}).items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def _scale_or_matrix(value, size: int) -> np.ndarray:
    if np.isscalar(value):
        return float(value) * np.eye(size)
    return np.asarray(value, dtype=float)


def _barrier_from_spec(spec: dict, n: int):
    kind = spec.get("type", "half_plane")
    if kind == "half_plane":
        return HalfPlane(a=tuple(float(v) for v in spec["a"]), b=float(spec["b"]))
    if kind == "ellipsoid":
        return ellipsoid_barrier(np.asarray(spec["Phi"], dtype=float),
                                 np.asarray(spec["center"], dtype=float))
    if kind == "polynomial":
        terms = {tuple(int(e) for e in t["exponents"]): float(t["coeff"])
                 for t in spec["terms"]}
        return Poly(n, terms)
    raise ScenarioValidationError(f"unknown barrier type {kind!r}")


def _parse_thetas(block) -> dict:
    out = {}
    for key, val in (block or {}).items():
        i, j = (int(s) for s in str(key).split(","))
        out[(min(i, j), max(i, j))] = float(val)
    return out


def wmr_default_config() -> dict:
    return {
        "name": "wmr-sensor-attack",
        "kind": "wmr",
        "model": {"sigma": 0.01, "nu": 0.01},
        "faults": {
            "patterns": [[0], [2]],
            "active": 1,
            "attack": {"type": "bias", "amplitude": 0.5, "start": 1.0},
        },
        "barriers": [{"type": "half_plane", "a": [0.0, 1.0, 0.0, 0.0], "b": 0.1}],
        "clf": {
            "goal": [0.0, 0.0, 0.0, 0.0],
            "radius": 0.05,
            "pos_dim": 2,
            "goal_indices": [0, 1],
            "decay": True,
            "v_bar_fraction": 0.5,
        },
        "policy": {"mode": "sensor_ft_clf", "delta": float("inf"), "baseline_gamma": 0.0,
                   "u_max": 12.0},
        "sim": {"dt": 0.02, "horizon": 12.0, "x0": [-1.0, -0.05, 0.15, 0.01], "cost": "identity"},
        "calibration": {"gammas": None, "thetas": None, "epsilon": 0.05},
        "verify": {"box": 1.0},
        "seeds": list(range(20)),
    }


def boeing_default_config() -> dict:
    return {
        "name": "boeing-actuator-failure",
        "kind": "boeing",
        "model": {},
        "faults": {
            "failure_schedule": [
                {"step": 10, "L": [1, 0, 1]},
                {"step": 100, "L": [0, 1, 1]},
            ],
        },
        "barriers": [
            {"type": "half_plane", "a": [0.0, 1.0, 0.0, 0.0], "b": 0.025},
            {"type": "half_plane", "a": [0.0, -1.0, 0.0, 0.0], "b": 0.025},
        ],
        "policy": {"mode": "actuator_ft", "alpha_kappa": 1.0,
                   "patterns": [[1, 1, 1], [1, 0, 1], [0, 1, 1]],
                   "nominal": {"type": "lqr", "q": [1.0, 200.0, 1.0, 1.0], "r": 1.0}},
        "sim": {"dt": 0.1, "horizon": 30.0, "x0": [0.1, 0.02, 0.0, 0.0], "cost": "identity"},
        "verify": {"box": 1.0},
        "seeds": [0],
    }


def _wmr_stabilized_F(notes: list) -> np.ndarray:
    """The WMR double integrator makes F^T P + P F = -I unsolvable, so the
    Lyapunov solve runs on F - G K with a unit-weight LQR gain instead."""
    try:
        solve_lyapunov(WMR_F, -np.eye(4))
        return WMR_F
    except LyapunovError:
        pass
    K_dual = steady_state_gain(WMR_F.T, WMR_G.T, np.eye(4), np.eye(2))
    K_lqr = K_dual.T
    notes.append("clf: Lyapunov solve used stabilized F - G K_lqr (F is not Hurwitz)")
    return WMR_F - WMR_G @ K_lqr


def _clf_level_inside_goal(clf: QuadraticClf, d: float, indices) -> float:
    """Largest c with {V <= c} contained in the goal cylinder ||x[idx]|| <= d."""
    n = clf.Psi.shape[0]
    P = np.zeros((len(indices), n))
    for r, i in enumerate(indices):
        P[r, i] = 1.0
    lam = float(np.max(np.linalg.eigvalsh(P @ np.linalg.inv(clf.Psi) @ P.T)))
    return d * d / lam


def build_wmr_scenario(config: Optional[dict] = None) -> Scenario:
    cfg = _deep_merge(wmr_default_config(), config or {})
    notes: list = []
    n = 4
    sigma = _scale_or_matrix(cfg["model"]["sigma"], n)
    nu = _scale_or_matrix(cfg["model"]["nu"], 6)
    model = SystemModel.linear(WMR_F, WMR_G, WMR_C, sigma, nu)

    fblock = cfg["faults"]
    faults = FaultScenario.from_attack_spec(
        q=6, p=2, sensor_patterns=fblock["patterns"], active_fault=fblock.get("active"),
        attack_spec=fblock.get("attack"))

    barrier_specs = cfg["barriers"]
    chains = [build_chain(_barrier_from_spec(s, n), model) for s in barrier_specs]

    cblock = cfg["clf"]
    F_cl = np.asarray(cblock["F_cl"], dtype=float) if cblock.get("F_cl") else _wmr_stabilized_F(notes)
    clf = build_quadratic_clf(F_cl, cblock["radius"], x_goal=cblock["goal"],
                              pos_dim=cblock["pos_dim"])
    goal_indices = list(cblock["goal_indices"])
    level = _clf_level_inside_goal(clf, cblock["radius"], goal_indices)
    v_bar = cblock.get("v_bar")
    if v_bar is None:
        v_bar = cblock["v_bar_fraction"] * level
    clf.V_bar = float(v_bar)

    pblock = cfg["policy"]
    mode = pblock["mode"]
    u_max = pblock.get("u_max")
    policy = PolicyConfig(mode=mode, delta=float(pblock.get("delta", float("inf"))),
                          V_bar=float(v_bar), clf_decay=bool(cblock.get("decay", True)),
                          u_max=float(u_max) if u_max is not None else None)

    calib = cfg.get("calibration") or {}
    if mode == "baseline":
        bank_patterns = [[]]
        gammas = np.array([float(pblock.get("baseline_gamma", 0.0))])
        thetas = {}
    else:
        bank_patterns = [list(p) for p in fblock["patterns"]]
        m = len(bank_patterns)
        gammas = np.array([float(g) for g in calib.get("gammas")]) if calib.get("gammas") \
            else np.zeros(m)
        thetas = _parse_thetas(calib.get("thetas")) or \
            {(i, j): float("inf") for i in range(m) for j in range(i + 1, m)}

    sim = cfg["sim"]
    eblock = cfg.get("estimators", {})
    R = np.eye(2) if sim.get("cost", "identity") == "identity" else np.asarray(sim["cost"], dtype=float)
    return Scenario(
        name=cfg["name"], kind="wmr", family="sensor", model=model, faults=faults,
        chains=chains, policy=policy, R=R, dt=float(sim["dt"]), horizon=float(sim["horizon"]),
        x0=np.asarray(sim["x0"], dtype=float), config=cfg, barrier_specs=barrier_specs,
        clf=clf, goal_radius=float(cblock["radius"]), goal_indices=goal_indices,
        estimator_mode=eblock.get("mode", "constant_gain"),
        estimator_smoothing=float(eblock.get("smoothing", 0.95)),
        bank_patterns=bank_patterns, gammas=gammas, thetas=thetas,
        seeds=[int(s) for s in cfg.get("seeds", [])],
        verify_box=float(cfg.get("verify", {}).get("box", 1.0)),
        compensator=True, notes=notes,
    )


def build_boeing_scenario(config: Optional[dict] = None) -> Scenario:
    cfg = _deep_merge(boeing_default_config(), config or {})
    n = 4
    model = SystemModel.linear(BOEING_F, BOEING_G, BOEING_C,
                               np.zeros((4, 4)), np.zeros((1, 1)))
    sim = cfg["sim"]
    dt = float(sim["dt"])

    schedule = []
    for item in cfg["faults"]["failure_schedule"]:
        t_start = float(item["time"]) if "time" in item else float(item["step"]) * dt
        schedule.append((t_start, np.diag([float(v) for v in item["L"]])))
    faults = FaultScenario(q=1, p=3, sensor_patterns=[], active_fault=None,
                           attack=None, failure_schedule=schedule)

    barrier_specs = cfg["barriers"]
    barriers = [_barrier_from_spec(s, n) for s in barrier_specs]
    chains = [build_chain(h, model) for h in barriers]

    pblock = cfg["policy"]
    mode = pblock["mode"]
    if mode == "baseline":
        pattern_diags = [[1, 1, 1]]
    else:
        pattern_diags = pblock["patterns"]
    patterns = [np.diag([float(v) for v in diag]) for diag in pattern_diags]
    try:
        af_chain_sets = [[build_chain(h, model, input_mask=L) for L in patterns]
                         for h in barriers]
    except UncontrollableBarrierError as exc:
        raise RedundancyError(
            f"a failure pattern leaves no control authority over a barrier: {exc}") from exc
    nominal = pblock.get("nominal") or {}
    gain = None
    if nominal.get("type") == "lqr":
        q_w = nominal.get("q", 1.0)
        Q_lqr = np.diag([float(v) for v in q_w]) if not np.isscalar(q_w) else float(q_w) * np.eye(n)
        K_dual = steady_state_gain(BOEING_F.T, BOEING_G.T, Q_lqr,
                                   float(nominal.get("r", 1.0)) * np.eye(3))
        gain = K_dual.T
    elif nominal.get("type") == "gain":
        gain = np.asarray(nominal["K"], dtype=float)
    policy = PolicyConfig(mode="actuator_ft", alpha_kappa=float(pblock.get("alpha_kappa", 1.0)),
                          nominal_gain=gain)

    R = np.eye(3) if sim.get("cost", "identity") == "identity" else np.asarray(sim["cost"], dtype=float)
    return Scenario(
        name=cfg["name"], kind="boeing", family="actuator", model=model, faults=faults,
        chains=chains, policy=policy, R=R, dt=dt, horizon=float(sim["horizon"]),
        x0=np.asarray(sim["x0"], dtype=float), config=cfg, barrier_specs=barrier_specs,
        af_chain_sets=af_chain_sets, af_patterns=patterns,
        seeds=[int(s) for s in cfg.get("seeds", [0])],
        verify_box=float(cfg.get("verify", {}).get("box", 1.0)),
    )


def build_custom_scenario(cfg: dict) -> Scenario:
    """Fully explicit model block; used for synthetic and degenerate fixtures."""
    mblock = cfg["model"]
    F = np.asarray(mblock["F"], dtype=float)
    G = np.asarray(mblock["G"], dtype=float)
    c = np.asarray(mblock["c"], dtype=float)
    n, p = G.shape
    sigma = _scale_or_matrix(mblock.get("sigma", 0.0), n)
    nu = _scale_or_matrix(mblock.get("nu", 0.0), c.shape[0])
    model = SystemModel.linear(F, G, c, sigma, nu)

    fblock = cfg.get("faults", {})
    faults = FaultScenario.from_attack_spec(
        q=c.shape[0], p=p, sensor_patterns=fblock.get("patterns", [[]]),
        active_fault=fblock.get("active"), attack_spec=fblock.get("attack"))

    barrier_specs = cfg["barriers"]
    chains = [build_chain(_barrier_from_spec(s, n), model,
                          force_degree=s.get("force_degree"))
              for s in barrier_specs]

    pblock = cfg.get("policy", {"mode": "sensor_ft"})
    policy = PolicyConfig(mode=pblock.get("mode", "sensor_ft"),
                          delta=float(pblock.get("delta", float("inf"))))

    calib = cfg.get("calibration") or {}
    bank_patterns = [list(q) for q in fblock.get("patterns", [[]])]
    m = len(bank_patterns)
    gammas = np.array([float(g) for g in calib.get("gammas")]) if calib.get("gammas") \
        else np.zeros(m)
    thetas = _parse_thetas(calib.get("thetas")) or \
        {(i, j): float("inf") for i in range(m) for j in range(i + 1, m)}

    sim = cfg.get("sim", {})
    eblock = cfg.get("estimators", {})
    R = np.eye(p) if sim.get("cost", "identity") == "identity" else np.asarray(sim["cost"], dtype=float)
    return Scenario(
        name=cfg.get("name", "custom"), kind="custom", family="sensor", model=model,
        faults=faults, chains=chains, policy=policy, R=R,
        dt=float(sim.get("dt", 0.01)), horizon=float(sim.get("horizon", 1.0)),
        x0=np.asarray(sim.get("x0", np.zeros(n)), dtype=float), config=cfg,
        barrier_specs=barrier_specs, bank_patterns=bank_patterns,
        estimator_mode=eblock.get("mode", "constant_gain"),
        estimator_smoothing=float(eblock.get("smoothing", 0.95)),
        gammas=gammas, thetas=thetas, seeds=[int(s) for s in cfg.get("seeds", [0])],
        verify_box=float(cfg.get("verify", {}).get("box", 1.0)),
    )


def build_scenario(cfg: dict) -> Scenario:
    if "barriers" in cfg and not cfg["barriers"]:
        raise ScenarioValidationError("barriers: at least one barrier is required")
    kind = cfg.get("kind")
    if kind == "wmr":
        return build_wmr_scenario(cfg)
    if kind == "boeing":
        return build_boeing_scenario(cfg)
    if kind == "custom":
        return build_custom_scenario(cfg)
    raise ScenarioValidationError(f"unknown scenario kind {kind!r}")


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ScenarioValidationError(f"{path}: scenario file must be a mapping")
    return build_scenario(cfg)


def save_config(cfg: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
