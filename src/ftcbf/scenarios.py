"""Executable case-study scenarios and the scenario file format.

Two golden fixtures ship with the repo: a wheeled mobile robot driven through
feedback linearization under a false-data injection on one redundant position
sensor, and the Boeing 747 lateral axis under a scheduled loss of two rudder
servos. Scenario files are declarative YAML documents with the top-level keys
name / kind and the blocks model / faults / barriers / clf / policy / sim /
estimators / calibration / verify / seeds; any other key is rejected, and a
null optional block (clf, estimators, calibration, verify) is an absent one.

One builder reads every block for every kind. `kind` (wmr | boeing | custom)
only picks an entry of PRESETS, a plain-data document of defaults that the
file is deep-merged over; `custom` has no model defaults, so it needs
explicit F, G, c. A policy block that declares failure `patterns` makes an
actuator-failure scenario, anything else a sensor-fault one. Matrices are
nested arrays; sensor and actuator indices are 0-based.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
import yaml

from .barriers import HalfPlane, Poly, build_chain, ellipsoid_barrier
from .clf import QuadraticClf, build_quadratic_clf, solve_lyapunov
from .errors import (ContractError, LyapunovError, RedundancyError, ScenarioValidationError,
                     SolverError, UncontrollableBarrierError)
from .estimators import steady_state_gain
from .optimizer import QpProblem, check_problem_size
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
    family: str                       # "sensor" | "actuator"
    model: SystemModel
    faults: FaultScenario
    chains: list
    policy: PolicyConfig
    qp: QpProblem                     # the control cost, checked and factored
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


def _list_of_lists(value, where: str) -> list:
    if not isinstance(value, list) or not all(isinstance(v, list) for v in value):
        raise ScenarioValidationError(f"{where} must be a list of lists, got {value!r}")
    return value


def _expect(value, types, where: str, what: str):
    if not isinstance(value, types):
        raise ScenarioValidationError(f"{where} must be {what}, got {value!r}")
    return value


def _finite_number(value, where: str) -> float:
    """A YAML number; `.inf` and `.nan` load as floats, so finiteness is checked too."""
    if not math.isfinite(_expect(value, numbers.Real, where, "a number")):
        raise ScenarioValidationError(f"{where} must be finite, got {value!r}")
    return float(value)


def _cost(value, p: int) -> QpProblem:
    """The QP cost from `sim: cost`: "identity" or a p x p symmetric positive
    definite matrix."""
    if value == "identity":
        return QpProblem(np.eye(p))
    try:
        R = np.asarray(_list_of_lists(value, "sim: cost"), dtype=float)
        if R.shape != (p, p):
            raise ContractError(f"got shape {R.shape}")
        return QpProblem(R)
    except (ContractError, TypeError, ValueError) as exc:
        raise ScenarioValidationError(f"sim: cost must be \"identity\" or a {p} x {p} "
                                      f"symmetric positive definite matrix: {exc}") from exc


def _parse_thetas(block) -> dict:
    if block is not None and not isinstance(block, dict):
        raise ScenarioValidationError(
            f'calibration: thetas must be a mapping like {{"0,1": 0.02}}, got {block!r}')
    out = {}
    for key, val in (block or {}).items():
        i, j = (int(s) for s in str(key).split(","))
        out[(min(i, j), max(i, j))] = float(val)
    return out


PRESETS = {
    "wmr": {
        "name": "wmr-sensor-attack",
        "model": {"F": WMR_F.tolist(), "G": WMR_G.tolist(), "c": WMR_C.tolist(),
                  "sigma": 0.01, "nu": 0.01},
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
    },
    "boeing": {
        "name": "boeing-actuator-failure",
        "model": {"F": BOEING_F.tolist(), "G": BOEING_G.tolist(), "c": BOEING_C.tolist()},
        "faults": {
            "patterns": [],
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
    },
    # Synthetic and degenerate fixtures: the model block has no default.
    "custom": {
        "name": "custom",
        "faults": {"patterns": [[]]},
        "policy": {"mode": "sensor_ft"},
        "sim": {"dt": 0.01, "horizon": 1.0},
        "seeds": [0],
    },
}

REQUIRED_BLOCKS = ("model", "faults", "policy", "sim")
OPTIONAL_BLOCKS = ("clf", "estimators", "calibration", "verify")
BLOCKS = ("name", "kind", "barriers", "seeds") + REQUIRED_BLOCKS + OPTIONAL_BLOCKS


def _stabilized_F(F: np.ndarray, G: np.ndarray, notes: list) -> np.ndarray:
    """F when F^T P + P F = -I is solvable; otherwise (the WMR double
    integrator) the Lyapunov solve runs on F - G K with a unit-weight LQR
    gain instead."""
    try:
        solve_lyapunov(F, -np.eye(F.shape[0]))
        return F
    except LyapunovError:
        pass
    K_dual = steady_state_gain(F.T, G.T, np.eye(F.shape[0]), np.eye(G.shape[1]))
    K_lqr = K_dual.T
    notes.append("clf: Lyapunov solve used stabilized F - G K_lqr (F is not Hurwitz)")
    return F - G @ K_lqr


def _clf_level_inside_goal(clf: QuadraticClf, d: float, indices) -> float:
    """Largest c with {V <= c} contained in the goal cylinder ||x[idx]|| <= d."""
    n = clf.Psi.shape[0]
    P = np.zeros((len(indices), n))
    for r, i in enumerate(indices):
        P[r, i] = 1.0
    lam = float(np.max(np.linalg.eigvalsh(P @ np.linalg.inv(clf.Psi) @ P.T)))
    return d * d / lam


def build_scenario(cfg: dict) -> Scenario:
    """Merge cfg over the preset its `kind` names and build the scenario.

    `kind` only picks defaults (and the WMR wheel-command compensator): every
    block is read the same way for every kind. A policy block that declares
    failure `patterns` makes an actuator-failure scenario, anything else a
    sensor-fault one; its mode must then be actuator_ft or baseline.
    """
    unknown = [k for k in cfg if k not in BLOCKS]
    if unknown:
        raise ScenarioValidationError(
            f"unknown top-level key {', '.join(map(repr, unknown))} "
            f"(allowed: {', '.join(BLOCKS)})")
    kind = cfg.get("kind")
    if kind not in PRESETS:
        raise ScenarioValidationError(f"unknown scenario kind {kind!r}")
    cfg = _deep_merge(copy.deepcopy(PRESETS[kind]), cfg)
    notes: list = []
    # Every required key of every block is read below, so a KeyError here
    # is a key the scenario leaves out.
    try:
        for key in REQUIRED_BLOCKS + OPTIONAL_BLOCKS:
            block = cfg[key] if key in REQUIRED_BLOCKS else cfg.get(key) or {}
            if not isinstance(block, dict):
                raise ScenarioValidationError(f"{key}: block must be a mapping")
        if not cfg["barriers"]:
            raise ScenarioValidationError("barriers: at least one barrier is required")
        for key in ("barriers", "seeds"):
            if not isinstance(cfg[key], list):
                raise ScenarioValidationError(f"{key}: must be a list")
        for i, spec in enumerate(cfg["barriers"]):
            _expect(spec, dict, f"barriers: entry {i}", "a mapping")
        mblock = cfg["model"]
        F, G, c = (np.asarray(mblock[k], dtype=float) for k in ("F", "G", "c"))
        n, p = G.shape
        model = SystemModel.linear(F, G, c, _scale_or_matrix(mblock.get("sigma", 0.0), n),
                                   _scale_or_matrix(mblock.get("nu", 0.0), c.shape[0]))

        sim = cfg["sim"]
        dt = _finite_number(sim["dt"], "sim: dt")
        fblock = cfg["faults"]
        schedule = [(float(item["time"]) if "time" in item else float(item["step"]) * dt,
                     np.diag([float(v) for v in item["L"]]))
                    for item in fblock.get("failure_schedule") or []]
        attack_spec = _expect(fblock.get("attack"), (dict, type(None)), "faults: attack",
                              "a mapping")
        for key in ("amplitude", "rate", "start"):
            if attack_spec is not None and key in attack_spec:
                _finite_number(attack_spec[key], f"faults: attack {key}")
        faults = FaultScenario.from_attack_spec(
            q=c.shape[0], p=p,
            sensor_patterns=_list_of_lists(fblock["patterns"], "faults: patterns"),
            active_fault=fblock.get("active"), attack_spec=attack_spec,
            failure_schedule=schedule)

        barrier_specs = cfg["barriers"]
        barriers = [_barrier_from_spec(s, n) for s in barrier_specs]
        chains = [build_chain(h, model, force_degree=s.get("force_degree"))
                  for h, s in zip(barriers, barrier_specs)]

        pblock = cfg["policy"]
        mode = pblock["mode"]
        actuator = pblock.get("patterns") is not None
        if actuator and mode not in ("actuator_ft", "baseline"):
            raise ScenarioValidationError(
                f"policy: failure patterns need mode actuator_ft or baseline, not {mode!r}")
        if mode == "actuator_ft" and not pblock.get("patterns"):
            raise ScenarioValidationError("policy: mode 'actuator_ft' needs failure patterns")
        af_patterns, af_chain_sets = [], []
        if actuator:
            pattern_diags = [[1.0] * p] if mode == "baseline" \
                else _list_of_lists(pblock["patterns"], "policy: patterns")
            af_patterns = [np.diag([float(v) for v in diag]) for diag in pattern_diags]
            try:
                af_chain_sets = [[build_chain(h, model, input_mask=L,
                                              force_degree=s.get("force_degree"))
                                  for L in af_patterns]
                                 for h, s in zip(barriers, barrier_specs)]
            except UncontrollableBarrierError as exc:
                raise RedundancyError(
                    f"a failure pattern leaves no control authority over a barrier: {exc}") from exc

        cblock = cfg.get("clf")
        clf, goal_radius, goal_indices, v_bar = None, None, None, 0.0
        if cblock:
            F_cl = np.asarray(cblock["F_cl"], dtype=float) if cblock.get("F_cl") \
                else _stabilized_F(F, G, notes)
            goal_radius = float(cblock["radius"])
            clf = build_quadratic_clf(F_cl, goal_radius, x_goal=cblock.get("goal"),
                                      pos_dim=cblock.get("pos_dim"))
            goal_indices = list(_expect(cblock["goal_indices"], (list, tuple),
                                        "clf: goal_indices", "a list"))
            v_bar = cblock.get("v_bar")
            if v_bar is None:
                v_bar = cblock["v_bar_fraction"] * _clf_level_inside_goal(
                    clf, goal_radius, goal_indices)

        nominal = _expect(pblock.get("nominal"), (dict, type(None)), "policy: nominal",
                          "a mapping") or {}
        gain = None
        if nominal.get("type") == "lqr":
            q_w = nominal.get("q", 1.0)
            Q_lqr = float(q_w) * np.eye(n) if np.isscalar(q_w) else np.diag([float(v) for v in q_w])
            gain = steady_state_gain(F.T, G.T, Q_lqr, float(nominal.get("r", 1.0)) * np.eye(p)).T
        elif nominal.get("type") == "gain":
            gain = np.asarray(nominal["K"], dtype=float)
        u_max = pblock.get("u_max")
        # A baseline actuator scenario is the actuator policy over the
        # healthy pattern alone; a baseline sensor one is the all-sensor filter.
        policy = PolicyConfig(mode="actuator_ft" if actuator else mode,
                              delta=float(pblock.get("delta", float("inf"))), V_bar=float(v_bar),
                              clf_decay=bool(cblock and cblock.get("decay", True)),
                              alpha_kappa=float(pblock.get("alpha_kappa", 1.0)), nominal_gain=gain,
                              u_max=float(u_max) if u_max is not None else None)

        calib = cfg.get("calibration") or {}
        if mode == "baseline":
            bank_patterns = [[]]
            gammas = np.array([float(pblock.get("baseline_gamma", 0.0))])
            thetas = {}
        else:
            bank_patterns = [list(pat) for pat in fblock["patterns"]]
            m = len(bank_patterns)
            given = _expect(calib.get("gammas"), (list, type(None)), "calibration: gammas",
                            "a list")
            gammas = np.array([float(g) for g in given]) if given else np.zeros(m)
            pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
            given_thetas = calib.get("thetas")
            thetas = _parse_thetas(given_thetas) or {ij: float("inf") for ij in pairs}
            if not actuator and given and len(gammas) != m:
                raise ScenarioValidationError(
                    f"calibration: {len(gammas)} gammas given for {m} fault patterns")
            if not actuator and given_thetas and (len(given_thetas) != len(pairs)
                                                  or sorted(thetas) != pairs):
                raise ScenarioValidationError(
                    f"calibration: {len(given_thetas)} thetas given for {len(pairs)} "
                    f"pattern pairs i < j < {m}")
            if not given and mode in ("sensor_ft", "sensor_ft_clf"):
                notes.append("calibration: no gammas given, so estimator rows are unshrunk "
                             "(gamma = 0) and pairwise pruning is off (theta = inf); "
                             "run `ftcbf calibrate` and merge its calibration block")

        # The most rows one control QP takes: every barrier under every
        # failure pattern, or every barrier and the CLF at every estimate plus
        # the input box. The verifier's systems are no larger.
        if actuator:
            qp_rows = len(chains) * len(af_patterns)
        else:
            with_clf = clf is not None and mode in ("sensor_ft_clf", "baseline")
            qp_rows = len(bank_patterns) * (len(chains) + with_clf) \
                + (2 * p if u_max is not None else 0)
        try:
            check_problem_size(qp_rows, p)
        except SolverError as exc:
            raise ScenarioValidationError(
                f"barriers: the control QP takes up to {qp_rows} rows, and {exc}") from exc

        eblock = cfg.get("estimators") or {}
        return Scenario(
            name=cfg["name"], family="actuator" if actuator else "sensor",
            model=model, faults=faults, chains=chains, policy=policy,
            qp=_cost(sim.get("cost", "identity"), p), dt=dt,
            horizon=float(sim["horizon"]), x0=np.asarray(sim.get("x0", np.zeros(n)), dtype=float),
            config=cfg, barrier_specs=barrier_specs, af_chain_sets=af_chain_sets,
            af_patterns=af_patterns, clf=clf, goal_radius=goal_radius, goal_indices=goal_indices,
            estimator_mode=eblock.get("mode", "constant_gain"),
            estimator_smoothing=float(eblock.get("smoothing", 0.95)),
            bank_patterns=bank_patterns, gammas=gammas, thetas=thetas,
            seeds=[int(s) for s in cfg["seeds"]],
            verify_box=float((cfg.get("verify") or {}).get("box", 1.0)),
            compensator=kind == "wmr", notes=notes,
        )
    except KeyError as exc:
        raise ScenarioValidationError(f"missing required key {exc.args[0]!r}") from exc


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ScenarioValidationError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ScenarioValidationError(f"{path}: scenario file must be a mapping")
    return build_scenario(cfg)


def save_config(cfg: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
