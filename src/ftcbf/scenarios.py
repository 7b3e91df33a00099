"""Executable case-study scenarios and the scenario file format.

Two golden fixtures ship with the repo: a wheeled mobile robot driven through
feedback linearization under a false-data injection on one redundant position
sensor, and the Boeing 747 lateral axis under a scheduled loss of two rudder
servos. Scenario files are declarative YAML documents with the top-level keys
name / kind and the blocks model / faults / barriers / clf / policy / sim /
estimators / calibration / verify / seeds; a null optional block (clf,
estimators, calibration, verify) is an absent one. SCHEMA is the one list
of those keys: every mapping may hold only the keys it lists, and every
value must have the type and range it gives, so a misspelt key or a
wrong-typed value is an error naming it.

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
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import yaml

from .barriers import HalfPlane, Poly, build_chain, ellipsoid_barrier
from .clf import QuadraticClf, build_quadratic_clf, solve_lyapunov
from .errors import (ContractError, FtcbfError, LyapunovError, RedundancyError,
                     ScenarioValidationError, SolverError, UncontrollableBarrierError)
from .estimators import MODES as ESTIMATOR_MODES, steady_state_gain
from .optimizer import QpProblem, check_problem_size
from .policy import CLF_MODES, MODES, PolicyConfig
from .simulator import FaultScenario, SystemModel, step_count

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


def wmr_compensator(u, theta: float, omega1_prev: float, dt: float) -> CompensatorOutput:
    """Map linearized inputs back to wheel commands.

    omega1 accumulates u1 cos(theta) + u2 sin(theta); omega2 divides by
    omega1, so |omega1| is clamped to a signed floor at the singularity (the
    clamp is reported so runs can log the event).
    """
    u = np.asarray(u, dtype=float)
    omega1 = omega1_prev + (u[0] * math.cos(theta) + u[1] * math.sin(theta)) * dt
    clamped = False
    if abs(omega1) < WMR_OMEGA_FLOOR:
        omega1 = math.copysign(WMR_OMEGA_FLOOR, omega1 if omega1 != 0.0 else 1.0)
        clamped = True
    omega2 = (u[1] * math.cos(theta) - u[0] * math.sin(theta)) / omega1
    return CompensatorOutput(omega1, omega2, clamped)


@dataclass
class Scenario:
    """Everything a run needs, as the builder derived it from the document."""

    name: str
    model: SystemModel
    faults: FaultScenario
    chains: list
    policy: PolicyConfig
    qp: QpProblem                     # the control cost, checked and factored
    dt: float
    horizon: float
    x0: np.ndarray
    af_chain_sets: list
    af_patterns: list
    clf: Optional[QuadraticClf]
    goal_radius: Optional[float]
    goal_indices: Optional[list]
    estimator_mode: str
    estimator_smoothing: float
    bank_patterns: list
    gammas: np.ndarray
    thetas: dict
    seeds: list
    verify_box: float
    compensator: bool
    notes: list

    @property
    def family(self) -> str:
        """The fault family: "actuator" when the policy filters failure
        patterns, else "sensor"."""
        return "actuator" if self.policy.mode == "actuator_ft" else "sensor"

    @property
    def n_steps(self) -> int:
        return step_count(self.horizon, self.dt)


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in (override or {}).items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def _shaped(value, shape: tuple, where: str) -> np.ndarray:
    """value as a float array of shape, where None is any length, or an
    error naming where."""
    if len(shape) == 1:
        want = f"have {shape[0]} entries"
    elif shape[0] is not None:
        want = f"be a {shape[0]} x {shape[1]} matrix"
    else:
        want = "be a matrix" + ("" if shape[1] is None else f" with {shape[1]} columns")
    try:
        arr = np.asarray(value, dtype=float)
    except ValueError:  # rows of unequal length
        arr = None
    if arr is None or arr.ndim != len(shape) \
            or any(k is not None and k != a for k, a in zip(shape, arr.shape)):
        got = "rows of unequal length" if arr is None else f"shape {arr.shape}"
        raise ScenarioValidationError(f"{where} must {want}, got {got}")
    return arr


def _scale_or_matrix(value, size: int, where: str) -> np.ndarray:
    if np.isscalar(value):
        return float(value) * np.eye(size)
    return _shaped(value, (size, size), where)


def _barrier_from_spec(spec: dict, n: int, where: str):
    kind = spec.get("type", "half_plane")
    if kind == "half_plane":
        return HalfPlane(a=tuple(float(v) for v in _shaped(spec["a"], (n,), f"{where} a")),
                         b=float(spec["b"]))
    if kind == "ellipsoid":
        return ellipsoid_barrier(_shaped(spec["Phi"], (n, n), f"{where} Phi"),
                                 _shaped(spec["center"], (n,), f"{where} center"))
    for k, t in enumerate(spec["terms"]):
        _shaped(t["exponents"], (n,), f"{where} terms entry {k} exponents")
    terms = {tuple(int(e) for e in t["exponents"]): float(t["coeff"]) for t in spec["terms"]}
    return Poly(n, terms)


def _expect(value, types, where: str, what: str):
    if not isinstance(value, types):
        raise ScenarioValidationError(f"{where} must be {what}, got {value!r}")
    return value


def _finite_number(value, where: str, inf_ok: bool = False) -> float:
    """A YAML number; `.inf` and `.nan` load as floats, so finiteness is
    checked too (inf_ok lets `.inf` pass)."""
    if not math.isfinite(_expect(value, numbers.Real, where, "a number")) \
            and not (inf_ok and math.isinf(value)):
        raise ScenarioValidationError(f"{where} must be finite, got {value!r}")
    return float(value)


def _number(value, where: str) -> float:
    return _finite_number(value, where, inf_ok=True)


def _index(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ScenarioValidationError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _such(check, test, what: str):
    """The check, and test must hold for the value it returns: the value
    must be what."""
    def checked(value, where: str):
        if not test(check(value, where)):
            raise ScenarioValidationError(f"{where} must be {what}, got {value!r}")
        return value
    return checked


def _nonnegative(check):
    return _such(check, lambda v: v >= 0, "nonnegative")


_positive_number = _such(_finite_number, lambda v: v > 0, "positive")
# an entry of a failure pattern or an effectiveness diagonal: lost or healthy
_switch = _such(_finite_number, lambda v: v in (0.0, 1.0), "0 or 1")
check_seed = _nonnegative(_index)


def check_seeds(value, where: str) -> list:
    """Seeds are distinct nonnegative integers: a repeated seed would run one
    run twice and count it twice in the sweep's rates."""
    _check(value, [check_seed], where)
    for i, s in enumerate(value):
        if s in value[:i]:
            raise ScenarioValidationError(f"{where} lists seed {s} twice")
    return value


def _fraction(value, where: str) -> float:
    # 1 is out: a smoothing of 1 keeps every residue at its initial 0, and
    # pruning by residue would fall back to the estimator's index.
    if not 0.0 <= _finite_number(value, where) < 1.0:
        raise ScenarioValidationError(f"{where} must lie in [0, 1), got {value!r}")
    return float(value)


def _nonempty(schema):
    """A list that fits schema and holds at least one entry."""
    def nonempty(value, where: str):
        _check(value, schema, where)
        if not value:
            raise ScenarioValidationError(f"{where}: at least one entry is required")
    return nonempty


def _text(value, where: str) -> str:
    return _expect(value, str, where, "a string")


def _flag(value, where: str) -> bool:
    return _expect(value, bool, where, "true or false")


def _check(value, schema, where: str) -> None:
    """Raise ScenarioValidationError, naming where, unless value fits schema.

    A schema is a check function (value, where), a set of allowed strings, a
    one-entry list (a list of values that fit its entry), a mapping of the
    keys a mapping may hold to their schemas, or a tuple of alternatives: None
    admits null, a list or mapping schema takes a value of its own type, and
    the last alternative takes any other value. A key or entry is named after
    its parent: `sim: dt`, `faults: attack start`, `barriers: entry 0`; the
    document itself is where "", and its keys go by their own names.
    """
    inner = f"{where}{' ' if ':' in where else ': '}" if where else ""
    if isinstance(schema, tuple):
        if value is None and None in schema:
            return
        options = [s for s in schema if s is not None]
        schema = next((s for s in options if isinstance(s, (list, dict))
                       and isinstance(value, type(s))), options[-1])
    if isinstance(schema, (set, frozenset)):
        if not isinstance(value, str) or value not in schema:
            raise ScenarioValidationError(
                f"{where} must be one of {', '.join(sorted(schema))}, got {value!r}")
    elif isinstance(schema, list):
        for i, v in enumerate(_expect(value, list, where, "a list")):
            _check(v, schema[0], f"{inner}entry {i}")
    elif isinstance(schema, dict):
        unknown = [k for k in _expect(value, dict, where or "the scenario", "a mapping")
                   if k not in schema]
        if unknown:
            owner = f"{where}: unknown" if where else "unknown top-level"
            raise ScenarioValidationError(f"{owner} key {', '.join(map(repr, unknown))} "
                                          f"(allowed: {', '.join(schema)})")
        for k, v in value.items():
            _check(v, schema[k], f"{inner}{k}")
    else:
        schema(value, where)


def _cost(value, p: int) -> QpProblem:
    """The QP cost from `sim: cost`: "identity" or a p x p symmetric positive
    definite matrix."""
    if value == "identity":
        return QpProblem(np.eye(p))
    try:
        R = np.asarray(value, dtype=float)
        if R.shape != (p, p):
            raise ContractError(f"got shape {R.shape}")
        return QpProblem(R)
    except (ContractError, ValueError) as exc:
        raise ScenarioValidationError(f"sim: cost must be \"identity\" or a {p} x {p} "
                                      f"symmetric positive definite matrix: {exc}") from exc


def _parse_thetas(block) -> dict:
    if block is not None and not isinstance(block, dict):
        raise ScenarioValidationError(
            f'calibration: thetas must be a mapping like {{"0,1": 0.02}}, got {block!r}')
    out = {}
    for key, val in (block or {}).items():
        try:
            i, j = (int(s) for s in str(key).split(","))
        except ValueError as exc:
            raise ScenarioValidationError(
                f'calibration: thetas key {key!r} must name a pair like "0,1"') from exc
        out[(min(i, j), max(i, j))] = _nonnegative(_number)(val, f"calibration: thetas {key}")
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

_NUMBERS = [_finite_number]
_MATRIX = [_NUMBERS]
# A barrier entry holds type, force_degree and the keys of its type.
BARRIER_KEYS = {
    "half_plane": {"a": _NUMBERS, "b": _finite_number},
    "ellipsoid": {"Phi": _MATRIX, "center": _NUMBERS},
    "polynomial": {"terms": [{"exponents": [_nonnegative(_index)], "coeff": _finite_number}]},
}


def _barrier_entry(spec, where: str) -> None:
    kind = _expect(spec, dict, where, "a mapping").get("type", "half_plane")
    if not isinstance(kind, str) or kind not in BARRIER_KEYS:
        raise ScenarioValidationError(f"{where}: unknown barrier type {kind!r}")
    _check(spec, {"type": _text, "force_degree": (None, _nonnegative(_index)),
                  **BARRIER_KEYS[kind]}, where)


def _failure_entry(item, where: str) -> None:
    """A failure_schedule entry: its start as a step or a time, and L."""
    _check(item, {"step": _nonnegative(_index), "time": _finite_number, "L": [_switch]}, where)
    if ("step" in item) == ("time" in item):
        raise ScenarioValidationError(f"{where} must name exactly one of step and time")


# Every key the builder reads, with the schema (_check) of its value. Any
# other key is an error, so a misspelt key cannot leave a preset value in
# force. calibration: epsilon and n_runs are not read: `ftcbf calibrate`
# writes them as a record of how the radii were found.
SCHEMA = {
    "name": _text,
    "kind": set(PRESETS),
    "model": {"F": _MATRIX, "G": _MATRIX, "c": _MATRIX,
              "sigma": (_MATRIX, _finite_number), "nu": (_MATRIX, _finite_number)},
    "faults": {"patterns": [[_index]], "active": (None, _index),
               "attack": (None, {"type": {"bias", "ramp"}, "amplitude": _finite_number,
                                 "rate": _finite_number, "start": _finite_number}),
               "failure_schedule": (None, [_failure_entry])},
    "barriers": _nonempty([_barrier_entry]),
    "clf": (None, {"goal": (None, _NUMBERS), "radius": _positive_number,
                   "pos_dim": (None, _nonnegative(_index)), "goal_indices": _nonempty([_index]),
                   "decay": _flag,
                   "v_bar": (None, _nonnegative(_finite_number)),
                   "v_bar_fraction": _nonnegative(_finite_number),
                   "F_cl": (None, _MATRIX)}),
    "policy": {"mode": set(MODES), "delta": _such(_number, lambda v: v > 0, "positive or .inf"),
               "u_max": (None, _positive_number),
               "baseline_gamma": _finite_number, "alpha_kappa": _positive_number,
               "patterns": (None, [[_switch]]),
               "nominal": (None, {"type": {"lqr", "gain"},
                                  "q": ([_nonnegative(_finite_number)],
                                        _nonnegative(_finite_number)),
                                  "r": _positive_number, "K": _MATRIX})},
    "sim": {"dt": _positive_number, "horizon": _positive_number, "x0": _NUMBERS,
            "cost": (_MATRIX, {"identity"})},
    "estimators": (None, {"mode": set(ESTIMATOR_MODES),
                          "smoothing": _fraction}),
    "calibration": (None, {"gammas": (None, [_nonnegative(_finite_number)]),
                           "thetas": (None, lambda value, where: _parse_thetas(value)),
                           "epsilon": _finite_number, "n_runs": _index}),
    "verify": (None, {"box": _positive_number}),
    "seeds": _nonempty(check_seeds),
}


def _lqr_gain(F: np.ndarray, G: np.ndarray, Q: np.ndarray, R: np.ndarray,
              weights: str) -> np.ndarray:
    """The LQR gain of the weights Q and R: the stabilizing Riccati solution
    of the dual filter pair (F^T, G^T). When they give none, an overflow
    included, the error is led by weights, which names their block."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return steady_state_gain(F.T, G.T, Q, R).T
    except (FloatingPointError, FtcbfError) as exc:
        raise ScenarioValidationError(f"{weights} give no gain ({exc})") from exc


def _stabilized_F(F: np.ndarray, G: np.ndarray, notes: list) -> np.ndarray:
    """F when F^T P + P F = -I is solvable; otherwise (the WMR double
    integrator) the Lyapunov solve runs on F - G K with a unit-weight LQR
    gain instead."""
    try:
        solve_lyapunov(F, -np.eye(F.shape[0]))
        return F
    except LyapunovError:
        pass
    K_lqr = _lqr_gain(F, G, np.eye(F.shape[0]), np.eye(G.shape[1]),
                      "clf: the Lyapunov solve on F is singular, and the unit LQR weights "
                      "that would stabilize F")
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
    sensor-fault one; its mode must then be actuator_ft or baseline. cfg
    must fit SCHEMA, so a misspelt key or a value of the wrong type is a
    ScenarioValidationError that names it.
    """
    _check(cfg, SCHEMA, "")
    notes: list = []
    # Every required key of every block is read below, so a KeyError here
    # is a key the scenario leaves out.
    try:
        # The presets fit SCHEMA, so the merge of a document that fits it does too.
        kind = cfg["kind"]
        cfg = _deep_merge(copy.deepcopy(PRESETS[kind]), cfg)
        # The model gives n, p and q; every size below is checked against them.
        mblock = cfg["model"]
        G = _shaped(mblock["G"], (None, None), "model: G")
        n, p = G.shape
        F = _shaped(mblock["F"], (n, n), "model: F")
        c = _shaped(mblock["c"], (None, n), "model: c")
        q = c.shape[0]
        model = SystemModel(F, G, c, _scale_or_matrix(mblock.get("sigma", 0.0), n, "model: sigma"),
                            _scale_or_matrix(mblock.get("nu", 0.0), q, "model: nu"))
        for key, noise in (("sigma", model.sigma), ("nu", model.nu)):
            with np.errstate(over="ignore", invalid="ignore"):
                finite = np.isfinite(noise @ noise.T).all()
            if not finite:
                raise ScenarioValidationError(
                    f"model: {key}: the covariance {key} {key}^T overflows; use a smaller {key}")

        sim = cfg["sim"]
        dt = float(sim["dt"])
        if sim["horizon"] < dt:
            raise ScenarioValidationError(
                f"sim: horizon {sim['horizon']!r} is shorter than one step of dt = {dt!r}")
        try:
            step_count(sim["horizon"], dt)
        except ContractError as exc:
            raise ScenarioValidationError(f"sim: horizon {exc}") from exc
        fblock = cfg["faults"]
        schedule = [(float(item["time"]) if "time" in item else float(item["step"]) * dt,
                     np.diag(_shaped(item["L"], (p,), f"faults: failure_schedule entry {k} L")))
                    for k, item in enumerate(fblock.get("failure_schedule") or [])]
        faults = FaultScenario.from_attack_spec(
            q=q, p=p, sensor_patterns=fblock["patterns"],
            active_fault=fblock.get("active"), attack_spec=fblock.get("attack"),
            failure_schedule=schedule)

        barrier_specs = cfg["barriers"]
        barriers = [_barrier_from_spec(s, n, f"barriers: entry {k}")
                    for k, s in enumerate(barrier_specs)]
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
        if not actuator and not fblock["patterns"]:
            raise ScenarioValidationError("faults: patterns: at least one entry is required")
        af_patterns, af_chain_sets = [], []
        if actuator:
            pattern_diags = [[1.0] * p] if mode == "baseline" else pblock["patterns"]
            af_patterns = [np.diag(_shaped(diag, (p,), f"policy: patterns entry {k}"))
                           for k, diag in enumerate(pattern_diags)]
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
            F_cl = _shaped(cblock["F_cl"], (n, n), "clf: F_cl") if cblock.get("F_cl") \
                else _stabilized_F(F, G, notes)
            goal_radius = float(cblock["radius"])
            goal, pos_dim = cblock.get("goal"), cblock.get("pos_dim")
            if goal is not None:
                goal = _shaped(goal, (n,), "clf: goal")
            if pos_dim is not None and pos_dim > n:
                raise ScenarioValidationError(f"clf: pos_dim must lie in 0..{n}, got {pos_dim}")
            clf = build_quadratic_clf(F_cl, goal_radius, x_goal=goal, pos_dim=pos_dim)
            goal_indices = list(cblock["goal_indices"])
            if not all(0 <= i < n for i in goal_indices):
                raise ScenarioValidationError(f"clf: goal_indices must lie in 0..{n - 1}")
            v_bar = cblock.get("v_bar")
            if v_bar is None:
                v_bar = cblock["v_bar_fraction"] * _clf_level_inside_goal(
                    clf, goal_radius, goal_indices)

        nominal = pblock.get("nominal") or {}
        gain = None
        if nominal.get("type") == "lqr":
            q_w = nominal.get("q", 1.0)
            Q_lqr = float(q_w) * np.eye(n) if np.isscalar(q_w) \
                else np.diag(_shaped(q_w, (n,), "policy: nominal q"))
            gain = _lqr_gain(F, G, Q_lqr, float(nominal.get("r", 1.0)) * np.eye(p),
                             "policy: nominal: the LQR weights q and r")
        elif nominal.get("type") == "gain":
            gain = _shaped(nominal["K"], (p, n), "policy: nominal K")
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
            given = calib.get("gammas")
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
        # gamma_offset is exact for half-planes only; no bound backs the
        # shrink of an ellipsoid or polynomial barrier over the gamma ball.
        if not actuator and np.any(gammas > 0):
            poly = [k for k, ch in enumerate(chains) if ch.kind != "affine"]
            if poly:
                source = "policy: baseline_gamma" if mode == "baseline" else "calibration: gammas"
                raise ScenarioValidationError(
                    f"barriers: entry {poly[0]} is not a half-plane, so the nonzero {source} "
                    f"{gammas.tolist()} cannot shrink it: a gamma offset is exact for "
                    "half-planes only")

        # The most rows one control QP takes: every barrier under every
        # failure pattern, or every barrier and the CLF at every estimate plus
        # the input box. The verifier's systems are no larger.
        if actuator:
            qp_rows = len(chains) * len(af_patterns)
        else:
            with_clf = clf is not None and mode in CLF_MODES
            qp_rows = len(bank_patterns) * (len(chains) + with_clf) \
                + (2 * p if u_max is not None else 0)
        try:
            check_problem_size(qp_rows, p)
        except SolverError as exc:
            raise ScenarioValidationError(
                f"barriers: the control QP takes up to {qp_rows} rows, and {exc}") from exc

        eblock = cfg.get("estimators") or {}
        return Scenario(
            name=cfg["name"], model=model, faults=faults, chains=chains, policy=policy,
            qp=_cost(sim.get("cost", "identity"), p), dt=dt,
            horizon=float(sim["horizon"]),
            x0=_shaped(sim["x0"], (n,), "sim: x0") if "x0" in sim else np.zeros(n),
            af_chain_sets=af_chain_sets,
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
