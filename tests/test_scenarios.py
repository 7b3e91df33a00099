import copy
import dataclasses
import math

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from ftcbf import scenarios
from ftcbf.errors import FtcbfError, ScenarioValidationError
from ftcbf.estimators import calibrate_gammas
from ftcbf.runner import run_scenario
from ftcbf.scenarios import (BOEING_F, BOEING_G, PRESETS, SCHEMA, WMR_C, WMR_F, WMR_G, Scenario,
                             _check, build_scenario, load_scenario, save_config)

from conftest import SCENARIO_DIR


def test_wmr_matrices_golden():
    assert np.array_equal(WMR_F, [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert np.array_equal(WMR_G, [[0, 0], [0, 0], [1, 0], [0, 1]])
    assert np.array_equal(WMR_C, [[1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0],
                                  [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_boeing_matrices_golden():
    assert np.array_equal(BOEING_F, [[-0.0558, -0.9968, 0.0802, 0.0415],
                                     [0.598, -0.115, -0.0318, 0.0],
                                     [-3.05, 0.388, -0.465, 0.0],
                                     [0.0, 0.0805, 1.0, 0.0]])
    assert np.array_equal(BOEING_G, [[0.00729, 0.01, 0.005],
                                     [-0.475, -0.5, -0.3],
                                     [0.153, 0.2, 0.1],
                                     [0.0, 0.0, 0.0]])


def test_wmr_build_shape():
    scn = build_scenario({"kind": "wmr"})
    assert (scn.model.n, scn.model.p, scn.model.q) == (4, 2, 6)
    assert scn.chains[0].rel_degree == 1
    assert scn.family == "sensor"
    assert scn.notes  # the stabilized-F substitution is logged


def test_wmr_patterns_disjoint_and_redundant():
    scn = build_scenario({"kind": "wmr"})
    pats = [set(p) for p in scn.faults.sensor_patterns]
    assert pats[0] & pats[1] == set()
    position_sensors = {0: {0, 1}, 1: {2, 3}}  # coordinate -> measuring sensors
    for pat in pats:
        for coord, sensors in position_sensors.items():
            assert sensors - pat, f"pattern {pat} blinds coordinate {coord}"


def test_boeing_build():
    scn = build_scenario({"kind": "boeing"})
    assert (scn.model.n, scn.model.p) == (4, 3)
    assert np.allclose(np.array([0, 1, 0, 0.]) @ BOEING_G, [-0.475, -0.5, -0.3])
    assert [t for t, _ in scn.faults.failure_schedule] == [1.0, 10.0]
    assert np.array_equal(scn.faults.failure_schedule[0][1], np.diag([1.0, 0.0, 1.0]))
    assert np.array_equal(scn.faults.failure_schedule[1][1], np.diag([0.0, 1.0, 1.0]))
    assert all(ch.rel_degree == 0 for cs in scn.af_chain_sets for ch in cs)
    assert scn.policy.mode == "actuator_ft"


@pytest.mark.parametrize("r, largest", [(1e4, 0.07470), (1e5, 0.01373), (1e308, None)],
                         ids=["1e4", "1e5", "1e308"])
def test_boeing_lqr_with_a_heavy_input_weight_stabilizes(boeing_yaml, r, largest):
    """F is Hurwitz, so every input weight r has a stabilizing LQR gain, which
    shrinks as r grows. At r = 1e308 it is about 2e-305: finite and nonzero,
    with no overflow."""
    cfg = yaml.safe_load(boeing_yaml.read_text())
    cfg["policy"]["nominal"]["r"] = r
    K = build_scenario(cfg).policy.nominal_gain
    assert np.all(np.isfinite(K))
    if largest is None:
        assert 0.0 < np.max(np.abs(K)) <= 1e-300
    else:
        assert np.max(np.abs(K)) == pytest.approx(largest, rel=1e-3)
    assert np.max(np.linalg.eigvals(BOEING_F - BOEING_G @ K).real) < 0


def test_boeing_redundancy_controllable():
    for L in (np.diag([1.0, 0, 1]), np.diag([0.0, 1, 1])):
        B = BOEING_G @ L
        ctrb = np.hstack([np.linalg.matrix_power(BOEING_F, k) @ B for k in range(4)])
        assert np.linalg.matrix_rank(ctrb) == 4


def test_scenario_validation_bad_attack_sensor():
    with pytest.raises(ScenarioValidationError):
        build_scenario({"kind": "wmr", "faults": {"patterns": [[0], [9]]}})


CUSTOM_MODEL = {"F": [[-1.0, 0.0], [0.0, -1.0]], "G": [[1.0, 0.0], [0.0, 1.0]],
                "c": [[1.0, 0.0], [0.0, 1.0]], "sigma": 0.01, "nu": 0.01}


@pytest.mark.parametrize("cfg", [{"kind": "wmr"}, {"kind": "boeing"},
                                 {"kind": "custom", "model": CUSTOM_MODEL}],
                         ids=["wmr", "boeing", "custom"])
def test_scenario_validation_empty_barriers(cfg):
    with pytest.raises(ScenarioValidationError, match="barrier"):
        build_scenario({**cfg, "barriers": []})


def test_wmr_kind_needs_the_wmr_sizes():
    """kind wmr reads its model as the WMR's double integrator, n = 4 and
    p = 2, for the wheel commands of its run: a model of other sizes is a
    scenario error at build time, not an IndexError after the run."""
    cfg = {"kind": "wmr",
           "model": {"F": [[0, 1], [0, 0]], "G": [[0], [1]], "c": [[1, 0], [1, 0], [0, 1]],
                     "sigma": 0.01, "nu": 0.01},
           "faults": {"patterns": [[0]], "active": None},
           "barriers": [{"type": "half_plane", "a": [1.0, 0.0], "b": 2.0}], "clf": None,
           "policy": {"mode": "sensor_ft"},
           "sim": {"dt": 0.02, "horizon": 0.2, "x0": [0.0, 0.0]}}
    with pytest.raises(ScenarioValidationError, match=r"n = 2 and p = 1; use kind: custom"):
        build_scenario(cfg)
    run_scenario(build_scenario(dict(cfg, kind="custom")), 0)


def test_unknown_kind():
    with pytest.raises(ScenarioValidationError):
        build_scenario({"kind": "spaceship"})


def test_boeing_dead_pattern_is_redundancy_error():
    from ftcbf.errors import RedundancyError
    with pytest.raises(RedundancyError):
        build_scenario({"kind": "boeing", "policy": {"patterns": [[0, 0, 0]]}})


def _same_chain(a, b):
    assert (a.kind, a.rel_degree) == (b.kind, b.rel_degree)
    for wa, wb in zip(a.weights, b.weights, strict=True):
        assert np.array_equal(wa, wb)
    assert a.offsets == b.offsets


def _same_build(a, b):
    """a and b agree, bit for bit, on every field a run reads."""
    for name in ("F", "G", "c", "sigma", "nu"):
        assert np.array_equal(getattr(a.model, name), getattr(b.model, name)), name
    assert np.array_equal(a.gammas, b.gammas)
    assert a.thetas == b.thetas
    assert np.array_equal(a.x0, b.x0)
    assert (a.dt, a.horizon, a.seeds, a.verify_box) == (b.dt, b.horizon, b.seeds, b.verify_box)
    for field in dataclasses.fields(a.policy):
        assert np.array_equal(getattr(a.policy, field.name), getattr(b.policy, field.name)), \
            field.name
    for ca, cb in zip(a.chains, b.chains, strict=True):
        _same_chain(ca, cb)
    for sa, sb in zip(a.af_chain_sets, b.af_chain_sets, strict=True):
        for ca, cb in zip(sa, sb, strict=True):
            _same_chain(ca, cb)
    for pa, pb in zip(a.af_patterns, b.af_patterns, strict=True):
        assert np.array_equal(pa, pb)


def test_yaml_roundtrip_matches_programmatic(wmr_yaml, boeing_yaml):
    """load_scenario reads each golden file to the scenario that PyYAML's
    pure-Python safe_load gives."""
    for path in (wmr_yaml, boeing_yaml):
        _same_build(load_scenario(path), build_scenario(yaml.safe_load(path.read_text())))
    scn_b = load_scenario(boeing_yaml)
    assert scn_b.family == "actuator"
    assert len(scn_b.af_patterns) == 3


# Every scalar form a scenario document can meet, read by YAML 1.1's rules:
# 010 is octal, 1:30 is base 60, and a float with no dot (1e-3) is a string.
SCALAR_FORMS = """\
inf: [.inf, -.inf, .Inf]
nulls: [null, ~]
empty:
bools: [yes, off, true, No]
ints: [010, 0x1f, 1_000, -7, 1:30]
floats: [1.0e-3, 1.5, -0.0, 4.9e-324, 1.7976931348623157e+308]
strings: [1e-3, 5e-324, "0,1", wmr]
nested: [[0.0, 1.0], [[2], []], {a: [1, {b: 2.5}]}]
"""


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_c_and_python_parsers_read_every_scalar_form_alike():
    python = yaml.load(SCALAR_FORMS, Loader=yaml.SafeLoader)
    c = yaml.load(SCALAR_FORMS, Loader=yaml.CSafeLoader)
    assert c == python == {
        "inf": [math.inf, -math.inf, math.inf], "nulls": [None, None], "empty": None,
        "bools": [True, False, True, False], "ints": [8, 31, 1000, -7, 90],
        "floats": [0.001, 1.5, -0.0, 5e-324, 1.7976931348623157e308],
        "strings": ["1e-3", "5e-324", "0,1", "wmr"],
        "nested": [[0.0, 1.0], [[2], []], {"a": [1, {"b": 2.5}]}]}
    assert repr(c) == repr(python)  # so each value has the same type: 1 != 1.0 != True


def _calibration_blocks(wmr_yaml):
    """calibrate_gammas blocks of the golden WMR at three seeds, and one of
    the extreme floats a block may hold."""
    scn = load_scenario(wmr_yaml)
    blocks = [{"calibration": calibrate_gammas(scn.model, scn.faults, 50, scn.horizon, 0.05,
                                               dt=scn.dt, seed=seed).as_config()}
              for seed in (0, 7, 350)]
    return blocks + [{"calibration": {"gammas": [5e-324, 1e-300], "thetas": {
        "0,1": 1.7976931348623157e308}, "epsilon": 0.05, "n_runs": 200}}]


def test_save_config_writes_the_bytes_of_safe_dump(tmp_path, wmr_yaml):
    """Byte for byte what yaml.safe_dump writes, and read back exactly."""
    path = tmp_path / "calib.yaml"
    for block in _calibration_blocks(wmr_yaml):
        save_config(block, path)
        written = path.read_bytes()
        assert written == yaml.safe_dump(block, sort_keys=False).encode()
        assert yaml.safe_load(written) == block


def test_pure_python_yaml_gives_the_same_scenarios_and_bytes(tmp_path, monkeypatch,
                                                             wmr_yaml, boeing_yaml):
    """The pair that runs where PyYAML has no libyaml reads the golden files
    to the same scenarios and writes the same bytes."""
    monkeypatch.setattr(scenarios, "_LOADER", yaml.SafeLoader)
    monkeypatch.setattr(scenarios, "_DUMPER", yaml.SafeDumper)
    test_yaml_roundtrip_matches_programmatic(wmr_yaml, boeing_yaml)
    test_save_config_writes_the_bytes_of_safe_dump(tmp_path, wmr_yaml)


def test_kind_only_picks_defaults(wmr_yaml):
    """kind: custom with the WMR matrices runs the golden WMR exactly; only
    the wheel commands are WMR-specific."""
    cfg = yaml.safe_load(wmr_yaml.read_text())
    custom = dict(cfg, kind="custom",
                  model=dict(cfg["model"], F=WMR_F.tolist(), G=WMR_G.tolist(), c=WMR_C.tolist()))
    res_wmr = run_scenario(build_scenario(cfg), 0)
    res_custom = run_scenario(build_scenario(custom), 0)
    assert np.array_equal(res_custom.states, res_wmr.states)
    assert np.array_equal(res_custom.controls, res_wmr.controls)
    assert res_custom.omega is None and res_wmr.omega is not None


def test_null_optional_block_is_absent(tmp_path, wmr_yaml):
    cfg = yaml.safe_load(wmr_yaml.read_text())
    cfg["verify"] = None
    path = tmp_path / "null-verify.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert load_scenario(path).verify_box == 1.0


def test_ramp_attack_spec():
    scn = build_scenario({"kind": "wmr", "faults": {"attack": {"type": "ramp", "rate": 2.0,
                                                                 "start": 1.0}}})
    a = scn.faults.attack_vector(1.5)
    assert a[2] == pytest.approx(1.0)  # 2.0 * (1.5 - 1.0) on sensor 2
    assert np.count_nonzero(a) == 1
    assert np.allclose(scn.faults.attack_vector(0.5), 0.0)


def test_custom_scenario_ellipsoid_and_polynomial_barriers():
    cfg = {
        "name": "shapes", "kind": "custom",
        "model": {"F": [[-1.0, 0.0], [0.0, -1.0]], "G": [[1.0, 0.0], [0.0, 1.0]],
                  "c": [[1.0, 0.0], [0.0, 1.0]], "sigma": 0.01, "nu": 0.01},
        "faults": {"patterns": [[]]},
        "barriers": [
            {"type": "ellipsoid", "Phi": [[1.0, 0.0], [0.0, 2.0]], "center": [0.0, 0.0]},
            {"type": "polynomial",
             "terms": [{"exponents": [0, 0], "coeff": 1.0},
                       {"exponents": [2, 0], "coeff": -1.0}]},
        ],
        "sim": {"dt": 0.01, "horizon": 0.1, "x0": [0.1, 0.1]},
    }
    scn = build_scenario(cfg)
    assert scn.chains[0].value(0, np.zeros(2)) == pytest.approx(1.0)
    assert scn.chains[0].value(0, np.array([1.0, 0.0])) == pytest.approx(0.0)
    assert scn.chains[1].value(0, np.array([0.5, 0.0])) == pytest.approx(0.75)
    # a gamma offset is exact for half-planes only
    cfg["policy"] = {"mode": "baseline", "baseline_gamma": 0.01}
    with pytest.raises(ScenarioValidationError, match=r"^barriers: entry 0 is not a half-plane, "
                                                      r"so the nonzero policy: baseline_gamma"):
        build_scenario(cfg)


def test_clf_without_a_stabilizing_lqr_gain_names_the_clf_block():
    """The eigenvalues 1 and -1 of F = diag(1, -1) make its Lyapunov solve
    singular, and its unstable mode gets no input, so no LQR gain
    stabilizes it for the CLF."""
    cfg = {"kind": "custom",
           "model": {"F": [[1.0, 0.0], [0.0, -1.0]], "G": [[0.0], [1.0]],
                     "c": [[1.0, 0.0], [0.0, 1.0]], "sigma": 0.01, "nu": 0.01},
           "barriers": [{"type": "half_plane", "a": [0.0, 1.0], "b": 1.0}],
           "clf": {"radius": 0.1, "goal_indices": [0]}}
    with pytest.raises(ScenarioValidationError,
                       match=r"^clf: the Lyapunov solve on F is singular, and the unit LQR "
                             r"weights that would stabilize F give no gain"):
        build_scenario(cfg)


def test_estimator_block_config():
    scn = build_scenario({"kind": "wmr", "estimators": {"smoothing": 0.8}})
    assert scn.estimator_smoothing == pytest.approx(0.8)
    assert scn.estimator_mode == "constant_gain"


def test_baseline_variants():
    wmr_b = build_scenario({"kind": "wmr", "policy": {"mode": "baseline"}})
    assert wmr_b.bank_patterns == [[]]
    assert np.array_equal(wmr_b.gammas, [0.0])
    boe_b = build_scenario({"kind": "boeing", "policy": {"mode": "baseline"}})
    assert len(boe_b.af_patterns) == 1
    assert np.array_equal(boe_b.af_patterns[0], np.eye(3))
    # the policy's failure patterns, not the schedule, make it an actuator scenario
    assert boe_b.family == "actuator"
    unscheduled = build_scenario({"kind": "boeing", "faults": {"failure_schedule": []}})
    assert unscheduled.family == "actuator"


def test_presets_fit_the_schema():
    """build_scenario checks the document it is given, not the merge, so
    every preset must fit SCHEMA on its own."""
    for preset in PRESETS.values():
        _check(preset, SCHEMA, "")


def _scalar_leaves(node, path=()):
    """The key path of every scalar leaf of a parsed YAML document, list
    entries included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _scalar_leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _scalar_leaves(value, path + (i,))
    else:
        yield path


@pytest.mark.parametrize("replacement", [[1.0], {"x": 1.0}, "x", None],
                         ids=["list", "mapping", "string", "null"])
def test_wrong_typed_leaves_are_validation_errors(wmr_yaml, replacement):
    """Each scalar leaf of the golden WMR file, replaced by a value of the
    wrong type, builds a scenario or raises ScenarioValidationError."""
    cfg = yaml.safe_load(wmr_yaml.read_text())
    leaves = list(_scalar_leaves(cfg))
    assert len(leaves) > 60
    for path in leaves:
        edited = copy.deepcopy(cfg)
        node = edited
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = copy.deepcopy(replacement)
        try:
            assert isinstance(build_scenario(edited), Scenario)
        except ScenarioValidationError:
            pass
        except Exception as exc:
            pytest.fail(f"{path} = {replacement!r}: {type(exc).__name__}: {exc}")


GOLDEN = {name: yaml.safe_load((SCENARIO_DIR / f"{name}.yaml").read_text())
          for name in ("wmr", "boeing")}
# Wrong types, nested wrong shapes, empty containers and small numbers that
# are out of range somewhere; no extreme magnitudes.
POOL = [None, 0, -1, 0.5, "x", True, [], {}, [0.5], [-1], [[0.5]], [None], [[]],
        [[1.0], [1.0, 2.0]], {"x": 1}, [{}], [{"type": "x"}]]


def _nodes(node, path=()):
    """The key path of every key, list entry and subtree below node."""
    children = node.items() if isinstance(node, dict) \
        else enumerate(node) if isinstance(node, list) else ()
    for key, value in children:
        yield path + (key,)
        yield from _nodes(value, path + (key,))


def _edited(name, edits):
    """The golden document name after edits (path, value): a list value
    grows the list by one entry when value is "grow", the key or entry goes
    when value is "delete", and value replaces it otherwise."""
    doc = copy.deepcopy(GOLDEN[name])
    for path, value in edits:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value == "delete":
            del parent[path[-1]]
        elif value == "grow":
            parent[path[-1]].append(copy.deepcopy(parent[path[-1]][-1]))
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return doc


@st.composite
def edited_documents(draw):
    """A golden document after one to three edits, each drawn on the
    document that the edits before it left."""
    name = draw(st.sampled_from(sorted(GOLDEN)))
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        doc = _edited(name, edits)
        path = draw(st.sampled_from(list(_nodes(doc))))
        target = doc
        for key in path:
            target = target[key]
        grow = ["grow"] if isinstance(target, list) and target else []
        edits.append((path, draw(st.sampled_from(["delete"] + grow + POOL))))
    return _edited(name, edits)


@settings(deadline=None, max_examples=300)
@given(edited_documents())
@example(_edited("wmr", [(("clf", "goal_indices"), [])]))
def test_edited_golden_documents_build_or_are_scenario_errors(doc):
    """One to three edits of a golden document: build_scenario returns a
    Scenario or raises an FtcbfError, which the CLI prints as an error line;
    no other exception and no warning escapes."""
    try:
        scn = build_scenario(doc)
    except FtcbfError:
        return
    assert isinstance(scn, Scenario)
