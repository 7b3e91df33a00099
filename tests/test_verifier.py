import numpy as np
import pytest

import ftcbf.optimizer as optimizer
from ftcbf.barriers import HalfPlane, build_chain
from ftcbf.estimators import make_bank
from ftcbf.optimizer import farkas_certificate
from ftcbf.scenarios import PRESETS, build_scenario, load_scenario
from ftcbf.simulator import SystemModel
from ftcbf.verifier import (falsify_actuator_region, falsify_region,
                            falsify_sensor_region, latin_hypercube,
                            verify_ft_set_pointwise)

from conftest import integrator_model


def no_authority_model(nu=0.01):
    return SystemModel.linear(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 1)),
                              np.array([[1.0, 0.0]]), np.zeros((2, 2)), nu * np.eye(1))


def pointwise(ch, model, x_hat, gamma):
    """The m = 1 constraint set at one estimate, without a filter gain."""
    return verify_ft_set_pointwise([ch], model, [None], [np.asarray(x_hat, dtype=float)],
                                   [np.zeros(model.n)], [gamma])


def test_pointwise_control_enters():
    model = integrator_model()
    ch = build_chain(HalfPlane((1.0, 0.0), 0.2), model)
    out = pointwise(ch, model, [5.0, 0.0], gamma=0.1)
    assert out["feasible"]


def test_pointwise_no_authority_but_interior():
    model = no_authority_model()
    ch = build_chain(HalfPlane((1.0, 0.0), 0.5), model, force_degree=0)
    # h(x_hat) = x1 + 0.5 > 0 and xi = dh/dx f + hat h = x2 + hat h
    out = pointwise(ch, model, [1.0, 0.0], gamma=0.0)
    assert out["feasible"] and not out["vacuous"]


def test_pointwise_counterexample_outside_shrunk_set():
    model = no_authority_model()
    ch = build_chain(HalfPlane((1.0, 0.0), 0.5), model, force_degree=0)
    out = pointwise(ch, model, [-0.6, 0.0], gamma=0.0)
    assert not out["feasible"]


def test_ft_set_m1_reduces_to_pointwise():
    """With m = 1 and no control authority the set is the single slack row
    0.u <= xi: infeasible exactly where xi < 0, certified by y > 0."""
    model = no_authority_model()
    ch = build_chain(HalfPlane((1.0, 0.0), 0.5), model, force_degree=0)
    for x1 in (-0.6, -0.51, -0.49, 1.0):
        out = pointwise(ch, model, [x1, 0.0], gamma=0.0)
        assert out["feasible"] is (x1 + 0.5 >= 0.0)
        if not out["feasible"]:
            assert out["certificate"].shape == (1,) and out["certificate"][0] > 0


def test_ft_set_parallel_vs_antiparallel():
    model = integrator_model()
    ch = build_chain(HalfPlane((1.0, 0.0), 0.2), model)
    ests = [None, None]
    zs = [np.zeros(2), np.zeros(2)]
    out = verify_ft_set_pointwise([ch], model, ests, [np.ones(2), 2 * np.ones(2)],
                                  zs, [0.0, 0.0])
    assert out["feasible"]
    # anti-parallel with conflicting bounds via direct Farkas assembly
    y = farkas_certificate(np.array([[-1.0], [1.0]]), np.array([1.0, 1.0]))
    assert y is not None and abs(y[0] - y[1]) < 1e-9


def test_ft_set_vacuous_premise():
    model = integrator_model()
    ch = build_chain(HalfPlane((1.0, 0.0), 0.2), model)
    out = verify_ft_set_pointwise([ch], model, [None, None],
                                  [np.zeros(2), np.array([10.0, 0.0])],
                                  [np.zeros(2)] * 2, [0.0, 0.0], thetas={(0, 1): 1.0})
    assert out["feasible"] and out["vacuous"]


def test_ft_set_agrees_with_bruteforce_lp():
    """Feasibility flag vs scipy linprog on the independently assembled system."""
    from scipy.optimize import linprog
    rng = np.random.default_rng(77)
    agree = 0
    for _ in range(100):
        n, p, m = 2, int(rng.integers(1, 4)), int(rng.integers(1, 5))
        model = SystemModel.linear(rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, p)),
                                   np.eye(n), 0.1 * np.eye(n), 0.1 * np.eye(n))
        a = rng.uniform(-1, 1, n)
        ch = build_chain(HalfPlane(tuple(a), float(rng.uniform(-1, 1))), model,
                         force_degree=0)
        estimates = [rng.uniform(-2, 2, n) for _ in range(m)]
        zs = [rng.uniform(-0.1, 0.1, n) for _ in range(m)]
        gammas = [0.1] * m
        out = verify_ft_set_pointwise([ch], model, [None] * m, estimates, zs, gammas)
        A, Xi = [], []
        for i in range(m):
            w = ch.grad(0, estimates[i])
            A.append(-(w @ model.g(estimates[i])))
            Xi.append(float(w @ model.f(estimates[i])) + ch.shrunk(0, estimates[i], 0.1))
        lp = linprog(np.zeros(p), A_ub=np.array(A), b_ub=np.array(Xi),
                     bounds=[(None, None)] * p, method="highs")
        agree += out["feasible"] == (lp.status == 0)
    assert agree == 100


def test_latin_hypercube_stratified():
    rng = np.random.default_rng(0)
    pts = latin_hypercube(rng, 64, 3, -1.0, 1.0)
    assert pts.shape == (64, 3)
    for d in range(3):
        counts, _ = np.histogram(pts[:, d], bins=64, range=(-1, 1))
        assert np.all(counts == 1)


def test_falsify_region_deterministic_and_counts():
    calls = []

    def check(k):
        calls.append(k)
        return {"feasible": k < 5}

    rep = falsify_region(check, {"seeds": [0]}, budget=20)
    assert rep["counterexample"] is not None
    assert rep["samples"] == 6
    with pytest.raises(Exception):
        falsify_region(check, {}, budget=0)


def test_falsify_sensor_no_counterexample_on_golden_wmr(wmr_yaml):
    scn = load_scenario(wmr_yaml)
    bank = make_bank(scn.model, scn.bank_patterns, scn.x0, with_pairs=False)
    rep = falsify_sensor_region(scn.chains, scn.model, bank.singles,
                                [float(g) for g in scn.gammas], scn.thetas,
                                box=scn.verify_box, budget=400, seed=1)
    assert rep["counterexample"] is None
    rep2 = falsify_sensor_region(scn.chains, scn.model, bank.singles,
                                 [float(g) for g in scn.gammas], scn.thetas,
                                 box=scn.verify_box, budget=400, seed=1)
    assert rep["verdict"] == rep2["verdict"] and rep["samples"] == rep2["samples"]


def test_falsify_actuator_boeing_full_budget():
    scn = build_scenario({"kind": "boeing"})
    rep = falsify_actuator_region(scn.af_chain_sets, scn.af_patterns, scn.model,
                                  box=1.0, budget=10_000, seed=0)
    assert rep["counterexample"] is None
    assert "10000 samples" in rep["verdict"]


def test_boeing_verify_factors_its_rows_once(monkeypatch):
    """Every sample of a golden Boeing verify poses the same rows A, so the
    batched QR of every row set runs once for all 200 samples."""
    scn = build_scenario({"kind": "boeing"})
    qr, shapes = np.linalg.qr, []

    def counted_qr(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(optimizer, "_basis", None)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    rep = falsify_actuator_region(scn.af_chain_sets, scn.af_patterns, scn.model,
                                  box=1.0, budget=200, seed=0)
    assert rep["counterexample"] is None
    assert shapes == [(42, 6, 3)]


def test_falsify_sensor_wmr_full_budget(wmr_yaml):
    scn = load_scenario(wmr_yaml)
    bank = make_bank(scn.model, scn.bank_patterns, scn.x0, with_pairs=False)
    rep = falsify_sensor_region(scn.chains, scn.model, bank.singles,
                                [float(g) for g in scn.gammas], scn.thetas,
                                box=scn.verify_box, budget=10_000, seed=0)
    assert rep["counterexample"] is None


def test_falsify_actuator_dead_pattern_counterexample():
    scn = build_scenario({"kind": "boeing"})
    dead = [np.zeros((3, 3))]
    chain_sets = [[build_chain(HalfPlane(tuple(s["a"]), s["b"]), scn.model,
                               input_mask=dead[0], force_degree=0)]
                  for s in PRESETS["boeing"]["barriers"]]
    rep = falsify_actuator_region(chain_sets, dead, scn.model, box=1.0,
                                  budget=50, seed=0)
    assert rep["counterexample"] is not None
