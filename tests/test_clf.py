import numpy as np
import pytest

from ftcbf.clf import (QuadraticClf, build_quadratic_clf, clf_row, goal_reach_time,
                       solve_lyapunov)
from ftcbf.errors import ContractError, LyapunovError
from ftcbf.estimators import make_bank
from ftcbf.scenarios import WMR_F, build_scenario
from ftcbf.simulator import SystemModel

from conftest import integrator_model


class StubEst:
    def __init__(self, x_hat, K=None, c_r=None, nu_r=None):
        self.x_hat = np.asarray(x_hat, dtype=float)
        self.K = K
        self.c_r = c_r
        self.nu_r = nu_r


def test_lyapunov_minus_identity():
    P = solve_lyapunov(-np.eye(2), -np.eye(2))
    assert np.allclose(P, 0.5 * np.eye(2))


def test_lyapunov_residual_random():
    rng = np.random.default_rng(6)
    for _ in range(20):
        F = rng.uniform(-1, 1, (3, 3)) - 2.0 * np.eye(3)
        P = solve_lyapunov(F, -np.eye(3))
        assert np.max(np.abs(F.T @ P + P @ F + np.eye(3))) <= 1e-9


def test_lyapunov_singular_names_eigenpair():
    with pytest.raises(LyapunovError, match="eigenvalue"):
        solve_lyapunov(WMR_F, -np.eye(4))


def test_build_clf_rho_formula_and_positivity():
    F = -np.eye(4)
    clf = build_quadratic_clf(F, d=0.05, pos_dim=2)
    lam = np.max(np.linalg.eigvalsh(clf.Psi))
    assert clf.rho == pytest.approx(1.0 / (0.05 * lam))
    assert clf.value(clf.x_goal) == 0.0
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(4)
        if np.linalg.norm(x) > 1e-9:
            assert clf.value(x) > 0.0


def test_clf_validation():
    with pytest.raises(ContractError):
        QuadraticClf(Psi=np.diag([1.0, -1.0]), x_goal=np.zeros(2), rho=1.0)
    with pytest.raises(ContractError):
        QuadraticClf(Psi=np.eye(2), x_goal=np.zeros(2), rho=0.0)


def test_clf_row_degenerate_at_goal():
    model = integrator_model()
    clf = QuadraticClf(Psi=np.eye(2), x_goal=np.zeros(2), rho=1.0)
    assert clf_row(clf, StubEst([0.0, 0.0]), model, 0.0) is None


def test_clf_row_gradient_descent_direction():
    model = integrator_model()
    clf = QuadraticClf(Psi=np.eye(2), x_goal=np.zeros(2), rho=1.0)
    row, bound = clf_row(clf, StubEst([1.0, 0.0]), model, 0.0)
    assert np.allclose(row, [-2.0, 0.0])
    assert bound == pytest.approx(1e-9)
    # row.u >= bound forces u1 < 0, the direction that decreases V
    assert row @ np.array([-1.0, 0.0]) >= bound
    assert row @ np.array([+1.0, 0.0]) < bound


def test_clf_row_wmr_term_by_term():
    scn = build_scenario({"kind": "wmr"})
    model, clf = scn.model, scn.clf
    bank = make_bank(model, scn.bank_patterns, scn.x0)
    est = bank.singles[0]
    rng = np.random.default_rng(12)
    for _ in range(10):
        x_hat = rng.standard_normal(4)
        est.x_hat = x_hat
        gamma = 0.07
        row, bound = clf_row(clf, est, model, gamma, decay=False)
        dv = 2.0 * clf.Psi @ (x_hat - clf.x_goal)
        row_ref = -(dv @ model.G)
        KN = est.K @ est.nu_r
        bound_ref = (dv @ (model.F @ x_hat)
                     + gamma * np.linalg.norm(dv @ est.K @ est.c_r)
                     + 0.5 * np.trace(KN.T @ (2.0 * clf.Psi) @ KN) + 1e-9)
        assert np.max(np.abs(row - row_ref)) < 1e-12 * max(1, np.max(np.abs(row_ref)))
        assert bound == pytest.approx(bound_ref, rel=1e-12)
        _, bound2 = clf_row(clf, est, model, gamma, decay=True)
        assert bound2 == pytest.approx(bound_ref + clf.rho * clf.value(x_hat), rel=1e-12)


def test_goal_reach_time():
    clf = QuadraticClf(Psi=np.eye(2), x_goal=np.zeros(2), rho=1.0)
    times = np.arange(5) * 0.1
    inside = np.zeros((5, 2))
    assert goal_reach_time(times, inside, clf, 0.05) == 0.0
    far = np.ones((5, 2))
    assert goal_reach_time(times, far, clf, 0.05) is None
    mixed = np.array([[1, 1], [0.5, 0.5], [0.01, 0.0], [1, 1], [0, 0.0]])
    assert goal_reach_time(times, mixed, clf, 0.05) == pytest.approx(0.2)
    # coordinate subset
    clf4 = QuadraticClf(Psi=np.eye(4), x_goal=np.zeros(4), rho=1.0)
    states = np.array([[0.0, 0.0, 9.0, 9.0]])
    assert goal_reach_time([0.0], states, clf4, 0.05, indices=[0, 1]) == 0.0
    assert goal_reach_time([0.0], states, clf4, 0.05) is None


def test_v_nonincreasing_above_vbar_noise_free():
    """Accepted controls keep V(x_hat) non-increasing while V > V_bar."""
    from ftcbf.runner import run_scenario
    cfg = {"model": {"sigma": 0.0, "nu": 1e-4},
           "faults": {"active": None, "attack": None},
           "sim": {"horizon": 6.0}}
    scn = build_scenario({"kind": "wmr", **cfg})
    res = run_scenario(scn, 0)
    V_bar = scn.policy.V_bar
    for i in range(res.estimates.shape[1]):
        V = np.array([scn.clf.value(res.estimates[k, i]) for k in range(len(res.times))])
        for k in range(len(V) - 1):
            if V[k] > V_bar:
                assert V[k + 1] <= V[k] + 5e-2 * scn.dt * (1.0 + V[k])
