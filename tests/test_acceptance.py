"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. The heavy Monte Carlo criteria share module-scoped fixtures.
"""

import time

import numpy as np
import pytest
from scipy.optimize import linprog

from ftcbf.barriers import HalfPlane, build_chain
from ftcbf.estimators import calibrate_gammas, make_bank, steady_state_gain
from ftcbf.optimizer import QpProblem, farkas_certificate, solve_qp
from ftcbf.policy import resolve_conflicts
from ftcbf.runner import run_scenario
from ftcbf.scenarios import (BOEING_F, BOEING_G, WMR_C, WMR_F, build_scenario,
                             load_scenario)
from ftcbf.simulator import SystemModel
from ftcbf.verifier import falsify_sensor_region

from conftest import SCENARIO_DIR, random_stable_model


def report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def wmr_golden():
    return load_scenario(SCENARIO_DIR / "wmr.yaml")


def test_wmr_reproduction(wmr_golden):
    """Fig. 2 flavor: FT safe 20/20 and reaching >= 19/20; baseline violates."""
    t0 = time.time()
    scn = wmr_golden
    seeds = scn.seeds
    assert len(seeds) == 20
    safe = 0
    reached = 0
    for s in seeds:
        m = run_scenario(scn, s).metrics
        safe += m["min_h"] >= 0.0
        reached += m["goal_reach_time"] is not None
    bl_cfg = dict(scn.config)
    bl_cfg["policy"] = dict(scn.config["policy"], mode="baseline")
    baseline = build_scenario(bl_cfg)
    violations = sum(run_scenario(baseline, s).metrics["violated"] for s in seeds)
    wall = time.time() - t0
    report("WMR reproduction: FT safety 20/20",
           safe == 20, f"safe={safe}/20")
    report("WMR reproduction: FT goal reach >= 19/20",
           reached >= 19, f"reached={reached}/20")
    report("WMR reproduction: baseline violates in >= 1 run",
           violations >= 1, f"violations={violations}/20")
    report("WMR reproduction: runtime <= 60 s", wall <= 60.0, f"{wall:.1f}s")


def test_boeing_reproduction():
    """Fig. 3 flavor: FT keeps |x2| <= 0.025 and converges; baseline violates
    after the first failure onset."""
    t0 = time.time()
    scn = load_scenario(SCENARIO_DIR / "boeing.yaml")
    res = run_scenario(scn, 0)
    margin = float(np.min(0.025 - np.abs(res.states[:, 1])))
    final = res.metrics["final_state_norm"]
    bl_cfg = dict(scn.config)
    bl_cfg["policy"] = dict(scn.config["policy"], mode="baseline")
    res_b = run_scenario(build_scenario(bl_cfg), 0)
    viol_idx = np.nonzero(np.abs(res_b.states[:, 1]) > 0.025)[0]
    onset = scn.faults.failure_schedule[0][0]
    wall = time.time() - t0
    report("Boeing reproduction: FT keeps |x2| <= 0.025",
           margin >= 0.0, f"min margin={margin:.3e}")
    report("Boeing reproduction: FT converges ||x(T)|| <= 0.01",
           final <= 0.01, f"final={final:.3e}")
    report("Boeing reproduction: baseline violates after L1 onset",
           viol_idx.size > 0 and viol_idx[0] * scn.dt >= onset,
           f"first violation t={viol_idx[0] * scn.dt if viol_idx.size else None}")
    report("Boeing reproduction: runtime <= 5 s", wall <= 5.0, f"{wall:.2f}s")


def test_farkas_oracle_equivalence():
    """Certificate presence agrees with an independent LP oracle, 100/100."""
    rng = np.random.default_rng(2024)
    agree = 0
    for _ in range(100):
        m, p = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        A = rng.uniform(-1, 1, (m, p))
        Xi = rng.uniform(-1, 1, m)
        mine_feasible = farkas_certificate(A, Xi) is None
        lp = linprog(np.zeros(p), A_ub=A, b_ub=Xi, bounds=[(None, None)] * p,
                     method="highs")
        agree += mine_feasible == (lp.status == 0)
    report("Farkas oracle equivalence 100/100", agree == 100, f"{agree}/100")


def _fista_dual_qp(R, A, b, iters=40_000):
    """Projected-gradient (accelerated) oracle on the dual of
    min u^T R u s.t. A u >= b; returns the primal objective estimate."""
    Rinv = np.linalg.inv(R)
    Q = A @ Rinv @ A.T
    L = max(np.max(np.linalg.eigvalsh((Q + Q.T) / 2)) / 2.0, 1e-12)
    y = np.zeros(len(b))
    y_prev = y.copy()
    tk = 1.0
    for _ in range(iters):
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * tk * tk)) / 2.0
        z = y + ((tk - 1.0) / t_next) * (y - y_prev)
        grad = b - Q @ z / 2.0
        y_prev = y
        y = np.maximum(0.0, z + grad / L)
        tk = t_next
    u = Rinv @ A.T @ y / 2.0
    return float(u @ R @ u)


def test_qp_correctness_vs_projected_gradient():
    rng = np.random.default_rng(77)
    ok_feas = 0
    ok_obj = 0
    for _ in range(100):
        p = int(rng.integers(1, 6))
        n_rows = int(rng.integers(1, 9))
        A = rng.uniform(-1, 1, (n_rows, p))
        u0 = rng.uniform(-1, 1, p)
        b = A @ u0 - rng.uniform(0.05, 1.0, n_rows)  # strictly feasible
        M = rng.uniform(-1, 1, (p, p))
        R = M @ M.T + np.eye(p)
        res = solve_qp(QpProblem(R), A, b)
        assert res.is_feasible
        ok_feas += np.min(A @ res.u - b) >= -1e-9
        f_mine = float(res.u @ R @ res.u)
        f_pg = _fista_dual_qp(R, A, b)
        ok_obj += abs(f_mine - f_pg) <= 1e-6 * max(1.0, abs(f_pg))
    report("QP rows satisfied within 1e-9, 100/100", ok_feas == 100, f"{ok_feas}/100")
    report("QP objective matches PG oracle within 1e-6 rel, 100/100",
           ok_obj == 100, f"{ok_obj}/100")


def test_barrier_chain_oracle():
    """Symbolic chain vs the recursion evaluated with finite differences."""
    rng = np.random.default_rng(555)
    max_err = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        model = random_stable_model(rng, n=n, p=int(rng.integers(1, 3)), sigma=0.2)
        a = rng.uniform(-1, 1, n)
        ch = build_chain(HalfPlane(tuple(a), float(rng.uniform(-1, 1))), model,
                         force_degree=2)
        eps = 1e-5
        for _ in range(100):
            x = rng.uniform(-2, 2, n)
            d = int(rng.integers(0, 2))
            grad = np.array([(ch.value(d, x + eps * e) - ch.value(d, x - eps * e)) / (2 * eps)
                             for e in np.eye(n)])
            rhs = grad @ (model.F @ x) + ch.value(d, x)  # affine: trace term zero
            max_err = max(max_err, abs(ch.value(d + 1, x) - rhs))
    report("Barrier-chain recursion oracle max err <= 1e-6",
           max_err <= 1e-6, f"max_err={max_err:.2e}")


def _riccati_ode_oracle(F, c_r, Q, R_r, dt=0.02, tol=1e-11, max_iter=2_000_000):
    """Plain fixed-step Euler integration, independent of the library path.

    Stops on a scale-relative residual so the derived gain (P amplified by
    R^-1) is pinned to well below the 1e-8 comparison tolerance.
    """
    S = c_r.T @ np.linalg.inv(R_r) @ c_r
    q0 = max(np.max(np.abs(Q)), 1e-12)
    P = np.sqrt(q0 * np.max(np.abs(R_r))) * np.eye(F.shape[0])
    for _ in range(max_iter):
        dP = F @ P + P @ F.T + Q - P @ S @ P
        if np.max(np.abs(dP)) <= tol * max(q0, np.max(np.abs(P))):
            break
        P = P + dt * dP
        P = (P + P.T) / 2.0
    return P @ c_r.T @ np.linalg.inv(R_r)


def test_ekf_steady_state_gain():
    cases = []
    for pattern in ((0,), (2,)):
        keep = [i for i in range(6) if i not in pattern]
        c_r = WMR_C[keep]
        nu_r = 0.002 * np.eye(len(keep))
        cases.append(("wmr-minus-" + str(pattern), WMR_F, c_r,
                      (0.002 ** 2) * np.eye(4), nu_r @ nu_r.T))
    c_b = np.array([[0.0, 1.0, 0.0, 0.0]])
    cases.append(("boeing", BOEING_F, c_b, 0.01 * np.eye(4), 0.01 * np.eye(1)))
    worst = 0.0
    for name, F, c_r, Q, R_r in cases:
        K = steady_state_gain(F, c_r, Q, R_r)
        K_ref = _riccati_ode_oracle(F, c_r, Q, R_r)
        worst = max(worst, float(np.max(np.abs(K - K_ref))))
    report("EKF steady-state gain matches Riccati-ODE fixed point <= 1e-8",
           worst <= 1e-8, f"worst dK={worst:.2e}")


def test_safety_probability_each_pattern(wmr_golden):
    """Calibrated gamma/theta at eps=0.05; >= 0.92 safety over 200 seeds per
    single fault pattern."""
    t0 = time.time()
    base = wmr_golden.config
    cal = calibrate_gammas(wmr_golden.model, wmr_golden.faults, 200,
                           wmr_golden.horizon, 0.05, dt=wmr_golden.dt, seed=1000)
    rates = {}
    for active in (0, 1):
        cfg = dict(base)
        cfg["faults"] = dict(base["faults"], active=active)
        cfg["calibration"] = cal.as_config()
        scn = build_scenario(cfg)
        safe = sum(not run_scenario(scn, s).metrics["violated"] for s in range(200))
        rates[active] = safe / 200.0
    wall = time.time() - t0
    for active, rate in rates.items():
        report(f"Safety probability pattern {active} >= 0.92",
               rate >= 0.92, f"rate={rate:.3f}")
    report("Safety probability runtime <= 10 min", wall <= 600.0, f"{wall:.0f}s")


def test_step2_pruning_fixture():
    """Distances (1.5, 0.2, 1.4) vs theta = 1 remove exactly index j."""
    from ftcbf.estimators import EstimatorBank, EstimatorState

    def est(i, x):
        return EstimatorState(id=("single", i), removed=(), sensors=(0,),
                              x_hat=np.asarray(x, float), P=np.eye(2), mode="open_loop")

    x_ij = [0.11, float(np.sqrt(0.2 ** 2 - 0.11 ** 2))]
    bank = EstimatorBank(
        patterns=[(), ()],
        singles=[est(0, [0.0, 0.0]), est(1, [1.5, 0.0])],
        pairs={(0, 1): EstimatorState(id=("pair", 0, 1), removed=(), sensors=(),
                                      x_hat=np.asarray(x_ij), P=np.eye(2),
                                      mode="open_loop")},
        gammas=np.zeros(2), thetas={(0, 1): 1.0})

    def builder(Z, U):
        if list(Z) == [0, 1]:
            return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]), ["lo", "hi"]
        return np.zeros((0, 1)), np.zeros(0), []

    out = resolve_conflicts(bank, [0, 1], [], builder, QpProblem(np.eye(1)))
    report("Step-2 pruning removes exactly j",
           out.removed == [(1, "pairwise")] and out.Z == [0],
           f"removed={out.removed}")


def test_verifier_cross_check():
    """Every falsification counterexample reproduces as an infeasible QP."""
    degenerate_cases = []
    for nn, bias in ((2, 0.5), (3, 0.2), (2, 1.5)):
        F = np.zeros((nn, nn))
        F[0, -1] = 1.0
        degenerate_cases.append({
            "name": f"dead-{nn}-{bias}", "kind": "custom",
            "model": {"F": F.tolist(), "G": np.zeros((nn, 1)).tolist(),
                      "c": np.eye(nn)[:1].tolist(), "sigma": 0.0, "nu": 0.01},
            "faults": {"patterns": [[]]},
            "barriers": [{"type": "half_plane",
                          "a": (np.eye(nn)[0]).tolist(), "b": bias,
                          "force_degree": 0}],
            "sim": {"dt": 0.01, "horizon": 1.0, "x0": np.zeros(nn).tolist()},
        })
    checked = 0
    agreed = 0
    for cfg in degenerate_cases:
        scn = build_scenario(cfg)
        bank = make_bank(scn.model, scn.bank_patterns, scn.x0, with_pairs=False)
        rep = falsify_sensor_region(scn.chains, scn.model, bank.singles,
                                    [0.0] * len(bank.singles), scn.thetas,
                                    box=1.0, budget=200, seed=3)
        assert rep["counterexample"] is not None, cfg["name"]
        checked += 1
        point = rep["counterexample"]["point"]
        rows, bounds = [], []
        for i, x_hat in enumerate(point["estimates"]):
            x_hat = np.asarray(x_hat)
            est = bank.singles[i]
            for ch in scn.chains:
                d = ch.rel_degree
                w = ch.grad(d, x_hat)
                row = w @ scn.model.g(x_hat)
                xi = float(w @ scn.model.f(x_hat)) + ch.shrunk(d, x_hat, 0.0)
                if est.K is not None:
                    xi += float(w @ est.K @ est.c_r @ np.asarray(point["zs"][i]))
                rows.append(row)
                bounds.append(-xi)
        res = solve_qp(QpProblem(np.eye(scn.model.p)), np.array(rows), np.array(bounds))
        agreed += res.status == "infeasible"
    report("Verifier cross-check: counterexamples give infeasible QPs",
           checked == len(degenerate_cases) and agreed == checked,
           f"{agreed}/{checked}")
