import numpy as np
import pytest

from ftcbf.barriers import HalfPlane, build_chain
from ftcbf.clf import QuadraticClf
from ftcbf.errors import ContractError
from ftcbf.estimators import EstimatorBank, EstimatorState, make_bank
from ftcbf.optimizer import QpProblem
from ftcbf.policy import (PolicyConfig, active_sets, actuator_control,
                          assemble_constraints, resolve_conflicts)
from ftcbf.runner import run_scenario
from ftcbf.scenarios import build_scenario
from ftcbf.simulator import SystemModel

from conftest import integrator_model


def stub_bank(estimates, pair_estimates=None, thetas=None, residues=None):
    """Bank with hand-placed estimates for policy fixtures."""
    singles = []
    for i, x in enumerate(estimates):
        singles.append(EstimatorState(id=("single", i), removed=(), sensors=(0,),
                                      x_hat=np.asarray(x, dtype=float), P=np.eye(len(x)),
                                      mode="open_loop",
                                      residue=0.0 if residues is None else residues[i]))
    pairs = {}
    for key, x in (pair_estimates or {}).items():
        pairs[key] = EstimatorState(id=("pair",) + key, removed=(), sensors=(),
                                    x_hat=np.asarray(x, dtype=float),
                                    P=np.eye(len(x)), mode="open_loop")
    return EstimatorBank(patterns=[() for _ in estimates], singles=singles, pairs=pairs,
                         gammas=np.zeros(len(estimates)), thetas=thetas or {})


def test_policy_config_validation():
    with pytest.raises(ContractError):
        PolicyConfig(mode="nonsense")
    with pytest.raises(ContractError):
        PolicyConfig(delta=0.0)
    with pytest.raises(ContractError):
        PolicyConfig(V_bar=-1.0)


def test_active_sets_thresholds():
    model = integrator_model()
    chain = build_chain(HalfPlane((0.0, 1.0), 0.1), model)
    clf = QuadraticClf(Psi=np.eye(2), x_goal=np.zeros(2), rho=1.0)
    bank = stub_bank([[0.0, 5.0], [0.0, 5.0]])
    cfg = PolicyConfig(mode="sensor_ft_clf", delta=1e-6, V_bar=1.0)
    Z, U = active_sets(bank, [chain], clf, cfg)
    assert Z == []            # deep inside the safe set, tiny delta
    assert U == [0, 1]        # V = 25 > V_bar
    cfg = PolicyConfig(mode="sensor_ft_clf", delta=np.inf, V_bar=100.0)
    Z, U = active_sets(bank, [chain], clf, cfg)
    assert Z == [0, 1] and U == []


def test_active_sets_single_estimator_near_boundary():
    from ftcbf.scenarios import WMR_C, WMR_F, WMR_G
    wmr = SystemModel.linear(WMR_F, WMR_G, WMR_C, 0.01 * np.eye(4), 0.01 * np.eye(6))
    chain = build_chain(HalfPlane((0, 1, 0, 0), 0.1), wmr)
    bank = stub_bank([[0.0, 1.0, 0.0, 0.0], [0.0, -0.099, 0.0, 0.0]])
    cfg = PolicyConfig(mode="sensor_ft", delta=0.5)
    Z, _ = active_sets(bank, [chain], None, cfg)
    assert Z == [1]


# u >= 1 and -u >= 1 in p = 1
CONTRADICTORY = (np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]), ["lo", "hi"])
SCALAR_QP = QpProblem(np.eye(1))


def make_builder(infeasible_when):
    """Builder returning contradictory rows iff the active Z matches."""

    def build(Z, U):
        if list(Z) in [list(s) for s in infeasible_when]:
            return CONTRADICTORY
        return np.array([[1.0]]), np.array([-1.0]), ["lo"]

    return build


def test_step1_feasible_no_removals():
    bank = stub_bank([[0.0, 0.0], [0.1, 0.0]], thetas={(0, 1): 1.0})
    out = resolve_conflicts(bank, [0, 1], [], make_builder([]), SCALAR_QP)
    assert out.step == 1 and out.removed == [] and out.Z == [0, 1]


def test_step2_pruning_fixture():
    """Distances (1.5, 0.2, 1.4) against theta = 1: exactly j is removed."""
    x_i = [0.0, 0.0]
    x_j = [1.5, 0.0]
    x_ij = [0.11, float(np.sqrt(0.2 ** 2 - 0.11 ** 2))]
    assert np.linalg.norm(np.array(x_i) - x_ij) == pytest.approx(0.2, abs=1e-12)
    assert np.linalg.norm(np.array(x_j) - x_ij) == pytest.approx(1.4, abs=1e-3)
    bank = stub_bank([x_i, x_j], pair_estimates={(0, 1): x_ij}, thetas={(0, 1): 1.0})
    out = resolve_conflicts(bank, [0, 1], [], make_builder([[0, 1]]), SCALAR_QP)
    assert out.removed == [(1, "pairwise")]
    assert out.Z == [0] and out.step == 2
    assert out.result.is_feasible


def test_step2_never_removes_consistent_estimator():
    # all pairwise distances <= theta: step 2 removes nothing, step 3 kicks in
    bank = stub_bank([[0.0, 0.0], [0.5, 0.0]], pair_estimates={(0, 1): [0.25, 0.0]},
                     thetas={(0, 1): 1.0}, residues=[0.3, 0.1])
    out = resolve_conflicts(bank, [0, 1], [], make_builder([[0, 1]]), SCALAR_QP)
    assert all(reason != "pairwise" for _, reason in out.removed)
    assert out.removed[0] == (0, "residue")  # largest smoothed residue first
    assert out.step == 3


def test_step3_order_descending_residue_ties_low_index():
    bank = stub_bank([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                     thetas={(i, j): np.inf for i in range(3) for j in range(i + 1, 3)},
                     residues=[0.5, 0.9, 0.5])
    out = resolve_conflicts(bank, [0, 1, 2], [],
                            make_builder([[0, 1, 2], [0, 2]]), SCALAR_QP)
    assert out.removed == [(1, "residue"), (0, "residue")]
    assert out.Z == [2]


def test_total_infeasibility_event():
    bank = stub_bank([[0.0, 0.0]], thetas={})

    def always_bad(Z, U):
        return CONTRADICTORY

    out = resolve_conflicts(bank, [0], [], always_bad, SCALAR_QP)
    assert out.infeasible_event
    assert np.array_equal(out.u, [0.0])


def test_assemble_sensor_clf_counts_and_tags():
    scn = build_scenario({"kind": "wmr", "policy": {"u_max": None}})
    bank = make_bank(scn.model, scn.bank_patterns, scn.x0, gammas=scn.gammas,
                     thetas=scn.thetas)
    A, b, tags = assemble_constraints(scn.policy, scn.model, chains=scn.chains, bank=bank,
                                      clf=scn.clf, Z=[0], U=[0, 1])
    assert tags == ["hoscbf(0)", "clf(0)", "clf(1)"]
    assert A.shape == (3, 2) and b.shape == (3,)


def test_assemble_actuator_rows_per_pattern():
    scn = build_scenario({"kind": "boeing"})
    out = actuator_control(scn.policy, scn.model, np.zeros(4), scn.af_chain_sets,
                           scn.af_patterns, scn.qp)
    assert out.A.shape == (6, 3) and out.b.shape == (6,)  # 2 barrier sides x 3 patterns
    assert sum(tag.startswith("af_cbf") for tag in out.sources) == 6


def test_actuator_control_nominal_shift():
    scn = build_scenario({"kind": "boeing"})
    x = np.array([0.0, 0.002, 0.0, 0.0])
    u_nom = -scn.policy.nominal_gain @ x
    out = actuator_control(scn.policy, scn.model, x, scn.af_chain_sets,
                           scn.af_patterns, scn.qp)
    # precondition: every row is strictly slack at the nominal here,
    # so the safety filter must pass the nominal through unchanged
    assert np.all(out.A @ u_nom > out.b + 1e-9)
    assert np.allclose(out.u, u_nom, atol=1e-9)
    # near the barrier the filter deviates but still satisfies every row
    x2 = np.array([0.05, 0.0249, 0.0, 0.0])
    out2 = actuator_control(scn.policy, scn.model, x2, scn.af_chain_sets,
                            scn.af_patterns, scn.qp)
    assert np.all(out2.A @ out2.u >= out2.b - 1e-9)


def test_pruned_estimator_is_the_attacked_one(wmr_yaml):
    """Across seeded attacked runs, pairwise pruning removes the estimator
    retaining the attacked sensor (index 0 drops sensor 0, keeps sensor 2)."""
    from ftcbf.scenarios import load_scenario
    scn = load_scenario(wmr_yaml)
    hits = runs_with_pruning = 0
    for seed in range(20):
        res = run_scenario(scn, seed)
        removed = ";".join(res.removed_log)
        if "pairwise" in removed:
            runs_with_pruning += 1
            hits += "0:pairwise" in removed and "1:pairwise" not in removed
    assert runs_with_pruning >= 15
    assert hits / runs_with_pruning >= 0.95


def test_attacked_channel_residue_dominates(wmr_yaml):
    from ftcbf.scenarios import load_scenario
    scn = load_scenario(wmr_yaml)
    res = run_scenario(scn, 0)
    late = res.residues[-50:]
    # estimator 0 retains the attacked sensor; its smoothed residue grows
    assert np.all(late[:, 0] > late[:, 1])


def test_baseline_matches_ft_without_faults():
    base_cfg = {"kind": "wmr", "faults": {"active": None, "attack": None}, "sim": {"horizon": 8.0},
                "model": {"sigma": 0.002, "nu": 0.002}}
    ft = build_scenario(base_cfg)
    bl_cfg = dict(base_cfg)
    bl_cfg["policy"] = {"mode": "baseline"}
    bl = build_scenario(bl_cfg)
    for seed in (0, 1, 2):
        m_ft = run_scenario(ft, seed).metrics
        m_bl = run_scenario(bl, seed).metrics
        assert not m_ft["violated"] and not m_bl["violated"]
        assert (m_ft["goal_reach_time"] is None) == (m_bl["goal_reach_time"] is None)
        if m_ft["goal_reach_time"] is not None:
            assert abs(m_ft["goal_reach_time"] - m_bl["goal_reach_time"]) < 1.5
