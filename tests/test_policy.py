import numpy as np
import pytest

from ftcbf.barriers import HalfPlane, build_chain, hoscbf_row
from ftcbf.clf import QuadraticClf, clf_row
from ftcbf.errors import ContractError
from ftcbf.estimators import EstimatorBank, EstimatorState, make_bank
from ftcbf.optimizer import QpProblem, solve_qp
from ftcbf.policy import (PolicyConfig, ResolveOutcome, active_sets, actuator_control,
                          assemble_constraints, resolve_conflicts)
import ftcbf.runner as runner
from ftcbf.runner import run_scenario
from ftcbf.scenarios import build_scenario
from ftcbf.simulator import SystemModel

from conftest import integrator_model


def stub_bank(estimates, pair_estimates=None, thetas=None, residues=None):
    """Bank with hand-placed estimates for policy fixtures."""
    singles = []
    for i, x in enumerate(estimates):
        singles.append(EstimatorState(sensors=(0,), x_hat=np.asarray(x, dtype=float),
                                      residue=0.0 if residues is None else residues[i]))
    pairs = {}
    for key, x in (pair_estimates or {}).items():
        pairs[key] = EstimatorState(sensors=(), x_hat=np.asarray(x, dtype=float))
    return EstimatorBank(singles=singles, pairs=pairs, gammas=np.zeros(len(estimates)),
                         thetas=thetas or {})


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
    wmr = SystemModel(WMR_F, WMR_G, WMR_C, 0.01 * np.eye(4), 0.01 * np.eye(6))
    chain = build_chain(HalfPlane((0, 1, 0, 0), 0.1), wmr)
    bank = stub_bank([[0.0, 1.0, 0.0, 0.0], [0.0, -0.099, 0.0, 0.0]])
    cfg = PolicyConfig(mode="sensor_ft", delta=0.5)
    Z, _ = active_sets(bank, [chain], None, cfg)
    assert Z == [1]


SCALAR_QP = QpProblem(np.eye(1))


def scalar_rows(*rows):
    """Rows A u >= b in p = 1 from (coefficient, bound, owner) triples."""
    a, b, owners = zip(*rows)
    return (np.array(a, dtype=float).reshape(-1, 1), np.array(b, dtype=float),
            [f"row({i})" for i in range(len(rows))], np.array(owners, dtype=np.intp))


def test_step1_feasible_no_removals():
    bank = stub_bank([[0.0, 0.0], [0.1, 0.0]], thetas={(0, 1): 1.0})
    out = resolve_conflicts(bank, [0, 1], [], scalar_rows((1.0, -1.0, 0), (1.0, -1.0, 1)),
                            SCALAR_QP)
    assert out.step == 1 and out.removed == [] and out.Z == [0, 1]


def test_step2_pruning_fixture():
    """Distances (1.5, 0.2, 1.4) against theta = 1: exactly j is removed."""
    x_i = [0.0, 0.0]
    x_j = [1.5, 0.0]
    x_ij = [0.11, float(np.sqrt(0.2 ** 2 - 0.11 ** 2))]
    assert np.linalg.norm(np.array(x_i) - x_ij) == pytest.approx(0.2, abs=1e-12)
    assert np.linalg.norm(np.array(x_j) - x_ij) == pytest.approx(1.4, abs=1e-3)
    bank = stub_bank([x_i, x_j], pair_estimates={(0, 1): x_ij}, thetas={(0, 1): 1.0})
    # u >= 1 from estimator 0 contradicts -u >= 1 from estimator 1
    out = resolve_conflicts(bank, [0, 1], [], scalar_rows((1.0, 1.0, 0), (-1.0, 1.0, 1)),
                            SCALAR_QP)
    assert out.removed == [(1, "pairwise")]
    assert out.Z == [0] and out.step == 2
    assert out.result.is_feasible
    assert out.sources == ["row(0)"]


def test_step2_never_removes_consistent_estimator():
    # all pairwise distances <= theta: step 2 removes nothing, step 3 kicks in
    bank = stub_bank([[0.0, 0.0], [0.5, 0.0]], pair_estimates={(0, 1): [0.25, 0.0]},
                     thetas={(0, 1): 1.0}, residues=[0.3, 0.1])
    out = resolve_conflicts(bank, [0, 1], [], scalar_rows((1.0, 1.0, 0), (-1.0, 1.0, 1)),
                            SCALAR_QP)
    assert all(reason != "pairwise" for _, reason in out.removed)
    assert out.removed[0] == (0, "residue")  # largest smoothed residue first
    assert out.step == 3


def test_step3_order_descending_residue_ties_low_index():
    bank = stub_bank([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                     thetas={(i, j): np.inf for i in range(3) for j in range(i + 1, 3)},
                     residues=[0.5, 0.9, 0.5])
    # infeasible while 0 and 2 are both active, feasible with 2 alone
    out = resolve_conflicts(bank, [0, 1, 2], [],
                            scalar_rows((1.0, 1.0, 0), (1.0, 1.0, 1), (-1.0, 1.0, 2)),
                            SCALAR_QP)
    assert out.removed == [(1, "residue"), (0, "residue")]
    assert out.Z == [2]


def test_total_infeasibility_event():
    bank = stub_bank([[0.0, 0.0]], thetas={})
    # rows no estimator owns, like the input box, are never pruned
    out = resolve_conflicts(bank, [0], [], scalar_rows((1.0, 1.0, -1), (-1.0, 1.0, -1)),
                            SCALAR_QP)
    assert out.infeasible_event
    assert np.array_equal(out.u, [0.0])


def reference_resolve_conflicts(bank, Z, U, constraint_builder, qp):
    """Steps 1-3 as they were first written: constraint_builder(Z, U)
    assembles the rows of each re-solve afresh and solve_qp solves them from
    scratch. The reference for resolve_conflicts."""
    Z = sorted(Z)
    U = sorted(U)
    rows = constraint_builder(Z, U)
    res = solve_qp(qp, *rows[:2])
    if res.is_feasible:
        return ResolveOutcome(res, res.u, *rows, Z, U, step=1)

    removed = []
    active = sorted(set(Z) | set(U))
    drop = set()
    for a in range(len(active)):
        for b in range(a + 1, len(active)):
            i, j = active[a], active[b]
            if (i, j) not in bank.pairs:
                continue
            if np.linalg.norm(bank.estimate(i) - bank.estimate(j)) > bank.theta(i, j):
                x_ij = bank.pair_estimate(i, j)
                half = bank.theta(i, j) / 2.0
                if np.linalg.norm(bank.estimate(i) - x_ij) > half and i not in drop:
                    drop.add(i)
                    removed.append((i, "pairwise"))
                if np.linalg.norm(bank.estimate(j) - x_ij) > half and j not in drop:
                    drop.add(j)
                    removed.append((j, "pairwise"))
    Z = [i for i in Z if i not in drop]
    U = [i for i in U if i not in drop]
    rows = constraint_builder(Z, U)
    res = solve_qp(qp, *rows[:2])
    if res.is_feasible:
        return ResolveOutcome(res, res.u, *rows, Z, U, removed=removed, step=2)

    residues = bank.residues()
    order = sorted(set(Z) | set(U), key=lambda i: (-residues[i], i))
    for idx in order:
        removed.append((idx, "residue"))
        Z = [i for i in Z if i != idx]
        U = [i for i in U if i != idx]
        rows = constraint_builder(Z, U)
        res = solve_qp(qp, *rows[:2])
        if res.is_feasible:
            return ResolveOutcome(res, res.u, *rows, Z, U, removed=removed, step=3)

    return ResolveOutcome(res, np.zeros(qp.p), *rows, Z, U, removed=removed, step=3,
                          infeasible_event=True)


def test_factored_pruning_matches_the_rebuild_reference(wmr_yaml, monkeypatch):
    """Golden WMR seed 0, with its steps of every kind: rows assembled with
    the run's fixed terms and factored once per step give, at every step,
    the outcome of rebuilding every term and solving afresh per re-solve."""
    from ftcbf.scenarios import load_scenario
    scn = load_scenario(wmr_yaml)
    resolved_at = []

    def checked(bank, Z, U, rows, qp):
        out = resolve_conflicts(bank, Z, U, rows, qp)
        ref = reference_resolve_conflicts(
            bank, Z, U, lambda Zs, Us: assemble_constraints(
                scn.policy, scn.model, scn.chains, bank, scn.clf, Zs, Us)[:3], qp)
        assert np.array_equal(out.u, ref.u)
        assert (out.Z, out.U, out.removed) == (ref.Z, ref.U, ref.removed)
        assert (out.step, out.infeasible_event) == (ref.step, ref.infeasible_event)
        assert np.array_equal(out.A, ref.A) and np.array_equal(out.b, ref.b)
        assert out.sources == ref.sources
        assert out.result.active == ref.result.active
        assert np.array_equal(out.result.multipliers, ref.result.multipliers)
        resolved_at.append(out.step)
        return out

    monkeypatch.setattr(runner, "resolve_conflicts", checked)
    res = run_scenario(scn, 0)
    assert len(resolved_at) == scn.n_steps
    assert {1, 2, 3} <= set(resolved_at)
    assert res.metrics["unfiltered_steps"] == 243


def reference_step_rows(scn, bank):
    """Z, U and (A, b, sources, owners) of a step, every term computed per
    filter from its estimate: shrunk values, rows without fixed terms, the
    CLF value twice, and the input box from np.eye."""
    cfg, model = scn.policy, scn.model
    Z = [i for i, est in enumerate(bank.singles)
         if min(ch.shrunk(ch.rel_degree, est.x_hat, bank.gamma(i)) for ch in scn.chains)
         < cfg.delta]
    U = []
    if cfg.mode in ("sensor_ft_clf", "baseline"):
        U = [j for j, est in enumerate(bank.singles) if scn.clf.value(est.x_hat) > cfg.V_bar]
    rows = []
    for i in Z:
        for ch in scn.chains:
            rows.append((*hoscbf_row(ch, bank.singles[i], model, bank.gamma(i)),
                         f"hoscbf({i})", i))
    for j in U:
        r = clf_row(scn.clf, bank.singles[j], model, bank.gamma(j), decay=cfg.clf_decay)
        if r is not None:
            rows.append((*r, f"clf({j})", j))
    if cfg.u_max is not None:
        for i, e in enumerate(np.eye(model.p)):
            rows += [(e, -cfg.u_max, f"ubox(+{i})", -1), (-e, -cfg.u_max, f"ubox(-{i})", -1)]
    A, b, sources, owners = zip(*rows)
    return Z, U, (np.array(A), np.array(b), list(sources), np.array(owners, dtype=np.intp))


def test_step_rows_equal_the_per_filter_reference_bit_for_bit(wmr_yaml, monkeypatch):
    """Golden WMR seeds 0-1: at every step the runner's active sets and rows,
    built from the run's fixed terms and the step's terms computed once,
    are the bits of computing every term per filter and per row."""
    from ftcbf.scenarios import load_scenario
    scn = load_scenario(wmr_yaml)
    steps = []

    def checked(bank, Z, U, rows, qp):
        ref_Z, ref_U, ref_rows = reference_step_rows(scn, bank)
        assert (Z, U) == (ref_Z, ref_U)
        A, b, sources, owners = rows
        ref_A, ref_b, ref_sources, ref_owners = ref_rows
        assert A.shape == ref_A.shape and A.tobytes() == ref_A.tobytes()
        assert b.dtype == ref_b.dtype and b.tobytes() == ref_b.tobytes()
        assert sources == ref_sources
        assert owners.tolist() == ref_owners.tolist()
        steps.append((len(Z), len(U)))
        return resolve_conflicts(bank, Z, U, rows, qp)

    monkeypatch.setattr(runner, "resolve_conflicts", checked)
    for seed in (0, 1):
        run_scenario(scn, seed)
    assert len(steps) == 2 * scn.n_steps
    # delta = +inf keeps both filters in Z; U shrinks as the estimates near the goal.
    assert {z for z, _ in steps} == {2} and {u for _, u in steps} == {1, 2}


def test_assemble_sensor_clf_counts_and_tags():
    scn = build_scenario({"kind": "wmr", "policy": {"u_max": None}})
    bank = make_bank(scn.model, scn.bank_patterns, scn.x0, gammas=scn.gammas,
                     thetas=scn.thetas)
    A, b, tags, owners = assemble_constraints(scn.policy, scn.model, chains=scn.chains,
                                              bank=bank, clf=scn.clf, Z=[0], U=[0, 1])
    assert tags == ["hoscbf(0)", "clf(0)", "clf(1)"]
    assert owners.tolist() == [0, 0, 1]
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
