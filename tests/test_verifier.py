import tracemalloc

import numpy as np
import pytest

import ftcbf.optimizer as optimizer
import ftcbf.verifier as verifier
from ftcbf.barriers import HalfPlane, af_rows, build_chain, hoscbf_pair
from ftcbf.cli import _report_json
from ftcbf.errors import RedundancyError, SolverError
from ftcbf.estimators import make_bank
from ftcbf.optimizer import farkas_certificate
from ftcbf.scenarios import PRESETS, build_scenario, load_scenario
from ftcbf.simulator import SystemModel
from ftcbf.verifier import (falsify_actuator_region, falsify_region,
                            falsify_sensor_region, latin_hypercube)

from conftest import integrator_model


def no_authority_model(nu=0.01):
    return SystemModel(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 1)),
                       np.array([[1.0, 0.0]]), np.zeros((2, 2)), nu * np.eye(1))


def ft_certificate(chains, model, estimates, zs, gammas):
    """The Farkas certificate of the m-estimator set at one configuration
    of estimates and errors, without filter gains: None when the set is
    feasible."""
    m = len(gammas)
    A, b = verifier._ft_rows(chains, model, [None] * m, np.asarray(estimates, dtype=float),
                             np.asarray(zs, dtype=float), gammas)
    return farkas_certificate(A, b)


def pointwise(ch, model, x_hat, gamma):
    """The m = 1 certificate at one estimate with a zero error."""
    return ft_certificate([ch], model, [x_hat], [np.zeros(model.n)], [gamma])


def test_pointwise_control_enters():
    model = integrator_model()
    ch = build_chain(HalfPlane((1.0, 0.0), 0.2), model)
    assert pointwise(ch, model, [5.0, 0.0], gamma=0.1) is None


def test_pointwise_no_authority_but_interior():
    model = no_authority_model()
    ch = build_chain(HalfPlane((1.0, 0.0), 0.5), model, force_degree=0)
    # h(x_hat) = x1 + 0.5 > 0 and xi = dh/dx f + hat h = x2 + hat h
    assert pointwise(ch, model, [1.0, 0.0], gamma=0.0) is None


def test_pointwise_counterexample_outside_shrunk_set():
    model = no_authority_model()
    ch = build_chain(HalfPlane((1.0, 0.0), 0.5), model, force_degree=0)
    assert pointwise(ch, model, [-0.6, 0.0], gamma=0.0) is not None


def test_ft_set_m1_reduces_to_pointwise():
    """With m = 1 and no control authority the set is the single slack row
    0.u <= xi: infeasible exactly where xi < 0, certified by y > 0."""
    model = no_authority_model()
    ch = build_chain(HalfPlane((1.0, 0.0), 0.5), model, force_degree=0)
    for x1 in (-0.6, -0.51, -0.49, 1.0):
        y = pointwise(ch, model, [x1, 0.0], gamma=0.0)
        assert (y is None) is (x1 + 0.5 >= 0.0)
        if y is not None:
            assert y.shape == (1,) and y[0] > 0


def test_ft_set_parallel_vs_antiparallel():
    model = integrator_model()
    ch = build_chain(HalfPlane((1.0, 0.0), 0.2), model)
    assert ft_certificate([ch], model, [np.ones(2), 2 * np.ones(2)], np.zeros((2, 2)),
                          [0.0, 0.0]) is None
    # anti-parallel with conflicting bounds via direct Farkas assembly
    y = farkas_certificate(np.array([[-1.0], [1.0]]), np.array([1.0, 1.0]))
    assert y is not None and abs(y[0] - y[1]) < 1e-9


def test_ft_set_agrees_with_bruteforce_lp():
    """Farkas verdict on the verifier's rows vs scipy linprog on the
    independently assembled system."""
    from scipy.optimize import linprog
    rng = np.random.default_rng(77)
    agree = 0
    for _ in range(100):
        n, p, m = 2, int(rng.integers(1, 4)), int(rng.integers(1, 5))
        model = SystemModel(rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, p)),
                            np.eye(n), 0.1 * np.eye(n), 0.1 * np.eye(n))
        a = rng.uniform(-1, 1, n)
        ch = build_chain(HalfPlane(tuple(a), float(rng.uniform(-1, 1))), model,
                         force_degree=0)
        estimates = [rng.uniform(-2, 2, n) for _ in range(m)]
        zs = [rng.uniform(-0.1, 0.1, n) for _ in range(m)]
        gammas = [0.1] * m
        feasible = ft_certificate([ch], model, estimates, zs, gammas) is None
        A, Xi = [], []
        for i in range(m):
            w = ch.grad(0, estimates[i])
            A.append(-(w @ model.G))
            Xi.append(float(w @ model.f(estimates[i])) + ch.shrunk(0, estimates[i], 0.1))
        lp = linprog(np.zeros(p), A_ub=np.array(A), b_ub=np.array(Xi),
                     bounds=[(None, None)] * p, method="highs")
        agree += feasible == (lp.status == 0)
    assert agree == 100


def test_latin_hypercube_stratified():
    rng = np.random.default_rng(0)
    pts = latin_hypercube(rng, 64, 3, -1.0, 1.0)
    assert pts.shape == (64, 3)
    for d in range(3):
        counts, _ = np.histogram(pts[:, d], bins=64, range=(-1, 1))
        assert np.all(counts == 1)


# One input u under the rows u >= b0 and -u >= b1: feasible with b = -1,
# infeasible with b = 1.
PAIR = np.array([[1.0], [-1.0]])


def pair_rows(infeasible, lo, hi):
    """rows(lo, hi) of samples that are feasible except where infeasible(k)."""
    k = np.arange(lo, hi)
    b = np.where(infeasible(k), 1.0, -1.0)[:, None] * np.ones(2)
    return np.broadcast_to(PAIR, (hi - lo, 2, 1)), b


def test_falsify_region_deterministic_and_counts():
    asked = []

    def point(k):
        asked.append(k)
        return {"k": k}

    rep = falsify_region(lambda lo, hi: pair_rows(lambda k: k >= 5, lo, hi), point,
                         {"seeds": [0]}, budget=20)
    assert rep["counterexample"]["point"] == {"k": 5} and not rep["counterexample"]["feasible"]
    assert rep["samples"] == 6 and asked == [5]
    rep = falsify_region(lambda lo, hi: pair_rows(lambda k: k < 0, lo, hi), point, {},
                         budget=200)
    assert rep["counterexample"] is None and rep["samples"] == 200 and asked == [5]
    with pytest.raises(Exception):
        falsify_region(lambda lo, hi: pair_rows(lambda k: k >= 5, lo, hi), point, {}, budget=0)


@pytest.mark.parametrize("infeasible, raising, first", [
    (None, 70, 70), (100, 70, 70), (66, 70, 66), (70, 66, 66), (None, 0, 0), (127, 64, 64)])
def test_falsify_region_decides_a_raising_block_sample_by_sample(infeasible, raising, first):
    """A block whose rows cannot be assembled is decided as a sample-by-sample
    loop decides it: the first infeasible or failing sample is reported, a
    failing one with the reason its rows cannot be assembled."""
    asked = []

    def rows(lo, hi):
        asked.append((lo, hi))
        if lo <= raising < hi:
            raise RedundancyError("pattern 0 has no control authority")
        return pair_rows(lambda k: k == infeasible, lo, hi)

    rep = falsify_region(rows, lambda k: {"k": k}, {"seeds": [5]}, budget=500)
    if first == raising:
        assert rep["counterexample"] == {"feasible": False, "certificate": None,
                                         "reason": "pattern 0 has no control authority",
                                         "point": {"k": first}}
    else:
        assert not rep["counterexample"]["feasible"]
        assert rep["counterexample"]["point"] == {"k": first}
    assert rep["samples"] == first + 1
    assert all(hi - lo <= verifier._BLOCK for lo, hi in asked)


# Infeasible rows (HiGHS agrees) whose Farkas solve raises: rows 0 and 2 are
# 5e-10 rad from antiparallel, a pivot above the kernel's 1e-10 rule, so
# they do not count as dependent and no pair of them gives a certificate.
UNDECIDED = (np.array([[0.6737036996966224, 0.6386870411332577],
                       [0.6737036996966224, 0.6386870411332577],
                       [-1.0919374273080213, -1.0351825076201726]]),
             np.array([-0.6250016982731227, -0.6250016982731227, 1.4337627928084473]))


def reference_region(rows, budget):
    """falsify_region over a list of (A, b) samples as a sample-by-sample
    loop: one farkas_certificate per sample, its error or its counterexample."""
    for k in range(budget):
        try:
            y = farkas_certificate(*rows[k])
        except SolverError as exc:
            return k, str(exc)
        if y is not None:
            return k, y.tobytes()
    return None


@pytest.mark.parametrize("infeasible, undecided", [(None, 70), (66, 70), (100, 70), (70, 64)])
def test_falsify_region_reports_a_real_undecided_sample(infeasible, undecided):
    """A sample whose Farkas solve raises, before, after or without an
    infeasible one, among feasible samples on its own row matrix: the
    stacked verdicts leave it unsettled without raising, and its report
    raises as the sample loop does, named by its index and chained to the
    error of its own solve."""
    A, b = UNDECIDED
    with pytest.raises(SolverError, match="no KKT active set and no Farkas certificate"):
        farkas_certificate(A, b)
    rng = np.random.default_rng(4)
    # Feasible bounds on the same rows, and an infeasible pair on other rows.
    rows = [(A, A @ rng.uniform(-1, 1, 2) - rng.uniform(0, 1, 3)) for _ in range(200)]
    rows[undecided] = UNDECIDED
    if infeasible is not None:
        rows[infeasible] = (np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                            np.array([1.0, 1.0, -1.0]))
    stack_A, stack_b = map(np.array, zip(*rows))

    def stacked(lo, hi):
        return stack_A[lo:hi], stack_b[lo:hi]

    unsettled = sorted(i for i in (infeasible, undecided) if i is not None)
    assert np.flatnonzero(~optimizer.farkas_verdicts(stack_A, stack_b)).tolist() == unsettled
    k, ref = reference_region(rows, len(rows))
    assert k == unsettled[0]
    if isinstance(ref, str):
        with pytest.raises(SolverError) as err:
            falsify_region(stacked, lambda k: {"k": k}, {"seeds": [9]}, budget=len(rows))
        assert str(err.value) == f"sample {k} of sampler seed 9: {ref}"
        assert type(err.value.__cause__) is SolverError and str(err.value.__cause__) == ref
    else:
        rep = falsify_region(stacked, lambda k: {"k": k}, {"seeds": [9]}, budget=len(rows))
        assert rep["samples"] == k + 1
        assert rep["counterexample"]["certificate"].tobytes() == ref


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

    monkeypatch.setattr(optimizer, "_record", None)
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


def _reference_to_level(x, value, w):
    nrm2 = float(w @ w)
    if nrm2 <= 1e-14:
        return x
    return x - value * w / nrm2


def reference_actuator_region(af_chain_sets, patterns, model, box, budget, seed):
    """falsify_actuator_region as a sample-by-sample loop: one state, one
    af_rows and one farkas_certificate per sample."""
    pts = latin_hypercube(np.random.default_rng(seed), budget, model.n, -box, box)
    chains = [cs[0] for cs in af_chain_sets]
    for k in range(budget):
        x = pts[k].copy()
        if k % 2 == 1:
            ch = chains[k // 2 % len(chains)]
            x = _reference_to_level(x, ch.value(0, x), ch.grad(0, x))
        for ch in chains:
            v = ch.value(0, x)
            if v < 0.0:
                x = _reference_to_level(x, v, ch.grad(0, x))
        try:
            A, b, _ = af_rows(af_chain_sets, x, patterns, model)
        except RedundancyError as exc:
            out = {"feasible": False, "certificate": None, "reason": str(exc),
                   "point": {"x": x.tolist()}}
            break
        y = farkas_certificate(A, b)
        out = {"feasible": y is None, "certificate": y, "point": {"x": x.tolist()}}
        if y is not None:
            break
    found = not out["feasible"]
    return {"checked_conditions": f"actuator CBF set, patterns={len(patterns)}, box={box}",
            "samples": k + 1, "budget": budget, "counterexample": out if found else None,
            "seeds": [seed],
            "verdict": "counterexample" if found else f"no counterexample in {budget} samples"}


def slab_region():
    """One input moving x1 between two barriers whose rows oppose each other.
    Their bounds meet unless x2 is above about 0.95, so counterexamples lie
    in a thin strip of the box [-1, 1]^2."""
    model = SystemModel(np.diag([0.0, -3.0]), np.array([[1.0], [0.0]]), np.eye(2),
                        np.zeros((2, 2)), np.eye(2))
    barriers = [HalfPlane((1.0, 0.0), 1.0), HalfPlane((-1.0, 0.5), -0.05)]
    L = np.eye(1)
    return [[build_chain(h, model, input_mask=L)] for h in barriers], [L], model


@pytest.mark.parametrize("seed, first", [(12, 0), (470, 63), (77, 64), (2454, 127)])
def test_falsify_actuator_block_edges_match_the_sample_loop(seed, first):
    """The first counterexample at a block's first sample, at its last and
    at the next block's first: each report is the sample loop's, bytes and
    all."""
    assert verifier._BLOCK == 64
    chain_sets, patterns, model = slab_region()
    ref = reference_actuator_region(chain_sets, patterns, model, 1.0, 200, seed)
    assert ref["samples"] == first + 1
    rep = falsify_actuator_region(chain_sets, patterns, model, box=1.0, budget=200, seed=seed)
    assert _report_json(rep) == _report_json(ref)


def test_falsify_actuator_golden_and_dead_pattern_match_the_sample_loop():
    scn = build_scenario({"kind": "boeing"})
    dead = [np.zeros((3, 3))]
    dead_sets = [[build_chain(HalfPlane(tuple(s["a"]), s["b"]), scn.model,
                              input_mask=dead[0], force_degree=0)]
                 for s in PRESETS["boeing"]["barriers"]]
    for chain_sets, patterns, budget in ((scn.af_chain_sets, scn.af_patterns, 300),
                                         (dead_sets, dead, 50)):
        rep = falsify_actuator_region(chain_sets, patterns, scn.model, 1.0, budget, seed=3)
        ref = reference_actuator_region(chain_sets, patterns, scn.model, 1.0, budget, 3)
        assert _report_json(rep) == _report_json(ref)


def reference_sensor_region(chains, model, ests, gammas, thetas, box, budget, seed):
    """falsify_sensor_region as a sample-by-sample loop: the same draws in the
    same order, then one-sample hoscbf_pair calls and one farkas_certificate
    per sample."""
    m, n = len(ests), model.n
    rng = np.random.default_rng(seed)
    pts = latin_hypercube(rng, budget, n, -box, box)
    v = rng.standard_normal((budget, 2 * m, n))
    u = rng.random((budget, 2 * m))
    radii = [min(thetas.values()) / 2.0] * m + list(gammas)
    out = None
    for k in range(budget):
        base = pts[k]
        if k % 2 == 1:
            ch = chains[k // 2 % len(chains)]
            d = ch.rel_degree
            base = _reference_to_level(base, ch.shrunk(d, base, max(gammas)), ch.grad(d, base))
        offsets = [v[k, i] / np.linalg.norm(v[k, i]) * (radii[i] * u[k, i] ** (1.0 / n))
                   for i in range(2 * m)]
        estimates, zs = [base + o for o in offsets[:m]], offsets[m:]
        pairs = [hoscbf_pair(ch, ests[i], model, estimates[i], gammas[i], z=zs[i])
                 for i in range(m) for ch in chains]
        y = farkas_certificate(np.array([row for row, _ in pairs]),
                               np.array([bound for _, bound in pairs]))
        if y is not None:
            out = {"feasible": False, "certificate": y,
                   "point": {"estimates": [e.tolist() for e in estimates],
                             "zs": [z.tolist() for z in zs]}}
            break
    return {"checked_conditions": f"sensor FT-HOSCBF set, m={m}, box={box}",
            "samples": budget if out is None else k + 1, "budget": budget,
            "counterexample": out, "seeds": [seed],
            "verdict": "counterexample" if out else f"no counterexample in {budget} samples"}


def sensor_slab():
    """Two opposed half-planes under one input that moves x1 and two
    estimates without a gain: the sensor counterpart of slab_region."""
    model = SystemModel(np.diag([0.0, -3.0]), np.array([[1.0], [0.0]]), np.eye(2),
                        np.zeros((2, 2)), np.eye(2))
    chains = [build_chain(HalfPlane((1.0, 0.0), 1.0), model),
              build_chain(HalfPlane((-1.0, 0.5), 0.02), model)]
    return chains, model, [None, None], [0.01, 0.01], {(0, 1): 0.02}


@pytest.mark.parametrize("seed, first", [(316, 0), (87, 63), (77, 64), (62, 127), (2, None)])
def test_falsify_sensor_block_edges_match_the_sample_loop(seed, first):
    """The first counterexample at a block's first sample, at its last, at
    the next block's first and at the second block's last, and a clean
    run: each report is the sample loop's, bytes and all."""
    assert verifier._BLOCK == 64
    args = (*sensor_slab(), 1.0, 200)
    ref = reference_sensor_region(*args, seed)
    assert ref["samples"] == (200 if first is None else first + 1)
    assert (ref["counterexample"] is None) is (first is None)
    assert _report_json(falsify_sensor_region(*args, seed=seed)) == _report_json(ref)


def test_falsify_sensor_golden_wmr_matches_the_sample_loop(wmr_yaml):
    scn = load_scenario(wmr_yaml)
    bank = make_bank(scn.model, scn.bank_patterns, scn.x0, with_pairs=False)
    args = (scn.chains, scn.model, bank.singles, [float(g) for g in scn.gammas], scn.thetas,
            scn.verify_box, 300)
    ref = reference_sensor_region(*args, 3)
    assert ref["counterexample"] is None
    assert _report_json(falsify_sensor_region(*args, seed=3)) == _report_json(ref)


def test_every_golden_wmr_sample_meets_the_theta_premise(wmr_yaml, monkeypatch):
    """The sampler keeps each sibling estimate within theta_min / 2 of its
    base, so no sample of a golden verify is vacuous: the falsifier needs no
    premise check."""
    scn = load_scenario(wmr_yaml)
    bank = make_bank(scn.model, scn.bank_patterns, scn.x0, with_pairs=False)
    drawn, ft_rows = [], verifier._ft_rows

    def recorded(chains, model, ests, estimates, zs, gammas):
        drawn.extend(estimates)
        return ft_rows(chains, model, ests, estimates, zs, gammas)

    monkeypatch.setattr(verifier, "_ft_rows", recorded)
    for seed in range(5):
        rep = falsify_sensor_region(scn.chains, scn.model, bank.singles,
                                    [float(g) for g in scn.gammas], scn.thetas,
                                    scn.verify_box, 2000, seed=seed)
        assert rep["counterexample"] is None
    assert len(drawn) == 10_000
    for (i, j), theta in scn.thetas.items():
        assert all(np.linalg.norm(e[i] - e[j]) <= theta for e in drawn)


def test_boeing_verify_allocation_peak_is_bounded(boeing_yaml):
    """A 2000-sample verify of the golden Boeing scenario holds one block of
    samples at a time: its traced allocation peak stays under 2 MB (0.7 MB
    with blocks of 64; blocks of 256 reach 2.2 MB)."""
    scn = load_scenario(boeing_yaml)
    alpha = lambda s, k=scn.policy.alpha_kappa: k * s  # noqa: E731
    args = (scn.af_chain_sets, scn.af_patterns, scn.model, scn.verify_box)
    falsify_actuator_region(*args, 100, seed=0, alpha=alpha)
    tracemalloc.start()
    try:
        rep = falsify_actuator_region(*args, 2000, seed=0, alpha=alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["counterexample"] is None
    assert peak < 2_000_000
