import numpy as np
import pytest

from ftcbf import barriers, verifier
from ftcbf.barriers import (HalfPlane, Poly, af_fixed_terms, af_rows, build_chain,
                            ellipsoid_barrier, hoscbf_pair, hoscbf_row)
from ftcbf.errors import ContractError, RedundancyError, UncontrollableBarrierError
from ftcbf.estimators import make_bank
from ftcbf.runner import run_scenario
from ftcbf.scenarios import BOEING_F, BOEING_G, WMR_C, WMR_F, WMR_G, load_scenario
from ftcbf.simulator import SystemModel

from conftest import integrator_model, random_stable_model


class StubEst:
    """Minimal estimator carrier for row assembly."""

    def __init__(self, x_hat, K=None, c_r=None, nu_r=None):
        self.x_hat = np.asarray(x_hat, dtype=float)
        self.K = K
        self.c_r = c_r
        self.nu_r = nu_r


def wmr_model(sigma=0.0, nu=0.0):
    return SystemModel(WMR_F, WMR_G, WMR_C, sigma * np.eye(4), nu * np.eye(6))


def boeing_model():
    return SystemModel(BOEING_F, BOEING_G, np.array([[0, 1, 0, 0.]]),
                       np.zeros((4, 4)), np.zeros((1, 1)))


def test_wmr_chain_degree_one():
    ch = build_chain(HalfPlane((0, 1, 0, 0), 0.1), wmr_model())
    assert ch.rel_degree == 1
    # h^1 = a^T F x + a^T x + b with a^T F = (0, 0, 0, 1)
    assert np.allclose(ch.weights[1], [0, 1, 0, 1])
    assert ch.offsets[1] == pytest.approx(0.1)


def test_boeing_chain_degree_zero():
    ch = build_chain(HalfPlane((0, 1, 0, 0), 0.025), boeing_model())
    assert ch.rel_degree == 0
    assert np.allclose(ch.weights[0] @ BOEING_G, [-0.475, -0.5, -0.3])


def test_integrator_degree_zero():
    ch = build_chain(HalfPlane((1.0, -2.0), 0.3), integrator_model())
    assert ch.rel_degree == 0 and len(ch) == 1


def test_no_relative_degree_raises():
    model = SystemModel(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2),
                        np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(UncontrollableBarrierError):
        build_chain(HalfPlane((1.0, 0.0), 0.0), model)
    forced = build_chain(HalfPlane((1.0, 0.0), 0.0), model, force_degree=0)
    assert forced.rel_degree == 0


def test_forcing_the_natural_degree_builds_the_same_chain():
    """The forced and the tested recursion are one loop: pinning a
    half-plane chain at its natural degree gives the same weights and
    offsets, bit for bit."""
    for h, model, natural in [(HalfPlane((0, 1, 0, 0), 0.1), wmr_model(), 1),
                              (HalfPlane((0, 1, 0, 0), 0.025), boeing_model(), 0)]:
        free = build_chain(h, model)
        forced = build_chain(h, model, force_degree=natural)
        assert free.rel_degree == forced.rel_degree == natural
        assert len(free.weights) == len(forced.weights) == natural + 1
        for w_free, w_forced in zip(free.weights, forced.weights):
            assert w_free.tobytes() == w_forced.tobytes()
        assert free.offsets == forced.offsets


def test_negative_force_degree_is_rejected():
    with pytest.raises(ContractError, match="force_degree"):
        build_chain(HalfPlane((0, 1, 0, 0), 0.1), wmr_model(), force_degree=-1)


def test_scbf_row_plain():
    model = integrator_model()
    a, b = np.array([1.0, 2.0]), 0.4
    ch = build_chain(HalfPlane(tuple(a), b), model)
    est = StubEst([0.3, -0.1])
    row, bound = hoscbf_row(ch, est, model, gamma=0.0)
    assert np.allclose(row, a)
    assert bound == pytest.approx(-(a @ est.x_hat + b))


def test_scbf_row_gamma_terms():
    """Bound moves by exactly the gamma shrink plus the worst-case z term."""
    model = integrator_model()
    a, b = np.array([1.0, 2.0]), 0.4
    ch = build_chain(HalfPlane(tuple(a), b), model)
    K = np.array([[0.3, 0.0], [0.1, 0.2]])
    est = StubEst([0.3, -0.1], K=K, c_r=np.eye(2), nu_r=np.zeros((2, 2)))
    g = 0.25
    b0 = hoscbf_row(ch, est, model, gamma=0.0)[1]
    b1 = hoscbf_row(ch, est, model, gamma=g)[1]
    expected = g * np.linalg.norm(a) + g * np.linalg.norm(a @ K @ np.eye(2))
    assert b1 - b0 == pytest.approx(expected, abs=1e-12)
    # open-loop estimator: the z and trace terms vanish entirely
    est0 = StubEst([0.3, -0.1])
    assert hoscbf_row(ch, est0, model, gamma=g)[1] - b0 == pytest.approx(g * np.linalg.norm(a))


def test_hoscbf_row_wmr():
    model = wmr_model()
    ch = build_chain(HalfPlane((0, 1, 0, 0), 0.1), model)
    est = StubEst(np.array([0.2, -0.05, 0.1, 0.02]))
    row, bound = hoscbf_row(ch, est, model, gamma=0.0)
    assert np.allclose(row, [0.0, 1.0])  # a^T (F+I) G: only u2 enters
    w1 = np.array([0, 1, 0, 1.0])
    assert bound == pytest.approx(-(w1 @ est.x_hat + 0.1) - w1 @ (WMR_F @ est.x_hat))


def test_gamma_monotonicity():
    model = wmr_model(sigma=0.01, nu=0.01)
    ch = build_chain(HalfPlane((0, 1, 0, 0), 0.1), model)
    rng = np.random.default_rng(2)
    K = rng.uniform(-0.5, 0.5, (4, 6))
    est = StubEst(rng.standard_normal(4), K=K, c_r=WMR_C, nu_r=0.01 * np.eye(6))
    bounds = [hoscbf_row(ch, est, model, g)[1] for g in (0.0, 0.05, 0.1, 0.5)]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))


def test_af_rows_boeing():
    model = boeing_model()
    h0 = HalfPlane((0, 1, 0, 0), 0.025)
    patterns = [np.eye(3), np.diag([1.0, 0, 1]), np.diag([0.0, 1, 1])]
    chains = [build_chain(h0, model, input_mask=L) for L in patterns]
    A, b, sources = af_rows([chains], np.zeros(4), patterns, model)
    assert np.allclose(A[1], [-0.475, 0.0, -0.3])
    assert np.allclose(A[0], [-0.475, -0.5, -0.3])
    for bound in b:
        assert bound == pytest.approx(-0.025)
    assert sources == ["af_cbf(0)[0]", "af_cbf(1)[0]", "af_cbf(2)[0]"]


def test_af_rows_identity_patterns_identical():
    model = boeing_model()
    h0 = HalfPlane((0, 1, 0, 0), 0.025)
    patterns = [np.eye(3)] * 3
    chains = [build_chain(h0, model, input_mask=L) for L in patterns]
    A, b, _ = af_rows([chains], np.array([0.1, 0.01, 0.0, 0.0]), patterns, model)
    for row, bound in zip(A[1:], b[1:]):
        assert np.allclose(row, A[0]) and bound == pytest.approx(b[0])


def test_af_rows_over_a_stack_are_each_state_alone(monkeypatch):
    """A stack of states gives each state the rows and bounds, bit for bit,
    that af_rows gives that state alone: for a half-plane (one row vector
    for every state, from fixed terms) and an ellipsoid (a gradient that
    moves with the state, so the set is assembled state by state). One
    state without control authority makes the stack an error."""
    model = boeing_model()
    patterns = [np.eye(3), np.diag([1.0, 0, 1]), np.diag([0.0, 1, 1])]
    hs = [HalfPlane((0, 1, 0, 0), 0.025),
          ellipsoid_barrier(np.diag([1.0, 4.0, 1.0, 1.0]), np.zeros(4))]
    chain_sets = [[build_chain(h, model, input_mask=L, force_degree=0) for L in patterns]
                  for h in hs]
    assert af_fixed_terms(chain_sets[:1], patterns, model) is not None
    assert af_fixed_terms(chain_sets, patterns, model) is None
    per_state = []
    monkeypatch.setattr(barriers, "_af_rows_at",
                        lambda *a, f=barriers._af_rows_at: per_state.append(1) or f(*a))
    X = np.random.default_rng(5).uniform(-0.5, 0.5, (2, 7, 4))
    alpha = lambda s: 2.0 * s  # noqa: E731
    for sets in (chain_sets[:1], chain_sets):
        per_state.clear()
        A, b, sources = af_rows(sets, X, patterns, model, alpha=alpha)
        assert A.shape == (2, 7, 3 * len(sets), 3) and b.shape == (2, 7, 3 * len(sets))
        for idx in np.ndindex(2, 7):
            A1, b1, s1 = af_rows(sets, X[idx], patterns, model, alpha=alpha)
            assert A[idx].tobytes() == A1.tobytes() and b[idx].tobytes() == b1.tobytes()
            assert s1 == sources
        # The ellipsoid's set, and only it, takes the per-state path.
        assert len(per_state) == (0 if len(sets) == 1 else 15)
    X[1, 3] = 0.0
    with pytest.raises(RedundancyError, match="pattern 0 has no control authority"):
        af_rows(chain_sets, X, patterns, model, alpha=alpha)


def test_af_fixed_terms_give_the_per_state_rows_bit_for_bit(boeing_yaml, monkeypatch):
    """Over affine chains af_rows computes only the bounds, from the terms
    af_fixed_terms builds once, and its A, b and sources are the bits that
    the per-state assembly gives each state alone: at every step state of
    golden Boeing seeds 0-3 and at the 2000 states of its verify (sampler
    seed 0), for the golden chains and with the degree-1 bank-angle barrier
    phi <= 0.1 added, under alpha_kappa 1 and 2.5, over the stack and one
    state at a time."""
    scn = load_scenario(boeing_yaml)
    model, patterns = scn.model, scn.af_patterns
    seen = []
    monkeypatch.setattr(verifier, "af_rows",
                        lambda sets, x, *a, f=verifier.af_rows, **kw: seen.append(x) or
                        f(sets, x, *a, **kw))
    rep = verifier.falsify_actuator_region(scn.af_chain_sets, patterns, model, scn.verify_box,
                                           2000, seed=0, alpha=lambda s: s)
    assert rep["counterexample"] is None
    X = np.concatenate([run_scenario(scn, s).states for s in range(4)] + seen)
    assert X.shape == (4 * (scn.n_steps + 1) + 2000, 4)
    phi = [build_chain(HalfPlane((0.0, 0.0, 0.0, -1.0), 0.1), model, input_mask=L)
           for L in patterns]
    assert {ch.rel_degree for ch in phi} == {1}
    for sets in (scn.af_chain_sets, scn.af_chain_sets + [phi]):
        fixed = af_fixed_terms(sets, patterns, model)
        assert fixed is not None and fixed.dead is None
        for kappa in (1.0, 2.5):
            alpha = lambda s, k=kappa: k * s  # noqa: E731
            ref = [barriers._af_rows_at(sets, x, patterns, model, alpha) for x in X]
            assert all(s == ref[0][2] for _, _, s in ref)
            A, b, sources = af_rows(sets, X, patterns, model, alpha=alpha, fixed=fixed)
            assert A.tobytes() == np.array([r[0] for r in ref]).tobytes()
            assert b.tobytes() == np.array([r[1] for r in ref]).tobytes()
            assert sources == ref[0][2]
            for x, (A0, b0, s0) in zip(X, ref):
                A1, b1, s1 = af_rows(sets, x, patterns, model, alpha=alpha)
                assert A1.tobytes() == A0.tobytes() and b1.tobytes() == b0.tobytes()
                assert s1 == s0


def test_chain_values_over_a_trajectory_are_each_state_alone(wmr_yaml, boeing_yaml):
    """value, grad and hessian over a (T, n) stack, and over a (5, 10, n)
    one, give each state the bits they give it alone, at every degree of
    the golden chains, of an ellipsoid chain and of a chain with a cubic
    term; so do QuadraticClf.value and grad at the golden WMR states and
    estimates. A run derives its h and V columns this way. A polynomial is
    evaluated at one state on floats, and an affine gradient is the stored,
    read-only vector."""
    rng = np.random.default_rng(8)
    model = wmr_model(sigma=0.01)
    cubic = Poly(4, {(0, 0, 0, 0): 1.0, (3, 0, 0, 0): -0.5, (0, 2, 0, 0): -1.0,
                     (1, 1, 0, 0): 0.3})
    chains = [*load_scenario(wmr_yaml).chains, *load_scenario(boeing_yaml).chains,
              build_chain(ellipsoid_barrier(np.diag([1.0, 4.0, 0.0, 0.0]), np.zeros(4)), model),
              build_chain(cubic, model)]
    assert [len(ch) for ch in chains] == [2, 1, 1, 2, 2]
    X = rng.uniform(-1.0, 1.0, (50, 4))
    for ch in chains:
        for d in range(len(ch)):
            for method, shape in ((ch.value, ()), (ch.grad, (4,)), (ch.hessian, (4, 4))):
                stacked = method(d, X)
                alone = np.array([method(d, x) for x in X])
                if ch.kind == "affine" and method != ch.value:
                    # one gradient or Hessian for every state
                    assert stacked.tobytes() == alone[0].tobytes() and stacked.shape == shape
                    assert np.all(alone == alone[0])
                else:
                    assert stacked.shape == (50,) + shape
                    assert stacked.tobytes() == alone.tobytes()
                    assert method(d, X.reshape(5, 10, 4)).tobytes() == alone.tobytes()
            if ch.kind == "poly":
                assert type(ch.value(d, X[0])) is float
            else:
                assert not ch.grad(d, X).flags.writeable
    scn = load_scenario(wmr_yaml)
    res = run_scenario(scn, 0)
    states = np.concatenate([res.states, res.estimates.reshape(-1, 4)])
    for method in (scn.clf.value, scn.clf.grad):
        assert method(states).tobytes() == np.array([method(x) for x in states]).tobytes()
    assert res.V.tobytes() == np.array([scn.clf.value(x) for x in res.states]).tobytes()


def test_hoscbf_pair_over_a_stack_is_each_sample_alone(wmr_yaml):
    """hoscbf_pair over a (300, n) stack of estimates and errors gives each
    sample the row and bound, bit for bit, that the sample alone gives: for
    the golden WMR chain and an ellipsoid chain, under each golden filter's
    gain, with sampled errors and with the worst case."""
    scn = load_scenario(wmr_yaml)
    bank = make_bank(scn.model, scn.bank_patterns, scn.x0, with_pairs=False)
    ell = build_chain(ellipsoid_barrier(np.diag([4.0, 9.0, 0.0, 0.0]), [0.1, -0.2, 0.0, 0.0]),
                      scn.model)
    rng = np.random.default_rng(5)
    X, Z = rng.uniform(-1.0, 1.0, (300, 4)), 0.01 * rng.standard_normal((300, 4))
    for ch, gamma in ((scn.chains[0], float(scn.gammas[0])), (ell, 0.0)):
        for est in bank.singles:
            for z in (Z, None):
                row, bound = hoscbf_pair(ch, est, scn.model, X, gamma, z=z)
                assert row.shape == ((300, 2) if ch.kind == "poly" else (2,))
                alone = [hoscbf_pair(ch, est, scn.model, X[k], gamma,
                                     z=None if z is None else z[k]) for k in range(300)]
                assert (np.broadcast_to(row, (300, 2)).tobytes()
                        == np.array([r for r, _ in alone]).tobytes())
                assert bound.tobytes() == np.array([b for _, b in alone]).tobytes()


def test_af_redundancy_violation():
    model = boeing_model()
    dead = np.zeros((3, 3))
    with pytest.raises(UncontrollableBarrierError):
        build_chain(HalfPlane((0, 1, 0, 0), 0.025), model, input_mask=dead)
    ch = build_chain(HalfPlane((0, 1, 0, 0), 0.025), model, input_mask=dead, force_degree=0)
    with pytest.raises(RedundancyError):
        af_rows([[ch]], np.zeros(4), [dead], model)


def test_chain_recursion_against_finite_differences():
    """Numeric recursion oracle: FD gradient/Hessian of the chain's own h^d."""
    rng = np.random.default_rng(17)
    eps = 1e-5
    for _ in range(10):
        model = random_stable_model(rng, n=3, p=2)
        a = rng.uniform(-1, 1, 3)
        ch = build_chain(HalfPlane(tuple(a), float(rng.uniform(-1, 1))), model,
                         force_degree=3)
        for d in range(3):
            for _ in range(20):
                x = rng.uniform(-2, 2, 3)
                grad = np.array([
                    (ch.value(d, x + eps * e) - ch.value(d, x - eps * e)) / (2 * eps)
                    for e in np.eye(3)])
                rhs = grad @ (model.F @ x) + ch.value(d, x)  # affine: Hessian term is 0
                assert abs(ch.value(d + 1, x) - rhs) < 1e-6


def test_poly_chain_recursion_with_hessian():
    """Ellipsoid barrier: the trace term is live; compare against FD oracle."""
    rng = np.random.default_rng(23)
    model = random_stable_model(rng, n=2, p=2, sigma=0.3)
    M = rng.uniform(-1, 1, (2, 2))
    Phi = M @ M.T + 0.5 * np.eye(2)
    h = ellipsoid_barrier(Phi, rng.uniform(-0.5, 0.5, 2))
    ch = build_chain(h, model, force_degree=2)
    Q = model.sigma @ model.sigma.T
    eps = 1e-4
    for _ in range(50):
        x = rng.uniform(-1.5, 1.5, 2)
        grad = np.array([(ch.value(0, x + eps * e) - ch.value(0, x - eps * e)) / (2 * eps)
                         for e in np.eye(2)])
        H = np.zeros((2, 2))
        for i, ei in enumerate(np.eye(2)):
            for j, ej in enumerate(np.eye(2)):
                H[i, j] = (ch.value(0, x + eps * ei + eps * ej) - ch.value(0, x + eps * ei - eps * ej)
                           - ch.value(0, x - eps * ei + eps * ej) + ch.value(0, x - eps * ei - eps * ej)) / (4 * eps * eps)
        rhs = grad @ (model.F @ x) + 0.5 * np.trace(Q @ H) + ch.value(0, x)
        assert abs(ch.value(1, x) - rhs) < 1e-6


def test_row_soundness_over_gamma_ball():
    """row.u >= bound implies the exact inequality for every ||z|| <= gamma."""
    rng = np.random.default_rng(31)
    model = wmr_model(sigma=0.01, nu=0.01)
    ch = build_chain(HalfPlane((0, 1, 0, 0), 0.1), model)
    gamma = 0.2
    K = rng.uniform(-0.5, 0.5, (4, 6))
    est = StubEst(rng.standard_normal(4), K=K, c_r=WMR_C, nu_r=0.01 * np.eye(6))
    r_row, r_bound = hoscbf_row(ch, est, model, gamma)
    d = ch.rel_degree
    w = ch.grad(d, est.x_hat)
    KN = est.K @ est.nu_r
    trace = 0.5 * np.trace(KN.T @ ch.hessian(d, est.x_hat) @ KN)
    hshrunk = ch.shrunk(d, est.x_hat, gamma)
    for _ in range(1000):
        u = rng.standard_normal(2)
        gap = r_row @ u - r_bound
        if gap < 0:
            u = u + r_row * (-gap + 0.01) / (r_row @ r_row)
        z = rng.standard_normal(4)
        z = z / np.linalg.norm(z) * gamma * rng.random()
        lhs = (w @ (model.f(est.x_hat) + model.G @ u)
               + w @ est.K @ est.c_r @ z + trace)
        assert lhs >= -hshrunk - 1e-9
    # the worst case is attained at z* = -gamma (w K c)^T / ||w K c||: the
    # verifier's exact-z row there is the policy's row
    wKc = w @ est.K @ est.c_r
    z_star = -gamma * wKc / np.linalg.norm(wKc)
    row, bound = hoscbf_pair(ch, est, model, est.x_hat, gamma, z=z_star)
    assert np.array_equal(row, r_row)
    assert bound == pytest.approx(r_bound, abs=1e-12)


def test_gamma_offset_affine_exact():
    model = wmr_model()
    ch = build_chain(HalfPlane((0, 1, 0, 0), 0.1), model)
    assert ch.gamma_offset(0, 0.3) == pytest.approx(0.3)
    assert ch.gamma_offset(1, 0.3) == pytest.approx(0.3 * np.sqrt(2))


def test_gamma_offset_of_a_polynomial_chain_is_an_error():
    """No bound backs the shrink of a polynomial barrier over the gamma ball,
    so only gamma = 0 leaves one unshrunk."""
    h = ellipsoid_barrier(np.eye(2), np.zeros(2))  # h = 1 - ||x||^2
    ch = build_chain(h, integrator_model(), force_degree=0)
    assert ch.kind == "poly"
    assert ch.gamma_offset(0, 0.0) == 0.0
    assert ch.shrunk(0, np.array([0.5, 0.0]), 0.0) == pytest.approx(0.75)
    with pytest.raises(ContractError, match="cannot shrink a polynomial barrier"):
        ch.gamma_offset(0, 0.2)


def test_poly_arithmetic():
    p = Poly.affine(np.array([2.0, -1.0]), 0.5)
    q = p * p
    x = np.array([0.3, 0.7])
    assert q.eval(x) == pytest.approx(p.eval(x) ** 2)
    assert p.diff(0).eval(x) == pytest.approx(2.0)
    assert (p + 1.5).eval(x) == pytest.approx(p.eval(x) + 1.5)
