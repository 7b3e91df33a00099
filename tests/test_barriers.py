import numpy as np
import pytest

from ftcbf.barriers import (BarrierChain, HalfPlane, Poly, af_rows, build_chain,
                            ellipsoid_barrier, hoscbf_pair, hoscbf_row)
from ftcbf.errors import RedundancyError, UncontrollableBarrierError
from ftcbf.scenarios import BOEING_F, BOEING_G, WMR_C, WMR_F, WMR_G
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
    return SystemModel.linear(WMR_F, WMR_G, WMR_C, sigma * np.eye(4), nu * np.eye(6))


def boeing_model():
    return SystemModel.linear(BOEING_F, BOEING_G, np.array([[0, 1, 0, 0.]]),
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
    model = SystemModel.linear(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2),
                               np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(UncontrollableBarrierError):
        build_chain(HalfPlane((1.0, 0.0), 0.0), model)
    forced = build_chain(HalfPlane((1.0, 0.0), 0.0), model, force_degree=0)
    assert forced.rel_degree == 0


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
    A, b, sources = af_rows(chains, np.zeros(4), patterns, model)
    assert np.allclose(A[1], [-0.475, 0.0, -0.3])
    assert np.allclose(A[0], [-0.475, -0.5, -0.3])
    for bound in b:
        assert bound == pytest.approx(-0.025)
    assert sources[0].startswith("af_cbf(0)")


def test_af_rows_identity_patterns_identical():
    model = boeing_model()
    h0 = HalfPlane((0, 1, 0, 0), 0.025)
    patterns = [np.eye(3)] * 3
    chains = [build_chain(h0, model, input_mask=L) for L in patterns]
    A, b, _ = af_rows(chains, np.array([0.1, 0.01, 0.0, 0.0]), patterns, model)
    for row, bound in zip(A[1:], b[1:]):
        assert np.allclose(row, A[0]) and bound == pytest.approx(b[0])


def test_af_redundancy_violation():
    model = boeing_model()
    dead = np.zeros((3, 3))
    with pytest.raises(UncontrollableBarrierError):
        build_chain(HalfPlane((0, 1, 0, 0), 0.025), model, input_mask=dead)
    ch = build_chain(HalfPlane((0, 1, 0, 0), 0.025), model, input_mask=dead, force_degree=0)
    with pytest.raises(RedundancyError):
        af_rows([ch], np.zeros(4), [dead], model)


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
        lhs = (w @ (model.f(est.x_hat) + model.g(est.x_hat) @ u)
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


def test_gamma_offset_poly_sphere_estimate():
    h = ellipsoid_barrier(np.eye(2), np.zeros(2))  # h = 1 - ||x||^2
    ch = BarrierChain("poly", 0, polys=[h], grads=[[h.diff(0), h.diff(1)]],
                      hessians=[[[h.diff(0).diff(0), h.diff(0).diff(1)],
                                 [h.diff(1).diff(0), h.diff(1).diff(1)]]],
                      gamma_box=2.0)
    gamma = 0.2
    exact = 2 * gamma - gamma ** 2  # h at distance gamma inside the unit circle
    assert ch.gamma_offset(0, gamma) == pytest.approx(exact, abs=2e-2)


def test_poly_arithmetic():
    p = Poly.affine(np.array([2.0, -1.0]), 0.5)
    q = p * p
    x = np.array([0.3, 0.7])
    assert q.eval(x) == pytest.approx(p.eval(x) ** 2)
    assert p.diff(0).eval(x) == pytest.approx(2.0)
    assert (p + 1.5).eval(x) == pytest.approx(p.eval(x) + 1.5)
