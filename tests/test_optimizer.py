from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from ftcbf.errors import ContractError, SolverError
from ftcbf.optimizer import _SUBSET_BUDGET, QpProblem, QpResult, farkas_certificate, solve_qp


def test_single_row_projection():
    res = solve_qp(QpProblem(np.eye(3)), np.array([[1.0, 0.0, 0.0]]), np.array([1.0]))
    assert res.is_feasible
    assert np.allclose(res.u, [1, 0, 0], atol=1e-9)
    assert res.active == (0,)


def test_separable_rows():
    res = solve_qp(QpProblem(np.eye(2)), np.eye(2), [1.0, 2.0])
    assert np.allclose(res.u, [1, 2], atol=1e-9)


def test_contradictory_bounds_certificate():
    # u <= 1 and u >= 2
    res = solve_qp(QpProblem(np.eye(1)), np.array([[-1.0], [1.0]]), [-1.0, 2.0])
    assert res.status == "infeasible"
    y = res.certificate
    assert y is not None and np.all(y >= 0)
    assert abs(y[0] - y[1]) < 1e-9  # equal multipliers up to scale


def test_empty_rows_returns_zero():
    res = solve_qp(QpProblem(np.eye(4)), np.zeros((0, 4)), np.zeros(0))
    assert np.array_equal(res.u, np.zeros(4))


def test_degenerate_zero_rows():
    res = solve_qp(QpProblem(np.eye(2)), np.array([[0.0, 0.0], [1.0, 0.0]]),
                   np.array([-1.0, -5.0]))
    assert res.is_feasible and np.allclose(res.u, 0.0)
    res = solve_qp(QpProblem(np.eye(2)), np.array([[0.0, 0.0]]), np.array([0.5]))
    assert res.status == "infeasible"
    y = res.certificate
    A, Xi = -np.array([[0.0, 0.0]]), -np.array([0.5])
    assert np.max(np.abs(A.T @ y)) <= 1e-9 and Xi @ y < 0


def test_r_validation():
    with pytest.raises(ContractError):
        QpProblem(np.array([[1.0, 0.0], [0.5, 1.0]]))
    with pytest.raises(ContractError):
        QpProblem(np.diag([1.0, 0.0]))
    with pytest.raises(ContractError, match="finite"):
        QpProblem(np.diag([1.0, np.inf]))


def test_rows_must_be_finite_and_match_r():
    qp = QpProblem(np.eye(2))
    with pytest.raises(ContractError, match="non-finite"):
        solve_qp(qp, np.array([[1.0, np.nan]]), np.array([0.0]))
    with pytest.raises(ContractError, match="non-finite"):
        solve_qp(qp, np.array([[1.0, 0.0]]), np.array([np.inf]))
    with pytest.raises(ContractError, match="do not match R"):
        solve_qp(qp, np.ones((1, 3)), np.zeros(1))
    with pytest.raises(ContractError, match="do not match R"):
        solve_qp(qp, np.ones((2, 2)), np.zeros(1))


def test_farkas_examples():
    assert farkas_certificate(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])) is None
    y = farkas_certificate(np.array([[1.0], [-1.0]]), np.array([1.0, -2.0]))
    assert y is not None
    assert abs(y[0] - y[1]) < 1e-9
    assert np.isclose(np.array([1.0, -2.0]) @ y, -1.0)


def test_scale_equivariance():
    rng = np.random.default_rng(11)
    A = rng.uniform(-1, 1, (4, 3))
    b = A @ rng.uniform(-1, 1, 3) - rng.uniform(0.1, 1.0, 4)
    M = rng.uniform(-1, 1, (3, 3))
    R = M @ M.T + np.eye(3)
    u1 = solve_qp(QpProblem(R), A, b).u
    u2 = solve_qp(QpProblem(7.5 * R), A, b).u
    assert np.allclose(u1, u2, atol=1e-8)


def test_exactly_one_outcome_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m, p = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        A = rng.uniform(-1, 1, (m, p))
        b = rng.uniform(-1, 1, m)
        res = solve_qp(QpProblem(np.eye(p)), A, b)
        if res.is_feasible:
            assert res.certificate is None
            assert np.min(A @ res.u - b) >= -1e-9
        else:
            y = res.certificate
            assert res.u is None
            assert np.min(y) >= -1e-12
            assert np.max(np.abs((-A).T @ y)) <= 1e-9 * max(1.0, np.max(np.abs(y)))
            assert (-b) @ y < 0


def test_kkt_stationarity_reported_solution():
    rng = np.random.default_rng(9)
    for _ in range(30):
        p = int(rng.integers(1, 5))
        A = rng.uniform(-1, 1, (int(rng.integers(1, 7)), p))
        b = A @ rng.uniform(-1, 1, p) - rng.uniform(0.05, 0.5, A.shape[0])
        R = np.eye(p)
        res = solve_qp(QpProblem(R), A, b)
        lam = res.multipliers
        resid = 2 * R @ res.u - A.T @ lam
        assert np.max(np.abs(resid)) <= 1e-7 * max(1.0, np.max(np.abs(2 * R @ res.u)))
        assert np.min(lam) >= 0.0


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 31 - 1))
def test_farkas_certificate_always_valid(seed):
    rng = np.random.default_rng(seed)
    m, p = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    A = rng.uniform(-1, 1, (m, p))
    Xi = rng.uniform(-1, 1, m)
    y = farkas_certificate(A, Xi)
    if y is not None:
        assert np.min(y) >= -1e-12
        assert np.max(np.abs(A.T @ y)) <= 1e-9 * max(1.0, np.max(np.abs(y)))
        assert Xi @ y < 0


def _max_rows(p):
    """Largest row count whose sets of at most p rows fit the kernel's budget."""
    m = 1
    while sum(comb(m + 1, k) for k in range(p + 1)) <= _SUBSET_BUDGET:
        m += 1
    return m


@st.composite
def degenerate_systems(draw):
    """Rows A u >= b that are feasible or infeasible (by a margin from 1e-5 to
    1) by construction, with duplicated, near-parallel (rotated by about
    1e-9), all-zero and 1e+-6-scaled rows mixed in."""
    p = draw(st.integers(1, 5))
    m = draw(st.integers(1, _max_rows(p)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.uniform(-1, 1, (m, p))
    u0 = rng.uniform(-1, 1, p)
    b = A @ u0 - rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.7)
    for j in range(1, m):
        i = int(rng.integers(j))
        kind = draw(st.sampled_from(["plain", "plain", "duplicate", "near-parallel", "zero"]))
        if kind in ("duplicate", "near-parallel"):
            A[j], b[j] = A[i], b[i]
        if kind == "near-parallel" and p > 1 and np.any(A[i]):
            v = rng.normal(size=p)
            v -= (v @ A[i]) / (A[i] @ A[i]) * A[i]
            A[j] = A[i] + 1e-9 * np.linalg.norm(A[i]) * v / np.linalg.norm(v)
            b[j] += (A[j] - A[i]) @ u0  # the same slack at u0 as row i
        elif kind == "zero":
            A[j], b[j] = 0.0, -rng.uniform(0.0, 1.0)
    infeasible = draw(st.booleans())
    if infeasible:
        # The last row contradicts a nonnegative combination of the others.
        w = rng.uniform(0.0, 1.0, m - 1) * (rng.random(m - 1) < 0.5)
        A[-1], b[-1] = -(w @ A[:-1]), -(w @ b[:-1]) + 10.0 ** rng.uniform(-5, 0)
    scale = 10.0 ** (6 * rng.integers(-1, 2, m) * (rng.random(m) < 0.3))
    return A * scale[:, None], b * scale, infeasible


def _lp_feasible(A, b):
    """HiGHS on the same rows scaled to unit norm, over the box |u| <= 1e3
    (every feasible system drawn above has a point in the unit box); a zero
    row is decided by the sign of its bound. On near-parallel rows one HiGHS
    method can stop undecided (status 4), so the next one is tried; when all
    do, HiGHS minimizes the largest violation t >= 0 of the rows instead, a
    program that is always feasible and bounded, and the rows are feasible
    when t is at most 1e-9."""
    norms = np.linalg.norm(A, axis=1)
    if np.any(b[norms == 0] > 0):
        return False
    keep = norms > 0
    A, b = A[keep] / norms[keep, None], b[keep] / norms[keep]
    p = A.shape[1]
    for method in ("highs", "highs-ipm", "highs-ds"):
        lp = linprog(np.zeros(p), A_ub=-A, b_ub=-b, bounds=[(-1e3, 1e3)] * p, method=method)
        if lp.status in (0, 2):
            return lp.status == 0
    lp = linprog(np.append(np.zeros(p), 1.0), A_ub=np.hstack([-A, -np.ones((len(b), 1))]),
                 b_ub=-b, bounds=[(-1e3, 1e3)] * p + [(0.0, None)], method="highs")
    assert lp.status == 0, lp.message
    return lp.fun <= 1e-9


def _assert_certificate(A, b, y):
    p = A.shape[1]
    assert np.min(y) >= 0.0
    assert np.max(np.abs(A.T @ y)) <= 1e-9 * max(1.0, np.max(np.abs(y)))
    assert b @ y > 0.0
    assert np.count_nonzero(y) <= p + 1


def _assert_kkt(R, A, b, res):
    """Feasible, stationary and complementary, with the solver's tolerance:
    a distance of 1e-9 from each row's half-space."""
    tol = 1e-9 * np.linalg.norm(A, axis=1)
    slack = A @ res.u - b
    lam = res.multipliers
    grad = 2 * R @ res.u
    assert np.all(slack >= -tol)
    assert np.min(lam) >= 0.0
    assert np.max(np.abs(grad - A.T @ lam)) <= 1e-7 * max(1.0, np.max(np.abs(grad)))
    assert np.all(np.abs(slack[lam > 0]) <= tol[lam > 0])
    assert set(np.flatnonzero(lam > 0)) <= set(res.active)


@settings(deadline=None, max_examples=150)
@given(degenerate_systems(), st.integers(0, 2 ** 32 - 1))
def test_solve_qp_fuzz_against_linprog(system, seed):
    A, b, infeasible = system
    m, p = A.shape
    M = np.random.default_rng(seed).uniform(-1, 1, (p, p))
    R = M @ M.T + np.eye(p)
    res = solve_qp(QpProblem(R), A, b)
    assert res.is_feasible == (not infeasible) == _lp_feasible(A, b)
    if not res.is_feasible:
        _assert_certificate(A, b, res.certificate)
        return
    _assert_kkt(R, A, b, res)


@settings(deadline=None, max_examples=150)
@given(degenerate_systems())
def test_farkas_certificate_fuzz_against_linprog(system):
    A, b, infeasible = system
    y = farkas_certificate(-A, -b)
    assert (y is None) == (not infeasible) == _lp_feasible(A, b)
    if y is not None:
        _assert_certificate(A, b, y)
        assert np.isclose(b @ y, 1.0)


def test_nearly_concurrent_rows_one_scaled_by_1e6():
    """Three rows that meet within 1e-10 of one point, the middle one scaled
    by 1e6: a value residual of 1e-9 on it would need u to 1e-15."""
    A = np.array([[-5.7002218670362037e-01, 6.0822685213034444e-01],
                  [6.2905382146851416e+05, 1.5913501016264030e+05],
                  [-4.8702887050600435e-01, -8.0798230494553325e-01]])
    b = np.array([-1.2153510820459066e-02, -4.2564831141940318e+04, 7.9118022308427960e-02])
    res = solve_qp(QpProblem(np.eye(2)), A, b)
    assert res.is_feasible
    assert np.allclose(res.u, [-0.0506108549, -0.0674136975], atol=1e-9)
    _assert_kkt(np.eye(2), A, b, res)


def test_certificate_for_a_small_margin():
    """A golden WMR step whose rows miss feasibility by 7e-5 inside the u_max
    box: the certificate's rows are nearly dependent once the bounds are
    appended, and its weights are about 1e5."""
    A = np.array([[0.0, 1.0], [0.05789282040902569, -0.6288869484362827],
                  [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([-0.21348554585459148, 0.8289799113384037, -12.0, -12.0, -12.0, -12.0])
    res = solve_qp(QpProblem(np.eye(2)), A, b)
    assert res.status == "infeasible"
    _assert_certificate(A, b, res.certificate)
    assert np.flatnonzero(res.certificate).tolist() == [0, 1, 3]


@pytest.mark.parametrize("p", [1, 2, 5])
def test_subset_budget_is_an_error(p):
    m = _max_rows(p) + 1
    A = np.ones((m, p))
    with pytest.raises(SolverError, match=rf"{m} rows in p = {p}"):
        solve_qp(QpProblem(np.eye(p)), A, np.zeros(m))
    with pytest.raises(SolverError, match=rf"{m} rows in p = {p}"):
        farkas_certificate(A, np.zeros(m))
    assert solve_qp(QpProblem(np.eye(p)), A[:-1], np.ones(m - 1)).is_feasible


def test_far_vertex_of_nearly_antiparallel_rows():
    """Rows 1 and 3 are 6e-4 rad from antiparallel, so the only feasible
    points lie near (2158, -2988), where a solve on the normal equations of
    the two rows misses row 3 by 2e-9; the system must come out feasible."""
    rng = np.random.default_rng(3000)
    m, p = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    A = rng.uniform(-1, 1, (m, p))
    Xi = rng.uniform(-1, 1, m)
    assert (m, p) == (4, 2)
    assert farkas_certificate(A, Xi) is None
    res = solve_qp(QpProblem(np.eye(2)), -A, -Xi)
    assert res.is_feasible
    _assert_kkt(np.eye(2), -A, -Xi, res)
    assert np.allclose(res.u, [2158.38521584, -2988.57838288], rtol=1e-9)


def test_vertex_of_rows_1e7_from_antiparallel():
    """Each row alone misses the other by 1e-6, so the optimum is the vertex
    (1, 10) where both are active; their unit rows have a pivot of 1e-7."""
    A = np.array([[1.0, 0.0], [-1.0, 1e-7]])
    b = np.array([1.0, -1.0 + 1e-6])
    res = solve_qp(QpProblem(np.eye(2)), A, b)
    assert res.is_feasible and res.active == (0, 1)
    _assert_kkt(np.eye(2), A, b, res)
    assert np.allclose(res.u, [1.0, 10.0], rtol=1e-7)
    assert farkas_certificate(-A, -b) is None


def test_certificate_from_sets_of_p_plus_one_rows():
    """Twelve rows in p = 2, as the WMR policy builds with three barriers:
    only a set of three rows certifies that they are infeasible."""
    angles = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    A = np.column_stack([np.cos(angles), np.sin(angles)])
    b = np.full(12, -1.0)
    b[[0, 4, 8]] = 0.1
    res = solve_qp(QpProblem(np.eye(2)), A, b)
    assert res.status == "infeasible"
    _assert_certificate(A, b, res.certificate)
    assert np.flatnonzero(res.certificate).tolist() == [0, 4, 8]


def test_farkas_far_feasible_point_behind_nearly_dependent_rows():
    """Rows 0, 2 and 5 have a last pivot of 3e-9, so the rows still meet,
    about 2e5 from the origin. Farkas asks for feasibility only: the point
    meets every row, and the multipliers of 1e14 that would fail the QP's
    stationarity check do not matter."""
    A = np.array([[0.61000585, 0.61588158, 0.03065112, -0.42839724, -0.8921386],
                  [0.61000585, 0.61588158, 0.03065112, -0.42839724, -0.8921386],
                  [0.30473822, -0.5309796, -0.1301049, 0.94837239, 0.79535522],
                  [0.0, 0.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 0.0],
                  [-0.35199628, 0.21019225, 0.08038099, -0.53669927, -0.32214538]])
    b = np.array([0.2226919, 0.2226919, -0.25332343, -0.95102298, -0.93644206, 0.11812559])
    assert farkas_certificate(-A, -b) is None
