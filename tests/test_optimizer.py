import re
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

import ftcbf.optimizer as optimizer
from ftcbf.errors import ContractError, SolverError
from ftcbf.barriers import af_rows
from ftcbf.optimizer import (_SUBSET_BUDGET, QpProblem, QpResult, RowFactors, _Factors,
                             _slack, _validate_certificate, farkas_certificate,
                             farkas_verdicts, solve_qp)
from ftcbf.runner import csv_lines, run_scenario
from ftcbf.scenarios import build_scenario


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
    A, b = np.array([[0.0, 0.0]]), np.array([0.5])
    assert np.max(np.abs(A.T @ y)) <= 1e-9 and b @ y > 0


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
    # -u >= -1 and u >= -1 meet; -u >= -1 and u >= 2 do not.
    assert farkas_certificate(np.array([[-1.0], [1.0]]), np.array([-1.0, -1.0])) is None
    y = farkas_certificate(np.array([[-1.0], [1.0]]), np.array([-1.0, 2.0]))
    assert y is not None
    assert abs(y[0] - y[1]) < 1e-9
    assert np.isclose(np.array([-1.0, 2.0]) @ y, 1.0)


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
            assert np.max(np.abs(A.T @ y)) <= 1e-9 * max(1.0, np.max(np.abs(y)))
            assert b @ y > 0


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
    b = rng.uniform(-1, 1, m)
    y = farkas_certificate(A, b)
    if y is not None:
        assert np.min(y) >= -1e-12
        assert np.max(np.abs(A.T @ y)) <= 1e-9 * max(1.0, np.max(np.abs(y)))
        assert b @ y > 0


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
    y = farkas_certificate(A, b)
    assert (y is None) == (not infeasible) == _lp_feasible(A, b)
    if y is not None:
        _assert_certificate(A, b, y)
        assert np.isclose(b @ y, 1.0)


@settings(deadline=None, max_examples=150)
@given(degenerate_systems(), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_masked_solve_equals_fresh_solve(system, identity, seed):
    """Rows factored once, as a pruning step does, then solved over kept-row
    masks: each solve returns the optimum, active set and multipliers of a
    fresh solve over the kept rows bit for bit, and a valid certificate
    exactly when that solve is infeasible."""
    A, b, _ = system
    m, p = A.shape
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1, 1, (p, p))
    qp = QpProblem(np.eye(p) if identity else M @ M.T + np.eye(p))
    factors = RowFactors(A, b, qp)
    for keep in [None] + [rng.random(m) < 0.7 for _ in range(4)]:
        kept = slice(None) if keep is None else keep
        try:
            fresh = solve_qp(qp, A[kept], b[kept])
        except SolverError as exc:
            # About 1 % of the subsets are infeasible through a row that is
            # a combination of two rows 1e-9 apart, and the kernel raises on
            # them: the masked solve must raise the same error.
            with pytest.raises(SolverError, match=re.escape(str(exc))):
                factors.solve(keep)
            continue
        masked = factors.solve(keep)
        assert masked.status == fresh.status
        if fresh.is_feasible:
            assert masked.certificate is None
            assert np.array_equal(masked.u, fresh.u)
            assert masked.active == fresh.active
            assert np.array_equal(masked.multipliers, fresh.multipliers)
        else:
            _validate_certificate(A[kept], b[kept], masked.certificate)


def _outcome(factors, keep):
    """A solve's status, active set and the bits of its arrays, or the error."""
    try:
        res = factors.solve(keep)
    except SolverError as exc:
        return "error", str(exc)
    return (res.status, res.active,
            *(None if a is None else a.tobytes() for a in (res.u, res.multipliers,
                                                           res.certificate)))


@settings(deadline=None, max_examples=150)
@given(degenerate_systems(), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_kept_basis_solves_bit_for_bit_as_a_fresh_one(system, identity, seed):
    """Bounds posed on rows whose basis another b factored (warm) give the
    bits that a fresh factorization gives (cold): the optimum, active set,
    multipliers and certificate, over every row and over a mask."""
    A, b1, _ = system
    m, p = A.shape
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1, 1, (p, p))
    qp = QpProblem(np.eye(p) if identity else M @ M.T + np.eye(p))
    # A second bound on the same rows, each row moved by up to its norm.
    b2 = b1 + rng.uniform(-1.0, 1.0, m) * np.linalg.norm(A, axis=1)
    keep = rng.random(m) < 0.7
    for first, second in ((b1, b2), (b2, b1)):
        optimizer._record = None
        _outcome(RowFactors(A, first, qp), None)
        kept = optimizer._record
        factors = RowFactors(A, second, qp)
        warm = [_outcome(factors, None), _outcome(factors, keep)]
        assert optimizer._record is kept
        optimizer._record = None
        factors = RowFactors(A, second, qp)
        assert [_outcome(factors, None), _outcome(factors, keep)] == warm


@settings(deadline=None, max_examples=150)
@given(degenerate_systems(), st.integers(0, 2 ** 32 - 1))
def test_stacked_verdicts_equal_one_row_solves(system, seed):
    """Bounds stacked on one row matrix, feasible and infeasible ones mixed:
    each verdict is True exactly where a solve of that row alone returns a
    point, and False where that solve returns infeasible or raises; the
    stack itself never raises. Each row's points and misses over the
    independent sets are the bits of its own factorization."""
    A, b, _ = system
    m, p = A.shape
    rng = np.random.default_rng(seed)
    norms = np.linalg.norm(A, axis=1)
    bs = np.vstack([b, b + rng.uniform(-1.0, 1.0, (5, m)) * norms,
                    rng.uniform(-1.0, 1.0, (4, p)) @ A.T - rng.uniform(0.0, 1.0, (4, m)) * norms])
    bs = bs[rng.permutation(len(bs))]
    outcomes = []
    for row in bs:
        try:
            outcomes.append(RowFactors(A, row).solve().is_feasible)
        except SolverError:
            outcomes.append(False)
    assert farkas_verdicts(np.broadcast_to(A, (len(bs), m, p)), bs).tolist() == outcomes
    record = RowFactors(A, b).record
    stacked = _Factors.build(record, bs)
    assert stacked.z.shape == (len(bs), len(stacked.basis.sets), p, 1)
    for i, row in enumerate(bs):
        one = _Factors.build(record, row[None])
        for name in ("z", "vs", "misses"):
            assert getattr(stacked, name)[i].tobytes() == getattr(one, name)[0].tobytes()


def test_stacked_verdicts_check_their_input():
    A = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert farkas_verdicts(np.zeros((0, 2, 2)), np.zeros((0, 2))).shape == (0,)
    verdicts = farkas_verdicts([A] * 3, [[1.0, -2.0], [1.0, 1.0], [-1.0, -1.0]])
    assert verdicts.tolist() == [True, False, True]
    # Two row matrices in one stack, in three runs: u0 >= 1 with -u0 >= 1
    # is infeasible, and with u0 >= 1 feasible.
    B = np.array([[1.0, 0.0], [1.0, 0.0]])
    stack, bs = [A, A, B, B, A], [[1.0, 1.0], [1.0, -2.0], [1.0, 1.0], [2.0, -1.0], [1.0, 1.0]]
    assert farkas_verdicts(stack, bs).tolist() == [False, True, True, True, False]
    for a, b in zip(stack, bs):
        assert farkas_verdicts([a], [b])[0] == (farkas_certificate(a, b) is None)
    for rows, bounds in ((A, np.zeros((1, 2))), ([A, A], np.zeros((3, 2))),
                         ([A, A], np.zeros((2, 3))), ([A, A], np.zeros(2))):
        with pytest.raises(ContractError, match="do not match"):
            farkas_verdicts(rows, bounds)
    with pytest.raises(ContractError, match="non-finite"):
        farkas_verdicts([A, A], [[0.0, 0.0], [np.nan, 0.0]])


def test_distinct_matrix_verdicts_check_the_stack_once(monkeypatch):
    """A stack whose every sample has its own row matrix, as a polynomial
    barrier's verify poses it: the stack is checked once, not once per
    sample, each verdict is that of a solve of the sample alone, and the
    records it makes hold the bits a solve's record holds, read-only and
    apart from the caller's rows."""
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((40, 5, 3)) * 10.0 ** rng.integers(-3, 4, (40, 5, 1))
    bs = np.einsum("sij,sj->si", stack, rng.standard_normal((40, 3))) \
        + rng.uniform(-1.0, 1.0, (40, 5))
    bs[:5] = -1.0  # u = 0 settles these without a record
    bs[-1] = np.abs(bs[-1])  # and not the last, whose record is kept
    calls = []
    checked = optimizer._checked

    def counting(*args, **kwargs):
        calls.append(args[2])
        return checked(*args, **kwargs)

    monkeypatch.setattr(optimizer, "_checked", counting)
    optimizer._record = None
    verdicts = farkas_verdicts(stack, bs)
    assert calls == [True]
    record = optimizer._record
    assert record.A.tobytes() == stack[-1].tobytes() and not record.A.flags.writeable
    assert not record.tol.flags.writeable
    last = stack[-1].copy()
    stack[-1] += 1.0  # the record holds its own copy
    assert record.A.tobytes() == last.tobytes()
    stack[-1] = last
    monkeypatch.setattr(optimizer, "_checked", checked)
    outcomes = []
    for a, b in zip(stack, bs):
        optimizer._record = None
        try:
            outcomes.append(RowFactors(a, b).solve().is_feasible)
        except SolverError:
            outcomes.append(False)
    assert verdicts.tolist() == outcomes and 0 < sum(outcomes) < len(outcomes)
    assert optimizer._record.tol.tobytes() == record.tol.tobytes()


def test_basis_is_kept_for_the_same_bytes_and_read_only():
    """The record, with its tolerances and basis, is kept for rows and a
    metric of the same bytes, and made again when one bit of A or the cost
    R differs. Its arrays are read-only, and a change to the caller's rows
    does not reach them."""
    rng = np.random.default_rng(3)
    # u0 >= 1 and -u0 >= 1 are infeasible, so the certificate terms are built too.
    A = np.vstack([[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], rng.uniform(-1, 1, (3, 3))])
    b = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    M = rng.uniform(-1, 1, (3, 3))
    qp, other = QpProblem(np.eye(3)), QpProblem(M @ M.T + np.eye(3))
    assert solve_qp(qp, A, b).status == "infeasible"
    record = optimizer._record
    assert solve_qp(qp, A.copy(), -b).is_feasible
    assert farkas_certificate(A, b) is not None
    assert optimizer._record is record
    flipped = A.copy()
    flipped.view(np.uint64)[3, 1] ^= 1
    solve_qp(qp, flipped, b)
    assert optimizer._record is not record
    assert optimizer._record.A.tobytes() == flipped.tobytes()
    solve_qp(qp, A, b)
    record = optimizer._record
    solve_qp(other, A, b)
    assert optimizer._record is not record
    record = optimizer._record
    basis = record.basis
    arrays = [record.A, record.tol, basis.AL, basis.unit, basis.N, basis.sets, basis.holds,
              basis.Q, basis.Rs, *basis._pair_terms]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]
    kept = [a.copy() for a in (record.A, record.tol, basis.AL)]
    A[3, 1] += 1.0
    assert all(np.array_equal(a, k) for a, k in zip((record.A, record.tol, basis.AL), kept))


def test_golden_boeing_basis_holds_the_independent_sets():
    """The golden Boeing rows pair each yaw-rate bound with its opposite
    under three patterns: 27 of the 42 sets of at most 3 of the 6 rows have
    independent rows, and the basis holds those, in _row_sets order."""
    scn = build_scenario({"kind": "boeing"})
    A, b, _ = af_rows(scn.af_chain_sets, scn.x0, scn.af_patterns, scn.model)
    sets, holds = optimizer._row_sets(*A.shape)
    rank = [np.linalg.matrix_rank(A[h]) == h.sum() for h in holds]
    basis = RowFactors(A, b).record.basis
    assert (len(basis.sets), len(sets)) == (27, 42)
    assert np.array_equal(basis.sets, sets[rank])
    assert np.array_equal(basis.holds, holds[rank])


@settings(deadline=None, max_examples=150)
@given(degenerate_systems(), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_zero_control_answers_are_returned_directly(system, identity, seed):
    """Bounds that u = 0 meets (b <= tol) are answered without factors: u = 0,
    zero multipliers and the rows with |b| <= tol active, over every row and
    over a mask, and the row and stationarity checks accept that result. One
    row pushed above its tolerance takes the general path, whose point
    leaves the origin to meet it."""
    A, _, infeasible = system
    m, p = A.shape
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1, 1, (p, p))
    qp = QpProblem(np.eye(p) if identity else M @ M.T + np.eye(p))
    norms = np.linalg.norm(A, axis=1)
    tol = RowFactors(A, np.zeros(m), qp).tol
    # Rows on their tolerance's edge or inside it, and rows strictly below.
    edge = rng.choice([-1.0, 0.0, 1.0], m) * tol * rng.choice([1.0, rng.uniform()], m)
    b = np.where(rng.random(m) < 0.5, edge, -rng.uniform(0.1, 1.0, m) * norms)
    factors = RowFactors(A, b, qp)
    for keep in (None, rng.random(m) < 0.7):
        kept = slice(None) if keep is None else keep
        res = factors.solve(keep)
        assert res.is_feasible and res.certificate is None
        assert res.u.tobytes() == np.zeros(p).tobytes()
        assert res.multipliers.tobytes() == np.zeros(len(b[kept])).tobytes()
        assert res.active == tuple(np.flatnonzero(np.abs(b[kept]) <= tol[kept]).tolist())
        viol = _slack(A[kept], b[kept], res.u, tol[kept])
        assert tuple(np.flatnonzero(np.abs(viol) <= tol[kept]).tolist()) == res.active
        grad = 2.0 * qp.R @ res.u
        assert np.abs(grad - A[kept].T @ res.multipliers).max(initial=0.0) \
            <= 1e-7 * max(1.0, np.abs(grad).max())
    assert factors._factors is None
    nonzero = np.flatnonzero(norms > 0)
    if infeasible or not nonzero.size:
        return
    # Every other row well below its bound, so the pushed row alone binds.
    j = rng.choice(nonzero)
    b = -rng.uniform(0.5, 1.0, m) * norms
    b[j] = tol[j] * 10.0 ** rng.uniform(0.5, 6.0)
    res = RowFactors(A, b, qp).solve()
    assert res.is_feasible and np.any(res.u != 0.0) and j in res.active
    _assert_kkt(qp.R, A, b, res)


def test_solve_rejects_a_keep_that_is_not_a_row_mask():
    factors = RowFactors(np.eye(3), np.ones(3), QpProblem(np.eye(3)))
    for keep in ([0, 2], np.array([1, 0, 1]), [1.0, 0.0, 1.0], np.ones(2, dtype=bool),
                 np.ones((3, 1), dtype=bool)):
        with pytest.raises(ContractError, match="keep must be a boolean mask of shape"):
            factors.solve(keep)
    assert factors.solve([True, False, True]).active == (0, 1)


def test_a_recorded_matrix_still_checks_its_bounds_and_size():
    """Right after a solve on the same rows (a record hit), bad bounds and a
    cost of another size raise what they raise on a miss; rows that fail a
    check leave the record as it was."""
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, -1.0, 0.0])
    qp = QpProblem(np.eye(2))
    bad = [(solve_qp, qp, A, [np.nan, 0.0, 0.0]), (solve_qp, qp, A, np.zeros(2)),
           (solve_qp, QpProblem(np.eye(3)), A, b), (farkas_certificate, A, [0.0, np.inf, 0.0]),
           (farkas_certificate, A, np.zeros((3, 1)))]
    for call, *args in bad:
        solve_qp(qp, A, b)
        record = optimizer._record
        with pytest.raises(ContractError) as hit:
            call(*args)
        assert optimizer._record is record
        optimizer._record = None
        with pytest.raises(ContractError) as miss:
            call(*args)
        assert str(hit.value) == str(miss.value)
    solve_qp(qp, A, b)
    record = optimizer._record
    with pytest.raises(ContractError, match="non-finite"):
        solve_qp(qp, np.array([[1.0, np.nan], [0.0, 1.0], [1.0, 1.0]]), b)
    m = _max_rows(2) + 1
    with pytest.raises(SolverError, match=rf"{m} rows in p = 2"):
        solve_qp(qp, np.ones((m, 2)), np.zeros(m))
    assert optimizer._record is record


def test_golden_boeing_run_records_its_rows_once(monkeypatch):
    """Every step of a golden Boeing run poses the same rows, so one record
    serves the whole run, and the run writes the CSV of a run that does not
    count its records."""
    scn = build_scenario({"kind": "boeing"})
    optimizer._record = None
    plain = csv_lines(run_scenario(scn, 0))
    made, record = [], optimizer._RowRecord

    def counted(*args, **kwargs):
        made.append(args[0])
        return record(*args, **kwargs)

    monkeypatch.setattr(optimizer, "_record", None)
    monkeypatch.setattr(optimizer, "_RowRecord", counted)
    res = run_scenario(scn, 0)
    assert len(res.controls) == 300 and len(made) == 1
    assert "\n".join(csv_lines(res)).encode() == "\n".join(plain).encode()


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
    A = -rng.uniform(-1, 1, (m, p))
    b = -rng.uniform(-1, 1, m)
    assert (m, p) == (4, 2)
    assert farkas_certificate(A, b) is None
    res = solve_qp(QpProblem(np.eye(2)), A, b)
    assert res.is_feasible
    _assert_kkt(np.eye(2), A, b, res)
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
    assert farkas_certificate(A, b) is None


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
    assert farkas_certificate(A, b) is None
