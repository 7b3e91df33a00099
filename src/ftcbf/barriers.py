"""Barrier functions, derivative chains, and linear constraint rows.

A barrier h >= 0 defines the safe set. The chain

    h^0 = h,   h^{d+1} = dh^d/dx F x + 1/2 tr(sigma^T d2h^d/dx2 sigma) + h^d

is built on the LTI model up to the minimal relative degree d' at which the
control enters (dh^{d'}/dx G != 0). Half-planes h = a.x + b stay affine along
the chain and are handled in closed form; general polynomial barriers go
through a dense multi-index coefficient table with symbolic derivatives.

Rows are oriented row.u >= bound. A single row is a (row, bound) pair and a
row set is the arrays the QP takes, A (m x p) and b (m,), with a parallel
list of source tags. The estimator-conditioned rows replace the
unknown error term dh/dx K c z by its worst case over the ball ||z|| <= gamma,
so a control satisfying the row satisfies the exact inequality for every
admissible z. hoscbf_pair is the one place that formula lives: the policy
takes the worst case, the verifier plugs in a sampled z, and the CLF row
reuses its trace and error terms. af_rows is the one place the
actuator-failure rows of every barrier are assembled, for the policy and
the verifier alike. Every filter's gain is fixed, so for an affine chain
only h(x_hat) and dh/dx F x_hat move from step to step; fixed_terms
computes the rest once per run, and hoscbf_pair takes the shrunk value and
F x_hat from a caller that computed them once for every row of a step. The actuator rows are the same case with
the true state for x_hat: over affine chains af_fixed_terms computes the
rows A, the gradients, the offsets and the authority check once, and
af_rows computes only each bound, with the dot products the per-state
assembly uses, so the rows are the bits that assembly gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, RedundancyError, UncontrollableBarrierError
from .simulator import SystemModel

_COEF_TOL = 1e-12


class Poly:
    """Dense multi-index polynomial: {exponent tuple: coefficient}."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[dict] = None):
        self.n = n
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if abs(c) > _COEF_TOL:
                    self.terms[tuple(e)] = float(c)

    @classmethod
    def constant(cls, n: int, c: float) -> "Poly":
        return cls(n, {(0,) * n: c})

    @classmethod
    def affine(cls, a, b: float) -> "Poly":
        a = np.asarray(a, dtype=float)
        n = a.shape[0]
        terms = {(0,) * n: float(b)}
        for i, ai in enumerate(a):
            e = [0] * n
            e[i] = 1
            terms[tuple(e)] = float(ai)
        return cls(n, terms)

    def __add__(self, other):
        if np.isscalar(other):
            other = Poly.constant(self.n, float(other))
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return Poly(self.n, out)

    __radd__ = __add__

    def __mul__(self, other):
        if np.isscalar(other):
            return Poly(self.n, {e: c * float(other) for e, c in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0.0) + c1 * c2
        return Poly(self.n, out)

    __rmul__ = __mul__

    def diff(self, i: int) -> "Poly":
        out = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                de = list(e)
                de[i] -= 1
                out[tuple(de)] = out.get(tuple(de), 0.0) + c * e[i]
        return Poly(self.n, out)

    def eval(self, x: np.ndarray):
        """p(x) at a state x (n,), a float, or at each state of a stack (..., n);
        each power is a run of products, so each state gets the bits it gets alone."""
        x = np.asarray(x, dtype=float)
        cols = x.tolist() if x.ndim == 1 else np.moveaxis(x, -1, 0)
        total = 0.0 if x.ndim == 1 else np.zeros(x.shape[:-1])
        for e, c in self.terms.items():
            v = c
            for xi, p in zip(cols, e):
                if p:
                    v = v * math.prod([xi] * p)
            total = total + v
        return total


@dataclass(frozen=True)
class HalfPlane:
    """Safe set {x : a.x + b >= 0}."""

    a: tuple
    b: float


def ellipsoid_barrier(Phi, center) -> Poly:
    """h(x) = 1 - (x - c)^T Phi (x - c); safe inside the ellipsoid."""
    Phi = np.asarray(Phi, dtype=float)
    center = np.asarray(center, dtype=float)
    n = center.shape[0]
    h = Poly.constant(n, 1.0)
    shifted = [Poly.affine(np.eye(n)[i], -center[i]) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if Phi[i, j] != 0.0:
                h = h + (-Phi[i, j]) * (shifted[i] * shifted[j])
    return h


@dataclass
class BarrierChain:
    """h^0 .. h^{d'} with evaluation helpers and gamma-shrink offsets."""

    kind: str                      # "affine" | "poly"
    rel_degree: int
    weights: Optional[list] = None     # affine: per-degree gradient vectors
    offsets: Optional[list] = None     # affine: per-degree constants
    polys: Optional[list] = None
    grads: Optional[list] = None       # poly: per-degree [dh/dx_i]
    hessians: Optional[list] = None    # poly: per-degree [[d2h/dx_i dx_j]]

    def __len__(self) -> int:
        return self.rel_degree + 1

    def __post_init__(self):
        # grad hands out the stored gradients, so no caller may write to them.
        for w in self.weights or ():
            w.setflags(write=False)

    def value(self, d: int, x: np.ndarray):
        """h^d at the state x (n,), or at each state of a stack x (..., n)."""
        if self.kind == "affine":
            # np.vecdot gives each state the bits of w @ x for that state alone.
            return np.vecdot(self.weights[d], x) + self.offsets[d]
        return self.polys[d].eval(x)

    def grad(self, d: int, x: np.ndarray) -> np.ndarray:
        """dh^d/dx at x, or at each state of a stack (..., n); an affine
        member's is one vector for every state."""
        if self.kind == "affine":
            return self.weights[d]
        return _last_axes([g.eval(x) for g in self.grads[d]], 1)

    def hessian(self, d: int, x: np.ndarray) -> np.ndarray:
        """d2h^d/dx2 at x, or at each state of a stack (..., n, n); an affine
        member's is one zero matrix for every state."""
        if self.kind == "affine":
            return np.zeros((len(self.weights[d]),) * 2)
        return _last_axes([[h.eval(x) for h in row] for row in self.hessians[d]], 2)

    def gamma_offset(self, d: int, gamma: float) -> float:
        """sup{h^d(x) : x within gamma of the zero level set}.

        Exactly gamma * ||grad|| for an affine member. No bound is known for
        a polynomial one, so a polynomial chain under gamma > 0 is an error.
        """
        if gamma == 0.0:
            return 0.0
        if self.kind != "affine":
            raise ContractError(f"gamma = {gamma!r} > 0 cannot shrink a polynomial barrier: "
                                "its gamma offset is exact for half-planes only")
        return gamma * float(np.linalg.norm(self.weights[d]))

    def shrunk(self, d: int, x: np.ndarray, gamma: float) -> float:
        """hat h^d(x) = h^d(x) - gamma offset."""
        return self.value(d, x) - self.gamma_offset(d, gamma)


def _last_axes(values: list, k: int) -> np.ndarray:
    """values, k nested lists of floats or of equal-shape arrays (...), as
    one contiguous array with the k list axes last."""
    out = np.array(values)
    return np.ascontiguousarray(out.transpose(*range(k, out.ndim), *range(k)))


def _grad_dot_g_nonzero(grad_row: np.ndarray, G_eff: np.ndarray) -> bool:
    scale = max(1.0, np.max(np.abs(grad_row)) * max(1.0, np.max(np.abs(G_eff))))
    return np.max(np.abs(grad_row @ G_eff)) > 1e-9 * scale


def build_chain(h, model: SystemModel, input_mask: Optional[np.ndarray] = None,
                force_degree: Optional[int] = None) -> BarrierChain:
    """Build h^0..h^{d'} with d' minimal such that dh^{d'}/dx G != 0.

    The search stops at degree n + 2. input_mask restricts the
    relative-degree test to G L (actuator-failure chains); the recursion
    itself never involves u below d' because the masked input column is
    identically zero there. force_degree pins d' without the
    controllability test (used to express deliberately degenerate
    verification scenarios where no valid degree exists).
    """
    if force_degree is not None and force_degree < 0:
        raise ContractError(f"force_degree must be nonnegative, got {force_degree}")
    top = model.n + 2 if force_degree is None else force_degree
    G_eff = model.G if input_mask is None else model.G @ np.asarray(input_mask, dtype=float)

    if isinstance(h, HalfPlane):
        a = np.array(h.a, dtype=float)
        if a.shape != (model.n,):
            raise ContractError("half-plane normal has wrong dimension")
        weights, offsets = [a], [float(h.b)]
        for d in range(top + 1):
            if d == force_degree or force_degree is None and _grad_dot_g_nonzero(weights[d], G_eff):
                return BarrierChain("affine", d, weights=weights, offsets=offsets)
            weights.append(weights[d] @ model.F + weights[d])
            offsets.append(offsets[d])
        raise UncontrollableBarrierError(
            f"no relative degree <= {top}: a^T F^d G == 0 throughout")

    if isinstance(h, Poly):
        lin = [Poly.affine(model.F[i], 0.0) for i in range(model.n)]
        Q = model.sigma @ model.sigma.T
        polys = [h]
        grads = [[h.diff(i) for i in range(model.n)]]
        hessians = [[[grads[0][i].diff(j) for j in range(model.n)] for i in range(model.n)]]
        for d in range(top + 1):
            gd = grads[d]
            gG = (sum((gd[i] * float(G_eff[i, k]) for i in range(model.n)), Poly(model.n))
                  for k in range(model.p))
            tol = 1e-9 * max([1.0, *map(abs, polys[d].terms.values())])
            if d == force_degree or force_degree is None and any(
                    abs(c) > tol for p in gG for c in p.terms.values()):
                return BarrierChain("poly", d, polys=polys, grads=grads, hessians=hessians)
            nxt = polys[d]
            for i in range(model.n):
                nxt = nxt + gd[i] * lin[i]
            for i in range(model.n):
                for j in range(model.n):
                    if Q[i, j] != 0.0:
                        nxt = nxt + 0.5 * Q[i, j] * hessians[d][i][j]
            polys.append(nxt)
            grads.append([nxt.diff(i) for i in range(model.n)])
            hessians.append([[grads[-1][i].diff(j) for j in range(model.n)] for i in range(model.n)])
        raise UncontrollableBarrierError(f"no relative degree <= {top} for polynomial barrier")

    raise ContractError(f"unsupported barrier type {type(h).__name__}")


def _trace_term(est, H: np.ndarray):
    """1/2 tr(nu^T K^T H K nu) of a row with Hessian H under est, over a
    stack of Hessians (..., n, n) too; 0 for an estimator without a gain."""
    if est is None or est.K is None:
        return 0.0
    KN = est.K @ est.nu_r
    return 0.5 * np.trace(KN.T @ H @ KN, axis1=-2, axis2=-1)


def _error_term(est, w: np.ndarray, gamma: float, z: Optional[np.ndarray] = None):
    """What the error term of a row with gradient w adds to the bound: the
    worst case gamma ||w K c|| over ||z|| <= gamma when z is None, the exact
    -w K c z otherwise; 0 for an estimator without a gain. Over stacks of
    gradients and errors (..., n) too, each sample with its own bits."""
    if est is None or est.K is None:
        return 0.0
    wKc = (w[..., None, :] @ est.K @ est.c_r)[..., 0, :]
    if z is None:
        return gamma * np.sqrt(np.vecdot(wKc, wKc))
    return -np.vecdot(wKc, z)


def _pair_terms(chain: BarrierChain, est, model: SystemModel, x_hat: np.ndarray,
                gamma: float, z: Optional[np.ndarray] = None):
    """(w, row, trace, err) of the row at x_hat, or at each of a stack: the
    top-degree gradient (an affine chain's is one for every sample), the row
    vector w G, and the trace and error terms of its bound."""
    d = chain.rel_degree
    w = chain.grad(d, x_hat)
    return (w, (w[..., None, :] @ model.G)[..., 0, :],
            _trace_term(est, chain.hessian(d, x_hat)), _error_term(est, w, gamma, z))


def fixed_terms(chain: BarrierChain, est, model: SystemModel, gamma: float):
    """The terms (w, row, trace, err) of the policy's row that stay fixed
    through a run, or None for a polynomial chain, whose gradient and
    Hessian move with the estimate.

    An affine chain has a constant gradient and a zero Hessian, and every
    filter's gain is fixed, so its terms stay fixed.
    """
    if chain.kind != "affine":
        return None
    return _pair_terms(chain, est, model, est.x_hat, gamma)


def hoscbf_pair(chain: BarrierChain, est, model: SystemModel, x_hat: np.ndarray,
                gamma: float, z: Optional[np.ndarray] = None, fixed=None,
                shrunk=None, drift: Optional[np.ndarray] = None):
    """(row, bound) of the estimator-conditioned row at the top degree d'.

    row.u >= bound encodes
        dh/dx (F x + G u) + 1/2 tr(nu^T K^T H K nu) + dh/dx K c z >= -(h(x_hat) - gamma offset)
    at the estimate x_hat. With z None the error term is its worst case over
    ||z|| <= gamma (the policy's row); with z given it is exact (the
    verifier's row at a sampled error). fixed, from fixed_terms, stands in
    for (w, row, trace, err) of the policy's row; shrunk and drift, when the
    caller has computed them at x_hat, for chain.shrunk(d', x_hat, gamma) and
    F x_hat. x_hat and z may be stacks (..., n): then bound carries their
    leading axes, row does too unless the chain is affine (one row for every
    sample), and each sample's row and bound are the bits that sample alone
    gives.
    """
    w, row, trace, err = _pair_terms(chain, est, model, x_hat, gamma, z) if fixed is None else fixed
    if shrunk is None:
        shrunk = chain.shrunk(chain.rel_degree, x_hat, gamma)
    if drift is None:
        drift = model.f(x_hat)
    return row, -shrunk - np.vecdot(w, drift) - trace + err


def hoscbf_row(chain: BarrierChain, est, model: SystemModel, gamma: float, fixed=None,
               shrunk=None, drift: Optional[np.ndarray] = None):
    """Estimator-conditioned (row, bound) at est.x_hat, robust over the gamma
    ball; fixed, shrunk and drift as in hoscbf_pair."""
    return hoscbf_pair(chain, est, model, est.x_hat, gamma, fixed=fixed, shrunk=shrunk,
                       drift=drift)


@dataclass(frozen=True)
class AfTerms:
    """What af_rows reads of an all-affine chain set that no state changes:
    the rows A (m x p), the top-degree gradients W (m x n) and offsets (m,),
    the source tags, and the first pattern whose rows have no control
    authority (None when every pattern has some)."""

    A: np.ndarray
    W: np.ndarray
    offsets: np.ndarray
    sources: list
    dead: Optional[int]


def _af_matrix(chain_sets, x: np.ndarray, patterns, model: SystemModel):
    """(A, W, sources): each row's gradient at x (a state or a stack) and
    its row W G L, barrier by barrier."""
    if any(len(chains) != len(patterns) for chains in chain_sets):
        raise RedundancyError("one chain per failure pattern is required")
    stack, m = x.shape[:-1], len(chain_sets) * len(patterns)
    A, W = np.empty(stack + (m, model.p)), np.empty(stack + (m, model.n))
    sources = []
    for k, chains in enumerate(chain_sets):
        for j, (chain, L) in enumerate(zip(chains, patterns)):
            i, d = len(sources), chain.rel_degree
            W[..., i, :] = chain.grad(d, x)
            A[..., i, :] = (W[..., i, None, :] @ model.G @ np.asarray(L, dtype=float))[..., 0, :]
            sources.append(f"{'af_cbf' if d == 0 else 'af_hocbf'}({j})[{k}]")
    return A, W, sources


def _dead_pattern(A: np.ndarray, patterns) -> Optional[int]:
    """The first pattern with a row of A (at any state of a stack) that
    gives no control authority, or None."""
    dead = (np.abs(A) <= 1e-12).all(axis=-1).any(axis=tuple(range(A.ndim - 2)))
    return int(dead.argmax()) % len(patterns) if dead.any() else None


def _check_authority(dead: Optional[int]) -> None:
    if dead is not None:
        raise RedundancyError(f"pattern {dead} has no control authority at this state")


def af_fixed_terms(chain_sets: Sequence[Sequence[BarrierChain]], patterns: Sequence[np.ndarray],
                   model: SystemModel) -> Optional[AfTerms]:
    """The terms of af_rows that no state changes, or None when some chain
    is polynomial, whose gradient moves with the state.

    An affine chain's gradient is one vector for every state, so its row
    W G L, the authority check on that row and its offset are fixed; they
    are computed here as af_rows computes them at any state, bit for bit.
    """
    if any(chain.kind != "affine" for chains in chain_sets for chain in chains):
        return None
    A, W, sources = _af_matrix(chain_sets, np.zeros(model.n), patterns, model)
    offsets = np.array([chain.offsets[chain.rel_degree]
                        for chains in chain_sets for chain in chains])
    # Every step's outcome holds this A, so no caller may write to it.
    A.setflags(write=False)
    return AfTerms(A, W, offsets, sources, _dead_pattern(A, patterns))


def af_rows(chain_sets: Sequence[Sequence[BarrierChain]], x: np.ndarray,
            patterns: Sequence[np.ndarray], model: SystemModel,
            alpha: Callable[[float], float] = lambda s: s, fixed: Optional[AfTerms] = None):
    """(A, b, sources): one noise-free row per barrier and failure pattern,
    evaluated at the true state, barrier by barrier.

    chain_sets[k][j] is barrier k's chain built with input_mask=patterns[j];
    row af_cbf(j)[k] (af_hocbf above degree 0) is its row A u >= b, with
    b = -alpha(h^{d'}(x)) - dh^{d'}/dx F x. A pattern that leaves a barrier
    no control authority indicates missing actuator redundancy, a
    RedundancyError. x may be a stack of states (..., n); then A and b
    carry its leading axes, alpha acts elementwise, and each state's rows
    are the bits that state alone gives (np.vecdot and a matmul per state).

    When every chain is affine, A, the gradients, the offsets and the
    authority check are the same at every state: fixed, from
    af_fixed_terms, holds them (built here when not given), and only b is
    computed, from h^{d'}(x) = W x + offsets with the same dot products, so
    the rows are the bits the per-state assembly gives. A set with a
    polynomial chain is evaluated in full at x.
    """
    x = np.asarray(x, dtype=float)
    if fixed is None:
        fixed = af_fixed_terms(chain_sets, patterns, model)
    if fixed is None:
        return _af_rows_at(chain_sets, x, patterns, model, alpha)
    _check_authority(fixed.dead)
    A = fixed.A if x.ndim == 1 else np.broadcast_to(fixed.A, x.shape[:-1] + fixed.A.shape)
    values = np.vecdot(fixed.W, x[..., None, :]) + fixed.offsets
    return A, -alpha(values) - np.vecdot(fixed.W, model.f(x)[..., None, :]), list(fixed.sources)


def _af_rows_at(chain_sets, x: np.ndarray, patterns, model: SystemModel, alpha):
    """af_rows with every gradient and row evaluated at x (a state or a stack)."""
    A, W, sources = _af_matrix(chain_sets, x, patterns, model)
    _check_authority(_dead_pattern(A, patterns))
    values = _last_axes([chain.value(chain.rel_degree, x)
                         for chains in chain_sets for chain in chains], 1)
    return A, -alpha(values) - np.vecdot(W, model.f(x)[..., None, :]), sources
