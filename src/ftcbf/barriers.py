"""Barrier functions, derivative chains, and linear constraint rows.

A barrier h >= 0 defines the safe set. The chain

    h^0 = h,   h^{d+1} = dh^d/dx f(x) + 1/2 tr(sigma^T d2h^d/dx2 sigma) + h^d

is built up to the minimal relative degree d' at which the control enters
(dh^{d'}/dx g != 0). Half-planes h = a.x + b stay affine along the chain and
are handled in closed form; general polynomial barriers go through a dense
multi-index coefficient table with symbolic derivatives. Chains require an
LTI model except in the degree-0 case.

Rows are oriented row.u >= bound. A single row is a (row, bound) pair and a
row set is the arrays the QP takes, A (m x p) and b (m,), with a parallel
list of source tags. The estimator-conditioned rows replace the
unknown error term dh/dx K c z by its worst case over the ball ||z|| <= gamma,
so a control satisfying the row satisfies the exact inequality for every
admissible z. hoscbf_pair is the one place that formula lives: the policy
takes the worst case, the verifier plugs in a sampled z, and the CLF row
reuses its trace and error terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -float(other))

    def diff(self, i: int) -> "Poly":
        out = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                de = list(e)
                de[i] -= 1
                out[tuple(de)] = out.get(tuple(de), 0.0) + c * e[i]
        return Poly(self.n, out)

    def eval(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        total = 0.0
        for e, c in self.terms.items():
            v = c
            for i, p in enumerate(e):
                if p:
                    v *= x[i] ** p
            total += v
        return total

    def is_zero(self, tol: float = _COEF_TOL) -> bool:
        return all(abs(c) <= tol for c in self.terms.values())

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)


@dataclass(frozen=True)
class HalfPlane:
    """Safe set {x : a.x + b >= 0}."""

    a: tuple
    b: float

    def to_poly(self) -> Poly:
        return Poly.affine(np.asarray(self.a), self.b)


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
                h = h - Phi[i, j] * (shifted[i] * shifted[j])
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
    gamma_box: float = 10.0            # search radius for numeric offsets
    _offset_cache: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return self.rel_degree + 1

    def value(self, d: int, x: np.ndarray) -> float:
        if self.kind == "affine":
            return float(self.weights[d] @ x + self.offsets[d])
        return self.polys[d].eval(x)

    def grad(self, d: int, x: np.ndarray) -> np.ndarray:
        if self.kind == "affine":
            return np.array(self.weights[d], dtype=float)
        return np.array([g.eval(x) for g in self.grads[d]])

    def hessian(self, d: int, x: np.ndarray) -> np.ndarray:
        n = len(self.weights[d]) if self.kind == "affine" else self.polys[d].n
        if self.kind == "affine":
            return np.zeros((n, n))
        return np.array([[self.hessians[d][i][j].eval(x) for j in range(n)] for i in range(n)])

    def gamma_offset(self, d: int, gamma: float) -> float:
        """sup{h^d(x) : x within gamma of the zero level set}.

        Exact gamma * ||grad|| for affine members; sampled estimate for
        polynomial chains (deterministic, gradient-projected boundary points).
        """
        if gamma == 0.0:
            return 0.0
        key = (d, float(gamma))
        if key not in self._offset_cache:
            if self.kind == "affine":
                off = gamma * float(np.linalg.norm(self.weights[d]))
            else:
                off = _poly_gamma_offset(self.polys[d], self.grads[d], gamma, self.gamma_box)
            self._offset_cache[key] = off
        return self._offset_cache[key]

    def shrunk(self, d: int, x: np.ndarray, gamma: float) -> float:
        """hat h^d(x) = h^d(x) - gamma offset."""
        return self.value(d, x) - self.gamma_offset(d, gamma)


def _poly_gamma_offset(poly: Poly, grads, gamma: float, box: float,
                       samples: int = 256, newton_steps: int = 12) -> float:
    """Estimate sup of h over the gamma-tube around h = 0 by projecting random
    box samples onto the zero set and probing the gamma-ball along the
    gradient. An estimate, not a certificate; exact offsets exist only for
    the affine path."""
    rng = np.random.default_rng(0xB0FF)
    n = poly.n
    best = 0.0
    pts = rng.uniform(-box, box, size=(samples, n))
    for x in pts:
        for _ in range(newton_steps):
            v = poly.eval(x)
            g = np.array([gp.eval(x) for gp in grads])
            gn = g @ g
            if gn < 1e-14:
                break
            x = x - v * g / gn
            if abs(poly.eval(x)) < 1e-12:
                break
        if abs(poly.eval(x)) > 1e-6:
            continue
        g = np.array([gp.eval(x) for gp in grads])
        norm = np.linalg.norm(g)
        if norm < 1e-12:
            continue
        for direction in (g / norm, -g / norm):
            best = max(best, poly.eval(x + gamma * direction))
    return best


def _grad_dot_g_nonzero(grad_row: np.ndarray, G_eff: np.ndarray) -> bool:
    scale = max(1.0, np.max(np.abs(grad_row)) * max(1.0, np.max(np.abs(G_eff))))
    return np.max(np.abs(grad_row @ G_eff)) > 1e-9 * scale


def build_chain(h, model: SystemModel, max_degree: Optional[int] = None,
                input_mask: Optional[np.ndarray] = None,
                force_degree: Optional[int] = None) -> BarrierChain:
    """Build h^0..h^{d'} with d' minimal such that dh^{d'}/dx g != 0.

    input_mask restricts the relative-degree test to g L (actuator-failure
    chains); the recursion itself never involves u below d' because the
    masked input column is identically zero there. force_degree pins d'
    without the controllability test (used to express deliberately degenerate
    verification scenarios where no valid degree exists).
    """
    if max_degree is None:
        max_degree = model.n + 2
    G_eff = None
    if model.is_linear:
        G_eff = model.G if input_mask is None else model.G @ np.asarray(input_mask, dtype=float)

    if isinstance(h, HalfPlane):
        a = np.asarray(h.a, dtype=float)
        if a.shape != (model.n,):
            raise ContractError("half-plane normal has wrong dimension")
        if force_degree is not None:
            if not model.is_linear and force_degree > 0:
                raise ContractError("force_degree > 0 needs an LTI model")
            weights, offsets = [a], [float(h.b)]
            for d in range(force_degree):
                weights.append(weights[d] @ model.F + weights[d])
                offsets.append(offsets[d])
            return BarrierChain("affine", force_degree, weights=weights, offsets=offsets)
        if model.is_linear:
            weights, offsets = [a], [float(h.b)]
            for d in range(max_degree + 1):
                if _grad_dot_g_nonzero(weights[d], G_eff):
                    return BarrierChain("affine", d, weights=weights, offsets=offsets)
                weights.append(weights[d] @ model.F + weights[d])
                offsets.append(offsets[d])
            raise UncontrollableBarrierError(
                f"no relative degree <= {max_degree}: a^T F^d G == 0 throughout")
        return _degree_zero_chain(h.to_poly(), model, affine=(a, float(h.b)))

    if isinstance(h, Poly):
        if not model.is_linear:
            return _degree_zero_chain(h, model)
        lin = [Poly.affine(model.F[i], 0.0) for i in range(model.n)]
        Q = model.sigma @ model.sigma.T
        polys = [h]
        grads = [[h.diff(i) for i in range(model.n)]]
        hessians = [[[grads[0][i].diff(j) for j in range(model.n)] for i in range(model.n)]]
        top = force_degree if force_degree is not None else max_degree
        for d in range(top + 1):
            if force_degree is not None:
                if d == force_degree:
                    return BarrierChain("poly", d, polys=polys, grads=grads, hessians=hessians)
            else:
                gd = grads[d]
                gG = [sum((gd[i] * float(G_eff[i, k]) for i in range(model.n)),
                          Poly.constant(model.n, 0.0)) for k in range(model.p)]
                if any(not p.is_zero(1e-9 * max(1.0, polys[d].max_abs_coeff())) for p in gG):
                    return BarrierChain("poly", d, polys=polys, grads=grads, hessians=hessians)
            gd = grads[d]
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
        raise UncontrollableBarrierError(f"no relative degree <= {max_degree} for polynomial barrier")

    raise ContractError(f"unsupported barrier type {type(h).__name__}")


def _degree_zero_chain(h: Poly, model: SystemModel, affine=None) -> BarrierChain:
    """Nonlinear models support degree-0 chains only: dh/dx g(x) is probed at
    random states; symbolic recursion would need a polynomial drift."""
    grads = [h.diff(i) for i in range(model.n)]
    rng = np.random.default_rng(0xC8A1)
    for _ in range(32):
        x = rng.standard_normal(model.n)
        row = np.array([g.eval(x) for g in grads]) @ model.g(x)
        if np.max(np.abs(row)) > 1e-9:
            if affine is not None:
                return BarrierChain("affine", 0, weights=[np.asarray(affine[0])], offsets=[affine[1]])
            hess = [[grads[i].diff(j) for j in range(model.n)] for i in range(model.n)]
            return BarrierChain("poly", 0, polys=[h], grads=[grads], hessians=[hess])
    raise UncontrollableBarrierError(
        "dh/dx g(x) vanished at all probed states; nonlinear models need relative degree 0")


def _estimator_terms(est, w: np.ndarray, H: np.ndarray, gamma: float,
                     z: Optional[np.ndarray] = None):
    """(trace, err) of the row with gradient w and Hessian H under est.

    trace = 1/2 tr(nu^T K^T H K nu). err is what the error term adds to the
    bound: the worst case gamma ||w K c|| over ||z|| <= gamma when z is None,
    the exact -w K c z otherwise. Both vanish for an estimator without a gain.
    """
    if est is None or est.K is None:
        return 0.0, 0.0
    KN = est.K @ est.nu_r
    trace = 0.5 * float(np.trace(KN.T @ H @ KN))
    wKc = w @ est.K @ est.c_r
    if z is None:
        return trace, gamma * float(np.linalg.norm(wKc))
    return trace, -float(wKc @ np.asarray(z, dtype=float))


def hoscbf_pair(chain: BarrierChain, est, model: SystemModel, x_hat: np.ndarray,
                gamma: float, z: Optional[np.ndarray] = None):
    """(row, bound) of the estimator-conditioned row at the top degree d'.

    row.u >= bound encodes
        dh/dx (f + g u) + 1/2 tr(nu^T K^T H K nu) + dh/dx K c z >= -(h(x_hat) - gamma offset)
    at the estimate x_hat. With z None the error term is its worst case over
    ||z|| <= gamma (the policy's row); with z given it is exact (the
    verifier's row at a sampled error).
    """
    d = chain.rel_degree
    w = chain.grad(d, x_hat)
    trace, err = _estimator_terms(est, w, chain.hessian(d, x_hat), gamma, z)
    row = w @ model.g(x_hat)
    bound = -chain.shrunk(d, x_hat, gamma) - float(w @ model.f(x_hat)) - trace + err
    return row, bound


def hoscbf_row(chain: BarrierChain, est, model: SystemModel, gamma: float):
    """Estimator-conditioned (row, bound) at est.x_hat, robust over the gamma ball."""
    return hoscbf_pair(chain, est, model, est.x_hat, gamma)


def af_rows(chains: Sequence[BarrierChain], x: np.ndarray,
            patterns: Sequence[np.ndarray], model: SystemModel,
            alpha: Callable[[float], float] = lambda s: s,
            barrier_label: str = ""):
    """(A, b, sources): one noise-free row per failure pattern, evaluated at
    the true state.

    chains[j] must be built with input_mask=patterns[j]; a pattern whose
    chain could not be built indicates missing actuator redundancy.
    """
    if len(chains) != len(patterns):
        raise RedundancyError("one chain per failure pattern is required")
    rows, bounds, sources = [], [], []
    gx = model.g(x)
    fx = model.f(x)
    for j, (chain, L) in enumerate(zip(chains, patterns)):
        d = chain.rel_degree
        w = chain.grad(d, x)
        row = w @ gx @ np.asarray(L, dtype=float)
        if np.max(np.abs(row)) <= 1e-12:
            raise RedundancyError(f"pattern {j} has no control authority at this state")
        bound = -alpha(chain.value(d, x)) - float(w @ fx)
        kind = "af_cbf" if d == 0 else "af_hocbf"
        rows.append(row)
        bounds.append(bound)
        sources.append(f"{kind}({j})" + (f"[{barrier_label}]" if barrier_label else ""))
    return np.array(rows), np.array(bounds), sources
