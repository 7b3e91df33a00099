"""Desk-scale feasibility verification by falsification.

Full algebraic (sum-of-squares) certification of the constraint-set emptiness
conditions needs an SDP stack and is out of scope; these checks instead hunt
for counterexamples: pointwise Farkas certificates at sampled configurations
of estimates and estimation errors (sensor case) or states in the safe box
(actuator case). A clean report therefore says "no counterexample in N
samples", never "verified"; a returned counterexample is a sound witness of
infeasibility and reproduces as an infeasible QP on the same rows.

Both falsifiers draw all their samples up front and hand falsify_region
their stacked rows and points; it checks them in blocks, in the order they
are drawn. One optimizer.farkas_verdicts pass per block settles every
sample that a point shows feasible, over the row basis its samples share.
The first sample left unsettled gets a report: its farkas_certificate is
the one check that certifies it or raises, and the report is the bits a
sample-by-sample loop gives.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .barriers import BarrierChain, af_fixed_terms, af_rows, hoscbf_pair
from .errors import ContractError, FtcbfError, RedundancyError
from .optimizer import farkas_certificate, farkas_verdicts
from .simulator import SystemModel

# Samples decided by one stacked Farkas pass. Larger blocks run no faster on
# the golden scenarios and hold more memory; the block of the first
# counterexample is decided whole.
_BLOCK = 64


def verify_ft_set_pointwise(chains: Sequence[BarrierChain], model: SystemModel,
                            ests: Sequence, estimates: Sequence[np.ndarray],
                            zs: Sequence[np.ndarray], gammas: Sequence[float],
                            thetas: Optional[dict] = None) -> dict:
    """Farkas check of the m-estimator constraint set at given estimates/errors.

    Assembles the policy's own rows A u >= b (hoscbf_pair) at each estimate
    x_hat_i, with the supplied z_i in place of the worst case, and asks for
    a certificate y >= 0 with A^T y = 0 and b^T y = 1. When pairwise
    estimate distances violate theta_ij the premise of the feasibility
    condition fails and the check is reported vacuous (feasible by premise).
    """
    m = len(estimates)
    if not (len(ests) == len(zs) == len(gammas) == m):
        raise ContractError("estimates, ests, zs, gammas must have equal length")
    estimates, zs = np.asarray(estimates, dtype=float), np.asarray(zs, dtype=float)
    if thetas:
        for i in range(m):
            for j in range(i + 1, m):
                if np.linalg.norm(estimates[i] - estimates[j]) > thetas.get((i, j), np.inf):
                    return {"feasible": True, "vacuous": True, "certificate": None}
    y = farkas_certificate(*_ft_rows(chains, model, ests, estimates, zs, gammas))
    return {"feasible": y is None, "vacuous": False, "certificate": y}


def _ft_rows(chains, model, ests, estimates, zs, gammas) -> tuple:
    """The rows (A, b) of the m-estimator set at estimates and errors zs,
    stacks (..., m, n): A (..., m * len(chains), p) and b (..., m * len(chains)),
    each sample's rows the bits that sample alone gives."""
    pairs = [hoscbf_pair(chain, ests[i], model, estimates[..., i, :], gammas[i],
                         z=zs[..., i, :])
             for i in range(len(ests)) for chain in chains]
    stack = estimates.shape[:-2] + (model.p,)
    return (np.stack([np.broadcast_to(row, stack) for row, _ in pairs], axis=-2),
            np.stack([bound for _, bound in pairs], axis=-1))


def latin_hypercube(rng: np.random.Generator, count: int, dims: int,
                    lo: float, hi: float) -> np.ndarray:
    """Stratified (Latin hypercube) samples over the cube [lo, hi]^dims."""
    bins = (np.arange(count)[:, None] + rng.random((count, dims))) / count
    for d in range(dims):
        bins[:, d] = bins[rng.permutation(count), d]
    return lo + bins * (hi - lo)


def _to_level(x: np.ndarray, value, w: np.ndarray) -> np.ndarray:
    """x moved along the gradient w by one Newton step toward the zero level
    of a function worth value at x; x itself where w vanishes. Over a stack
    of states x (S, n) too, with value (S,) and w (n,) or (S, n), each state
    moved with the bits of its own step."""
    nrm2 = np.vecdot(w, w)
    flat = nrm2 <= 1e-14
    step = np.asarray(value)[..., None] * w / np.where(flat, 1.0, nrm2)[..., None]
    return np.where(flat[..., None], x, x - step)


def _first_infeasible(verdicts: Callable, lo: int, hi: int) -> int:
    """The first sample in lo..hi-1 that no point shows feasible, or hi.

    A block whose rows cannot be assembled (RedundancyError) is halved until
    the failing sample stands alone. That sample counts as unsettled too, so
    every sample before it is decided as a sample-by-sample loop decides it,
    and its report says why."""
    try:
        ok = verdicts(lo, hi)
    except RedundancyError:
        if hi - lo == 1:
            return lo
        mid = (lo + hi) // 2
        k = _first_infeasible(verdicts, lo, mid)
        return k if k < mid else _first_infeasible(verdicts, mid, hi)
    return hi if ok.all() else lo + int(np.argmin(ok))


def falsify_region(rows: Callable[[int, int], tuple], point: Callable[[int], dict],
                   sampler_info: dict, budget: int) -> dict:
    """Check samples 0..budget-1 in blocks of _BLOCK; first infeasible one wins.

    rows(lo, hi) gives the rows A (S, m, p) and b (S, m) of samples lo..hi-1
    A u >= b, or raises RedundancyError when some sample's rows cannot be
    assembled; point(k) describes the configuration of sample k. One
    farkas_verdicts pass per block settles what a point shows feasible. The
    first unsettled sample's report, from rows(k, k + 1), is the one check
    that certifies it, says why its rows cannot be assembled, or raises; an
    FtcbfError it raises comes out as the same class with the sample index
    and sampler seed before its message. Deterministic given the sampler
    seed.
    """
    if budget < 1:
        raise ContractError("falsification budget must be positive")
    out = None
    seeds = sampler_info.get("seeds", [])
    for lo in range(0, budget, _BLOCK):
        hi = min(lo + _BLOCK, budget)
        k = _first_infeasible(lambda a, b: farkas_verdicts(*rows(a, b)), lo, hi)
        if k == hi:
            continue
        try:
            try:
                A, b = rows(k, k + 1)
            except RedundancyError as exc:
                out = {"feasible": False, "certificate": None, "reason": str(exc)}
            else:
                y = farkas_certificate(A[0], b[0])
                out = {"feasible": y is None, "certificate": y}
            out["point"] = point(k)
        except FtcbfError as exc:
            raise type(exc)(f"sample {k} of sampler seed "
                            f"{', '.join(map(str, seeds))}: {exc}") from exc
        break
    return {
        "checked_conditions": sampler_info.get("conditions", ""),
        "samples": budget if out is None else k + 1,
        "budget": budget,
        "counterexample": out,
        "seeds": seeds,
        "verdict": ("counterexample" if out is not None
                    else f"no counterexample in {budget} samples"),
    }


def _pushed(k: np.ndarray, chains: Sequence) -> list:
    """For each chain, which of the samples k are pushed to its boundary:
    the odd ones, taken in turn."""
    return [(k % 2 == 1) & (k // 2 % len(chains) == c) for c in range(len(chains))]


def falsify_sensor_region(chains: Sequence[BarrierChain], model: SystemModel,
                          ests: Sequence, gammas: Sequence[float], thetas: dict,
                          box: float, budget: int, seed: int = 0) -> dict:
    """Sample estimate tuples + errors consistent with the calibrated radii.

    Base estimates come from a Latin hypercube over the operating box with
    half the samples projected onto the shrunk-barrier boundary (where rows
    bind); sibling estimates are perturbed within min theta_ij / 2 so every
    pairwise distance respects theta; errors are drawn in the gamma balls.
    Those radii must be finite: an uncalibrated scenario is rejected.
    """
    if not (np.all(np.isfinite(gammas)) and np.all(np.isfinite(list(thetas.values())))):
        raise ContractError("sensor verification needs finite gammas and thetas; run "
                            "`ftcbf calibrate` and merge its calibration: block into the scenario")
    m, n = len(ests), model.n
    rng = np.random.default_rng(seed)
    theta_min = min(thetas.values()) if thetas else 0.0
    base_pts = latin_hypercube(rng, budget, n, -box, box)
    # Each sample's m estimate offsets, then its m errors, uniform in their balls.
    v = rng.standard_normal((budget, 2 * m, n))
    radii = np.array([theta_min / 2.0] * m + list(gammas))
    radii = radii * rng.random((budget, 2 * m)) ** (1.0 / n)
    draws = v / np.sqrt(np.vecdot(v, v))[..., None] * radii[..., None]

    def sample(lo, hi):
        base = base_pts[lo:hi].copy()
        for chain, pushed in zip(chains, _pushed(np.arange(lo, hi), chains)):
            if pushed.any():
                d, at = chain.rel_degree, base[pushed]
                base[pushed] = _to_level(at, chain.shrunk(d, at, max(gammas)), chain.grad(d, at))
        return base[:, None] + draws[lo:hi, :m], draws[lo:hi, m:]

    def rows(lo, hi):
        return _ft_rows(chains, model, ests, *sample(lo, hi), gammas)

    def point(k):
        estimates, zs = sample(k, k + 1)
        return {"estimates": estimates[0].tolist(), "zs": zs[0].tolist()}

    info = {"conditions": f"sensor FT-HOSCBF set, m={m}, box={box}", "seeds": [seed]}
    return falsify_region(rows, point, info, budget)


def falsify_actuator_region(af_chain_sets: Sequence[Sequence[BarrierChain]],
                            patterns: Sequence[np.ndarray], model: SystemModel,
                            box: float, budget: int, seed: int = 0,
                            alpha: Callable[[float], float] = lambda s: s) -> dict:
    """Sample states in the safe part of the box and Farkas-check the
    policy's rows A u >= b at each (af_rows, all barriers under every
    pattern jointly). Half the samples are pushed to a barrier boundary,
    where the constraints bind. alpha acts elementwise on a stack. What of
    the rows no state changes (af_fixed_terms) is computed once per call."""
    rng = np.random.default_rng(seed)
    pts = latin_hypercube(rng, budget, model.n, -box, box)
    # cs[0] is barrier k's chain under patterns[0]; only its degree-0 member
    # is read, and that member is h itself under every mask.
    barrier_chains = [cs[0] for cs in af_chain_sets]
    fixed = af_fixed_terms(af_chain_sets, patterns, model)

    def states(lo, hi):
        x = pts[lo:hi].copy()
        for ch, pushed in zip(barrier_chains, _pushed(np.arange(lo, hi), barrier_chains)):
            if pushed.any():
                at = x[pushed]
                x[pushed] = _to_level(at, ch.value(0, at), ch.grad(0, at))
        # Then back into the safe set, barrier by barrier.
        for ch in barrier_chains:
            v = ch.value(0, x)
            unsafe = v < 0.0
            if unsafe.any():
                x[unsafe] = _to_level(x[unsafe], v[unsafe], ch.grad(0, x[unsafe]))
        return x

    def rows(lo, hi):
        return af_rows(af_chain_sets, states(lo, hi), patterns, model, alpha=alpha,
                       fixed=fixed)[:2]

    def point(k):
        return {"x": states(k, k + 1)[0].tolist()}

    info = {"conditions": f"actuator CBF set, patterns={len(patterns)}, box={box}",
            "seeds": [seed]}
    return falsify_region(rows, point, info, budget)
