"""Desk-scale feasibility verification by falsification.

Full algebraic (sum-of-squares) certification of the constraint-set emptiness
conditions needs an SDP stack and is out of scope; these checks instead hunt
for counterexamples: pointwise Farkas certificates at sampled configurations
of estimates and estimation errors (sensor case) or states in the safe box
(actuator case). A clean report therefore says "no counterexample in N
samples", never "verified"; a returned counterexample is a sound witness of
infeasibility and reproduces as an infeasible QP on the same rows.

Samples are checked in blocks, in the order they are drawn. One
optimizer.farkas_verdicts pass per block settles every sample that a point
shows feasible, over the row basis its samples share. The first sample left
unsettled gets a report: its farkas_certificate is the one check that
certifies it or raises, and the report is the bits a sample-by-sample loop
gives.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .barriers import BarrierChain, af_rows, hoscbf_pair
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
    rows = _ft_rows(chains, model, ests, estimates, zs, gammas, thetas)
    if rows is None:
        return {"feasible": True, "vacuous": True, "certificate": None}
    y = farkas_certificate(*rows)
    return {"feasible": y is None, "vacuous": False, "certificate": y}


def _ft_rows(chains, model, ests, estimates, zs, gammas, thetas) -> Optional[tuple]:
    """The rows (A, b) that verify_ft_set_pointwise checks, or None when the
    premise fails."""
    m = len(estimates)
    if not (len(ests) == len(zs) == len(gammas) == m):
        raise ContractError("estimates, ests, zs, gammas must have equal length")
    if thetas:
        for i in range(m):
            for j in range(i + 1, m):
                lim = thetas.get((i, j), np.inf)
                if np.linalg.norm(np.asarray(estimates[i]) - np.asarray(estimates[j])) > lim:
                    return None
    rows = [hoscbf_pair(chain, ests[i], model, np.asarray(estimates[i], dtype=float),
                        gammas[i], z=zs[i])
            for i in range(m) for chain in chains]
    A, b = zip(*rows)
    return np.array(A), np.array(b)


def latin_hypercube(rng: np.random.Generator, count: int, dims: int,
                    lo: float, hi: float) -> np.ndarray:
    """Stratified (Latin hypercube) samples over the cube [lo, hi]^dims."""
    bins = (np.arange(count)[:, None] + rng.random((count, dims))) / count
    for d in range(dims):
        bins[:, d] = bins[rng.permutation(count), d]
    return lo + bins * (hi - lo)


def _ball_sample(rng: np.random.Generator, dims: int, radius: float) -> np.ndarray:
    v = rng.standard_normal(dims)
    n = np.linalg.norm(v)
    if n == 0.0:
        return np.zeros(dims)
    return v / n * radius * rng.random() ** (1.0 / dims)


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


def falsify_region(verdicts: Callable[[int, int], np.ndarray], report: Callable[[int], dict],
                   sampler_info: dict, budget: int) -> dict:
    """Check samples 0..budget-1 in blocks of _BLOCK; first infeasible one wins.

    verdicts(lo, hi) tells for samples lo..hi-1 at once whether a point
    shows each feasible, and report(k) gives the pointwise dict of sample k
    (with a "point" entry describing the sampled configuration). The report
    of the first unsettled sample is the one check that certifies it or
    raises; an FtcbfError it raises comes out as the same class with the
    sample index and sampler seed before its message. Deterministic given
    the sampler seed.
    """
    if budget < 1:
        raise ContractError("falsification budget must be positive")
    out = None
    seeds = sampler_info.get("seeds", [])
    for lo in range(0, budget, _BLOCK):
        hi = min(lo + _BLOCK, budget)
        k = _first_infeasible(verdicts, lo, hi)
        if k < hi:
            try:
                out = report(k)
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
    m = len(ests)
    rng = np.random.default_rng(seed)
    theta_min = min(thetas.values()) if thetas else 0.0
    base_pts = latin_hypercube(rng, budget, model.n, -box, box)
    # Each sample's estimate offsets, then its errors, drawn sample by sample.
    radii = [theta_min / 2.0] * m + [gammas[i] for i in range(m)]
    draws = np.empty((budget, 2 * m, model.n))
    for k in range(budget):
        for i, radius in enumerate(radii):
            draws[k, i] = _ball_sample(rng, model.n, radius)

    def sample(lo, hi):
        base = base_pts[lo:hi].copy()
        for chain, pushed in zip(chains, _pushed(np.arange(lo, hi), chains)):
            if pushed.any():
                d, at = chain.rel_degree, base[pushed]
                base[pushed] = _to_level(at, chain.shrunk(d, at, max(gammas)), chain.grad(d, at))
        return base[:, None] + draws[lo:hi, :m], draws[lo:hi, m:]

    def verdicts(lo, hi):
        rows = [_ft_rows(chains, model, ests, e, z, gammas, thetas)
                for e, z in zip(*sample(lo, hi))]
        # A sample whose premise fails is feasible by premise.
        posed = np.array([r is not None for r in rows])
        ok = ~posed
        if posed.any():
            A, b = map(np.array, zip(*(r for r in rows if r is not None)))
            ok[posed] = farkas_verdicts(A, b)
        return ok

    def report(k):
        (estimates,), (zs,) = sample(k, k + 1)
        out = verify_ft_set_pointwise(chains, model, ests, list(estimates), list(zs), gammas,
                                      thetas)
        out["point"] = {"estimates": estimates.tolist(), "zs": zs.tolist()}
        return out

    info = {"conditions": f"sensor FT-HOSCBF set, m={m}, box={box}", "seeds": [seed]}
    return falsify_region(verdicts, report, info, budget)


def falsify_actuator_region(af_chain_sets: Sequence[Sequence[BarrierChain]],
                            patterns: Sequence[np.ndarray], model: SystemModel,
                            box: float, budget: int, seed: int = 0,
                            alpha: Callable[[float], float] = lambda s: s) -> dict:
    """Sample states in the safe part of the box and Farkas-check the
    policy's rows A u >= b at each (af_rows, all barriers under every
    pattern jointly). Half the samples are pushed to a barrier boundary,
    where the constraints bind. alpha acts elementwise on a stack."""
    rng = np.random.default_rng(seed)
    pts = latin_hypercube(rng, budget, model.n, -box, box)
    # cs[0] is barrier k's chain under patterns[0]; only its degree-0 member
    # is read, and that member is h itself under every mask.
    barrier_chains = [cs[0] for cs in af_chain_sets]

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

    def verdicts(lo, hi):
        A, b, _ = af_rows(af_chain_sets, states(lo, hi), patterns, model, alpha=alpha)
        return farkas_verdicts(A, b)

    def report(k):
        x = states(k, k + 1)[0]
        try:
            A, b, _ = af_rows(af_chain_sets, x, patterns, model, alpha=alpha)
        except RedundancyError as exc:
            return {"feasible": False, "certificate": None,
                    "reason": str(exc), "point": {"x": x.tolist()}}
        y = farkas_certificate(A, b)
        return {"feasible": y is None, "certificate": y,
                "point": {"x": x.tolist()}}

    info = {"conditions": f"actuator CBF set, patterns={len(patterns)}, box={box}",
            "seeds": [seed]}
    return falsify_region(verdicts, report, info, budget)
