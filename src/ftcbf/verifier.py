"""Desk-scale feasibility verification by falsification.

Full algebraic (sum-of-squares) certification of the constraint-set emptiness
conditions needs an SDP stack and is out of scope; these checks instead hunt
for counterexamples: pointwise Farkas certificates at sampled configurations
of estimates and estimation errors (sensor case) or states in the safe box
(actuator case). A clean report therefore says "no counterexample in N
samples", never "verified"; a returned counterexample is a sound witness of
infeasibility and reproduces as an infeasible QP on the same rows.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .barriers import BarrierChain, af_rows, hoscbf_pair
from .errors import ContractError, RedundancyError
from .optimizer import farkas_certificate
from .simulator import SystemModel


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
    if thetas:
        for i in range(m):
            for j in range(i + 1, m):
                lim = thetas.get((i, j), np.inf)
                if np.linalg.norm(np.asarray(estimates[i]) - np.asarray(estimates[j])) > lim:
                    return {"feasible": True, "vacuous": True, "certificate": None}
    rows = [hoscbf_pair(chain, ests[i], model, np.asarray(estimates[i], dtype=float),
                        gammas[i], z=zs[i])
            for i in range(m) for chain in chains]
    A, b = zip(*rows)
    y = farkas_certificate(np.array(A), np.array(b))
    return {"feasible": y is None, "vacuous": False, "certificate": y}


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


def _to_level(x: np.ndarray, value: float, w: np.ndarray) -> np.ndarray:
    """x moved along the gradient w by one Newton step toward the zero level
    of a function worth value at x; x itself where w vanishes."""
    nrm2 = float(w @ w)
    if nrm2 <= 1e-14:
        return x
    return x - value * w / nrm2


def falsify_region(check: Callable[[int], dict], sampler_info: dict, budget: int) -> dict:
    """Run `check(k)` for k = 0..budget-1; first infeasible point wins.

    check returns the pointwise dict (with a "point" entry describing the
    sampled configuration). Deterministic given the sampler seed.
    """
    if budget < 1:
        raise ContractError("falsification budget must be positive")
    for k in range(budget):
        out = check(k)
        if not out["feasible"]:
            break
    found = not out["feasible"]
    return {
        "checked_conditions": sampler_info.get("conditions", ""),
        "samples": k + 1,
        "budget": budget,
        "counterexample": out if found else None,
        "seeds": sampler_info.get("seeds", []),
        "verdict": "counterexample" if found else f"no counterexample in {budget} samples",
    }


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

    def check(k):
        base = base_pts[k].copy()
        if k % 2 == 1:
            chain = chains[k // 2 % len(chains)]
            d = chain.rel_degree
            base = _to_level(base, chain.shrunk(d, base, max(gammas)), chain.grad(d, base))
        estimates = [base + _ball_sample(rng, model.n, theta_min / 2.0) for _ in range(m)]
        zs = [_ball_sample(rng, model.n, gammas[i]) for i in range(m)]
        out = verify_ft_set_pointwise(chains, model, ests, estimates, zs, gammas, thetas)
        out["point"] = {"estimates": [e.tolist() for e in estimates],
                        "zs": [z.tolist() for z in zs]}
        return out

    info = {"conditions": f"sensor FT-HOSCBF set, m={m}, box={box}", "seeds": [seed]}
    return falsify_region(check, info, budget)


def falsify_actuator_region(af_chain_sets: Sequence[Sequence[BarrierChain]],
                            patterns: Sequence[np.ndarray], model: SystemModel,
                            box: float, budget: int, seed: int = 0,
                            alpha: Callable[[float], float] = lambda s: s) -> dict:
    """Sample states in the safe part of the box and Farkas-check the
    policy's rows A u >= b at each (af_rows, all barriers under every
    pattern jointly). Half the samples are pushed to a barrier boundary,
    where the constraints bind."""
    rng = np.random.default_rng(seed)
    pts = latin_hypercube(rng, budget, model.n, -box, box)
    barrier_chains = [cs[0] for cs in af_chain_sets]  # unmasked member per barrier

    def check(k):
        x = pts[k].copy()
        if k % 2 == 1 and barrier_chains:
            ch = barrier_chains[k // 2 % len(barrier_chains)]
            x = _to_level(x, ch.value(0, x), ch.grad(0, x))
        # Then back into the safe set, barrier by barrier.
        for ch in barrier_chains:
            v = ch.value(0, x)
            if v < 0.0:
                x = _to_level(x, v, ch.grad(0, x))
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
    return falsify_region(check, info, budget)
