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

    Assembles A u <= Xi from the policy's own rows (hoscbf_pair) at each
    estimate x_hat_i, with the supplied z_i in place of the worst case:
    A = -row, Xi = -bound. Then asks for a certificate. When pairwise estimate
    distances violate theta_ij the premise of the feasibility condition fails
    and the check is reported vacuous (feasible by premise).
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
    A, Xi = [], []
    for i in range(m):
        x_hat = np.asarray(estimates[i], dtype=float)
        for chain in chains:
            row, bound = hoscbf_pair(chain, ests[i], model, x_hat, gammas[i], z=zs[i])
            A.append(-row)
            Xi.append(-bound)
    y = farkas_certificate(np.array(A), np.array(Xi))
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
            return {
                "checked_conditions": sampler_info.get("conditions", ""),
                "samples": k + 1,
                "budget": budget,
                "counterexample": out,
                "seeds": sampler_info.get("seeds", []),
                "verdict": "counterexample",
            }
    return {
        "checked_conditions": sampler_info.get("conditions", ""),
        "samples": budget,
        "budget": budget,
        "counterexample": None,
        "seeds": sampler_info.get("seeds", []),
        "verdict": f"no counterexample in {budget} samples",
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

    def push_to_boundary(x, chain, gamma):
        d = chain.rel_degree
        w = chain.grad(d, x)
        nrm2 = float(w @ w)
        if nrm2 < 1e-14:
            return x
        return x - chain.shrunk(d, x, gamma) * w / nrm2

    def check(k):
        base = base_pts[k].copy()
        if k % 2 == 1:
            chain = chains[k // 2 % len(chains)]
            base = push_to_boundary(base, chain, max(gammas))
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
    per-pattern row system (all barriers jointly). Half the samples are pushed
    to a barrier boundary, where the constraints bind."""
    rng = np.random.default_rng(seed)
    pts = latin_hypercube(rng, budget, model.n, -box, box)
    barrier_chains = [cs[0] for cs in af_chain_sets]  # unmasked member per barrier

    def safe(x):
        return all(cs[0].value(0, x) >= 0.0 for cs in af_chain_sets)

    def check(k):
        x = pts[k].copy()
        if k % 2 == 1 and barrier_chains:
            ch = barrier_chains[k // 2 % len(barrier_chains)]
            w = ch.grad(0, x)
            nrm2 = float(w @ w)
            if nrm2 > 1e-14:
                x = x - ch.value(0, x) * w / nrm2
        if not safe(x):
            for cs in af_chain_sets:
                ch = cs[0]
                v = ch.value(0, x)
                if v < 0.0:
                    w = ch.grad(0, x)
                    nrm2 = float(w @ w)
                    if nrm2 > 1e-14:
                        x = x - v * w / nrm2
        try:
            rows = [af_rows(chain_set, x, patterns, model, alpha=alpha)
                    for chain_set in af_chain_sets]
        except RedundancyError as exc:
            return {"feasible": False, "certificate": None,
                    "reason": str(exc), "point": {"x": x.tolist()}}
        A, b, _ = zip(*rows)
        y = farkas_certificate(-np.concatenate(A), -np.concatenate(b))
        return {"feasible": y is None, "certificate": y,
                "point": {"x": x.tolist()}}

    info = {"conditions": f"actuator CBF set, patterns={len(patterns)}, box={box}",
            "seeds": [seed]}
    return falsify_region(check, info, budget)
