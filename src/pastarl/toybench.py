"""Synthetic differentiable bi-objective problems with known Pareto fronts.

These are minimization problems used to show, without RL noise, that linear
scalarization cannot land inside concave front regions while small-mu smooth
Tchebycheff can.  The scalarizers reuse the maximization-form machinery by
negating objectives: minimizing f against a lower utopia z is identical to
maximizing -f against the ceiling -z.

Preferences, starts and objective values carry any leading batch axes, so one
call solves every preference; a single preference has no leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from pastarl.errors import ContractViolationError, DivergenceError
from pastarl.scalarize import actor_coefficients


@dataclass
class SyntheticMop:
    name: str
    n: int
    m: int
    f: Callable[[np.ndarray], np.ndarray]      # (..., n) -> (..., m), batched
    grad: Callable[[np.ndarray], np.ndarray]   # (..., n) -> (..., m, n), batched
    lo: np.ndarray
    hi: np.ndarray


def convex_mop() -> SyntheticMop:
    """f1 = x^2, f2 = (x-1)^2 on [-1, 2]: a convex bi-objective classic."""

    def f(x):
        x = np.asarray(x, dtype=np.float64)
        x0 = x[..., 0]
        return np.stack([x0**2, (x0 - 1.0) ** 2], axis=-1)

    def grad(x):
        x0 = np.asarray(x, dtype=np.float64)[..., :1]
        return np.stack([2.0 * x0, 2.0 * (x0 - 1.0)], axis=-2)

    return SyntheticMop("convex", 1, 2, f, grad, np.array([-1.0]), np.array([2.0]))


def concave_mop(spread: float = 1.7, alpha: float = 1.0) -> SyntheticMop:
    """Two-basin exponential family f_i(x) = 1 - exp(-alpha ||x - a_i||^2).

    Anchors sit at (0, 0) and (spread, spread); the Pareto set is the segment
    between them, and for a large enough alpha * spread^2 the front bulges
    above its chord, i.e. it is concave (in the minimization sense), so
    weighted sums only ever find the endpoints.
    """
    anchors = np.array([[0.0, 0.0], [spread, spread]])

    def f(x):
        x = np.asarray(x, dtype=np.float64)
        d2 = ((x[..., None, :] - anchors) ** 2).sum(axis=-1)  # (..., 2)
        return 1.0 - np.exp(-alpha * d2)

    def grad(x):
        diff = np.asarray(x, dtype=np.float64)[..., None, :] - anchors  # (..., 2, n)
        d2 = (diff**2).sum(axis=-1, keepdims=True)
        return 2.0 * alpha * np.exp(-alpha * d2) * diff

    margin = 0.25
    lo = anchors.min(axis=0) - margin
    hi = anchors.max(axis=0) + margin
    return SyntheticMop("concave", 2, 2, f, grad, lo, hi)


def solve_scalarized(
    mop: SyntheticMop,
    scalarizer: str,
    W: np.ndarray,
    X0: np.ndarray,
    steps: int = 2000,
    lr: float = 0.05,
    mu: float = 0.05,
    z: np.ndarray | float = -0.05,
) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient descent on the scalarized loss; returns (x, f(x)).

    W (..., m) and X0 (..., n) share their leading axes, one independent
    problem per preference row; x (..., n) and f(x) (..., m) keep those axes.
    z is the minimization-form utopia (strictly below the ideal point), -0.05
    per objective by default.  Each step goes along c @ grad f, with the
    trainer's ``actor_coefficients`` c at -f(x) against the ceiling -z, w * delta
    for stch (tch's c is the subgradient recipe).
    """
    W, x = np.asarray(W, dtype=np.float64), np.array(X0, dtype=np.float64)
    if W.shape[:-1] != x.shape[:-1]:
        raise ContractViolationError(f"preferences {W.shape} and starts {x.shape} differ in leading axes")
    z = np.full(mop.m, z, dtype=np.float64)
    for k in range(steps):
        c = actor_coefficients(scalarizer, -mop.f(x), W, -z, mu, np.multiply)
        g = (c[..., None, :] @ mop.grad(x))[..., 0, :]
        x = np.clip(x - lr * g, mop.lo, mop.hi)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(f"toy solver diverged at step {k}")
    return x, mop.f(x)


def pareto_grid_oracle(
    mop: SyntheticMop, resolution: int = 400
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force non-dominated filter over a dense grid of the decision box.

    Returns (front_objectives, front_points) with duplicate objective rows
    removed.  Minimization dominance: a <= b componentwise with one strict.
    Both objectives are filtered in one sweep, so mop must be bi-objective, as
    both factories here are.
    """
    axes = [np.linspace(mop.lo[d], mop.hi[d], resolution) for d in range(mop.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    xs = np.stack([g.ravel() for g in mesh], axis=1)
    objs = mop.f(xs)
    # Sorted by f0, then f1, a point is non-dominated iff its f1 is below
    # every earlier point's (an exact duplicate is not: only its first copy).
    order = np.lexsort((objs[:, 1], objs[:, 0]))
    f1 = objs[order, 1]
    keep = order[f1 < np.minimum.accumulate(np.concatenate(([np.inf], f1[:-1])))]
    front_objs, idx = np.unique(objs[keep], axis=0, return_index=True)
    return front_objs, xs[keep][idx]


def linear_oracle_point(front_objs: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Front point minimizing the weighted sum f . w, per preference row of W (..., m)."""
    vals = np.asarray(W, dtype=np.float64) @ front_objs.T
    return front_objs[np.argmin(vals, axis=-1)]


def tch_oracle_point(front_objs: np.ndarray, W: np.ndarray, z: np.ndarray | float = -0.05) -> np.ndarray:
    """Front point minimizing max_i w_i (f_i - z_i), per preference row of W (..., m)."""
    W = np.asarray(W, dtype=np.float64)[..., None, :]
    vals = np.max(W * (front_objs - z), axis=-1)
    return front_objs[np.argmin(vals, axis=-1)]


def stch_oracle_point(
    front_objs: np.ndarray, W: np.ndarray, mu: float = 0.05, z: np.ndarray | float = -0.05
) -> np.ndarray:
    """Front point minimizing the smooth Tchebycheff value at mu, per row of W (..., m).

    Grid search over the oracle front; the independent check for what
    gradient descent on the identical objective should reach.
    """
    W = np.asarray(W, dtype=np.float64)[..., None, :]
    y = W * (front_objs - z) / mu
    y_max = y.max(axis=-1, keepdims=True)
    vals = mu * (y_max[..., 0] + np.log(np.exp(y - y_max).sum(axis=-1)))
    return front_objs[np.argmin(vals, axis=-1)]


def front_endpoints(front_objs: np.ndarray) -> np.ndarray:
    """Extreme front points: the best achiever of each single objective."""
    return front_objs[np.argmin(front_objs, axis=0)]


def nearest_endpoint(front_objs: np.ndarray, F: np.ndarray) -> np.ndarray:
    """The front endpoint closest to each objective row of F (..., m)."""
    ends = front_endpoints(front_objs)
    dist = np.linalg.norm(ends - np.asarray(F)[..., None, :], axis=-1)
    return ends[np.argmin(dist, axis=-1)]
