"""Synthetic differentiable bi-objective problems with known Pareto fronts.

These are minimization problems used to show, without RL noise, that linear
scalarization cannot land inside concave front regions while small-mu smooth
Tchebycheff can.  The scalarizers reuse the maximization-form machinery by
negating objectives: minimizing f against a lower utopia z is identical to
maximizing -f against the ceiling -z.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from pastarl.errors import ConfigError, DivergenceError
from pastarl.scalarize import stch_attention

SCALARIZERS = ("linear", "tch", "stch")


@dataclass
class SyntheticMop:
    name: str
    n: int
    m: int
    f: Callable[[np.ndarray], np.ndarray]      # (..., n) -> (..., m), batched
    grad: Callable[[np.ndarray], np.ndarray]   # (n,) -> (m, n)
    lo: np.ndarray
    hi: np.ndarray


def convex_mop() -> SyntheticMop:
    """f1 = x^2, f2 = (x-1)^2 on [-1, 2]: a convex bi-objective classic."""

    def f(x):
        x = np.asarray(x, dtype=np.float64)
        x0 = x[..., 0]
        return np.stack([x0**2, (x0 - 1.0) ** 2], axis=-1)

    def grad(x):
        x0 = float(np.asarray(x).reshape(-1)[0])
        return np.array([[2.0 * x0], [2.0 * (x0 - 1.0)]])

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
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        diff = x[None, :] - anchors  # (2, n)
        d2 = (diff**2).sum(axis=1)
        return 2.0 * alpha * np.exp(-alpha * d2)[:, None] * diff

    margin = 0.25
    lo = anchors.min(axis=0) - margin
    hi = anchors.max(axis=0) + margin
    return SyntheticMop("concave", 2, 2, f, grad, lo, hi)


def solve_scalarized(
    mop: SyntheticMop,
    scalarizer: str,
    w: np.ndarray,
    x0: np.ndarray,
    steps: int = 2000,
    lr: float = 0.05,
    mu: float = 0.05,
    z: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient descent on the scalarized loss; returns (x, f(x)).

    z is the minimization-form utopia (strictly below the ideal point);
    defaults to -0.05 per objective.  The hard-Tchebycheff rule follows the
    subgradient recipe: find the worst weighted deviation, step along that
    single objective's weighted gradient.
    """
    if scalarizer not in SCALARIZERS:
        raise ConfigError(f"scalarizer must be one of {SCALARIZERS}, got {scalarizer!r}")
    w = np.asarray(w, dtype=np.float64)
    z = np.full(mop.m, -0.05) if z is None else np.asarray(z, dtype=np.float64)
    x = np.asarray(x0, dtype=np.float64).copy()
    for k in range(steps):
        fx = mop.f(x)
        gx = mop.grad(x)  # (m, n)
        if scalarizer == "linear":
            g = w @ gx
        elif scalarizer == "tch":
            j = int(np.argmax(w * (fx - z)))
            g = w[j] * gx[j]
        else:
            # softmax(w_i (f_i - z_i) / mu) via the maximization-form helper
            delta = stch_attention(-fx, w, -z, mu)
            g = (delta * w) @ gx
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
    keep = _nondominated_2d_min(objs)
    front_objs, idx = np.unique(objs[keep], axis=0, return_index=True)
    return front_objs, xs[keep][idx]


def _nondominated_2d_min(objs: np.ndarray) -> np.ndarray:
    order = np.lexsort((objs[:, 1], objs[:, 0]))
    keep = np.zeros(objs.shape[0], dtype=bool)
    best_f1 = np.inf
    for i in order:
        if objs[i, 1] < best_f1:
            keep[i] = True
            best_f1 = objs[i, 1]
    return keep


def tch_oracle_point(front_objs: np.ndarray, w: np.ndarray, z: np.ndarray | None = None) -> np.ndarray:
    """Front point minimizing the hard Tchebycheff value max_i w_i (f_i - z_i)."""
    w = np.asarray(w, dtype=np.float64)
    z = np.full(front_objs.shape[1], -0.05) if z is None else np.asarray(z, dtype=np.float64)
    vals = np.max(w * (front_objs - z), axis=1)
    return front_objs[int(np.argmin(vals))]


def stch_oracle_point(
    front_objs: np.ndarray, w: np.ndarray, mu: float = 0.05, z: np.ndarray | None = None
) -> np.ndarray:
    """Front point minimizing the smooth Tchebycheff value at the same mu.

    Grid search over the oracle front; the independent check for what
    gradient descent on the identical objective should reach.
    """
    w = np.asarray(w, dtype=np.float64)
    z = np.full(front_objs.shape[1], -0.05) if z is None else np.asarray(z, dtype=np.float64)
    y = w * (front_objs - z) / mu
    y_max = y.max(axis=1, keepdims=True)
    vals = mu * (y_max[:, 0] + np.log(np.exp(y - y_max).sum(axis=1)))
    return front_objs[int(np.argmin(vals))]


def front_endpoints(front_objs: np.ndarray) -> np.ndarray:
    """Extreme front points: the best achiever of each single objective."""
    return np.stack([front_objs[int(np.argmin(front_objs[:, i]))] for i in range(front_objs.shape[1])])
