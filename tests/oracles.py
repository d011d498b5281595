"""Independent reference implementations that tests compare the package against.

Nothing under ``src/`` calls these; they are written plainly, with no shared
helpers, so that a fault in the package cannot hide in its own reference.
"""

import numpy as np


def stch_scalarize(r_bar, w, z_star, mu: float) -> float:
    """Smooth Tchebycheff value S = -mu * logsumexp(y / mu), y = w * (z* - r_bar).

    Lin et al., "Smooth Tchebycheff Scalarization for Multi-Objective
    Optimization" (ICML 2024), in maximization form on normalized returns.
    ``stch_attention`` times w must equal its gradient.  Uses the
    max-subtraction trick so tiny mu stays finite.
    """
    y = np.asarray(w, dtype=np.float64) * (
        np.asarray(z_star, dtype=np.float64) - np.asarray(r_bar, dtype=np.float64)
    ) / mu
    y_max = float(np.max(y))
    return -mu * (y_max + float(np.log(np.sum(np.exp(y - y_max)))))


def clipped_objective_loss(ratio, a_hat, clip_eps: float):
    """PPO's clipped surrogate, elementwise min(ratio * A, clip(ratio, 1-eps, 1+eps) * A)
    (Schulman et al., "Proximal Policy Optimization Algorithms", 2017)."""
    ratio = np.asarray(ratio, dtype=np.float64)
    a_hat = np.asarray(a_hat, dtype=np.float64)
    return np.minimum(ratio * a_hat, np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * a_hat)


def pareto_filter(points) -> np.ndarray:
    """Rows not strictly dominated by any other row (maximization)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    n = pts.shape[0]
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if not keep[i]:
            continue
        others = np.delete(np.arange(n), i)
        dominated = np.any(
            np.all(pts[others] >= pts[i], axis=1) & np.any(pts[others] > pts[i], axis=1)
        )
        if dominated:
            keep[i] = False
    return pts[keep]
