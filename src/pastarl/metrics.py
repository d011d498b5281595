"""Pareto-front evaluation metrics: hypervolume, win rate, dominance, profiles.

All metrics assume maximization with points normalized to [0, 1]^m and the
reference point at the origin, so the hypervolume of a set is the Lebesgue
measure of the union of boxes [0, p].  Normalization bounds must be shared
across every method entering a comparison; normalize_points handles that.
"""

from __future__ import annotations

import numpy as np

from pastarl.errors import ContractViolationError

WIN_TIE_TOL = 1e-12
DOMINANCE_TOL = 1e-9


def _clean_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return pts.reshape(0, 0)
    if pts.ndim == 1:
        pts = pts[None, :]
    if np.any(pts < -1e-12) or np.any(pts > 1.0 + 1e-12):
        raise ContractViolationError("hypervolume points must lie in [0, 1]^m")
    return np.clip(pts, 0.0, 1.0)


def hypervolume(points) -> float:
    """Exact hypervolume of ∪_p [0, p] by recursive dimension slicing.

    Sorts the final coordinate's distinct levels and sums slab thickness
    times the (m-1)-dimensional hypervolume of the points reaching each slab.
    Exact for the m <= 4 used here (any small m works, just slowly).
    """
    pts = _clean_points(points)
    if pts.shape[0] == 0:
        return 0.0
    return _hv_recursive(pts)


def _hv_recursive(pts: np.ndarray) -> float:
    m = pts.shape[1]
    if m == 1:
        return float(pts.max())
    if m == 2:
        # Sweep x descending; each new point adds width * additional height.
        order = np.argsort(-pts[:, 0])
        area, best_y = 0.0, 0.0
        for x, y in pts[order]:
            if y > best_y:
                area += x * (y - best_y)
                best_y = y
        return float(area)
    levels = np.unique(pts[:, -1])[::-1]  # descending distinct last coords
    total = 0.0
    for idx, z in enumerate(levels):
        z_next = levels[idx + 1] if idx + 1 < len(levels) else 0.0
        slab = z - z_next
        reach = pts[pts[:, -1] >= z - 1e-15][:, :-1]
        total += slab * _hv_recursive(reach)
    return float(total)


def normalize_points(groups: dict) -> dict:
    """Min-max normalize every group's points with bounds shared across groups.

    groups: label -> (n, m) raw point array.  Degenerate objectives (zero
    spread) map to 0 through the epsilon guard.
    """
    all_pts = np.vstack([np.atleast_2d(np.asarray(v, dtype=np.float64)) for v in groups.values()])
    lo = all_pts.min(axis=0)
    hi = all_pts.max(axis=0)
    span = hi - lo + 1e-8
    return {
        label: np.clip((np.atleast_2d(np.asarray(v, dtype=np.float64)) - lo) / span, 0.0, 1.0)
        for label, v in groups.items()
    }


def win_rate(mean_hv: np.ndarray) -> np.ndarray:
    """Per-method fraction of preference columns where it attains the max HV.

    mean_hv: (n_methods, n_preferences).  Ties within 1e-12 count for all.
    """
    hv = np.atleast_2d(np.asarray(mean_hv, dtype=np.float64))
    col_max = hv.max(axis=0)
    wins = hv >= col_max - WIN_TIE_TOL
    return wins.mean(axis=1)


def objective_dominance_rate(per_objective_means: np.ndarray) -> np.ndarray:
    """Per-method fraction of (preference, objective) cells where it is best.

    per_objective_means: (n_methods, n_preferences, m); cells within 1e-9 of
    the cross-method max all count.
    """
    vals = np.asarray(per_objective_means, dtype=np.float64)
    best = vals.max(axis=0)
    hits = vals >= best - DOMINANCE_TOL
    return hits.reshape(vals.shape[0], -1).mean(axis=1)


def dolan_more_profile(hv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Performance ratios and the shared theta grid.

    hv: (n_instances, n_methods) of per-instance hypervolumes.  Ratio
    r_pb = max_beta HV_p,beta / HV_p,b; a zero HV maps to +inf.  The grid is
    the sorted union of finite ratios with 1 prepended.
    """
    hv = np.atleast_2d(np.asarray(hv, dtype=np.float64))
    best = hv.max(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(hv > 0.0, best / hv, np.inf)
    finite = ratios[np.isfinite(ratios)]
    grid = np.unique(np.concatenate([[1.0], finite])) if finite.size else np.array([1.0])
    return ratios, grid


def dolan_more_auc(hv: np.ndarray) -> np.ndarray:
    """Normalized area under each method's performance profile over [1, theta_max].

    theta_max is the largest finite ratio observed.  If every ratio is 1 the
    interval degenerates and AUC is the profile value at 1.  An all-zero HV
    column yields AUC 0.
    """
    ratios, grid = dolan_more_profile(hv)
    n_methods = ratios.shape[1]
    theta_max = grid[-1]
    aucs = np.zeros(n_methods)
    for b in range(n_methods):
        rho = np.array([(ratios[:, b] <= th).mean() for th in grid])
        if theta_max == 1.0:
            aucs[b] = rho[-1]
        else:
            aucs[b] = np.trapezoid(rho, grid) / (theta_max - 1.0)
    return aucs
