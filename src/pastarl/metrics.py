"""Exact hypervolume of a point set in the unit box.

Assumes maximization with points normalized to [0, 1]^m and the reference
point at the origin, so the hypervolume of a set is the Lebesgue measure of
the union of boxes [0, p].  ``pastarl compare`` scores each run by its final
evaluation and calls none of this yet; it stays, with its oracle tests, for
the front scores still to come: the hypervolume of a method's front, one
point per preference, under fixed normalization bounds declared in advance.
"""

from __future__ import annotations

import numpy as np

from pastarl.errors import ContractViolationError


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
