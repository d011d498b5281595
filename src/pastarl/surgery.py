"""Per-objective gradient surgery on flat parameter vectors.

For each objective's gradient g_i, the other objectives' ORIGINAL gradients
are visited in a freshly shuffled order; whenever the current (partially
projected) g_i still conflicts with g_j (negative dot product), the component
of g_i along g_j is removed.  The fraction of examined ordered pairs found in
conflict is the batch conflict ratio kappa that drives the smoothness
controller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pastarl.errors import ContractViolationError

ZERO_NORM_EPS = 1e-12


@dataclass
class ProjectionResult:
    grads: np.ndarray          # (m, P) projected gradients
    pairs_examined: int        # m * (m - 1) ordered pairs
    conflicts_found: int

    @property
    def kappa(self) -> float:
        if self.pairs_examined == 0:
            return 0.0
        return self.conflicts_found / self.pairs_examined


def conflict_ratio(grads: np.ndarray) -> float:
    """Fraction of ordered pairs (i, j), i != j, with g_i . g_j < 0, unprojected."""
    g = np.asarray(grads, dtype=np.float64)
    m = g.shape[0]
    if m < 2:
        return 0.0
    # The diagonal holds squared norms, never negative.
    return int(np.sum(g @ g.T < 0.0)) / (m * (m - 1))


def project_conflicts(grads: np.ndarray, rng: np.random.Generator) -> ProjectionResult:
    """Project each gradient against the others' originals in shuffled order.

    grads: (m, P).  Conflicts are detected on the current working copy of g_i
    against the original g_j, and each detected conflict removes the g_j
    component:  g_i <- g_i - (g_i . g_j / ||g_j||^2) g_j.
    """
    original = np.asarray(grads, dtype=np.float64)
    if original.ndim != 2:
        raise ContractViolationError(f"grads must be (m, P), got shape {original.shape}")
    m = original.shape[0]
    projected = original.copy()
    if m < 2:
        return ProjectionResult(projected, 0, 0)
    sq_norms = np.einsum("ij,ij->i", original, original).tolist()
    conflicts = 0
    for i, row in enumerate(projected):  # row views: updates land in projected
        others = [j for j in range(m) if j != i]
        # permutation(m - 1) draws what permutation(others) draws; index others with it.
        for k in rng.permutation(m - 1).tolist():
            j = others[k]
            if sq_norms[j] <= ZERO_NORM_EPS:
                continue
            dot = float(row @ original[j])
            if dot < 0.0:
                conflicts += 1
                row -= (dot / sq_norms[j]) * original[j]
    return ProjectionResult(projected, m * (m - 1), conflicts)

