"""Preference handling, return normalization, objective attention and its mix.

Everything here works in maximization form on normalized returns
r_bar in [0, 1]^m with a utopia point z* = zeta * ones sitting strictly above
the normalized range.  The attention is the gradient, divided by w, of the
smooth Tchebycheff value (Lin et al., ICML 2024)

    S(r_bar) = -mu * log sum_i exp(w_i * (z*_i - r_bar_i) / mu),

which is maximized as every weighted deviation shrinks.  mu -> 0 recovers the
hard Tchebycheff objective; mu -> infinity approaches a weighted sum.  S itself
lives in ``tests/oracles.py``, as the reference whose finite differences the
attention must match.
"""

from __future__ import annotations

import numpy as np

from pastarl.errors import ConfigError, ContractViolationError

SIMPLEX_TOL = 1e-9
NORM_EPS = 1e-8


def preference_vector(values, m: int | None = None) -> np.ndarray:
    """Validate a preference vector: finite, non-negative, sums to 1 within 1e-9."""
    w = np.asarray(values, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ConfigError(f"preference must be a non-empty 1-D vector, got shape {w.shape}")
    if m is not None and w.size != m:
        raise ConfigError(f"preference has {w.size} entries, expected {m}")
    if not np.all(np.isfinite(w)):
        raise ConfigError(f"preference entries must be finite: {w.tolist()}")
    if np.any(w < 0):
        raise ConfigError(f"preference entries must be non-negative: {w.tolist()}")
    if abs(float(w.sum()) - 1.0) > SIMPLEX_TOL:
        raise ConfigError(f"preference must sum to 1 (got {float(w.sum())!r})")
    return w


def utopia_point(m: int, zeta: float = 1.05) -> np.ndarray:
    """z* = zeta * ones; zeta must exceed the normalized ceiling of 1."""
    if zeta <= 1.0:
        raise ConfigError(f"utopia offset zeta must be > 1, got {zeta}")
    return np.full(m, float(zeta))


class ReturnNormalizer:
    """Running per-objective min/max used to map raw returns into [0, 1].

    Extrema only ever widen; r_bar_i = (mean_i - min_i) / (max_i - min_i + eps)
    clipped to [0, 1].  With a single observed value per objective the spread
    is zero and the normalized value is 0 by the epsilon guard.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ConfigError("need at least one objective")
        self.m = m
        self.low = np.full(m, np.inf)
        self.high = np.full(m, -np.inf)

    def update_and_normalize(self, returns: np.ndarray) -> np.ndarray:
        """Absorb a batch of episodic return vectors, return normalized means.

        returns: (n_episodes, m) with n_episodes >= 1.
        """
        batch = np.asarray(returns, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[0] == 0 or batch.shape[1] != self.m:
            raise ContractViolationError(
                f"returns batch must be (n>=1, {self.m}), got {batch.shape}"
            )
        self.low = np.minimum(self.low, batch.min(axis=0))
        self.high = np.maximum(self.high, batch.max(axis=0))
        mean = batch.mean(axis=0)
        r_bar = (mean - self.low) / (self.high - self.low + NORM_EPS)
        return np.clip(r_bar, 0.0, 1.0)


def _deviations(r_bar: np.ndarray, w: np.ndarray, z_star: np.ndarray) -> np.ndarray:
    r_bar = np.asarray(r_bar, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    z_star = np.asarray(z_star, dtype=np.float64)
    if not (r_bar.shape == w.shape == z_star.shape):
        raise ContractViolationError(
            f"shape mismatch: r_bar {r_bar.shape}, w {w.shape}, z* {z_star.shape}"
        )
    return w * (z_star - r_bar)


def tch_worst_index(r_bar: np.ndarray, w: np.ndarray, z_star: np.ndarray) -> tuple[int, np.ndarray]:
    """Hard Tchebycheff: index of the largest weighted deviation (ties -> lowest)."""
    y = _deviations(r_bar, w, z_star)
    return int(np.argmax(y)), y


def stch_attention(r_bar: np.ndarray, w: np.ndarray, z_star: np.ndarray, mu: float) -> np.ndarray:
    """Objective attention delta_i = softmax_i(y_i / mu).

    The softmax of weighted deviations; equals dS/dr_bar_i up to the chain
    factor w_i, and sums to 1.
    """
    if mu <= 0:
        raise ConfigError(f"smoothing mu must be positive, got {mu}")
    y = _deviations(r_bar, w, z_star) / mu
    e = np.exp(y - np.max(y))
    return e / e.sum()


def maintenance_mix(delta: np.ndarray, rho: float) -> np.ndarray:
    """Blend attention with uniform: eta = (1 - rho) * delta + rho / m.

    Guarantees eta_i >= rho / m so no objective's critic head starves.
    """
    if not 0.0 < rho < 1.0:
        raise ConfigError(f"maintenance rho must lie in (0, 1), got {rho}")
    delta = np.asarray(delta, dtype=np.float64)
    return (1.0 - rho) * delta + rho / delta.size
