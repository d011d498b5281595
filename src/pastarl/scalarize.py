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

An stch row weights its objectives once per iteration, by
eta = maintenance_mix(p, rho) of p = w * delta / sum(w * delta), the
normalized gradient of S: the actor's coefficients are m * eta, and the
critic's value loss weighs its heads by eta.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from pastarl.errors import ConfigError, ContractViolationError

SIMPLEX_TOL = 1e-9
NORM_EPS = 1e-8

# The coefficient rules of ``actor_coefficients``.
SCALARIZERS = ("linear", "tch", "stch")


class Algorithm(NamedTuple):
    """One training algorithm, a row of the README's algorithm table."""

    mu: str | None   # the smoothing's source: "controller", the "fixed_mu" knob, or none
    rule: str        # the actor_coefficients rule that weights the objectives
    clip: str        # PPO's clip: per "objective", or on the "scalarized" advantage A . c
    projects: bool   # project conflicting per-objective gradients (unless no_pcgrad)


ALGORITHMS = {
    "pasta": Algorithm("controller", "stch", "objective", True),
    "linear": Algorithm(None, "linear", "scalarized", False),
    "tch": Algorithm(None, "tch", "objective", False),
    "stch_fixed": Algorithm("fixed_mu", "stch", "objective", True),
}


def preference_vector(values, m: int | None = None) -> np.ndarray:
    """Validate a preference vector: finite, non-negative, sums to 1 within 1e-9."""
    try:
        w = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise ConfigError(f"preference entries must be numbers: {values!r}") from None
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
    """w * (z* - r_bar), broadcast over leading axes; the last axes must agree."""
    r_bar, w, z_star = (np.asarray(a, dtype=np.float64) for a in (r_bar, w, z_star))
    if r_bar.shape[-1:] == w.shape[-1:] == z_star.shape[-1:] != ():
        try:
            return w * (z_star - r_bar)
        except ValueError:  # leading axes that do not broadcast
            pass
    raise ContractViolationError(f"shape mismatch: r_bar {r_bar.shape}, w {w.shape}, z* {z_star.shape}")


def tch_worst_index(r_bar: np.ndarray, w: np.ndarray, z_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hard Tchebycheff, row-wise: index of the largest weighted deviation (ties -> lowest)."""
    y = _deviations(r_bar, w, z_star)
    return np.argmax(y, axis=-1), y


def stch_attention(r_bar: np.ndarray, w: np.ndarray, z_star: np.ndarray, mu: float) -> np.ndarray:
    """Objective attention delta_i = softmax_i(y_i / mu), row-wise over the last axis.

    The softmax of weighted deviations; equals dS/dr_bar_i up to the chain
    factor w_i, and each row sums to 1.
    """
    if mu <= 0:
        raise ConfigError(f"smoothing mu must be positive, got {mu}")
    y = _deviations(r_bar, w, z_star) / mu
    e = np.exp(y - np.max(y, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def maintenance_mix(p: np.ndarray, rho: float) -> np.ndarray:
    """Blend a weighting p on the simplex with uniform: eta = (1 - rho) * p + rho / m.

    Guarantees eta_i >= rho / m, so no objective's actor row or critic head
    starves.
    """
    if not 0.0 < rho < 1.0:
        raise ConfigError(f"maintenance rho must lie in (0, 1), got {rho}")
    p = np.asarray(p, dtype=np.float64)
    return (1.0 - rho) * p + rho / p.shape[-1]


def actor_coefficients(rule: str, r_bar, w, z_star, mu: float) -> np.ndarray:
    """Per-objective actor coefficients c (..., m), row-wise over leading axes.

    linear: w.  tch: w_j * e_j at the worst objective j of ``tch_worst_index``.
    stch: w * delta = dS/dr_bar of the attention delta at mu, the only rule
    that reads mu; normalized, it tends to w as mu -> infinity and to tch's
    e_j as mu -> 0 (Lin et al., ICML 2024).
    """
    if rule == "stch":
        return np.asarray(w, dtype=np.float64) * stch_attention(r_bar, w, z_star, mu)
    j, y = tch_worst_index(r_bar, w, z_star)
    w = np.broadcast_to(np.asarray(w, dtype=np.float64), y.shape)
    if rule == "linear":
        return w.copy()
    if rule == "tch":
        return np.where(np.arange(y.shape[-1]) == j[..., None], w, 0.0)
    raise ConfigError(f"coefficient rule must be one of {SCALARIZERS}, got {rule!r}")
