"""Independent reference implementations that tests compare the package against.

Nothing under ``src/`` calls these; they are written plainly, with no shared
helpers, so that a fault in the package cannot hide in its own reference.
"""

from typing import NamedTuple

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


def solve_one_preference(mop, scalarizer, w, x0, steps, lr=0.05, mu=0.05, z=-0.05):
    """Projected gradient descent on one preference's scalarized loss, one
    2-vector at a time: the loop ``toybench.solve_scalarized`` replaced.  The
    step is w @ grad (linear), w_j grad_j at the worst weighted deviation j
    (tch), or (softmax(w (f - z) / mu) * w) @ grad (stch); returns (x, f(x))."""
    w = np.asarray(w, dtype=np.float64)
    z = np.full(mop.m, z, dtype=np.float64)
    x = np.array(x0, dtype=np.float64)
    for _ in range(steps):
        fx, gx = mop.f(x), mop.grad(x)
        if scalarizer == "linear":
            g = w @ gx
        elif scalarizer == "tch":
            j = int(np.argmax(w * (fx - z)))
            g = w[j] * gx[j]
        else:
            y = w * (fx - z) / mu
            e = np.exp(y - np.max(y))
            g = (e / e.sum() * w) @ gx
        x = np.clip(x - lr * g, mop.lo, mop.hi)
    return x, mop.f(x)


class ActSample(NamedTuple):
    action: np.ndarray     # clamped into [0, 1]^d
    log_prob: float        # density of the pre-clamp sample
    pre_clamp: np.ndarray


def act(actor, state, w, rng) -> ActSample:
    """One draw from the actor's diagonal Gaussian at [state, w]: the mean
    plus std times act_dim fresh standard normals, clamped into the box, with
    the log density of the raw, pre-clamp sample."""
    means = actor.mean_forward(np.concatenate((state, w))[None, :])[0][0]
    std = np.exp(actor.log_std)
    pre = means + std * rng.standard_normal(actor.action_dim)
    z = (pre - means) / std
    half_log_2pi = 0.5 * float(np.log(2.0 * np.pi))
    log_prob = float(-0.5 * (z * z).sum() - actor.log_std.sum() - pre.size * half_log_2pi)
    return ActSample(np.minimum(np.maximum(pre, 0.0), 1.0), log_prob, pre)


def act_deterministic(actor, state, w) -> np.ndarray:
    """The actor's mean action at [state, w], clamped into the box."""
    means = actor.mean_forward(np.concatenate((state, w))[None, :])[0][0]
    return np.minimum(np.maximum(means, 0.0), 1.0)
