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


def attention_mix(r_bar, w, z_star, mu: float, rho: float) -> np.ndarray:
    """eta = (1 - rho) * p + rho / m, where p = w * delta / sum(w * delta) is
    the normalized gradient of the smooth Tchebycheff value, delta =
    softmax(w * (z* - r_bar) / mu): that gradient blended with the uniform
    weights."""
    w = np.asarray(w, dtype=np.float64)
    y = w * (np.asarray(z_star, dtype=np.float64) - np.asarray(r_bar)) / mu
    e = np.exp(y - np.max(y))
    p = w * e / e.sum()
    return (1.0 - rho) * p / p.sum() + rho / y.size


def actor_coefficients(rule: str, r_bar, w, z_star, mu: float, rho: float) -> np.ndarray:
    """The actor's per-objective coefficients c as the README states each rule.

    linear: w.  tch: w_j at the largest weighted deviation w_j (z*_j - r_bar_j),
    the lowest such j, and 0 elsewhere.  stch: m * eta, with eta the
    ``attention_mix`` that the critic's value loss also reads.
    """
    w = np.asarray(w, dtype=np.float64)
    if rule == "linear":
        return w.copy()
    if rule == "tch":
        j = int(np.argmax(w * (np.asarray(z_star) - np.asarray(r_bar))))
        return np.where(np.arange(w.size) == j, w, 0.0)
    return w.size * attention_mix(r_bar, w, z_star, mu, rho)


def pcgrad(grads, rng) -> np.ndarray:
    """Yu et al.'s projection (NeurIPS 2020) of each row of (m, P) grads:
    the other rows' originals are visited in the order rng.permutation of
    their indices gives, and g_i loses its component along each g_j it still
    conflicts with; a g_j of squared norm <= 1e-12 is skipped."""
    original = np.array(grads, dtype=np.float64)
    out = original.copy()
    m = len(original)
    for i in range(m):
        for j in rng.permutation([k for k in range(m) if k != i]):
            sq = float(original[j] @ original[j])
            if sq > 1e-12 and float(out[i] @ original[j]) < 0.0:
                out[i] = out[i] - (out[i] @ original[j]) / sq * original[j]
    return out


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


def log_probs(actor, x, pre_clamp) -> np.ndarray:
    """(B,) log densities of raw samples under the actor's diagonal Gaussian
    at the (B, obs_dim + m) rows x, its means from ``forward``."""
    means = forward(actor.mean_head, forward(actor.backbone, x)[0])[0]
    z = (pre_clamp - means) / np.exp(actor.log_std)
    d = pre_clamp.shape[-1]
    return -0.5 * (z * z).sum(axis=-1) - actor.log_std.sum() - 0.5 * d * float(np.log(2.0 * np.pi))


def act_deterministic(actor, state, w) -> np.ndarray:
    """The actor's mean action at [state, w], clamped into the box."""
    means = actor.mean_forward(np.concatenate((state, w))[None, :])[0][0]
    return np.minimum(np.maximum(means, 0.0), 1.0)


def forward(net, x):
    """The layer loop written out of place: each layer is act(x @ W^T + b),
    with tanh(z) and 1 / (1 + exp(-z)) as whole expressions, on the network's
    weights and biases.  Returns (output, record [x, h_1, ..., output]);
    stacked networks give (s, B, out) outputs."""
    x = np.asarray(x, dtype=np.float64)
    record = [x]
    for layer in net.layers:
        z = x @ np.swapaxes(layer.weights, -1, -2) + layer.biases[..., None, :]
        if layer.activation == "tanh":
            x = np.tanh(z)
        elif layer.activation == "sigmoid":
            x = 1.0 / (1.0 + np.exp(-z))
        else:
            x = z
        record.append(x)
    return x, record


def backward(net, record, output_grad, input_grad=True):
    """Backpropagation that allocates every layer's gradients and
    concatenates them into the flat layout: (flat_grad, input_grad), as
    ``Network.backward`` returns them, an optional leading objective axis
    included."""
    g = np.asarray(output_grad, dtype=np.float64)
    objectives = g.shape[: g.ndim - record[-1].ndim]
    parts = []
    for idx in range(len(net.layers) - 1, -1, -1):
        layer, h = net.layers[idx], record[idx + 1]
        if layer.activation == "tanh":
            d = 1.0 - h * h
        elif layer.activation == "sigmoid":
            d = h * (1.0 - h)
        else:
            d = np.ones_like(h)
        dz = g * d
        gw = np.swapaxes(dz, -1, -2) @ record[idx]
        parts = [gw.reshape(gw.shape[:-2] + (-1,)), dz.sum(axis=-2)] + parts
        if idx or input_grad:
            g = dz @ layer.weights
    flat = np.concatenate(parts, axis=-1).reshape(objectives + (net.n_params,))
    return flat, g if input_grad else None


def actor_backward(actor, records, pre_clamp, coeffs):
    """The actor's (k, P) weighted log-prob gradients as backbone, head and
    log-std blocks computed apart and concatenated."""
    backbone_record, head_record = records
    c = np.ascontiguousarray(coeffs, dtype=np.float64)
    var = np.exp(2.0 * actor.log_std)
    diff = pre_clamp - head_record[-1]
    g_log_std = (c[:, :, None] * (diff * diff / var - 1.0)).sum(axis=1)
    head_flat, feat_grad = backward(actor.mean_head, head_record, c[:, :, None] * diff / var)
    backbone_flat, _ = backward(actor.backbone, backbone_record, feat_grad, input_grad=False)
    return np.concatenate([backbone_flat, head_flat, g_log_std], axis=1)


def branched_critic_backward(critic, cache, dvals):
    """The branched critic's flat gradient as trunk and stacked-head blocks
    computed apart and concatenated."""
    trunk_record, heads_record = cache
    dv = np.ascontiguousarray(np.asarray(dvals, dtype=np.float64).T)[..., None]
    head_flat, feat_grads = backward(critic.stacked_heads, heads_record, dv)
    trunk_flat, _ = backward(critic.trunk, trunk_record, feat_grads.sum(axis=0), input_grad=False)
    return np.concatenate([trunk_flat, head_flat])
