"""Preference-conditioned Gaussian actor and per-objective value critics.

The actor consumes [state, w] and emits a diagonal Gaussian over actions in
[0, 1]^d: a sigmoid mean head on a tanh backbone plus a state-independent
learnable log-std vector.  Sampled actions are clamped into the box, but
log-probabilities are always evaluated at the raw pre-clamp sample so the
density stays consistent.

Critics come in two shapes.  The branched critic shares a trunk and gives
each objective its own head, so head gradients stay isolated; the shared
critic is a single network with an m-dimensional output layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pastarl.errors import ContractViolationError
from pastarl.nn import Network, network_spec

LOG_STD_INIT = float(np.log(0.5))
LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
HALF_LOG_2PI = 0.5 * float(np.log(2.0 * np.pi))
ENTROPY_CONST = 0.5 * float(np.log(2.0 * np.pi * np.e))


@dataclass
class ActorTape:
    backbone: object
    head: object
    means: np.ndarray


class GaussianActor:
    """Tanh backbone -> sigmoid mean head, plus a learnable log-std vector.

    All parameters live in ``params``: the backbone's flat vector, then the
    mean head's, then the log-std.  ``backbone``, ``mean_head`` and
    ``log_std`` are views into it; the constructor copies the given parts in.
    """

    def __init__(self, backbone: Network, mean_head: Network, log_std: np.ndarray):
        if mean_head.in_dim != backbone.out_dim:
            raise ContractViolationError("mean head does not fit backbone output")
        log_std = np.asarray(log_std, dtype=np.float64)
        if log_std.shape != (mean_head.out_dim,):
            raise ContractViolationError(
                f"log_std has {log_std.shape}, actor needs ({mean_head.out_dim},)"
            )
        self.params = np.concatenate([backbone.params, mean_head.params, log_std])
        nb, nh = backbone.n_params, mean_head.n_params
        self.backbone = Network(backbone.dims, backbone.activations, self.params[:nb])
        self.mean_head = Network(mean_head.dims, mean_head.activations, self.params[nb : nb + nh])
        self.log_std = self.params[nb + nh :]
        self.action_dim = mean_head.out_dim

    @classmethod
    def create(
        cls, obs_dim: int, m: int, action_dim: int, rng: np.random.Generator, hidden: int = 64
    ) -> "GaussianActor":
        backbone = Network.random([obs_dim + m, hidden, hidden], ["tanh", "tanh"], rng)
        mean_head = Network.random([hidden, action_dim], ["sigmoid"], rng)
        return cls(backbone, mean_head, np.full(action_dim, LOG_STD_INIT))

    @property
    def n_params(self) -> int:
        return self.params.size

    def clamp_log_std(self) -> None:
        # Projection step after optimizer updates keeps std in a sane range.
        np.clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX, out=self.log_std)

    def mean_forward(self, x: np.ndarray) -> tuple[np.ndarray, ActorTape]:
        feats, tape_b = self.backbone.forward(x)
        means, tape_h = self.mean_head.forward(feats)
        return means, ActorTape(tape_b, tape_h, means)

    def log_probs(self, means: np.ndarray, pre_clamp: np.ndarray) -> np.ndarray:
        """Diagonal-Gaussian log density of raw samples over the last axis;
        batched over any leading axes."""
        z = (pre_clamp - means) / np.exp(self.log_std)
        d = pre_clamp.shape[-1]
        return -0.5 * (z * z).sum(axis=-1) - self.log_std.sum() - d * HALF_LOG_2PI

    def entropy(self) -> float:
        """State-independent: sum_d (0.5 ln(2 pi e) + log_std_d)."""
        return float(self.action_dim * ENTROPY_CONST + np.sum(self.log_std))

    def add_entropy_grad(self, grad: np.ndarray, scale: float) -> None:
        """grad += scale * d entropy / d params, in place: scale on the log-std block only."""
        grad[-self.action_dim :] += scale

    def backward_weighted_logp(
        self, tape: ActorTape, pre_clamp: np.ndarray, coeffs: np.ndarray
    ) -> np.ndarray:
        """Gradients of sum_t coeffs[i, t] * log pi(pre_clamp[t] | state[t]), one per row i.

        coeffs is (k, B); returns the (k, n_params) gradient matrix from a
        single backward pass through the head and backbone.
        """
        means = np.atleast_2d(tape.means)
        pre = np.atleast_2d(pre_clamp)
        c = np.ascontiguousarray(coeffs, dtype=np.float64)
        if c.ndim != 2 or c.shape[1] != means.shape[0]:
            raise ContractViolationError(f"coeffs shape {c.shape} != (k, {means.shape[0]})")
        var = np.exp(2.0 * self.log_std)
        diff = pre - means
        g_mean = c[:, :, None] * diff / var
        g_log_std = (c[:, :, None] * (diff * diff / var - 1.0)).sum(axis=1)
        head_grad_input = g_mean[:, 0] if tape.head.single else g_mean
        head_flat, feat_grad = self.mean_head.backward(tape.head, head_grad_input)
        backbone_flat, _ = self.backbone.backward(tape.backbone, feat_grad, input_grad=False)
        return np.concatenate([backbone_flat, head_flat, g_log_std], axis=1)


class BranchedCritic:
    """Shared trunk with one independent value head per objective.

    ``params`` holds the trunk's flat vector, then each head's in objective
    order.  The heads share one shape, so they also run as a single stacked
    network over an (m, head size) view of that vector; ``heads`` keeps one
    view Network per head for checkpoints.  The constructor copies the given
    parts into ``params``, a new vector or the buffer passed in.
    """

    def __init__(self, trunk: Network, heads: list[Network], params: np.ndarray | None = None):
        for h in heads:
            if h.in_dim != trunk.out_dim or h.out_dim != 1:
                raise ContractViolationError("head shape does not fit trunk")
            if network_spec(h) != network_spec(heads[0]):
                raise ContractViolationError("value heads must share one shape")
        self.m = len(heads)
        self.params = np.concatenate([trunk.params] + [h.params for h in heads], out=params)
        nt = trunk.n_params
        self.trunk = Network(trunk.dims, trunk.activations, self.params[:nt])
        dims, acts = heads[0].dims, heads[0].activations
        self.stacked_heads = Network(dims, acts, self.params[nt:], stack=self.m)
        nh = heads[0].n_params
        self.heads = [
            Network(dims, acts, self.params[nt + i * nh : nt + (i + 1) * nh]) for i in range(self.m)
        ]

    @classmethod
    def create(
        cls, obs_dim: int, m: int, rng: np.random.Generator, hidden: int = 64
    ) -> "BranchedCritic":
        trunk = Network.random([obs_dim + m, hidden, hidden], ["tanh", "tanh"], rng)
        heads = [Network.random([hidden, hidden, 1], ["tanh", "identity"], rng) for _ in range(m)]
        return cls(trunk, heads)

    @property
    def n_params(self) -> int:
        return self.params.size

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        feats, tape_t = self.trunk.forward(x)
        outs, tape_h = self.stacked_heads.forward(feats)  # (m, B, 1), or (m, 1) for one state
        vals = np.ascontiguousarray(outs[..., 0].T)
        return vals, (tape_t, tape_h)

    def values(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, cache: tuple, dvals: np.ndarray) -> np.ndarray:
        """Gradient over flat params given d(loss)/d(values), shape (B, m) or (m,)."""
        tape_t, tape_h = cache
        # Objective-major and contiguous, so each head reduces over its batch
        # exactly as a lone head network would.
        dv = np.ascontiguousarray(np.asarray(dvals, dtype=np.float64).T)[..., None]
        head_flat, feat_grads = self.stacked_heads.backward(tape_h, dv)
        trunk_flat, _ = self.trunk.backward(tape_t, feat_grads.sum(axis=0), input_grad=False)
        return np.concatenate([trunk_flat, head_flat])


class SharedCritic:
    """Single network emitting all m values from one output layer.

    Given a ``params`` buffer, the network's vector is copied into it and
    the critic runs on the buffer.
    """

    def __init__(self, net: Network, params: np.ndarray | None = None):
        if params is not None:
            params[...] = net.params
            net = Network(net.dims, net.activations, params)
        self.net = net
        self.params = net.params
        self.m = net.out_dim

    @classmethod
    def create(
        cls, obs_dim: int, m: int, rng: np.random.Generator, hidden: int = 64
    ) -> "SharedCritic":
        net = Network.random(
            [obs_dim + m, hidden, hidden, hidden, m], ["tanh", "tanh", "tanh", "identity"], rng
        )
        return cls(net)

    @property
    def n_params(self) -> int:
        return self.net.n_params

    def forward(self, x: np.ndarray):
        return self.net.forward(x)

    def values(self, x: np.ndarray) -> np.ndarray:
        return self.net.forward(x)[0]

    def backward(self, cache, dvals: np.ndarray) -> np.ndarray:
        flat, _ = self.net.backward(cache, dvals, input_grad=False)
        return flat
