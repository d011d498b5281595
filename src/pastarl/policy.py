"""Preference-conditioned Gaussian actor and per-objective value critics.

The actor consumes [state, w] and emits a diagonal Gaussian over actions in
[0, 1]^d: a sigmoid mean head on a tanh backbone plus a state-independent
learnable log-std vector.  Sampled actions are clamped into the box, but
log-probabilities are always evaluated at the raw pre-clamp sample so the
density stays consistent.  The mean itself needs no clamp: the actor
refuses a mean head that does not end in a sigmoid, whose outputs lie in
[0, 1] or are NaN, so the rollouts' per-step pass (``mean_pass``, bound to
one buffer and checked once) steps with its means as they are.

Critics come in two shapes, the choice of ``algorithm.critic``.  The branched
critic shares a trunk and gives each objective its own head, so head
gradients stay isolated; the shared critic is a single network with an
m-dimensional output layer.  Either is trained on the value loss weighted by
the trainer's eta, the same weighting as the actor's coefficients.
"""

from __future__ import annotations

import numpy as np

from pastarl.errors import ContractViolationError
from pastarl.nn import Network

LOG_STD_INIT = float(np.log(0.5))
LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
HALF_LOG_2PI = 0.5 * float(np.log(2.0 * np.pi))
ENTROPY_CONST = 0.5 * float(np.log(2.0 * np.pi * np.e))


class GaussianActor:
    """Tanh backbone -> sigmoid mean head, plus a learnable log-std vector.

    All parameters live in ``params``: the backbone's flat vector, then the
    mean head's, then the log-std.  ``backbone``, ``mean_head`` and
    ``log_std`` are views into it; the constructor copies the given parts in.
    """

    def __init__(self, backbone: Network, mean_head: Network, log_std: np.ndarray):
        if mean_head.in_dim != backbone.out_dim:
            raise ContractViolationError("mean head does not fit backbone output")
        if mean_head.activations[-1] != "sigmoid":
            # The rollouts step with the means unclipped: only a sigmoid keeps them in the box.
            raise ContractViolationError(
                f"the mean head must end in a sigmoid, not {mean_head.activations[-1]!r}"
            )
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

    def checkpoint_networks(self) -> dict:
        """The networks a checkpoint stores, by name; ``log_std`` is stored as a vector."""
        return {"actor_backbone": self.backbone, "actor_mean_head": self.mean_head}

    def clamp_log_std(self) -> None:
        # Projection step after optimizer updates keeps std in a sane range;
        # np.clip's values, NaN included, without its Python-level dispatch.
        np.maximum(self.log_std, LOG_STD_MIN, out=self.log_std)
        np.minimum(self.log_std, LOG_STD_MAX, out=self.log_std)

    def mean_forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        """(B, act_dim) means of a (B, obs_dim + m) batch of [state, w] rows,
        and the backbone's and head's activation records for
        backward_weighted_logp."""
        feats, backbone_record = self.backbone.forward(x)
        means, head_record = self.mean_head.forward(feats)
        return means, (backbone_record, head_record)

    def mean_pass(self, x: np.ndarray):
        """The rollouts' per-step pass, bound to x, the caller's float64 (B,
        obs_dim + m) buffer of [state, w] rows: (run, means), where run()
        writes mean_forward's means of x's rows, as they are at the call,
        into means, the same (B, act_dim) array every time.  x is checked
        here, once; run is the two networks' bare layer loops and allocates
        nothing.  The means are sigmoids, so they lie in [0, 1] or are NaN:
        evaluation steps with them as they are, for clipping would change
        no value."""
        run_backbone, feats = self.backbone.bind(x)
        run_head, means = self.mean_head.bind(feats)

        def run() -> None:
            run_backbone()
            run_head()

        return run, means

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
        self, records: tuple, pre_clamp: np.ndarray, coeffs: np.ndarray
    ) -> np.ndarray:
        """Gradients of sum_t coeffs[i, t] * log pi(pre_clamp[t] | state[t]), one per row i.

        records is what mean_forward returned with the (B, act_dim) means;
        coeffs is (k, B).  Returns the (k, n_params) gradient matrix
        from a single backward pass through the head and backbone, each
        writing into its own columns of it.
        """
        backbone_record, head_record = records
        means = head_record[-1]
        c = np.ascontiguousarray(coeffs, dtype=np.float64)
        if c.ndim != 2 or c.shape[1] != means.shape[0]:
            raise ContractViolationError(f"coeffs shape {c.shape} != (k, {means.shape[0]})")
        var = np.exp(2.0 * self.log_std)
        diff = pre_clamp - means
        g_mean = c[:, :, None] * diff / var
        grads = np.empty((c.shape[0], self.n_params))
        nb = self.backbone.n_params
        nh = nb + self.mean_head.n_params
        _, feat_grad = self.mean_head.backward(head_record, g_mean, out=grads[:, nb:nh])
        self.backbone.backward(backbone_record, feat_grad, input_grad=False, out=grads[:, :nb])
        np.sum(c[:, :, None] * (diff * diff / var - 1.0), axis=1, out=grads[:, nh:])
        return grads


class BranchedCritic:
    """Shared trunk with one independent value head per objective.

    ``params`` holds the trunk's flat vector, then each head's in objective
    order.  The heads share one shape and run as one network of ``stack=m``
    over the (m, head size) rows of that vector for training; ``heads``
    holds one network per head on its row, for checkpoints and ``values``.
    The constructor copies the given trunk and stacked heads into a new
    ``params`` vector.
    """

    def __init__(self, trunk: Network, stacked_heads: Network):
        if stacked_heads.stack is None:
            raise ContractViolationError("value heads must be one stacked network")
        if stacked_heads.in_dim != trunk.out_dim or stacked_heads.out_dim != 1:
            raise ContractViolationError("head shape does not fit trunk")
        self.m = stacked_heads.stack
        self.params = np.concatenate([trunk.params, stacked_heads.params])
        nt = trunk.n_params
        self.trunk = Network(trunk.dims, trunk.activations, self.params[:nt])
        self.stacked_heads = Network(
            stacked_heads.dims, stacked_heads.activations, self.params[nt:], stack=self.m
        )
        s = self.stacked_heads
        self.heads = [Network(s.dims, s.activations, row) for row in s.params.reshape(self.m, -1)]

    @classmethod
    def create(
        cls, obs_dim: int, m: int, rng: np.random.Generator, hidden: int = 64
    ) -> "BranchedCritic":
        trunk = Network.random([obs_dim + m, hidden, hidden], ["tanh", "tanh"], rng)
        dims, acts = [hidden, hidden, 1], ["tanh", "identity"]
        heads = [Network.random(dims, acts, rng) for _ in range(m)]
        return cls(trunk, Network(dims, acts, np.concatenate([h.params for h in heads]), stack=m))

    @property
    def n_params(self) -> int:
        return self.params.size

    def checkpoint_networks(self) -> dict:
        """The networks a checkpoint stores, by name: the trunk, and one head
        per objective on its row of the stacked heads' vector."""
        heads = {f"critic_head_{i}": head for i, head in enumerate(self.heads)}
        return {"critic_trunk": self.trunk, **heads}

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        """(B, m) values of a (B, obs_dim + m) batch, and the activation
        records for backward."""
        feats, trunk_record = self.trunk.forward(x)
        outs, heads_record = self.stacked_heads.forward(feats)  # (m, B, 1)
        vals = np.ascontiguousarray(outs[..., 0].T)
        return vals, (trunk_record, heads_record)

    def values(self, x: np.ndarray) -> np.ndarray:
        """forward()'s (B, m) values, bit for bit, with no activation record:
        the heads run one at a time on the trunk's features, so no (m, B,
        hidden) block is ever held whole."""
        feats = self.trunk.output(x)
        vals = np.empty((feats.shape[0], self.m))
        for i, head in enumerate(self.heads):
            vals[:, i] = head.output(feats)[:, 0]
        return vals

    def backward(self, cache: tuple, dvals: np.ndarray) -> np.ndarray:
        """Gradient over flat params given d(loss)/d(values), shape (B, m)."""
        trunk_record, heads_record = cache
        # Objective-major and contiguous, so each head reduces over its batch
        # exactly as a lone head network would.
        dv = np.ascontiguousarray(np.asarray(dvals, dtype=np.float64).T)[..., None]
        grad = np.empty(self.n_params)
        nt = self.trunk.n_params
        _, feat_grads = self.stacked_heads.backward(heads_record, dv, out=grad[nt:])
        self.trunk.backward(trunk_record, feat_grads.sum(axis=0), input_grad=False, out=grad[:nt])
        return grad


class SharedCritic:
    """Single network emitting all m values from one output layer; ``params``
    is the network's own vector."""

    def __init__(self, net: Network):
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

    def checkpoint_networks(self) -> dict:
        """The networks a checkpoint stores, by name."""
        return {"critic": self.net}

    def forward(self, x: np.ndarray):
        return self.net.forward(x)

    def values(self, x: np.ndarray) -> np.ndarray:
        """forward()'s (B, m) values, with no activation record."""
        return self.net.output(x)

    def backward(self, cache, dvals: np.ndarray) -> np.ndarray:
        flat, _ = self.net.backward(cache, dvals, input_grad=False)
        return flat
