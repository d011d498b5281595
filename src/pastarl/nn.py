"""Minimal dense-network core: forward/backward on float64, Adam, checkpoints.

Everything trainable in this repo is a stack of fully connected layers.  Each
model keeps all of its parameters in one float64 vector, and every layer's
weights and biases are reshaped views into it.  The flat layout is
layer-major: for each layer in order, weights in row-major order followed by
that layer's biases; a model made of several networks concatenates theirs in
a fixed order (the actor puts its log-std vector last).

Every network runs on a 2-D (B, in) batch of row vectors; one input row is
a (1, in) batch.  A forward pass returns its output and its activation
record [x, h_1, ..., output], which stores each activation once, and the
backward pass takes that record.  Backward passes accept a leading
objective axis on the output gradient: k per-objective gradients come out
of one pass as the (k, P) matrix that gradient surgery consumes.  Adam
updates a model's vector in place, so the optimizer and the layers never
need copying between them.  Checkpoints store each network's spec and flat
vector; the format is unchanged at version 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from pastarl.errors import ContractViolationError, DivergenceError

ACTIVATIONS = ("tanh", "sigmoid", "identity")

CHECKPOINT_FORMAT_VERSION = 1


def _apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(z)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    return z


def _activation_grad_from_output(name: str, out: np.ndarray) -> np.ndarray:
    # Both tanh' and sigmoid' are recoverable from the post-activation value.
    if name == "tanh":
        return 1.0 - out * out
    if name == "sigmoid":
        return out * (1.0 - out)
    return np.ones_like(out)


class DenseLayer(NamedTuple):
    """One fully connected layer, out = act(W @ x + b), as views into its network's vector."""

    weights: np.ndarray  # (out, in), or (stack, out, in)
    biases: np.ndarray   # (out,), or (stack, out)
    activation: str


def _layout_size(dims: list[int]) -> int:
    """Number of parameters of a dense stack with layer widths dims."""
    return sum(dims[i + 1] * (dims[i] + 1) for i in range(len(dims) - 1))


class Network:
    """An ordered stack of dense layers whose parameters live in one vector.

    ``params`` follows the flat layout; every layer's ``weights`` and
    ``biases`` are reshaped views into it, so an in-place write to either is
    seen by the other.  Pass ``params`` to make the network a view into a
    larger model vector; by default it owns a zero vector.

    ``stack=s`` holds s independent networks of the same shape side by side:
    ``params`` is their s flat vectors concatenated, weights are (s, out, in)
    and a forward pass on a (B, in) batch returns (s, B, out).
    """

    def __init__(
        self,
        dims: list[int],
        activations: list[str],
        params: np.ndarray | None = None,
        stack: int | None = None,
    ):
        """dims = [in, h1, ..., out]; activations has len(dims) - 1 entries."""
        if len(dims) < 2:
            raise ContractViolationError("network needs at least one layer")
        if len(activations) != len(dims) - 1:
            raise ContractViolationError("need one activation per layer")
        for name in activations:
            if name not in ACTIVATIONS:
                raise ContractViolationError(f"unknown activation {name!r}")
        self.dims = [int(d) for d in dims]
        self.activations = list(activations)
        self.stack = stack
        lead = () if stack is None else (stack,)
        self._table_shape = lead + (_layout_size(self.dims),)
        size = int(np.prod(self._table_shape))
        if params is None:
            params = np.zeros(size)
        elif not isinstance(params, np.ndarray) or params.dtype != np.float64 or params.shape != (size,):
            raise ContractViolationError(
                f"flat vector has {np.shape(params)}, network needs ({size},)"
            )
        self.params = params
        table = params.reshape(self._table_shape)
        self.layers = []
        self._slices = []
        k = 0
        for n_in, n_out, act in zip(self.dims, self.dims[1:], self.activations):
            w, b = slice(k, k + n_out * n_in), slice(k + n_out * n_in, k + n_out * (n_in + 1))
            self.layers.append(DenseLayer(table[..., w].reshape(lead + (n_out, n_in)), table[..., b], act))
            self._slices.append((w, b))
            k = b.stop
        # What forward() multiplies by and adds, per layer: views into params
        # too, so they follow in-place updates.
        self._affine = [
            (np.swapaxes(l.weights, -1, -2), l.biases[..., None, :], l.activation) for l in self.layers
        ]

    @property
    def in_dim(self) -> int:
        return self.dims[0]

    @property
    def out_dim(self) -> int:
        return self.dims[-1]

    @property
    def n_params(self) -> int:
        return self.params.size

    @classmethod
    def random(cls, dims: list[int], activations: list[str], rng: np.random.Generator) -> "Network":
        """Uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] weights, zero biases."""
        net = cls(dims, activations)
        for l in net.layers:
            bound = 1.0 / np.sqrt(l.weights.shape[-1])
            l.weights[...] = rng.uniform(-bound, bound, size=l.weights.shape)
        return net

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Run the stack on a (B, in) batch of row vectors.

        Returns (output, record): the record is [x, h_1, ..., output], the
        input and each layer's output, which backward() takes; it is only
        valid for the parameter values used here.
        """
        if not (isinstance(x, np.ndarray) and x.dtype == np.float64):
            x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ContractViolationError(
                f"input shape {x.shape} != (B, {self.in_dim}) for this network"
            )
        record = [x]
        for weights_t, biases, activation in self._affine:
            x = _apply_activation(activation, x @ weights_t + biases)
            record.append(x)
        return x, record

    def backward(
        self, record: list[np.ndarray], output_grad: np.ndarray, input_grad: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Backpropagate d(sum_b output_grad[b] . output[b]) onto parameters.

        record is what forward() returned with the output.  output_grad has
        the shape of that output, optionally with one leading objective
        axis of length k; the k gradients then come from one pass.  Returns
        (flat_grad, input_grad): flat_grad follows the flat layout,
        (n_params,) or (k, n_params), and input_grad has the shape of the
        forward input, with the same leading axes as the output.  With
        input_grad=False the first layer's input-gradient matmul is skipped
        and None comes back in its place.
        """
        if [h.shape[-1] for h in record] != self.dims:
            raise ContractViolationError("activation record does not fit this network's layers")
        out_shape = record[-1].shape
        g = np.asarray(output_grad, dtype=np.float64)
        objectives = g.shape[: g.ndim - len(out_shape)]
        if len(objectives) > 1 or g.shape[len(objectives) :] != out_shape:
            raise ContractViolationError(
                f"output_grad shape {g.shape} != output shape {out_shape}"
            )
        grads = np.empty(objectives + self._table_shape)
        for idx in range(len(self.layers) - 1, -1, -1):
            l = self.layers[idx]
            w, b = self._slices[idx]
            dz = g * _activation_grad_from_output(l.activation, record[idx + 1])
            gw = np.swapaxes(dz, -1, -2) @ record[idx]
            grads[..., w] = gw.reshape(gw.shape[:-2] + (-1,))
            grads[..., b] = dz.sum(axis=-2)
            if idx or input_grad:
                g = dz @ l.weights
        flat = grads.reshape(objectives + (self.n_params,))
        return flat, g if input_grad else None


@dataclass
class AdamState:
    """Per-parameter-vector Adam accumulators (bias-corrected).

    adam_update overwrites m and v in place and works in two scratch vectors
    of the same size, so a step allocates nothing parameter-sized.
    """

    size: int
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: np.ndarray = field(default=None)
    v: np.ndarray = field(default=None)
    scratch: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m is None:
            self.m = np.zeros(self.size)
        if self.v is None:
            self.v = np.zeros(self.size)
        self.scratch = (np.empty(self.size), np.empty(self.size))


def adam_update(
    theta: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    ascent: bool = False,
    name: str = "network",
) -> None:
    """One Adam step on a flat parameter vector, in place; mutates state too.

    ascent=True moves along +grad (policy objectives are maximized).  Raises
    DivergenceError naming `name` if the gradient has non-finite entries.
    Each ufunc writes into m, v or a scratch vector, in the operation order of

        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad * grad
        step = lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)

    so every value is bit-identical to those expressions.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != theta.shape:
        raise ContractViolationError(
            f"grad shape {grad.shape} != params shape {theta.shape}"
        )
    if not np.all(np.isfinite(grad)):
        raise DivergenceError(f"non-finite gradient in {name}")
    state.step_count += 1
    m, v, (step, denom) = state.m, state.v, state.scratch
    m *= state.beta1
    m += np.multiply(1.0 - state.beta1, grad, out=step)
    v *= state.beta2
    np.multiply(1.0 - state.beta2, grad, out=step)
    v += np.multiply(step, grad, out=step)
    np.divide(v, 1.0 - state.beta2 ** state.step_count, out=denom)
    np.sqrt(denom, out=denom)
    denom += state.eps
    np.divide(m, 1.0 - state.beta1 ** state.step_count, out=step)
    step *= state.lr
    step /= denom
    if ascent:
        theta += step
    else:
        theta -= step


def network_spec(net: Network) -> dict:
    return {"dims": list(net.dims), "activations": list(net.activations)}


def network_from_spec(spec: dict, params: np.ndarray | None = None) -> Network:
    return Network(spec["dims"], spec["activations"], params)


def save_checkpoint(path, networks: dict, vectors: dict | None = None, metadata: dict | None = None) -> None:
    """Write a versioned JSON checkpoint.

    networks maps name -> Network; vectors maps name -> 1-D float array
    (e.g. a log-std vector).  JSON float round-trips are exact in Python, so
    load_checkpoint restores bit-identical parameters.
    """
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "metadata": metadata or {},
        "networks": {
            name: {**network_spec(net), "flat": net.params.tolist()}
            for name, net in networks.items()
        },
        "vectors": {name: np.asarray(v, dtype=np.float64).tolist() for name, v in (vectors or {}).items()},
    }
    with open(path, "w") as f:
        # json.dumps takes the C encoder; json.dump streams through the
        # pure-Python one.  The bytes are the same.
        f.write(json.dumps(payload))


def load_checkpoint(path) -> tuple[dict, dict, dict]:
    """Read a checkpoint; returns (networks, vectors, metadata)."""
    with open(path) as f:
        payload = json.load(f)
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ContractViolationError(f"unsupported checkpoint format_version {version!r}")
    networks = {}
    for name, entry in payload["networks"].items():
        networks[name] = network_from_spec(entry, np.array(entry["flat"], dtype=np.float64))
    vectors = {name: np.array(v, dtype=np.float64) for name, v in payload["vectors"].items()}
    return networks, vectors, payload["metadata"]
