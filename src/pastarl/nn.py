"""Minimal dense-network core: forward/backward on float64, Adam, checkpoints.

Everything trainable in this repo is a stack of fully connected layers.  Each
model keeps all of its parameters in one float64 vector, and every layer's
weights and biases are reshaped views into it.  The flat layout is
layer-major: for each layer in order, weights in row-major order followed by
that layer's biases; a model made of several networks concatenates theirs in
a fixed order (the actor puts its log-std vector last).

Every network runs on a 2-D (B, in) batch of row vectors; one input row is
a (1, in) batch.  Each layer is computed in place on its matmul's result,
one array per layer.  A forward pass returns its output and its activation
record [x, h_1, ..., output], which stores each activation once, and the
backward pass takes that record; ``output`` gives the same output bits and
keeps no record, for passes that need no backward.  Backward passes accept
a leading objective axis on the output gradient: k per-objective gradients
come out of one pass as the (k, P) matrix that gradient surgery consumes,
written layer by layer into the caller's slice of one gradient.  Adam
updates a model's vector in place, so the optimizer and the layers never
need copying between them.  Checkpoints store each network's spec and flat
vector as JSON, format version 1.  A save writes json.dumps's text of the
whole payload piece by piece, each vector a fixed-size chunk of floats at a
time, so its memory does not grow with the model; it writes a temporary
file beside the checkpoint and renames it over the path once complete, so a
checkpoint appears whole or not at all.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import NamedTuple

import numpy as np

from pastarl.errors import ContractViolationError, DivergenceError

ACTIVATIONS = ("tanh", "sigmoid", "identity")

CHECKPOINT_FORMAT_VERSION = 1

# Floats per json.dumps call when a checkpoint writes a parameter vector: a
# save holds one chunk's float objects and text at a time (~200 KB).
CHECKPOINT_CHUNK = 4096


def _pre_activation_grad(activation: str, out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g times the activation's derivative, recovered from its output; g
    itself for identity."""
    if activation == "tanh":
        return g * (1.0 - out * out)
    if activation == "sigmoid":
        return g * (out * (1.0 - out))
    return g


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
        # What the layer loop multiplies by and adds, per layer: views into params
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
        record = []
        return self._run(x, record), record

    def output(self, x: np.ndarray) -> np.ndarray:
        """forward()'s output, bit for bit, without the activation record: a
        layer's input is dropped once the next layer is computed.  For
        passes that need no backward."""
        return self._run(x, None)

    def _run(self, x, record: list | None) -> np.ndarray:
        """The layer loop: each layer act(x @ W^T + b) is computed in place on
        its matmul's result, with the ufuncs of the out-of-place expressions
        tanh(z) and 1 / (1 + exp(-z)), so every value, NaN and inf included,
        is theirs.  Appends the input and each layer's output to record
        unless it is None."""
        if not (isinstance(x, np.ndarray) and x.dtype == np.float64):
            x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ContractViolationError(
                f"input shape {x.shape} != (B, {self.in_dim}) for this network"
            )
        if record is not None:
            record.append(x)
        for weights_t, biases, activation in self._affine:
            x = x @ weights_t
            x += biases
            if activation == "tanh":
                np.tanh(x, out=x)
            elif activation == "sigmoid":
                np.negative(x, out=x)
                np.exp(x, out=x)
                x += 1.0
                np.divide(1.0, x, out=x)
            if record is not None:
                record.append(x)
        return x

    def backward(
        self,
        record: list[np.ndarray],
        output_grad: np.ndarray,
        input_grad: bool = True,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Backpropagate d(sum_b output_grad[b] . output[b]) onto parameters.

        record is what forward() returned with the output.  output_grad has
        the shape of that output, optionally with one leading objective
        axis of length k; the k gradients then come from one pass.  Returns
        (flat_grad, input_grad): flat_grad follows the flat layout,
        (n_params,) or (k, n_params), and input_grad has the shape of the
        forward input, with the same leading axes as the output.  With
        input_grad=False the first layer's input-gradient matmul is skipped
        and None comes back in its place.  Each layer's weight and bias
        gradients are written straight into ``out``, a slice of a larger
        model gradient say, which then comes back as flat_grad; by default
        a new array.
        """
        if [h.shape[-1] for h in record] != self.dims:
            raise ContractViolationError("activation record does not fit this network's layers")
        out_shape = record[-1].shape
        # Contiguous, so every matmul and bias sum below sees the operand
        # layout it always has; a contiguous output_grad is not copied.
        g = np.ascontiguousarray(output_grad, dtype=np.float64)
        objectives = g.shape[: g.ndim - len(out_shape)]
        if len(objectives) > 1 or g.shape[len(objectives) :] != out_shape:
            raise ContractViolationError(
                f"output_grad shape {g.shape} != output shape {out_shape}"
            )
        flat_shape = objectives + (self.n_params,)
        if out is None:
            out = np.empty(flat_shape)
        elif out.shape != flat_shape:
            raise ContractViolationError(f"out shape {out.shape} != gradient shape {flat_shape}")
        # Splitting an axis never copies, so these are views into out.
        grads = out.reshape(objectives + self._table_shape)
        for idx in range(len(self.layers) - 1, -1, -1):
            l = self.layers[idx]
            w, b = self._slices[idx]
            dz = _pre_activation_grad(l.activation, record[idx + 1], g)
            gw = grads[..., w].reshape(objectives + l.weights.shape)
            np.matmul(np.swapaxes(dz, -1, -2), record[idx], out=gw)
            np.sum(dz, axis=-2, out=grads[..., b])
            if idx or input_grad:
                g = dz @ l.weights
        return out, g if input_grad else None


class AdamState:
    """Bias-corrected Adam accumulators for one parameter vector of ``size``.

    adam_update overwrites the moments m and v in place and works in two
    scratch vectors of the same size, so a step allocates nothing parameter-sized.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, size: int, lr: float = 3e-4):
        self.lr = lr
        self.step_count = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.scratch = (np.empty(size), np.empty(size))


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


def _write_floats(f, values: np.ndarray) -> None:
    """Write values as json.dumps(values.tolist()) would, CHECKPOINT_CHUNK
    floats at a time: json formats each chunk, so float repr and
    NaN/Infinity are its own, and the chunks are joined with its ", "."""
    f.write("[")
    for start in range(0, len(values), CHECKPOINT_CHUNK):
        if start:
            f.write(", ")
        f.write(json.dumps(values[start : start + CHECKPOINT_CHUNK].tolist())[1:-1])
    f.write("]")


def _write_payload(f, networks: dict, vectors: dict, metadata: dict) -> None:
    """Write json.dumps's text of the checkpoint payload piece by piece: the
    small objects go through json.dumps whole, the vectors by chunk.  (One
    json.dump(payload, f) would also stream, but through json's pure-Python
    encoder and with every float object built first.)"""
    f.write(f'{{"format_version": {json.dumps(CHECKPOINT_FORMAT_VERSION)}, "metadata": {json.dumps(metadata)}')
    f.write(', "networks": {')
    for i, (name, net) in enumerate(networks.items()):
        # The spec's entries, then "flat", as {**network_spec(net), "flat": ...} dumps.
        f.write(f'{", " if i else ""}{json.dumps(name)}: {json.dumps(network_spec(net))[:-1]}, "flat": ')
        _write_floats(f, net.params)
        f.write("}")
    f.write('}, "vectors": {')
    for i, (name, v) in enumerate(vectors.items()):
        f.write(f'{", " if i else ""}{json.dumps(name)}: ')
        _write_floats(f, np.asarray(v, dtype=np.float64))
    f.write("}}")


def save_checkpoint(path, networks: dict, vectors: dict | None = None, metadata: dict | None = None) -> None:
    """Write a versioned JSON checkpoint, whole or not at all.

    networks maps name -> Network (names are strings); vectors maps name ->
    1-D float array (e.g. a log-std vector).  JSON float round-trips are
    exact in Python, so load_checkpoint restores bit-identical parameters.
    The file holds exactly the text of json.dumps of the payload
    {format_version, metadata, networks: {name: {dims, activations, flat}},
    vectors}, written in pieces so no list of the parameters and no
    whole-file string is built: a save's memory is bounded by one chunk.
    The text goes to a temporary file beside path, which replaces path only
    once it is complete; on any error it is removed and path is untouched.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as f:
            _write_payload(f, networks, vectors or {}, metadata or {})
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> tuple[dict, dict, dict]:
    """Read a checkpoint; returns (networks, vectors, metadata)."""
    with open(path) as f:
        payload = json.load(f)
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ContractViolationError(f"unsupported checkpoint format_version {version!r}")
    flats = {name: np.array(entry["flat"], dtype=np.float64) for name, entry in payload["networks"].items()}
    vectors = {name: np.array(v, dtype=np.float64) for name, v in payload["vectors"].items()}
    bad = [name for name, values in {**flats, **vectors}.items() if not np.all(np.isfinite(values))]
    if bad:
        raise ContractViolationError(f"non-finite parameters in {', '.join(bad)}")
    networks = {name: network_from_spec(entry, flats[name]) for name, entry in payload["networks"].items()}
    return networks, vectors, payload["metadata"]
