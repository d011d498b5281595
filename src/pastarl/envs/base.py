"""Environment contract plus trajectory recording for reward replay.

Every environment takes actions in [0, 1]^action_dim, returns an m-vector
reward, and computes that reward through a pure module-level function of a
flat float snapshot, which its class names as ``reward_fn``.  step() puts
the snapshot in info["reward_snapshot"], so a recorded trajectory can be
replayed through the same pure function (``pastarl.envs.replay_rewards``) and
must reproduce the reward vectors bit for bit.

The float helpers here (_clip, _dot, _norms) let the environments step on
Python floats and stacked arrays while every value stays bit-identical to
the per-call np.clip and np.linalg.norm it stands for.
"""

from __future__ import annotations

import json
from collections.abc import Callable

import numpy as np

from pastarl.errors import ConfigError


def checked_episode_cap(episode_cap: int) -> int:
    """episode_cap itself; ConfigError unless it allows at least one step."""
    if episode_cap < 1:
        raise ConfigError(f"environment.episode_cap must be positive, got {episode_cap}")
    return episode_cap


def _clip(x: float, lo: float, hi: float) -> float:
    """np.clip on one float, for lo <= hi: x itself unless it lies outside
    [lo, hi], so a value equal to a bound keeps the sign of its zero and a
    NaN stays NaN, as under np.clip."""
    return lo if x < lo else hi if x > hi else x


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, broadcasting the leading axes.

    matmul runs each pair through the BLAS dot that ``a @ b`` and
    ``np.linalg.norm`` use on single vectors, so every entry is bit-identical
    to the scalar call; ``a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]`` is not
    (the BLAS kernel may fuse a multiply-add).
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (n, 2) array."""
    return np.sqrt(_dot(v, v))


class MomdpEnv:
    """Interface: reset(rng) -> obs; step(action) -> (obs, reward, done, info).

    info holds one entry, info["reward_snapshot"]: the flat snapshot that the
    reward is a pure function of.  What happened in the step (a collision, a
    goal reached, targets scanned) is read from its entries."""

    name: str = "base"
    reward_fn: Callable[[dict], np.ndarray]  # the pure function of the snapshot, a staticmethod
    observation_dim: int
    action_dim: int
    m: int

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def step(self, action: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool, dict]:
        raise NotImplementedError


class TrajectoryRecorder:
    """Collects (env, snapshot, reward) triples; serializes to JSON lines."""

    def __init__(self):
        self.records: list[dict] = []

    def on_step(self, env_name: str, snapshot: dict, reward: np.ndarray) -> None:
        self.records.append(
            {"env": env_name, "snapshot": snapshot, "reward": np.asarray(reward).tolist()}
        )

    def save(self, path) -> None:
        with open(path, "w") as f:
            for rec in self.records:
                f.write(json.dumps(rec) + "\n")

    @staticmethod
    def load(path) -> list[dict]:
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]
