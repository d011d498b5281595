"""Deterministic two-objective stub environment for fast, exact tests.

Observations follow a fixed clock; rewards depend only on the executed
action, with r = [a0, 1 - a0] so the two objectives pull in opposite
directions and gradient-surgery paths get exercised.
"""

from __future__ import annotations

import numpy as np

from pastarl.envs.base import MomdpEnv, checked_episode_cap


def stub_rewards(snap: dict) -> np.ndarray:
    return np.array([snap["a0"], 1.0 - snap["a0"]])


class StubEnv(MomdpEnv):
    name = "stub"
    reward_fn = staticmethod(stub_rewards)
    observation_dim = 3
    action_dim = 2
    m = 2

    def __init__(self, episode_cap: int = 16):
        self.episode_cap = checked_episode_cap(episode_cap)
        self.steps = 0

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self.steps = 0
        return self._observation()

    def step(self, action: np.ndarray):
        a = np.clip(np.asarray(action, dtype=np.float64), 0.0, 1.0)
        snap = {"a0": float(a[0])}
        reward = stub_rewards(snap)
        self.steps += 1
        done = self.steps >= self.episode_cap
        return self._observation(), reward, done, {"reward_snapshot": snap}

    def _observation(self) -> np.ndarray:
        k = self.steps
        return np.array([np.sin(0.3 * k), np.cos(0.3 * k), k / self.episode_cap])
