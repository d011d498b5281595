"""Simulated multi-objective environments and the shared MOMDP interface."""

import numpy as np

from pastarl.envs.base import MomdpEnv, TrajectoryRecorder
from pastarl.envs.crazyflie import FormationEnv, FroggerEnv, PatrolOpponent, opponent_step
from pastarl.envs.stealth import StealthWorld
from pastarl.envs.stub import StubEnv
from pastarl.errors import ConfigError

ENV_CLASSES = {cls.name: cls for cls in (StealthWorld, FroggerEnv, FormationEnv, StubEnv)}


def make_env(name: str, **params) -> MomdpEnv:
    cls = ENV_CLASSES.get(name)
    if cls is None:
        raise ConfigError(f"unknown environment {name!r}; choose from {sorted(ENV_CLASSES)}")
    try:
        return cls(**params)
    except TypeError as e:
        raise ConfigError(f"bad parameters for environment {name!r}: {e}") from e


def replay_rewards(records: list[dict]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Recompute each record's reward from its snapshot through its
    environment's ``reward_fn``; returns (logged, replayed) pairs."""
    out = []
    for rec in records:
        cls = ENV_CLASSES.get(rec["env"])
        if cls is None:
            raise ConfigError(f"no reward function for unknown environment {rec['env']!r}")
        out.append((np.array(rec["reward"], dtype=np.float64), cls.reward_fn(rec["snapshot"])))
    return out


__all__ = [
    "MomdpEnv",
    "TrajectoryRecorder",
    "replay_rewards",
    "FormationEnv",
    "FroggerEnv",
    "PatrolOpponent",
    "opponent_step",
    "StealthWorld",
    "StubEnv",
    "ENV_CLASSES",
    "make_env",
]
