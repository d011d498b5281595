"""Vectorized generalized advantage estimation, one column per objective.

Rollouts may splice several episodes together; the done mask zeroes both the
bootstrap and the advantage carry-over at episode boundaries, so values from
the next episode's reset state never leak backwards.  At a horizon truncation
(final step not terminal) the extra value row supplies the bootstrap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pastarl.errors import ContractViolationError

ADV_NORM_EPS = 1e-8


@dataclass
class RolloutBatch:
    """One iteration's worth of experience (T steps, m objectives)."""

    inputs: np.ndarray            # (T, obs_dim + m) the networks' [state, w] rows
    pre_clamp: np.ndarray         # (T, act_dim) raw Gaussian samples
    log_probs: np.ndarray         # (T,) behavior log-probs of pre_clamp
    rewards: np.ndarray           # (T, m)
    dones: np.ndarray             # (T,) bool, True at terminal steps
    values: np.ndarray            # (T + 1, m); final row is the bootstrap
    episodic_returns: list = field(default_factory=list)  # completed episodes' raw sums
    advantages: np.ndarray | None = None       # (T, m), filled by compute_gae
    value_targets: np.ndarray | None = None    # (T, m)
    norm_advantages: np.ndarray | None = None  # (T, m)

    def __post_init__(self):
        T, m = self.rewards.shape
        if self.values.shape != (T + 1, m):
            raise ContractViolationError(
                f"values must be (T+1, m) = ({T + 1}, {m}), got {self.values.shape}"
            )
        if self.dones.shape != (T,):
            raise ContractViolationError(f"dones must be (T,), got {self.dones.shape}")


def compute_gae(batch: RolloutBatch, gamma: float, lam: float) -> RolloutBatch:
    """Fill batch.advantages and batch.value_targets by the backward recursion.

    delta_t = r_t + gamma * (1 - done_t) * V(s_{t+1}) - V(s_t)
    A_t     = delta_t + gamma * lam * (1 - done_t) * A_{t+1}
    targets = A + V

    The recursion runs on Python floats, one objective at a time, and
    multiplies and adds in the order written above, ((gamma * nd) * V) and
    ((gamma * lam) * nd) * A, so it rounds exactly as the same expressions
    on numpy rows do.
    """
    r = np.asarray(batch.rewards, dtype=np.float64)
    v = np.asarray(batch.values, dtype=np.float64)
    not_done = (1.0 - np.asarray(batch.dones, dtype=np.float64)).tolist()
    T, m = r.shape
    g_nd = [gamma * nd for nd in not_done]
    gl = gamma * lam
    gl_nd = [gl * nd for nd in not_done]
    adv = np.empty((T, m))
    for i, (r_i, v_i) in enumerate(zip(r.T.tolist(), v.T.tolist())):
        column = [0.0] * T
        carry = 0.0
        for t in range(T - 1, -1, -1):
            carry = (r_i[t] + g_nd[t] * v_i[t + 1] - v_i[t]) + gl_nd[t] * carry
            column[t] = carry
        adv[:, i] = column
    batch.advantages = adv
    batch.value_targets = adv + v[:T]
    return batch


def normalize_advantages(batch: RolloutBatch) -> RolloutBatch:
    """Standardize each objective's advantage column over the whole batch.

    Population std with a 1e-8 guard; a constant column maps to all zeros.
    """
    if batch.advantages is None:
        raise ContractViolationError("compute_gae must run before normalization")
    a = batch.advantages
    mean = a.mean(axis=0)
    std = a.std(axis=0)
    batch.norm_advantages = (a - mean) / (std + ADV_NORM_EPS)
    return batch
