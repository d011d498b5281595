"""Conflict-driven schedule for the Tchebycheff smoothing parameter mu.

The controller anneals mu from mu_start toward mu_min over the run's
total_iterations, but brakes (pushes mu back up toward mu_max) whenever
the observed gradient-conflict ratio kappa exceeds the threshold tau.  The
braking target is tracked through an exponential moving average, so a short
conflict spike produces a transient bump that relaxes back to the base
schedule, while sustained conflict holds mu high.  The ``no_conflict`` mode
drops the braking, ``no_decay`` the anneal; ``stch_fixed``, a constant mu,
drops both.  The knobs are read from TrainConfig (the ``[controller]``
fields, and ``ppo.total_iterations`` as the anneal horizon), whose validate()
checks them and refuses those the mode does not read.
"""

from __future__ import annotations

from dataclasses import dataclass

from pastarl.config import TrainConfig
from pastarl.errors import ContractViolationError


@dataclass
class ControllerTrace:
    """One step's internals, logged alongside training metrics."""

    t: int
    kappa: float
    mu_base: float
    beta: float
    mu_star: float
    mu: float


def base_decay(cfg: TrainConfig, t: int) -> float:
    """Linear anneal mu_start -> mu_min over cfg.total_iterations, then flat."""
    if cfg.controller_mode == "no_decay":
        return cfg.mu_start
    frac = min(1.0, t / cfg.total_iterations)
    return cfg.mu_start - (cfg.mu_start - cfg.mu_min) * frac


def braking_boost(cfg: TrainConfig, kappa: float) -> float:
    """beta = (kappa - tau) / (1 - tau) when kappa exceeds tau, else 0."""
    if not 0.0 <= kappa <= 1.0:
        raise ContractViolationError(f"kappa must lie in [0, 1], got {kappa}")
    if cfg.controller_mode == "no_conflict" or kappa <= cfg.tau:
        return 0.0
    return (kappa - cfg.tau) / (1.0 - cfg.tau)


def target_mu(cfg: TrainConfig, t: int, kappa: float) -> tuple[float, float, float]:
    """Returns (mu_base, beta, mu_star) with mu_star = mu_base + beta*(mu_max - mu_base)."""
    mu_b = base_decay(cfg, t)
    beta = braking_boost(cfg, kappa)
    return mu_b, beta, mu_b + beta * (cfg.mu_max - mu_b)


class SmoothnessController:
    """Stateful mu schedule: call step(kappa) once per training iteration."""

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.mu = cfg.mu_start
        self.t = 0

    def step(self, kappa: float) -> ControllerTrace:
        """Advance one iteration: EMA-track the braking target at the current t."""
        mu_b, beta, mu_star = target_mu(self.cfg, self.t, kappa)
        lam = self.cfg.lambda_ema
        self.mu = (1.0 - lam) * self.mu + lam * mu_star
        trace = ControllerTrace(self.t, kappa, mu_b, beta, mu_star, self.mu)
        self.t += 1
        return trace
