"""Conflict-driven schedule for the Tchebycheff smoothing parameter mu.

The controller anneals mu from mu_start toward mu_min over the run's
total_iterations, but brakes (lifts mu back toward mu_max) whenever the
observed gradient-conflict ratio kappa exceeds the threshold tau.  Its one
state is the lift l, an exponential moving average of the braking boost
beta, and mu = mu_base + l * (mu_max - mu_base): a short conflict spike
produces a transient bump that relaxes back to the base schedule, sustained
conflict holds mu near mu_max, and without conflict mu is the base schedule
exactly.  The ``no_conflict`` mode drops the braking; ``stch_fixed``, a
constant mu, drops the anneal too.  The knobs are read from TrainConfig (the
``[controller]`` fields, and ``ppo.total_iterations`` as the anneal horizon),
whose validate() checks them and refuses those the mode does not read.
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
    lift: float  # the state the next step carries
    mu: float


def base_decay(cfg: TrainConfig, t: int) -> float:
    """Linear anneal mu_start -> mu_min over cfg.total_iterations, then flat."""
    frac = min(1.0, t / cfg.total_iterations)
    return cfg.mu_start - (cfg.mu_start - cfg.mu_min) * frac


def braking_boost(cfg: TrainConfig, kappa: float) -> float:
    """beta = (kappa - tau) / (1 - tau) when kappa exceeds tau, else 0."""
    if not 0.0 <= kappa <= 1.0:
        raise ContractViolationError(f"kappa must lie in [0, 1], got {kappa}")
    if cfg.controller_mode == "no_conflict" or kappa <= cfg.tau:
        return 0.0
    return (kappa - cfg.tau) / (1.0 - cfg.tau)


class SmoothnessController:
    """Stateful mu schedule: call step(kappa) once per training iteration."""

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.lift = 0.0
        self.t = 0

    def step(self, kappa: float) -> ControllerTrace:
        """Advance one iteration: fold beta into the lift, then lift the base at the current t."""
        beta = braking_boost(self.cfg, kappa)
        lam = self.cfg.lambda_ema
        self.lift = (1.0 - lam) * self.lift + lam * beta
        mu_b = base_decay(self.cfg, self.t)
        mu = mu_b + self.lift * (self.cfg.mu_max - mu_b)
        trace = ControllerTrace(self.t, kappa, mu_b, beta, self.lift, mu)
        self.t += 1
        return trace
