"""Whole-update oracles: each algorithm's actor update ascends the surrogate
the README states, and the critic's update descends c1 times its weighted
value loss.

One iteration of a short frogger run is traced: the direction each update
passes to Adam in its first minibatch is compared with central differences
of the stated objective at the same parameters, minibatch and coefficients.
With a per-objective clip the actor's surrogate is

    S(theta) = sum_i c_i mean_b min(r_b A_bi, clip(r_b) A_bi) + c2 H(theta),

and with the scalarized clip it is the same with a = A c in place of the
per-objective terms.  c comes from ``oracles.actor_coefficients``, written
from the README's statement of each rule.  Where rows are projected, the
direction is compared instead with ``oracles.pcgrad`` of the per-objective
central differences, drawn in the trainer's projection order.  The behaviour
log-probs are jittered, so that ratios leave [1 - eps, 1 + eps] and both
branches of each min run.
"""

import copy
from typing import NamedTuple

import numpy as np
import pytest

from pastarl import trainer as trainer_mod
from pastarl.gae import RolloutBatch
from pastarl.scalarize import ALGORITHMS
from pastarl.trainer import TrainConfig, Trainer, weighted_value_loss
from tests import oracles
from tests.conftest import finite_difference
from tests.test_trainer import iterate

# The largest error, relative to the largest entry, is 1e-11 to 8e-11 here.
RTOL = 1e-9
HALF_LOG_2PI_E = 0.5 * float(np.log(2.0 * np.pi * np.e))


def frogger_cfg(**overrides) -> TrainConfig:
    base = dict(
        env_name="frogger",
        env_params={"episode_cap": 16},
        preference=(0.5, 0.3, 0.2),
        horizon=64,
        epochs=1,
        minibatch=32,
        total_iterations=10,
        seed=7,
        hidden=8,
    )
    base.update(overrides)
    return TrainConfig(**base)


class FirstUpdates(NamedTuple):
    """One traced iteration: its batch, the first minibatch's rows, what the
    coefficients were computed from, and each update's first Adam step."""

    trainer: Trainer
    batch: RolloutBatch
    mb: np.ndarray
    r_bar: np.ndarray
    mu: float
    projection_rng: np.random.Generator  # as the iteration's first projection finds it
    steps: dict  # "actor" or "critic" -> (parameters, gradient) of its first step


def first_updates(cfg: TrainConfig, monkeypatch, warmup: int = 1) -> FirstUpdates:
    """Run warmup iterations, then trace one more with the critic's epochs
    inline and the behaviour log-probs jittered by N(0, 0.3)."""
    monkeypatch.setattr(trainer_mod, "_worker_wanted", lambda: False)
    t = Trainer(cfg)
    for _ in range(warmup):
        iterate(t)
    steps, batches, r_bars = {}, [], []
    adam, rollout, normalize = trainer_mod.adam_update, t.collect_rollout, t.normalizer.update_and_normalize
    jitter = np.random.default_rng(5)

    def recording_adam(theta, grad, state, ascent=False, name="network"):
        steps.setdefault(name, (theta.copy(), np.array(grad)))
        adam(theta, grad, state, ascent=ascent, name=name)

    def jittered_rollout():
        batch = rollout()
        batch.log_probs = batch.log_probs + jitter.normal(scale=0.3, size=batch.log_probs.shape)
        batches.append(batch)
        return batch

    def recording_normalize(rows):
        r_bars.append(normalize(rows))
        return r_bars[-1]

    monkeypatch.setattr(trainer_mod, "adam_update", recording_adam)
    t.collect_rollout, t.normalizer.update_and_normalize = jittered_rollout, recording_normalize
    shuffle, projection = copy.deepcopy(t.shuffle_rng), copy.deepcopy(t.projection_rng)
    mu = iterate(t).mu
    mb = shuffle.permutation(cfg.horizon)[: cfg.minibatch]
    return FirstUpdates(t, batches[0], mb, r_bars[0], mu, projection, steps)


def at(vector: np.ndarray, theta: np.ndarray, fn):
    """fn() with theta written into vector, which is restored after."""
    saved = vector.copy()
    vector[...] = theta
    try:
        return fn()
    finally:
        vector[...] = saved


def coefficients(u: FirstUpdates) -> np.ndarray:
    t, cfg = u.trainer, u.trainer.cfg
    z_star = np.full(t.m, cfg.zeta)
    rule = ALGORITHMS[cfg.algorithm].rule
    return oracles.actor_coefficients(rule, u.r_bar, t.w, z_star, u.mu, cfg.rho, cfg.weighted_pcgrad)


def ratios(u: FirstUpdates) -> np.ndarray:
    """The minibatch's probability ratios r_b at the actor's current parameters."""
    batch, mb = u.batch, u.mb
    return np.exp(oracles.log_probs(u.trainer.actor, batch.inputs[mb], batch.pre_clamp[mb]) - batch.log_probs[mb])


def clipped_means(u: FirstUpdates, advantages: np.ndarray) -> np.ndarray:
    """mean_b min(r_b A_bi, clip(r_b) A_bi) for each column i of the (B, k) advantages."""
    return oracles.clipped_objective_loss(ratios(u)[:, None], advantages, u.trainer.cfg.clip_eps).mean(axis=0)


def entropy(u: FirstUpdates) -> float:
    return float(np.sum(HALF_LOG_2PI_E + u.trainer.actor.log_std))


def surrogate(u: FirstUpdates, c: np.ndarray) -> float:
    cfg, adv = u.trainer.cfg, u.batch.norm_advantages[u.mb]
    if ALGORITHMS[cfg.algorithm].clip == "scalarized":
        clipped = float(clipped_means(u, (adv @ c)[:, None])[0])
    else:
        clipped = float(c @ clipped_means(u, adv))
    return clipped + cfg.c2 * entropy(u)


def gradient(u: FirstUpdates, fn) -> np.ndarray:
    """The central difference of fn() over the actor's vector, at the traced step's parameters."""
    params = u.trainer.actor.params
    return finite_difference(lambda theta: at(params, theta, fn), u.steps["actor"][0])


def assert_close(got: np.ndarray, want: np.ndarray) -> None:
    err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    assert err < RTOL, f"max error {err:.2e} of the largest entry"


def assert_both_branches_run(u: FirstUpdates) -> None:
    r = at(u.trainer.actor.params, u.steps["actor"][0], lambda: ratios(u))
    eps = u.trainer.cfg.clip_eps
    outside = (r < 1.0 - eps) | (r > 1.0 + eps)
    assert outside.any() and (~outside).any()


ACTOR_CASES = [
    pytest.param({"algorithm": "linear"}, id="linear"),
    pytest.param({"algorithm": "tch"}, id="tch"),
    pytest.param({"algorithm": "pasta", "no_pcgrad": True}, id="pasta-no_pcgrad"),
    pytest.param({"algorithm": "stch_fixed", "fixed_mu": 0.3, "no_pcgrad": True, "weighted_pcgrad": True},
                 id="stch_fixed-no_pcgrad-weighted_pcgrad"),
]
PROJECTING_CASES = [
    pytest.param({"algorithm": "pasta"}, id="pasta"),
    pytest.param({"algorithm": "stch_fixed", "fixed_mu": 0.3, "weighted_pcgrad": True},
                 id="stch_fixed-weighted_pcgrad"),
]


def test_every_algorithm_row_has_a_case():
    assert {case.values[0]["algorithm"] for case in ACTOR_CASES} == set(ALGORITHMS)
    projecting = {name for name, row in ALGORITHMS.items() if row.projects}
    assert {case.values[0]["algorithm"] for case in PROJECTING_CASES} == projecting


@pytest.mark.parametrize("overrides", ACTOR_CASES)
def test_actor_direction_is_the_surrogate_gradient(overrides, monkeypatch):
    u = first_updates(frogger_cfg(**overrides), monkeypatch)
    assert_both_branches_run(u)
    c = coefficients(u)
    assert_close(u.steps["actor"][1], gradient(u, lambda: surrogate(u, c)))


@pytest.mark.parametrize("overrides", PROJECTING_CASES)
def test_projected_direction_is_pcgrad_of_the_objective_gradients(overrides, monkeypatch):
    u = first_updates(frogger_cfg(**overrides), monkeypatch)
    assert_both_branches_run(u)
    adv = u.batch.norm_advantages[u.mb]
    per_objective = np.array([gradient(u, lambda i=i: clipped_means(u, adv)[i]) for i in range(u.trainer.m)])
    projected = oracles.pcgrad(per_objective, u.projection_rng)
    assert not np.allclose(projected, per_objective)  # some pair conflicts
    want = coefficients(u) @ projected + u.trainer.cfg.c2 * gradient(u, lambda: entropy(u))
    assert_close(u.steps["actor"][1], want)


def critic_values(critic, x: np.ndarray) -> np.ndarray:
    """(B, m) values of the branched critic's trunk and heads, or the shared
    critic's one network, from ``oracles.forward``."""
    if hasattr(critic, "heads"):
        feats = oracles.forward(critic.trunk, x)[0]
        return np.column_stack([oracles.forward(head, feats)[0][:, 0] for head in critic.heads])
    return oracles.forward(critic.net, x)[0]


@pytest.mark.parametrize(
    "critic", ["branched_weighted", "branched_unweighted", "shared_weighted", "shared_unweighted"]
)
def test_critic_gradient_is_the_weighted_value_loss_gradient(critic, monkeypatch):
    u = first_updates(frogger_cfg(critic=critic), monkeypatch)
    t, cfg = u.trainer, u.trainer.cfg
    eta = np.full(t.m, 1.0 / t.m)
    if critic.endswith("_weighted"):  # pasta's rule is stch
        eta = oracles.attention_mix(u.r_bar, t.w, np.full(t.m, cfg.zeta), u.mu, cfg.rho)
    x, targets = u.batch.inputs[u.mb], u.batch.value_targets[u.mb]
    theta, grad = u.steps["critic"]

    def loss() -> float:
        return cfg.c1 * weighted_value_loss(critic_values(t.critic, x), targets, eta)

    assert_close(grad, finite_difference(lambda th: at(t.critic.params, th, loss), theta))
