"""One training iteration of the adaptive smooth-Tchebycheff PPO and three baselines.

One iteration runs, in order: collect a fixed horizon of steps; per-objective
GAE and advantage normalization; fold the iteration's completed-episode
returns into the running normalizer to get r_bar; step the smoothness
controller with the PREVIOUS iteration's conflict ratio; compute attention
and the maintenance mix at the new mu; then run clipped-PPO epochs over
shuffled minibatches, critic before actor inside every minibatch.  The actor
update gets the (m, P) per-objective gradient matrix from one backward pass,
projects conflicts away, sums (optionally attention-weighted), adds the
unprojected entropy term, and ascends in place on the actor's vector.

Algorithms: "pasta" (full pipeline), "stch_fixed" (same pipeline, constant
mu), "linear" (scalarized advantages, single clipped loss), "tch" (worst
objective only, scaled by its weight).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pastarl import metrics
from pastarl.config import TrainConfig
from pastarl.controller import ControllerTrace, SmoothnessController
from pastarl.envs import make_env
from pastarl.errors import DivergenceError
from pastarl.gae import RolloutBatch, compute_gae, normalize_advantages
from pastarl.nn import AdamState, adam_update
from pastarl.policy import BranchedCritic, GaussianActor, SharedCritic
from pastarl.scalarize import (
    ReturnNormalizer,
    maintenance_mix,
    preference_vector,
    stch_attention,
    tch_worst_index,
    utopia_point,
)
from pastarl.surgery import conflict_ratio, project_conflicts, summed_update_direction


@dataclass
class EvalRecord:
    iteration: int
    returns: tuple          # per-objective mean raw episodic returns
    hv_so_far: float        # hypervolume of all eval points so far (self-normalized)
    eu: float               # w . returns


@dataclass
class IterationReport:
    iteration: int
    kappa: float
    mu: float
    mu_base: float
    beta: float
    mu_star: float
    return_means: tuple     # per-objective mean completed-episode returns
    clip_losses: tuple
    value_loss: float
    entropy: float
    n_episodes: int
    eval: EvalRecord | None = None


def weighted_value_loss(values, targets, eta) -> float:
    """(1/N) sum_t sum_i eta_i (V_i(s_t) - y_i(s_t))^2."""
    v = np.atleast_2d(np.asarray(values, dtype=np.float64))
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    eta = np.asarray(eta, dtype=np.float64)
    return float(np.mean(np.sum(eta * (v - y) ** 2, axis=1)))


def deterministic_returns(actor, env, w, rng, episodes: int) -> np.ndarray:
    """(episodes, m) raw returns of the actor's mean action, resetting env from rng."""
    totals = np.zeros((episodes, env.m))
    for ep in range(episodes):
        obs = env.reset(rng)
        done = False
        while not done:
            obs, r, done, _ = env.step(actor.act_deterministic(obs, w))
            totals[ep] += r
    return totals


class Trainer:
    """Owns networks, optimizers, normalizer, controller, and rng streams."""

    def __init__(self, cfg: TrainConfig, env=None, eval_env=None):
        self.cfg = cfg.validate()
        self.env = env if env is not None else make_env(cfg.env_name, **cfg.env_params)
        self.eval_env = eval_env if eval_env is not None else make_env(cfg.env_name, **cfg.env_params)
        self.m = self.env.m
        self.w = preference_vector(cfg.preference, self.m)
        self.z_star = utopia_point(self.m, cfg.zeta)

        # Independent, deterministically derived rng streams.
        children = np.random.SeedSequence(cfg.seed).spawn(6)
        init_rng = np.random.default_rng(children[0])
        self.env_rng = np.random.default_rng(children[1])
        self.action_rng = np.random.default_rng(children[2])
        self.shuffle_rng = np.random.default_rng(children[3])
        self.projection_rng = np.random.default_rng(children[4])
        self._eval_seeds = children[5]

        obs_dim, act_dim = self.env.observation_dim, self.env.action_dim
        self.actor = GaussianActor.create(obs_dim, self.m, act_dim, init_rng, cfg.hidden)
        branched = cfg.critic.startswith("branched")
        self.critic = (
            BranchedCritic.create(obs_dim, self.m, init_rng, cfg.hidden)
            if branched
            else SharedCritic.create(obs_dim, self.m, init_rng, cfg.hidden)
        )
        self.critic_weighted = cfg.critic.endswith("_weighted")
        self.actor_opt = AdamState(self.actor.n_params, lr=cfg.lr)
        self.critic_opt = AdamState(self.critic.n_params, lr=cfg.lr)

        self.normalizer = ReturnNormalizer(self.m)
        self.controller = SmoothnessController(cfg)
        self.last_kappa = 0.0
        self.iteration = 0
        self.eval_history: list[EvalRecord] = []
        self._obs = None
        self._partial_return = np.zeros(self.m)

    # -- rollout ------------------------------------------------------------

    def collect_rollout(self) -> RolloutBatch:
        cfg = self.cfg
        T = cfg.horizon
        if self._obs is None:
            self._obs = self.env.reset(self.env_rng)
            self._partial_return[:] = 0.0
        obs_dim, act_dim = self.env.observation_dim, self.env.action_dim
        states = np.empty((T, obs_dim))
        actions = np.empty((T, act_dim))
        pre_clamp = np.empty((T, act_dim))
        log_probs = np.empty(T)
        rewards = np.empty((T, self.m))
        dones = np.zeros(T, dtype=bool)
        completed: list[np.ndarray] = []
        for t in range(T):
            states[t] = self._obs
            sample = self.actor.act(self._obs, self.w, self.action_rng)
            obs2, r, done, _ = self.env.step(sample.action)
            actions[t] = sample.action
            pre_clamp[t] = sample.pre_clamp
            log_probs[t] = sample.log_prob
            rewards[t] = r
            dones[t] = done
            self._partial_return += r
            if done:
                completed.append(self._partial_return.copy())
                self._partial_return[:] = 0.0
                obs2 = self.env.reset(self.env_rng)
            self._obs = obs2
        all_states = np.vstack([states, self._obs[None, :]])
        inputs = np.hstack([all_states, np.tile(self.w, (T + 1, 1))])
        values = np.atleast_2d(self.critic.values(inputs))
        return RolloutBatch(
            states=states,
            actions=actions,
            pre_clamp=pre_clamp,
            log_probs=log_probs,
            rewards=rewards,
            dones=dones,
            values=values,
            episodic_returns=completed,
        )

    # -- one iteration of Alg.-style training --------------------------------

    def run_iteration(self) -> IterationReport:
        cfg = self.cfg
        batch = self.collect_rollout()
        compute_gae(batch, cfg.gamma, cfg.lambda_gae)
        normalize_advantages(batch)

        # Returns for normalization; if no episode finished this iteration,
        # fall back to the in-progress partial sums so r_bar stays defined.
        rows = batch.episodic_returns if batch.episodic_returns else [self._partial_return.copy()]
        r_bar = self.normalizer.update_and_normalize(np.array(rows))

        if cfg.algorithm == "pasta":
            trace = self.controller.step(self.last_kappa)
            mu = trace.mu
        elif cfg.algorithm == "stch_fixed":
            mu = cfg.fixed_mu
            trace = ControllerTrace(self.iteration, self.last_kappa, mu, 0.0, mu, mu)
        else:
            mu = 0.0
            trace = ControllerTrace(self.iteration, 0.0, 0.0, 0.0, 0.0, 0.0)

        uniform = np.full(self.m, 1.0 / self.m)
        if cfg.algorithm in ("pasta", "stch_fixed"):
            delta = stch_attention(r_bar, self.w, self.z_star, mu)
            eta = maintenance_mix(delta, cfg.rho)
        else:
            eta = uniform
        eta_critic = eta if self.critic_weighted else uniform

        j_worst = tch_worst_index(r_bar, self.w, self.z_star)[0] if cfg.algorithm == "tch" else 0

        T = cfg.horizon
        inputs = np.hstack([batch.states, np.tile(self.w, (T, 1))])
        kappas: list[float] = []
        clip_loss_acc = np.zeros(self.m)
        value_loss_acc = 0.0
        entropy_acc = 0.0
        n_updates = 0

        for _ in range(cfg.epochs):
            perm = self.shuffle_rng.permutation(T)
            for start in range(0, T, cfg.minibatch):
                mb = perm[start : start + cfg.minibatch]
                self._critic_update(inputs[mb], batch.value_targets[mb], eta_critic)
                kappa_b, clip_losses = self._actor_update(
                    inputs[mb], batch, mb, eta, j_worst, r_bar
                )
                kappas.append(kappa_b)
                clip_loss_acc += clip_losses
                value_loss_acc += self._last_value_loss
                entropy_acc += self.actor.entropy()
                n_updates += 1

        self.last_kappa = float(np.mean(kappas))
        self.iteration += 1
        ret_means = (
            tuple(np.mean(np.array(batch.episodic_returns), axis=0).tolist())
            if batch.episodic_returns
            else tuple([float("nan")] * self.m)
        )
        return IterationReport(
            iteration=self.iteration,
            kappa=self.last_kappa,
            mu=float(trace.mu),
            mu_base=float(trace.mu_base),
            beta=float(trace.beta),
            mu_star=float(trace.mu_star),
            return_means=ret_means,
            clip_losses=tuple((clip_loss_acc / n_updates).tolist()),
            value_loss=value_loss_acc / n_updates,
            entropy=entropy_acc / n_updates,
            n_episodes=len(batch.episodic_returns),
        )

    def _critic_update(self, x, targets, eta) -> None:
        cfg = self.cfg
        vals, cache = self.critic.forward(x)
        loss = weighted_value_loss(vals, targets, eta)
        if not np.isfinite(loss):
            raise DivergenceError("non-finite value_loss in critic update")
        self._last_value_loss = cfg.c1 * loss
        dldv = cfg.c1 * 2.0 * eta[None, :] * (vals - targets) / x.shape[0]
        grad = self.critic.backward(cache, dldv)
        adam_update(self.critic.params, grad, self.critic_opt, ascent=False, name="critic")

    def _actor_update(self, x, batch, mb, eta, j_worst, r_bar):
        cfg = self.cfg
        means, tape = self.actor.mean_forward(x)
        pre = batch.pre_clamp[mb]
        logp = self.actor.log_probs(means, pre)
        ratio = np.exp(logp - batch.log_probs[mb])
        adv = batch.norm_advantages[mb]  # (B, m)
        B = len(mb)

        # PPO's two branches per objective, ratio * A and clip(ratio) * A; the
        # ratio is clipped once, to the values np.clip gives (NaN included).
        clipped_ratio = np.minimum(np.maximum(ratio, 1.0 - cfg.clip_eps), 1.0 + cfg.clip_eps)
        unclipped = ratio[:, None] * adv  # (B, m)
        clipped = clipped_ratio[:, None] * adv
        # The clipped objective min(unclipped, clipped), always reported.
        clip_losses = np.minimum(unclipped, clipped).mean(axis=0)
        for i in range(self.m):
            if not np.isfinite(clip_losses[i]):
                raise DivergenceError(f"non-finite clip_loss[{i}] in actor update")
        # d(min)/d(logp): the unclipped branch carries ratio * A; a strictly
        # smaller clipped branch means the gradient is dead for that sample.
        coeff = np.where(unclipped <= clipped, unclipped, 0.0)  # (B, m)

        # One backward pass per minibatch: a single coefficient row for the
        # scalarized baselines, one row per objective otherwise.
        if cfg.algorithm == "linear":
            a_lin = adv @ self.w
            unc = ratio * a_lin
            coeffs, scale = np.where(unc <= clipped_ratio * a_lin, unc, 0.0)[None, :], 1.0
        elif cfg.algorithm == "tch":
            if cfg.tch_per_minibatch:
                j_worst = tch_worst_index(r_bar, self.w, self.z_star)[0]
            coeffs, scale = coeff[None, :, j_worst], self.w[j_worst]
        else:
            coeffs = coeff.T
        grads = self.actor.backward_weighted_logp(tape, pre, coeffs / B)

        if cfg.algorithm in ("linear", "tch"):
            direction = scale * grads[0]
            kappa_b = 0.0
        else:
            if cfg.no_pcgrad:
                kappa_b = conflict_ratio(grads)
                projected = grads
            else:
                res = project_conflicts(grads, self.projection_rng)
                kappa_b = res.kappa
                projected = res.grads
            mode = "weighted" if cfg.weighted_pcgrad else "sum"
            direction = summed_update_direction(projected, mode, eta)

        self.actor.add_entropy_grad(direction, cfg.c2)  # not projected
        adam_update(self.actor.params, direction, self.actor_opt, ascent=True, name="actor")
        self.actor.clamp_log_std()
        return kappa_b, clip_losses

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, iteration: int) -> EvalRecord:
        """Deterministic (mean-action) episodes on a fresh rng; appends to history."""
        rng = np.random.default_rng(self._eval_seeds.spawn(1)[0])
        totals = deterministic_returns(
            self.actor, self.eval_env, self.w, rng, self.cfg.eval_episodes
        )
        mean_returns = totals.mean(axis=0)
        record = EvalRecord(
            iteration=iteration,
            returns=tuple(mean_returns.tolist()),
            hv_so_far=0.0,
            eu=float(self.w @ mean_returns),
        )
        self.eval_history.append(record)
        record.hv_so_far = self._hv_so_far()
        return record

    def _hv_so_far(self) -> float:
        pts = np.array([rec.returns for rec in self.eval_history])
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        normed = np.clip((pts - lo) / (hi - lo + 1e-8), 0.0, 1.0)
        return metrics.hypervolume(normed)
