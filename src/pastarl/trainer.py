"""One training iteration of the adaptive smooth-Tchebycheff PPO and three baselines.

One iteration runs, in order: collect a fixed horizon of steps; per-objective
GAE and advantage normalization; fold the iteration's completed-episode
returns into the running normalizer to get r_bar; step the smoothness
controller with the PREVIOUS iteration's conflict ratio; compute attention
and the maintenance mix at the new mu; then run clipped-PPO epochs over
shuffled minibatches.  The actor update gets its per-objective gradient
rows from one backward pass, projects conflicts away, combines the rows
with the actor coefficients c, adds the unprojected entropy term, and
ascends in place on the actor's vector.

The actor and the critic have separate vectors and Adam states, so within
an iteration neither update reads what the other writes.  The critic's
epochs and the actor's therefore run as two loops over the same minibatches:
on a host with two or more usable CPUs each iteration forks one child process
that runs the critic's while this process runs the actor's, and otherwise
the critic's run first, inline.  Either way every value is the one the
interleaved loop (critic, then actor, per minibatch) gives, and no child
outlives the iteration that forked it.

Every algorithm is one row of ``scalarize.ALGORITHMS``; this module reads
its mu source, coefficient rule, clip and projection from there.
"""

from __future__ import annotations

import functools
import mmap
import os
import pickle
import signal
import sys
import traceback
from contextlib import suppress
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from pastarl.config import TrainConfig
from pastarl.controller import ControllerTrace, SmoothnessController
from pastarl.envs import make_env
from pastarl.errors import DivergenceError
from pastarl.gae import RolloutBatch, compute_gae, normalize_advantages
from pastarl.nn import AdamState, adam_update
from pastarl.policy import BranchedCritic, GaussianActor, SharedCritic
from pastarl.scalarize import (
    ALGORITHMS,
    ReturnNormalizer,
    actor_coefficients,
    maintenance_mix,
    preference_vector,
    stch_attention,
    utopia_point,
)
from pastarl.surgery import conflict_ratio, project_conflicts


def column(stem: str):
    """Declare a record field whose CSV column stem is not its field name.

    Records (the two below, and cli's tables) are the only declaration of
    the CSV columns: each field is one column, named by the field or its
    ``column`` stem, and a tuple field is the m columns stem_0 ... stem_{m-1}.
    """
    return field(metadata={"column": stem})


@dataclass
class EvalRecord:
    """One row of eval.csv."""

    iteration: int
    returns: tuple = column("return")  # per-objective mean raw episodic returns
    eu: float                          # w . returns


@dataclass
class IterationReport:
    """One row of metrics.csv."""

    iteration: int
    kappa: float
    mu: float
    mu_base: float
    beta: float
    mu_star: float
    return_means: tuple = column("return")  # per-objective mean completed-episode returns
    clip_losses: tuple = column("clip_loss")
    value_loss: float
    entropy: float
    n_episodes: int


class CriticOutcome(NamedTuple):
    """What one iteration's critic epochs give back."""

    losses: list            # c1-scaled value loss of each minibatch, in order
    step_count: int         # the critic's Adam step count afterwards
    failure: tuple | None   # (minibatch index, error) of the first failed update


def weighted_value_loss(values, targets, eta) -> float:
    """(1/N) sum_t sum_i eta_i (V_i(s_t) - y_i(s_t))^2 over (N, m) values and targets."""
    return float(np.mean(np.sum(eta * (values - targets) ** 2, axis=1)))


def deterministic_returns(actor, env, w, rng, episodes: int) -> np.ndarray:
    """(episodes, m) raw returns of the actor's mean action, resetting env from rng."""
    totals = np.zeros((episodes, env.m))
    obs_dim = env.observation_dim
    x = np.empty((1, obs_dim + len(w)))  # the actor's input, one [obs, w] row
    x[0, obs_dim:] = w
    for ep in range(episodes):
        x[0, :obs_dim] = env.reset(rng)
        done = False
        while not done:
            means = actor.means(x)
            # np.clip's values without its Python-level dispatch.
            obs, r, done, _ = env.step(np.minimum(np.maximum(means[0], 0.0), 1.0))
            x[0, :obs_dim] = obs
            totals[ep] += r
    return totals


class Trainer:
    """Owns networks, optimizers, normalizer, controller, and rng streams."""

    def __init__(self, cfg: TrainConfig, env=None, eval_env=None):
        self.cfg = cfg.validate()
        self.algorithm = ALGORITHMS[cfg.algorithm]
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
        critic = (BranchedCritic if branched else SharedCritic).create(
            obs_dim, self.m, init_rng, cfg.hidden
        )
        # The critic's vector and Adam moments sit in one anonymous MAP_SHARED
        # mapping: the Adam steps of a child forked for the critic's epochs
        # land in the memory this process reads.
        n = critic.n_params
        params, adam_m, adam_v = np.frombuffer(mmap.mmap(-1, 3 * 8 * n)).reshape(3, n)
        self.critic = (
            BranchedCritic(critic.trunk, critic.stacked_heads, params=params)
            if branched
            else SharedCritic(critic.net, params=params)
        )
        self.critic_weighted = cfg.critic.endswith("_weighted")
        self.actor_opt = AdamState(self.actor.n_params, lr=cfg.lr)
        self.critic_opt = AdamState(n, lr=cfg.lr, m=adam_m, v=adam_v)

        self.normalizer = ReturnNormalizer(self.m)
        self.controller = SmoothnessController(cfg)
        self.last_kappa = 0.0
        self.iteration = 0
        self._obs = None
        self._partial_return = np.zeros(self.m)

    # -- rollout ------------------------------------------------------------

    def collect_rollout(self) -> RolloutBatch:
        """T steps of the Gaussian policy, continuing the episode in progress.

        The actor's parameters hold still for the whole horizon, so its std
        and the horizon's noise come first: one (T, act_dim) draw, the values
        T single-step draws give, in order.  Each step then runs only the
        actor's mean, with no activation record, on its [obs, w] row, a
        (1, obs_dim + m) view, and clips mean plus noise into the one action
        buffer that ``env.step`` reads; the log-probs of all T samples come
        from one batched pass after the loop.  The same (T + 1)-row input
        buffer, the bootstrap state last, feeds the critic's record-free
        values, and its first T rows are the batch's inputs to both updates.
        """
        T = self.cfg.horizon
        env, actor = self.env, self.actor
        if self._obs is None:
            self._obs = env.reset(self.env_rng)
            self._partial_return[:] = 0.0
        obs_dim, act_dim = env.observation_dim, env.action_dim
        inputs = np.empty((T + 1, obs_dim + self.m))
        inputs[:, obs_dim:] = self.w
        std = np.exp(actor.log_std)
        noise = self.action_rng.standard_normal((T, act_dim)) * std
        means = np.empty((T, act_dim))
        pre_clamp = np.empty((T, act_dim))
        action = np.empty(act_dim)
        rewards = np.empty((T, self.m))
        dones = np.zeros(T, dtype=bool)
        completed: list[np.ndarray] = []
        obs = self._obs
        inputs[0, :obs_dim] = obs
        for t in range(T):
            mean = means[t] = actor.means(inputs[t : t + 1])[0]
            pre = pre_clamp[t]
            np.add(mean, noise[t], out=pre)
            # np.clip's values without its Python-level dispatch.
            np.maximum(pre, 0.0, out=action)
            np.minimum(action, 1.0, out=action)
            obs, r, done, _ = env.step(action)
            rewards[t] = r
            dones[t] = done
            self._partial_return += r
            if done:
                completed.append(self._partial_return.copy())
                self._partial_return[:] = 0.0
                obs = env.reset(self.env_rng)
            inputs[t + 1, :obs_dim] = obs
        self._obs = obs
        return RolloutBatch(
            inputs=inputs[:T],
            pre_clamp=pre_clamp,
            log_probs=actor.log_probs(means, pre_clamp),
            rewards=rewards,
            dones=dones,
            values=self.critic.values(inputs),
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

        algorithm = self.algorithm
        if algorithm.mu == "controller":
            trace = self.controller.step(self.last_kappa)
        else:  # a constant mu: the fixed_mu knob, or 0 where there is none
            mu = cfg.fixed_mu if algorithm.mu == "fixed_mu" else 0.0
            trace = ControllerTrace(self.iteration, self.last_kappa, mu, 0.0, mu, mu)
        eta_critic = np.full(self.m, 1.0 / self.m)
        if self.critic_weighted and algorithm.rule == "stch":
            eta_critic = maintenance_mix(stch_attention(r_bar, self.w, self.z_star, trace.mu), cfg.rho)
        c = actor_coefficients(algorithm.rule, r_bar, self.w, self.z_star, trace.mu, self._combine)

        value_losses, kappas, clip_loss_acc, entropy_acc = self._epochs(batch, c, eta_critic)
        n_updates = len(kappas)
        value_loss_acc = 0.0
        for loss in value_losses:  # in minibatch order; sum() compensates on 3.12+
            value_loss_acc += loss

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

    def _minibatches(self, perms):
        """Each epoch's permutation of the horizon, cut into minibatches."""
        size = self.cfg.minibatch
        for perm in perms:
            for start in range(0, len(perm), size):
                yield perm[start : start + size]

    def _combine(self, delta, w):
        """The actor's coefficients of attention delta: m * eta with weighted_pcgrad, else ones."""
        if self.cfg.weighted_pcgrad:
            return self.m * maintenance_mix(delta, self.cfg.rho)
        return np.ones_like(delta)

    def _epochs(self, batch, c, eta_critic):
        """The critic's epochs and the actor's over the same minibatches.

        Returns (value losses, kappas, summed clip losses, summed entropy),
        each in minibatch order.  Where ``_worker_wanted()``, a child forked
        here runs the critic's epochs on what it inherits while this process
        runs the actor's, and is reaped before this returns or raises;
        otherwise the critic's epochs run first, here.  An error is the one
        the interleaved loop would raise: the failure at the earliest
        minibatch, the critic's on a tie, since it went first.  A
        DivergenceError is raised again naming the update, the iteration,
        epoch and minibatch (each counted from 1) and the original message.
        """
        perms = [self.shuffle_rng.permutation(self.cfg.horizon) for _ in range(self.cfg.epochs)]
        critic_epochs = functools.partial(
            self._critic_epochs, batch.inputs, batch.value_targets, perms, eta_critic
        )
        kappas: list[float] = []
        clip_loss_acc = np.zeros(self.m)
        entropy_acc = 0.0
        actor_failure = child = None
        try:
            if _worker_wanted():
                with suppress(OSError):  # no process to spare: the critic runs inline
                    child = _forked(critic_epochs)
            if child is None:
                critic = critic_epochs()
            for k, mb in enumerate(self._minibatches(perms)):
                try:
                    kappa_b, clip_losses = self._actor_update(batch.inputs[mb], batch, mb, c)
                except Exception as e:
                    actor_failure = (k, e)
                    break
                kappas.append(kappa_b)
                clip_loss_acc += clip_losses
                entropy_acc += self.actor.entropy()
        except BaseException:
            if child is not None:
                _kill(*child)
            raise
        if child is not None:
            critic = _result(*child)
        self.critic_opt.step_count = critic.step_count
        failures = [
            (*f, name) for f, name in ((critic.failure, "critic"), (actor_failure, "actor")) if f is not None
        ]
        if failures:
            k, error, name = min(failures, key=lambda f: f[0])
            if isinstance(error, DivergenceError):
                per_epoch = len(range(0, self.cfg.horizon, self.cfg.minibatch))  # as _minibatches cuts
                raise DivergenceError(
                    f"{name} update at iteration {self.iteration + 1}, epoch {k // per_epoch + 1}, "
                    f"minibatch {k % per_epoch + 1}: {error}"
                ) from error
            raise error
        return critic.losses, kappas, clip_loss_acc, entropy_acc

    def _critic_epochs(self, inputs, targets, perms, eta) -> CriticOutcome:
        """Every minibatch's critic update in order, up to the first that fails."""
        losses = []
        for k, mb in enumerate(self._minibatches(perms)):
            try:
                losses.append(self._critic_update(inputs[mb], targets[mb], eta))
            except Exception as e:
                return CriticOutcome(losses, self.critic_opt.step_count, (k, e))
        return CriticOutcome(losses, self.critic_opt.step_count, None)

    def _critic_update(self, x, targets, eta) -> float:
        """One Adam step on the critic's eta-weighted value loss; returns the
        loss times c1."""
        cfg = self.cfg
        vals, cache = self.critic.forward(x)
        loss = weighted_value_loss(vals, targets, eta)
        if not np.isfinite(loss):
            raise DivergenceError("non-finite value_loss in critic update")
        dldv = cfg.c1 * 2.0 * eta[None, :] * (vals - targets) / x.shape[0]
        grad = self.critic.backward(cache, dldv)
        adam_update(self.critic.params, grad, self.critic_opt, ascent=False, name="critic")
        return cfg.c1 * loss

    def _actor_update(self, x, batch, mb, c):
        cfg, algorithm = self.cfg, self.algorithm
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

        # One backward pass over rows of d(min)/d(logp): ratio * A, or 0 where
        # the clipped branch is strictly smaller.  A scalarized clip has one row,
        # of A . c and weight 1; otherwise each objective that c weights has a
        # row of weight c_i, and every objective has one where rows are projected.
        if algorithm.clip == "scalarized":
            a = adv @ c
            unc = ratio * a
            coeffs, c = np.where(unc <= clipped_ratio * a, unc, 0.0)[None, :], np.ones(1)
        else:
            rows = slice(None) if algorithm.projects else np.flatnonzero(c)
            coeffs, c = np.where(unclipped <= clipped, unclipped, 0.0).T[rows], c[rows]
        grads = self.actor.backward_weighted_logp(tape, pre, coeffs / B)

        if algorithm.projects and not cfg.no_pcgrad:
            res = project_conflicts(grads, self.projection_rng)
            kappa_b, grads = res.kappa, res.grads
        else:
            kappa_b = conflict_ratio(grads)
        direction = (c[:, None] * grads).sum(axis=0)

        self.actor.add_entropy_grad(direction, cfg.c2)  # not projected
        adam_update(self.actor.params, direction, self.actor_opt, ascent=True, name="actor")
        self.actor.clamp_log_std()
        return kappa_b, clip_losses

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, iteration: int) -> EvalRecord:
        """Deterministic (mean-action) episodes on a fresh rng."""
        rng = np.random.default_rng(self._eval_seeds.spawn(1)[0])
        totals = deterministic_returns(
            self.actor, self.eval_env, self.w, rng, self.cfg.eval_episodes
        )
        mean_returns = totals.mean(axis=0)
        return EvalRecord(
            iteration=iteration,
            returns=tuple(mean_returns.tolist()),
            eu=float(self.w @ mean_returns),
        )


# -- the critic's child process ---------------------------------------------------


def _worker_wanted() -> bool:
    """Whether the critic's epochs get a forked child: only where os.fork
    exists, this process may run on two or more CPUs, and it is not itself a
    multiprocessing child (``sweep --workers N`` already fills the CPUs)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return False
    if len(os.sched_getaffinity(0)) < 2:
        return False
    mp = sys.modules.get("multiprocessing")  # a pool process has it imported
    return mp is None or mp.parent_process() is None


def _forked(fn) -> tuple[int, int]:
    """(pid, read end of its pipe) of a forked child that runs fn, writes the
    pickled result into the pipe and exits 0.  It exits 1 when fn raises,
    printing the traceback, and quietly when the pipe is broken because this
    process is gone.  The child ignores SIGINT: this process handles Ctrl-C
    and kills it."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:  # the child; it never returns from here
        status = 1
        try:
            os.close(read_end)
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            reply = pickle.dumps(fn())  # all or nothing: the parent unpickles what it reads
            with suppress(BrokenPipeError):  # the parent is gone: exit 1, with no one to tell
                with open(write_end, "wb") as pipe:
                    pipe.write(reply)
                status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _result(pid: int, read_end: int):
    """The result that the child (pid, read_end) of ``_forked`` sends, read to
    end-of-file; the child is reaped and the pipe closed either way."""
    try:
        with open(read_end, "rb") as pipe:
            reply = pipe.read()
        _, status = os.waitpid(pid, 0)
    except BaseException:  # interrupted: the child is not waited for
        _kill(pid, None)
        raise
    if not reply:
        raise ChildProcessError(
            f"the critic's process {pid} exited without a result (exit code {os.waitstatus_to_exitcode(status)})"
        )
    return pickle.loads(reply)


def _kill(pid: int, read_end: int | None) -> None:
    """SIGKILL and reap the child of ``_forked``, closing its pipe if open."""
    if read_end is not None:
        os.close(read_end)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
