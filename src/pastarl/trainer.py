"""Training runs of the adaptive smooth-Tchebycheff PPO and three baselines.

``Trainer.run(sink)`` is the one training loop: it evaluates before the first
iteration, then runs ``cfg.total_iterations`` iterations and passes the sink
every record as it completes, in order: each iteration's reports, its
``EvalRecord`` every ``eval_every``-th and at the last, and a ``Checkpoint``
after every ``checkpoint_every``-th and the last (``checkpoints_after``).

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
that runs the critic's while this process runs the actor's, and sends the
critic's state back with its losses; otherwise the critic's run first, inline.
Nothing else reads the critic until the next rollout's values pass, so the
child of iteration k is left running under the actor's epochs, any
evaluation and iteration k + 1's step loop, and joined just before that
values pass; iteration k's report, whose value loss the child sends, is
complete only then.  An iteration the run checkpoints after, the last among
them, or ``settle()`` joins it sooner.  Either way every value is the one the
interleaved loop (critic, then actor, per minibatch) gives, and no child
outlives the trainer that forked it: ``close()``, which ``run`` ends with
whatever ends the run, or the trainer's collection, kills one still running.

Every algorithm is one row of ``scalarize.ALGORITHMS``; this module reads
its mu source, coefficient rule, clip and projection from there.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import sys
import traceback
import weakref
from contextlib import suppress
from dataclasses import dataclass, field, replace
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


@dataclass
class Checkpoint:
    """The run checkpoints here: after this iteration, with its critic settled."""

    iteration: int
    final: bool  # the run's last iteration


class CriticOutcome(NamedTuple):
    """What one iteration's critic epochs give back, and the critic's state after them."""

    losses: list            # c1-scaled value loss of each minibatch, in order
    failure: tuple | None   # (minibatch index, error) of the first failed update
    params: np.ndarray      # the critic's vector
    m: np.ndarray           # its Adam moments
    v: np.ndarray
    step_count: int         # its Adam step count


@dataclass
class _PendingCritic:
    """A forked child still running one iteration's critic epochs."""

    pid: int
    read_end: int                          # of the pipe its reply comes through
    reaper: weakref.finalize               # SIGKILLs and reaps it if the trainer goes first
    report: IterationReport | None = None  # its iteration's, but for value_loss


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


def _mean_in_order(losses) -> float:
    """The mean of losses, summed in minibatch order (sum() compensates on 3.12+)."""
    total = 0.0
    for loss in losses:
        total += loss
    return total / len(losses)


class Trainer:
    """Owns networks, optimizers, normalizer, controller, and rng streams,
    and between iterations the critic's pending child, if any."""

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
        critic_cls = BranchedCritic if cfg.critic.startswith("branched") else SharedCritic
        self.critic = critic_cls.create(obs_dim, self.m, init_rng, cfg.hidden)
        self.critic_weighted = cfg.critic.endswith("_weighted")
        self.actor_opt = AdamState(self.actor.n_params, lr=cfg.lr)
        self.critic_opt = AdamState(self.critic.n_params, lr=cfg.lr)

        self.normalizer = ReturnNormalizer(self.m)
        self.controller = SmoothnessController(cfg)
        self.last_kappa = 0.0
        self.iteration = 0
        self._obs = None
        self._partial_return = np.zeros(self.m)
        self._pending: _PendingCritic | None = None
        self._completed: list[IterationReport] = []  # reports not yet returned

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
        A critic child still pending from the previous iteration is joined
        just before that values pass, the critic's one read.
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
        if self._pending is not None:
            self._join()
        return RolloutBatch(
            inputs=inputs[:T],
            pre_clamp=pre_clamp,
            log_probs=actor.log_probs(means, pre_clamp),
            rewards=rewards,
            dones=dones,
            values=self.critic.values(inputs),
            episodic_returns=completed,
        )

    # -- the run ----------------------------------------------------------------

    def run(self, sink) -> None:
        """Train up to ``cfg.total_iterations``, calling sink on each record as
        it completes: the evaluation before the first iteration, then per
        iteration the reports completed during it, its ``EvalRecord`` where
        the iteration is an ``eval_every``-th or the last, and a
        ``Checkpoint`` where ``checkpoints_after`` it.  The run ends in
        ``close()``, so no critic child outlives the call, whatever the sink
        or an iteration raises."""
        cfg = self.cfg
        try:
            sink(self.evaluate(self.iteration))
            while self.iteration < cfg.total_iterations:
                for report in self.run_iteration():
                    sink(report)
                k, last = self.iteration, self.iteration == cfg.total_iterations
                if k % cfg.eval_every == 0 or last:
                    sink(self.evaluate(k))
                if self.checkpoints_after(k):
                    sink(Checkpoint(k, last))
        finally:
            self.close()

    def checkpoints_after(self, k: int) -> bool:
        """Whether the run checkpoints after iteration k, and so joins its
        critic child there: every ``checkpoint_every``-th and the last."""
        every = self.cfg.checkpoint_every
        return k == self.cfg.total_iterations or (every > 0 and k % every == 0)

    # -- one iteration of Alg.-style training --------------------------------

    def run_iteration(self) -> list[IterationReport]:
        """One iteration; returns the reports completed during the call, in order.

        Where a forked child runs the critic's epochs, this iteration's report
        waits for the child's value losses: the child is left pending, and
        the next iteration's rollout joins it, so that call returns this
        report before its own.  The child is joined here instead when the run
        checkpoints after this iteration, so that the wait for it is always
        part of an iteration, never of what follows.
        """
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

        self.last_kappa = float(np.mean(kappas))
        self.iteration += 1
        ret_means = (
            tuple(np.mean(np.array(batch.episodic_returns), axis=0).tolist())
            if batch.episodic_returns
            else tuple([float("nan")] * self.m)
        )
        report = IterationReport(
            iteration=self.iteration,
            kappa=self.last_kappa,
            mu=float(trace.mu),
            mu_base=float(trace.mu_base),
            beta=float(trace.beta),
            mu_star=float(trace.mu_star),
            return_means=ret_means,
            clip_losses=tuple((clip_loss_acc / n_updates).tolist()),
            value_loss=float("nan") if value_losses is None else _mean_in_order(value_losses),
            entropy=entropy_acc / n_updates,
            n_episodes=len(batch.episodic_returns),
        )
        if value_losses is None:
            self._pending.report = report
        else:
            self._completed.append(report)
        if self.checkpoints_after(self.iteration):
            return self.settle()
        done, self._completed = self._completed, []
        return done

    def settle(self) -> list[IterationReport]:
        """Join the pending critic child, if any, and return the reports
        completed since ``run_iteration`` or this last returned, the pending
        iteration's last; or raise the child's failure, naming its iteration.
        Call it before reading the critic, as ``run_iteration`` does where
        the run checkpoints."""
        if self._pending is not None:
            self._join()
        done, self._completed = self._completed, []
        return done

    def close(self) -> None:
        """SIGKILL and reap the pending critic child, if any; its report is lost."""
        pending, self._pending = self._pending, None
        if pending is not None:
            pending.reaper()

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
        runs the actor's.  Once the actor's epochs succeed the child is left
        pending and the value losses are None: ``_join`` takes them, and the
        critic's state, when the next rollout reads the critic or the caller
        settles.  If they fail, the child is reaped and its state copied in
        place before this raises; on an interrupt it is killed.  Without a
        child the critic's epochs run first, here.  An error is the one the
        interleaved loop would raise: the failure at the earliest minibatch,
        the critic's on a tie, since it went first.
        """
        perms = [self.shuffle_rng.permutation(self.cfg.horizon) for _ in range(self.cfg.epochs)]
        critic_epochs = functools.partial(
            self._critic_epochs, batch.inputs, batch.value_targets, perms, eta_critic
        )
        kappas: list[float] = []
        clip_loss_acc = np.zeros(self.m)
        entropy_acc = 0.0
        actor_failure = None
        try:
            if _worker_wanted():
                with suppress(OSError):  # no process to spare: the critic runs inline
                    # The reply: the critic's vector and two Adam moments, in
                    # float64, and 64 KiB for its losses and the pickle framing.
                    pid, read_end = _forked(critic_epochs, 3 * 8 * self.critic.n_params + 65536)
                    reaper = weakref.finalize(self, _kill, pid, read_end)
                    self._pending = _PendingCritic(pid, read_end, reaper)
            if self._pending is None:
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
            self.close()
            raise
        if self._pending is not None:
            if actor_failure is None:
                return None, kappas, clip_loss_acc, entropy_acc
            critic = self._reply()
        self._raise_first(self.iteration + 1, (critic.failure, "critic"), (actor_failure, "actor"))
        return critic.losses, kappas, clip_loss_acc, entropy_acc

    def _reply(self) -> CriticOutcome:
        """The pending child's outcome, with the critic's state it sends
        copied in place; the child is reaped either way."""
        pending, self._pending = self._pending, None
        pending.reaper.detach()
        critic = _result(pending.pid, pending.read_end)
        opt = self.critic_opt
        self.critic.params[...], opt.m[...], opt.v[...] = critic.params, critic.m, critic.v
        opt.step_count = critic.step_count
        return critic

    def _join(self) -> None:
        """Take the pending child's reply and complete its iteration's report,
        or raise the child's failure naming that iteration."""
        report = self._pending.report
        critic = self._reply()
        self._raise_first(report.iteration, (critic.failure, "critic"))
        self._completed.append(replace(report, value_loss=_mean_in_order(critic.losses)))

    def _raise_first(self, iteration: int, *named) -> None:
        """Raise the earliest of the (failure or None, update name) pairs,
        each failure a (minibatch index, error); the first pair wins a tie.
        A DivergenceError is raised again naming the update, the iteration,
        epoch and minibatch (each counted from 1) and the original message."""
        failures = [(*failure, name) for failure, name in named if failure is not None]
        if not failures:
            return
        k, error, name = min(failures, key=lambda f: f[0])
        if isinstance(error, DivergenceError):
            per_epoch = len(range(0, self.cfg.horizon, self.cfg.minibatch))  # as _minibatches cuts
            raise DivergenceError(
                f"{name} update at iteration {iteration}, epoch {k // per_epoch + 1}, "
                f"minibatch {k % per_epoch + 1}: {error}"
            ) from error
        raise error

    def _critic_epochs(self, inputs, targets, perms, eta) -> CriticOutcome:
        """Every minibatch's critic update in order, up to the first that fails."""
        losses, failure = [], None
        for k, mb in enumerate(self._minibatches(perms)):
            try:
                losses.append(self._critic_update(inputs[mb], targets[mb], eta))
            except Exception as e:
                failure = (k, e)
                break
        opt = self.critic_opt
        return CriticOutcome(losses, failure, self.critic.params, opt.m, opt.v, opt.step_count)

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


def _forked(fn, reply_bytes: int = 0) -> tuple[int, int]:
    """(pid, read end of its pipe) of a forked child that runs fn, pickles the
    result into the pipe and exits 0.  It exits 1 when fn raises, printing the
    traceback, and quietly when the pipe is broken because this process is
    gone.  The child ignores SIGINT: this process handles Ctrl-C and kills it.
    The pipe is grown to hold reply_bytes where the host allows it, so that a
    child can send a reply that size and exit before anyone reads it."""
    read_end, write_end = os.pipe()
    if reply_bytes:
        import fcntl  # POSIX only, as os.fork is

        with suppress(AttributeError, OSError):  # no F_SETPIPE_SZ, or above pipe-max-size
            fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, reply_bytes)
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
            result = fn()
            with suppress(BrokenPipeError):  # the parent is gone: exit 1, with no one to tell
                with open(write_end, "wb") as pipe:
                    pickle.dump(result, pipe, protocol=5)  # 5: arrays go into the pipe uncopied
                status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _result(pid: int, read_end: int):
    """The result the child (pid, read_end) of ``_forked`` sends, unpickled as
    it arrives; the child is reaped and the pipe closed either way."""
    try:
        with open(read_end, "rb") as pipe:
            result = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):  # the pipe closed before a whole result came
        _, status = os.waitpid(pid, 0)
        raise ChildProcessError(
            f"the critic's process {pid} exited without a result (exit code {os.waitstatus_to_exitcode(status)})"
        ) from None
    except BaseException:  # interrupted: the child is not waited for
        _kill(pid, None)
        raise
    os.waitpid(pid, 0)
    return result


def _kill(pid: int, read_end: int | None) -> None:
    """SIGKILL and reap the child of ``_forked``, closing its pipe if open."""
    if read_end is not None:
        os.close(read_end)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
