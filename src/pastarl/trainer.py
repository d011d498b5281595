"""One training iteration of the adaptive smooth-Tchebycheff PPO and three baselines.

One iteration runs, in order: collect a fixed horizon of steps; per-objective
GAE and advantage normalization; fold the iteration's completed-episode
returns into the running normalizer to get r_bar; step the smoothness
controller with the PREVIOUS iteration's conflict ratio; compute attention
and the maintenance mix at the new mu; then run clipped-PPO epochs over
shuffled minibatches.  The actor update gets the (m, P) per-objective
gradient matrix from one backward pass, projects conflicts away, sums
(optionally attention-weighted), adds the unprojected entropy term, and
ascends in place on the actor's vector.

The actor and the critic have separate vectors and Adam states, so within
an iteration neither update reads what the other writes.  The critic's
epochs and the actor's therefore run as two loops over the same minibatches:
on a host with two or more usable CPUs the critic's run in a forked worker
process (``_CriticWorker``) while this process runs the actor's, and
otherwise the critic's run first, inline.  Either way every value is the one
the interleaved loop (critic, then actor, per minibatch) gives.

Algorithms: "pasta" (full pipeline), "stch_fixed" (same pipeline, constant
mu), "linear" (scalarized advantages, single clipped loss), "tch" (worst
objective only, scaled by its weight).
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
import sys
import traceback
import weakref
from contextlib import suppress
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

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


class CriticOutcome(NamedTuple):
    """What one iteration's critic epochs give back."""

    losses: list            # c1-scaled value loss of each minibatch, in order
    step_count: int         # the critic's Adam step count afterwards
    failure: tuple | None   # (minibatch index, error) of the first failed update


def weighted_value_loss(values, targets, eta) -> float:
    """(1/N) sum_t sum_i eta_i (V_i(s_t) - y_i(s_t))^2."""
    v = np.atleast_2d(np.asarray(values, dtype=np.float64))
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    eta = np.asarray(eta, dtype=np.float64)
    return float(np.mean(np.sum(eta * (v - y) ** 2, axis=1)))


def deterministic_returns(actor, env, w, rng, episodes: int) -> np.ndarray:
    """(episodes, m) raw returns of the actor's mean action, resetting env from rng."""
    totals = np.zeros((episodes, env.m))
    obs_dim = env.observation_dim
    x = np.empty(obs_dim + len(w))  # the actor's input [obs, w]
    x[obs_dim:] = w
    for ep in range(episodes):
        x[:obs_dim] = env.reset(rng)
        done = False
        while not done:
            means, _ = actor.mean_forward(x)
            # np.clip's values without its Python-level dispatch.
            obs, r, done, _ = env.step(np.minimum(np.maximum(means, 0.0), 1.0))
            x[:obs_dim] = obs
            totals[ep] += r
    return totals


class Trainer:
    """Owns networks, optimizers, normalizer, controller, and rng streams,
    and the critic's worker process once one starts; ``close()`` (or leaving
    a ``with`` block) stops it."""

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
        critic = (BranchedCritic if branched else SharedCritic).create(
            obs_dim, self.m, init_rng, cfg.hidden
        )
        # Everything the critic's epochs read or write lives in one shared
        # mapping, so a forked worker and this process see the same memory.
        n, T = critic.n_params, cfg.horizon
        self._shared = _shared_arrays(
            critic=((n,), np.float64),
            critic_m=((n,), np.float64),
            critic_v=((n,), np.float64),
            inputs=((T, obs_dim + self.m), np.float64),
            value_targets=((T, self.m), np.float64),
            perms=((cfg.epochs, T), np.int64),
        )
        self.critic = (
            BranchedCritic(critic.trunk, critic.heads, params=self._shared.critic)
            if branched
            else SharedCritic(critic.net, params=self._shared.critic)
        )
        self.critic_weighted = cfg.critic.endswith("_weighted")
        self.actor_opt = AdamState(self.actor.n_params, lr=cfg.lr)
        self.critic_opt = AdamState(
            n, lr=cfg.lr, m=self._shared.critic_m, v=self._shared.critic_v
        )
        self._placed = False  # whether the critic's placement is decided
        self._worker: _CriticWorker | None = None
        self._reap_worker = None

        self.normalizer = ReturnNormalizer(self.m)
        self.controller = SmoothnessController(cfg)
        self.last_kappa = 0.0
        self.iteration = 0
        self.eval_history: list[EvalRecord] = []
        self._obs = None
        self._partial_return = np.zeros(self.m)

    # -- rollout ------------------------------------------------------------

    def collect_rollout(self) -> RolloutBatch:
        """T steps of the Gaussian policy, continuing the episode in progress.

        The actor's parameters hold still for the whole horizon, so its std
        and the horizon's noise come first: one (T, act_dim) draw, the values
        T single-step draws give, in order.  Each step then runs only the
        actor's mean on its [obs, w] row, and the log-probs of all T samples
        come from one batched pass after the loop.  The same (T + 1)-row
        input buffer, the bootstrap state last, feeds the critic's values.
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
        actions = np.empty((T, act_dim))
        rewards = np.empty((T, self.m))
        dones = np.zeros(T, dtype=bool)
        completed: list[np.ndarray] = []
        obs = self._obs
        inputs[0, :obs_dim] = obs
        for t in range(T):
            mean = means[t] = actor.mean_forward(inputs[t])[0]
            pre, action = pre_clamp[t], actions[t]
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
            states=inputs[:T, :obs_dim],
            actions=actions,
            pre_clamp=pre_clamp,
            log_probs=actor.log_probs(means, pre_clamp),
            rewards=rewards,
            dones=dones,
            values=np.atleast_2d(self.critic.values(inputs)),
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

        value_losses, kappas, clip_loss_acc, entropy_acc = self._epochs(
            batch, eta, eta_critic, j_worst, r_bar
        )
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

    def _minibatches(self):
        """Each epoch's permutation of the horizon, cut into minibatches."""
        size = self.cfg.minibatch
        for perm in self._shared.perms:
            for start in range(0, len(perm), size):
                yield perm[start : start + size]

    def _epochs(self, batch, eta, eta_critic, j_worst, r_bar):
        """The critic's epochs and the actor's over the same minibatches.

        Returns (value losses, kappas, summed clip losses, summed entropy),
        each in minibatch order.  With a worker, the critic's epochs run there
        while this process runs the actor's; without, they run first, here.
        An error is the one the interleaved loop would raise: the failure at
        the earliest minibatch, the critic's on a tie, since it went first.
        """
        shared = self._shared
        inputs = shared.inputs
        inputs[:, : -self.m] = batch.states
        inputs[:, -self.m :] = self.w
        shared.value_targets[...] = batch.value_targets
        for perm in shared.perms:  # nothing else draws from shuffle_rng
            perm[...] = self.shuffle_rng.permutation(self.cfg.horizon)
        worker = self._critic_worker()
        kappas: list[float] = []
        clip_loss_acc = np.zeros(self.m)
        entropy_acc = 0.0
        actor_failure = None
        try:
            if worker is not None:
                worker.submit(eta_critic)
            else:
                critic = self._critic_epochs(eta_critic)
            for k, mb in enumerate(self._minibatches()):
                try:
                    kappa_b, clip_losses = self._actor_update(
                        inputs[mb], batch, mb, eta, j_worst, r_bar
                    )
                except Exception as e:
                    actor_failure = (k, e)
                    break
                kappas.append(kappa_b)
                clip_loss_acc += clip_losses
                entropy_acc += self.actor.entropy()
            if worker is not None:
                critic = worker.receive()
        except BaseException:
            self.close()  # the worker may be mid-reply; it is not reused
            raise
        self.critic_opt.step_count = critic.step_count
        failures = [f for f in (critic.failure, actor_failure) if f is not None]
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        return critic.losses, kappas, clip_loss_acc, entropy_acc

    def _critic_epochs(self, eta) -> CriticOutcome:
        """Every minibatch's critic update in order, on the shared buffers,
        up to the first that fails."""
        shared = self._shared
        losses = []
        for k, mb in enumerate(self._minibatches()):
            try:
                losses.append(self._critic_update(shared.inputs[mb], shared.value_targets[mb], eta))
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

    # -- the critic's worker ----------------------------------------------

    def _critic_worker(self) -> _CriticWorker | None:
        """The worker for the critic's epochs, forked at the first call when
        ``_worker_wanted()``; None runs them inline."""
        if not self._placed:
            self._placed = True
            if _worker_wanted():
                try:
                    self._worker = _CriticWorker(self)
                except OSError:  # no process to spare: the critic runs inline
                    return None
                # Holds the worker, not the trainer: reaps a dropped trainer's.
                self._reap_worker = weakref.finalize(self, self._worker.close)
        return self._worker

    def close(self) -> None:
        """Stop and reap the critic's worker, if one was started.  The trainer
        stays usable; its critic then runs inline."""
        self._placed = True
        if self._worker is not None:
            self._reap_worker()
            self._worker = None

    def __enter__(self) -> "Trainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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


# -- shared memory and the critic's worker process -----------------------------


def _shared_arrays(**specs) -> SimpleNamespace:
    """Zeroed arrays, name=(shape, dtype) with 8-byte dtypes, in one anonymous
    MAP_SHARED mapping: a process forked later writes the same memory that
    this one reads."""
    counts = {name: int(np.prod(shape)) for name, (shape, _) in specs.items()}
    buf = mmap.mmap(-1, 8 * max(1, sum(counts.values())))
    arrays, offset = {}, 0
    for name, (shape, dtype) in specs.items():
        arrays[name] = np.frombuffer(buf, dtype, counts[name], offset).reshape(shape)
        offset += 8 * counts[name]
    return SimpleNamespace(**arrays)


def _worker_wanted() -> bool:
    """Whether the critic's epochs get a forked worker: only where os.fork
    exists, this process may run on two or more CPUs, and it is not itself a
    multiprocessing child (``sweep --workers N`` already fills the CPUs)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return False
    if len(os.sched_getaffinity(0)) < 2:
        return False
    mp = sys.modules.get("multiprocessing")  # a pool process has it imported
    return mp is None or mp.parent_process() is None


def _read_exactly(fd: int, n: int) -> bytes | None:
    """n bytes from fd, or None at end-of-file."""
    data = b""
    while len(data) < n:
        chunk = os.read(fd, n - len(data))
        if not chunk:
            return None
        data += chunk
    return data


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


class _CriticWorker:
    """A forked process that runs ``Trainer._critic_epochs`` on request.

    The critic's vector and Adam moments, the inputs, value targets and
    permutations are in the trainer's shared mapping, so a request is the
    critic's m value-loss weights and the reply a pickled ``CriticOutcome``.
    The worker ignores SIGINT, exits at end-of-file on its request pipe, and
    holds no state that outlives a reply, so ``close`` kills it outright.
    """

    def __init__(self, trainer: Trainer):
        requests_r, requests_w = os.pipe()
        replies_r, replies_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (requests_r, requests_w, replies_r, replies_w):
                os.close(fd)
            raise
        if pid == 0:  # the worker; it never returns from here
            status = 1
            try:
                # Holding no write end of its own request pipe, the worker
                # reads end-of-file once the parent is gone.  A worker forked
                # later holds this one's and goes first, as it reads its own.
                os.close(requests_w)
                os.close(replies_r)
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                _serve(trainer, requests_r, replies_w)
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(requests_r)
        os.close(replies_w)
        self.pid, self._owner = pid, os.getpid()
        self._requests, self._replies = requests_w, replies_r

    def submit(self, eta) -> None:
        _write_all(self._requests, np.ascontiguousarray(eta, dtype=np.float64).tobytes())

    def receive(self) -> CriticOutcome:
        header = _read_exactly(self._replies, 8)
        reply = header and _read_exactly(self._replies, int.from_bytes(header, "little"))
        if not reply:
            raise ChildProcessError(f"critic worker {self.pid} exited")
        return pickle.loads(reply)

    def close(self) -> None:
        """Kill and reap the worker; only the process that forked it acts."""
        if self.pid is None or os.getpid() != self._owner:
            return
        os.close(self._requests)
        os.close(self._replies)
        with suppress(ProcessLookupError, ChildProcessError):
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        self.pid = None


def _serve(trainer: Trainer, requests: int, replies: int) -> None:
    """The worker's loop: one run of the critic's epochs per request."""
    size = 8 * trainer.m
    while (request := _read_exactly(requests, size)) is not None:
        outcome = trainer._critic_epochs(np.frombuffer(request))
        reply = pickle.dumps(outcome)
        _write_all(replies, len(reply).to_bytes(8, "little") + reply)
