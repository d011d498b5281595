import csv
import functools
import operator
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from pastarl import trainer as trainer_mod
from pastarl.cli import main
from pastarl.envs import make_env
from pastarl.envs.base import MomdpEnv
from pastarl.errors import ConfigError, DivergenceError
from pastarl.gae import RolloutBatch
from pastarl.trainer import (
    Checkpoint,
    EvalRecord,
    IterationReport,
    TrainConfig,
    Trainer,
    deterministic_returns,
    weighted_value_loss,
)
from tests.oracles import act, act_deterministic, clipped_objective_loss


def iterate(t: Trainer) -> IterationReport:
    """One iteration of t with its critic child settled: that iteration's report."""
    (report,) = t.run_iteration() + t.settle()
    return report


def stub_cfg(**overrides) -> TrainConfig:
    base = dict(
        algorithm="pasta",
        env_name="stub",
        env_params={"episode_cap": 8},
        preference=(0.5, 0.5),
        horizon=64,
        epochs=2,
        minibatch=32,
        total_iterations=3,
        seed=11,
        hidden=16,
        eval_episodes=2,
    )
    base.update(overrides)
    return TrainConfig(**base)


class OneObjectiveEnv(MomdpEnv):
    """Minimal m=1 environment: reward equals the clipped first action."""

    name = "oneobj"
    observation_dim = 2
    action_dim = 1
    m = 1

    def __init__(self, episode_cap: int = 8):
        self.episode_cap = episode_cap
        self.steps = 0

    def reset(self, rng):
        self.steps = 0
        return self._obs()

    def step(self, action):
        a = float(np.clip(action[0], 0.0, 1.0))
        self.steps += 1
        done = self.steps >= self.episode_cap
        return self._obs(), np.array([a]), done, {"reward_snapshot": {"a0": a}}

    def _obs(self):
        return np.array([np.sin(0.5 * self.steps), self.steps / self.episode_cap])


class TestClippedObjectiveLoss:
    def test_unclipped_region_passes_through(self):
        assert clipped_objective_loss(1.0, 2.0, 0.2) == pytest.approx(2.0)
        assert clipped_objective_loss(1.1, 0.5, 0.2) == pytest.approx(0.55)

    def test_positive_advantage_clips_high_ratio(self):
        # min(1.5 * 0.2, 1.2 * 0.2) = 0.24
        assert clipped_objective_loss(1.5, 0.2, 0.2) == pytest.approx(0.24)

    def test_negative_advantage_keeps_pessimistic_branch(self):
        # min(1.5 * -0.2, 1.2 * -0.2) = -0.3: clipping never hides a penalty.
        assert clipped_objective_loss(1.5, -0.2, 0.2) == pytest.approx(-0.3)
        assert clipped_objective_loss(0.5, -1.0, 0.2) == pytest.approx(-0.8)

    def test_low_ratio_with_positive_advantage_unclipped(self):
        assert clipped_objective_loss(0.5, 1.0, 0.2) == pytest.approx(0.5)

    def test_elementwise_broadcast(self):
        ratio = np.array([[1.0], [1.5]])
        adv = np.array([[1.0, -1.0], [1.0, -1.0]])
        out = clipped_objective_loss(ratio, adv, 0.2)
        np.testing.assert_allclose(out, [[1.0, -1.0], [1.2, -1.5]])


class TestWeightedValueLoss:
    def test_perfect_prediction_is_zero(self):
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert weighted_value_loss(v, v, np.array([0.3, 0.7])) == 0.0

    def test_uniform_weights_fixture(self):
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        y = np.zeros((2, 2))
        # rows: 0.5*1 + 0.5*4 = 2.5 and 0.5*9 + 0.5*16 = 12.5, mean 7.5
        assert weighted_value_loss(v, y, np.array([0.5, 0.5])) == pytest.approx(7.5)

    def test_weights_mask_objectives(self):
        v = np.array([[0.0, 100.0]])
        y = np.zeros((1, 2))
        assert weighted_value_loss(v, y, np.array([1.0, 0.0])) == 0.0


class TestTrainConfigValidation:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="algorithm"):
            stub_cfg(algorithm="ddpg").validate()

    def test_rejects_unknown_critic(self):
        with pytest.raises(ConfigError, match="critic"):
            stub_cfg(critic="ensemble").validate()

    def test_rejects_unknown_controller_mode(self):
        with pytest.raises(ConfigError, match="controller_mode"):
            stub_cfg(controller_mode="adaptive").validate()

    def test_rejects_bad_clip_eps(self):
        with pytest.raises(ConfigError, match="clip_eps"):
            stub_cfg(clip_eps=0.0).validate()
        with pytest.raises(ConfigError, match="clip_eps"):
            stub_cfg(clip_eps=1.0).validate()

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ConfigError):
            stub_cfg(horizon=0).validate()
        with pytest.raises(ConfigError):
            stub_cfg(total_iterations=0).validate()
        with pytest.raises(ConfigError, match="eval_every"):
            stub_cfg(eval_every=0).validate()
        with pytest.raises(ConfigError, match="eval_episodes"):
            stub_cfg(eval_episodes=0).validate()

    def test_rejects_nonpositive_fixed_mu(self):
        with pytest.raises(ConfigError, match="fixed_mu"):
            stub_cfg(algorithm="stch_fixed", fixed_mu=0.0).validate()


class TestRollout:
    def test_shapes_and_episode_accounting(self):
        t = Trainer(stub_cfg(horizon=20, env_params={"episode_cap": 8}))
        batch = t.collect_rollout()
        assert batch.inputs.shape == (20, 3 + 2)
        assert batch.values.shape == (21, 2)
        # cap 8 inside horizon 20: episodes end at steps 7 and 15.
        np.testing.assert_array_equal(np.flatnonzero(batch.dones), [7, 15])
        assert len(batch.episodic_returns) == 2
        np.testing.assert_allclose(batch.episodic_returns[0], batch.rewards[:8].sum(axis=0))
        np.testing.assert_allclose(batch.episodic_returns[1], batch.rewards[8:16].sum(axis=0))

    def test_values_come_from_critic_on_state_preference_input(self):
        t = Trainer(stub_cfg(horizon=12))
        batch = t.collect_rollout()
        np.testing.assert_array_equal(batch.inputs[:, 3:], np.tile(t.w, (12, 1)))
        np.testing.assert_array_equal(batch.values[:12], t.critic.values(batch.inputs))

    def test_partial_episode_rolls_into_next_batch(self):
        t = Trainer(stub_cfg(horizon=12, env_params={"episode_cap": 8}))
        b1 = t.collect_rollout()
        assert len(b1.episodic_returns) == 1
        b2 = t.collect_rollout()
        # The episode spanning the batch boundary completes 4 steps into b2.
        assert b2.dones[3]
        carried = b1.rewards[8:].sum(axis=0) + b2.rewards[:4].sum(axis=0)
        np.testing.assert_allclose(b2.episodic_returns[0], carried)


def assert_same_bits(got, want, what: str) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), what


def step_by_step_rollout(t: Trainer, T: int) -> dict:
    """One horizon of oracle ``act`` draws and ``env.step`` calls on t's own
    streams, continuing the episode in progress as collect_rollout does."""
    if t._obs is None:
        t._obs = t.env.reset(t.env_rng)
    out = {k: [] for k in ("inputs", "pre_clamp", "log_probs", "rewards", "dones")}
    for _ in range(T):
        sample = act(t.actor, t._obs, t.w, t.action_rng)
        obs, r, done, _ = t.env.step(sample.action)
        for key, value in zip(out, (t._obs, sample.pre_clamp, sample.log_prob, r, done)):
            out[key].append(value)
        t._obs = t.env.reset(t.env_rng) if done else obs
    out = {k: np.array(v) for k, v in out.items()}
    inputs = np.hstack([np.vstack([out["inputs"], t._obs[None, :]]), np.tile(t.w, (T + 1, 1))])
    out["inputs"] = inputs[:T]
    out["values"] = t.critic.values(inputs)
    return out


ROLLOUT_CASES = [
    stub_cfg(horizon=20, env_params={"episode_cap": 8}),
    stub_cfg(env_name="stealth", preference=(0.3, 0.3, 0.4), horizon=24, env_params={"episode_cap": 10}),
]


class TestRolloutAgainstSingleSteps:
    @pytest.mark.parametrize("cfg", ROLLOUT_CASES, ids=["stub", "stealth"])
    def test_collect_rollout_equals_act_and_step_loop(self, cfg):
        """Two horizons, each spanning a reset, the second continuing the
        episode the first left open: every array and the action stream's
        state afterwards match the single-step loop bit for bit."""
        fast, slow = Trainer(cfg), Trainer(cfg)
        for _ in range(2):
            batch = fast.collect_rollout()
            want = step_by_step_rollout(slow, cfg.horizon)
            assert batch.dones.any()
            for key, value in want.items():
                assert_same_bits(getattr(batch, key), value, key)
            assert fast.action_rng.bit_generator.state == slow.action_rng.bit_generator.state
            assert_same_bits(fast._obs, slow._obs, "carried observation")

    @pytest.mark.parametrize("cfg", ROLLOUT_CASES, ids=["stub", "stealth"])
    def test_evaluation_totals_equal_oracle_loop(self, cfg):
        t = Trainer(cfg)
        t.actor.params[:] += np.random.default_rng(1).normal(scale=0.3, size=t.actor.n_params)
        env = make_env(cfg.env_name, **cfg.env_params)
        rng = np.random.default_rng(5)
        want = np.zeros((3, t.m))
        for ep in range(3):
            obs, done = env.reset(rng), False
            while not done:
                obs, r, done, _ = env.step(act_deterministic(t.actor, obs, t.w))
                want[ep] += r
        got = deterministic_returns(t.actor, t.eval_env, t.w, np.random.default_rng(5), 3)
        assert_same_bits(got, want, "evaluation totals")


class TestIterationMechanics:
    def test_same_seed_runs_are_bit_identical(self):
        t1, t2 = Trainer(stub_cfg()), Trainer(stub_cfg())
        for _ in range(2):
            r1, r2 = iterate(t1), iterate(t2)
        assert r1 == r2
        np.testing.assert_array_equal(t1.actor.params, t2.actor.params)
        np.testing.assert_array_equal(t1.critic.params, t2.critic.params)
        e1, e2 = t1.evaluate(2), t2.evaluate(2)
        assert e1 == e2

    def test_first_minibatch_ratio_is_one_so_clip_loss_vanishes(self):
        # One epoch over a single minibatch: the policy still equals the
        # behavior policy, so ratio == 1 and the loss is the mean of the
        # normalized advantages, which is zero by construction.
        t = Trainer(stub_cfg(horizon=32, epochs=1, minibatch=32))
        rep = iterate(t)
        np.testing.assert_allclose(rep.clip_losses, [0.0, 0.0], atol=1e-12)

    def test_critic_and_actor_loops_see_the_same_minibatches(self, monkeypatch):
        monkeypatch.setattr(trainer_mod, "_worker_wanted", lambda: False)
        seen = {"_critic_update": [], "_actor_update": []}

        def recording(name):
            method = getattr(Trainer, name)

            def wrapped(self, x, *args):
                seen[name].append(x.copy())
                return method(self, x, *args)

            return wrapped

        for name in seen:
            monkeypatch.setattr(Trainer, name, recording(name))
        iterate(Trainer(stub_cfg(horizon=64, epochs=2, minibatch=24)))
        critic, actor = seen["_critic_update"], seen["_actor_update"]
        assert [len(x) for x in critic] == [24, 24, 16] * 2
        assert len(actor) == len(critic)
        for c, a in zip(critic, actor):
            np.testing.assert_array_equal(c, a)

    def test_conflicting_stub_objectives_produce_nonzero_kappa(self):
        t = Trainer(stub_cfg(seed=2))
        rep = iterate(t)
        assert 0.0 < rep.kappa <= 1.0
        assert t.cfg.mu_min <= rep.mu <= t.cfg.mu_max

    def test_no_pcgrad_still_reports_conflicts_but_changes_update(self):
        t_proj = Trainer(stub_cfg(seed=2))
        t_raw = Trainer(stub_cfg(seed=2, no_pcgrad=True))
        r_proj, r_raw = iterate(t_proj), iterate(t_raw)
        assert r_raw.kappa > 0.0
        assert r_proj.kappa == r_raw.kappa  # same batch, same conflict count
        assert not np.array_equal(t_proj.actor.params, t_raw.actor.params)

    def test_weighted_aggregation_changes_update(self):
        t_sum = Trainer(stub_cfg(seed=2))
        t_wtd = Trainer(stub_cfg(seed=2, weighted_pcgrad=True))
        iterate(t_sum)
        iterate(t_wtd)
        assert not np.array_equal(t_sum.actor.params, t_wtd.actor.params)

    def test_critic_divergence_raises(self):
        t = Trainer(stub_cfg())
        x = np.zeros((4, 3 + 2))
        bad = np.full((4, 2), np.nan)
        with pytest.raises(DivergenceError, match="value_loss"):
            t._critic_update(x, bad, np.array([0.5, 0.5]))


def interleaved_epochs(t, batch, c, eta_critic):
    """Reference for Trainer._epochs: the epoch loop as it was before the
    critic's epochs and the actor's were split, drawing each epoch's
    permutation as the epoch starts and updating the critic, then the
    actor, in every minibatch.  A DivergenceError is raised again naming
    the update and where it failed, counted from 1."""
    cfg, T, inputs = t.cfg, t.cfg.horizon, batch.inputs
    value_losses, kappas, clip_loss_acc, entropy_acc = [], [], np.zeros(t.m), 0.0
    for epoch in range(cfg.epochs):
        perm = t.shuffle_rng.permutation(T)
        for j, start in enumerate(range(0, T, cfg.minibatch)):
            mb = perm[start : start + cfg.minibatch]
            where = f"at iteration {t.iteration + 1}, epoch {epoch + 1}, minibatch {j + 1}"
            try:
                value_loss = t._critic_update(inputs[mb], batch.value_targets[mb], eta_critic)
            except DivergenceError as e:
                raise DivergenceError(f"critic update {where}: {e}") from e
            try:
                kappa_b, clip_losses = t._actor_update(inputs[mb], batch, mb, c)
            except DivergenceError as e:
                raise DivergenceError(f"actor update {where}: {e}") from e
            kappas.append(kappa_b)
            clip_loss_acc += clip_losses
            value_losses.append(value_loss)
            entropy_acc += t.actor.entropy()
    return value_losses, kappas, clip_loss_acc, entropy_acc


def reference_trainer(cfg) -> Trainer:
    t = Trainer(cfg)
    t._epochs = functools.partial(interleaved_epochs, t)
    return t


@pytest.fixture
def worker_pids(monkeypatch):
    """Forks a child for the critic's epochs in every iteration, whatever the
    host's CPUs, and lists the pids forked."""
    pids = []
    fork = trainer_mod._forked

    def recording(*args):
        child = fork(*args)
        pids.append(child[0])
        return child

    monkeypatch.setattr(trainer_mod, "_worker_wanted", lambda: True)
    monkeypatch.setattr(trainer_mod, "_forked", recording)
    return pids


@pytest.fixture(params=["inline", "worker"])
def placement(request, monkeypatch, worker_pids):
    """Runs the critic's epochs inline or in a forked child."""
    monkeypatch.setattr(trainer_mod, "_worker_wanted", lambda: request.param == "worker")
    return request.param


@pytest.fixture
def open_fds():
    """The function that lists this process's open file descriptors."""
    fd_dir = Path("/proc/self/fd")
    if not fd_dir.is_dir():
        pytest.skip("listing file descriptors needs /proc/self/fd")
    return lambda: sorted(int(fd) for fd in os.listdir(fd_dir))


ORIGINAL_UPDATES = {name: getattr(Trainer, name) for name in ("_critic_update", "_actor_update")}


def failing_update(name, k):
    """The update `name` raising DivergenceError at its k-th call (from 0) in
    the process that runs it."""
    original, calls = ORIGINAL_UPDATES[name], [0]

    def update(self, *args):
        calls[0] += 1
        if calls[0] == k + 1:
            raise DivergenceError(f"{name} failed at minibatch {k}")
        return original(self, *args)

    return update


class TestSplitEpochs:
    @pytest.mark.parametrize("critic", ["branched_weighted", "shared_unweighted"])
    @pytest.mark.parametrize("algorithm", ["pasta", "linear", "tch"])
    def test_matches_the_interleaved_loop_bit_for_bit(self, algorithm, critic, placement, worker_pids):
        # minibatch 24 leaves a short last minibatch in each epoch.
        cfg = stub_cfg(algorithm=algorithm, critic=critic, minibatch=24, seed=5)
        ref = reference_trainer(cfg)
        t = Trainer(cfg)
        for _ in range(3):
            assert iterate(t) == iterate(ref)
        assert len(worker_pids) == (3 if placement == "worker" else 0)
        for name in ("actor.params", "critic.params", "critic_opt.m", "critic_opt.v", "actor_opt.m"):
            get = operator.attrgetter(name)
            assert get(t).tobytes() == get(ref).tobytes(), name
        assert t.critic_opt.step_count == ref.critic_opt.step_count == 3 * 2 * 3
        for rng in ("shuffle_rng", "projection_rng"):
            assert getattr(t, rng).bit_generator.state == getattr(ref, rng).bit_generator.state
        assert t.evaluate(3) == ref.evaluate(3)

    @pytest.mark.parametrize(
        "critic_at, actor_at, winner",
        [(2, None, "_critic"), (None, 2, "_actor"), (2, 2, "_critic"), (2, 1, "_actor"), (1, 3, "_critic")],
    )
    def test_raises_the_error_of_the_interleaved_loop(
        self, monkeypatch, placement, critic_at, actor_at, winner, child_pids, open_fds
    ):
        def first_error(make) -> tuple:
            """The error's message, and the critic's state it leaves."""
            for name, k in (("_critic_update", critic_at), ("_actor_update", actor_at)):
                if k is not None:
                    monkeypatch.setattr(Trainer, name, failing_update(name, k))
            t = make(stub_cfg())
            fds = open_fds()
            with pytest.raises(DivergenceError) as info:
                iterate(t)
            assert not child_pids() and open_fds() == fds
            opt = t.critic_opt
            return str(info.value), (t.critic.params.tobytes(), opt.m.tobytes(), opt.v.tobytes(), opt.step_count)

        expected, _ = first_error(reference_trainer)
        # Two minibatches of 32 per epoch of the 64-step horizon.
        k = critic_at if winner == "_critic" else actor_at
        assert expected == (
            f"{winner[1:]} update at iteration 1, epoch {k // 2 + 1}, minibatch {k % 2 + 1}: "
            f"{winner}_update failed at minibatch {k}"
        )
        message, critic_state = first_error(Trainer)
        assert message == expected
        # The critic's loop does not stop at the actor's failure, so the state
        # to match is the inline placement's: the child's is copied back
        # before the error is raised.
        monkeypatch.setattr(trainer_mod, "_worker_wanted", lambda: False)
        assert first_error(Trainer) == (expected, critic_state)

    def test_divergence_names_the_iteration(self, monkeypatch, placement):
        t = Trainer(stub_cfg())
        iterate(t)
        monkeypatch.setattr(Trainer, "_actor_update", failing_update("_actor_update", 1))
        with pytest.raises(DivergenceError) as info:
            iterate(t)
        assert str(info.value) == (
            "actor update at iteration 2, epoch 1, minibatch 2: _actor_update failed at minibatch 1"
        )
        assert isinstance(info.value.__cause__, DivergenceError)


class TestCriticWorker:
    def tiny_train_config(self, tmp_path):
        path = tmp_path / "tiny.ini"
        path.write_text(
            "[environment]\nname = stub\nepisode_cap = 8\n"
            "[ppo]\nhorizon = 64\nepochs = 2\nminibatch = 32\ntotal_iterations = 2\nhidden = 16\n"
            "[output]\neval_every = 2\neval_episodes = 2\n"
        )
        return path

    def test_train_leaves_no_child_process(self, tmp_path, worker_pids, child_pids):
        ini = self.tiny_train_config(tmp_path)
        assert main(["train", "--config", str(ini), "--out", str(tmp_path / "run")]) == 0
        assert len(worker_pids) == 2  # one per iteration
        assert not child_pids()

    def test_divergence_exits_3_with_the_inline_message_and_no_child(
        self, tmp_path, monkeypatch, capsys, child_pids
    ):
        ini = self.tiny_train_config(tmp_path)
        messages = []
        for wanted in (False, True):
            monkeypatch.setattr(trainer_mod, "_worker_wanted", lambda: wanted)
            monkeypatch.setattr(Trainer, "_critic_update", failing_update("_critic_update", 3))
            assert main(["train", "--config", str(ini), "--out", str(tmp_path / f"run{wanted}")]) == 3
            messages.append(capsys.readouterr().err)
            assert not child_pids()
        assert messages[0] == messages[1] == (
            "divergence: critic update at iteration 1, epoch 2, minibatch 2: "
            "_critic_update failed at minibatch 3\n"
        )

    def test_no_child_or_descriptor_outlives_an_iteration(self, worker_pids, child_pids, open_fds):
        t = Trainer(stub_cfg())
        fds = open_fds()
        for _ in range(5):
            iterate(t)
            assert not child_pids()
        assert len(set(worker_pids)) == 5
        assert open_fds() == fds

    def test_child_that_exits_without_a_result_raises(self, monkeypatch, worker_pids, child_pids, open_fds):
        """A child that dies after 2 critic updates leaves this process's
        critic vector and Adam state as they were before the iteration."""

        def dying(self, inputs, targets, perms, eta):
            mb = perms[0][: self.cfg.minibatch]
            for _ in range(2):
                self._critic_update(inputs[mb], targets[mb], eta)
            os._exit(0)

        t = Trainer(stub_cfg())
        iterate(t)
        opt = t.critic_opt
        before = (t.critic.params.copy(), opt.m.copy(), opt.v.copy(), opt.step_count)
        monkeypatch.setattr(Trainer, "_critic_epochs", dying)
        fds = open_fds()
        with pytest.raises(ChildProcessError, match="without a result"):
            iterate(t)
        assert len(worker_pids) == 2
        assert not child_pids() and open_fds() == fds
        for name, want, got in zip(("params", "m", "v"), before, (t.critic.params, opt.m, opt.v)):
            assert got.tobytes() == want.tobytes(), name
        assert opt.step_count == before[3] == 2 * 2

    def test_interrupt_in_the_actor_loop_kills_the_child(self, monkeypatch, worker_pids, child_pids, open_fds):
        def interrupted(self, *args):
            raise KeyboardInterrupt

        # The child would sleep for a minute: only SIGKILL ends it this soon.
        monkeypatch.setattr(Trainer, "_critic_epochs", lambda self, *args: time.sleep(60))
        monkeypatch.setattr(Trainer, "_actor_update", interrupted)
        t = Trainer(stub_cfg())
        fds = open_fds()
        started = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                iterate(t)
            assert time.monotonic() - started < 30
            assert len(worker_pids) == 1
            assert not child_pids() and open_fds() == fds
        finally:
            for pid in child_pids():  # a failing run leaves nothing behind either
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    def test_more_workers_than_cores_keep_their_own_state(self, worker_pids, child_pids):
        """More trainers than cores step in turn, each forking a child per
        iteration that sends back its own critic's state; each matches its
        own inline reference bit for bit."""
        n = len(os.sched_getaffinity(0)) + 2
        cfgs = [stub_cfg(seed=20 + i, algorithm=("pasta", "linear")[i % 2]) for i in range(n)]
        trainers = [Trainer(cfg) for cfg in cfgs]
        refs = [reference_trainer(cfg) for cfg in cfgs]
        for _ in range(3):
            for t, ref in zip(trainers, refs):
                assert iterate(t) == iterate(ref)
                assert not child_pids()
        assert len(worker_pids) == 3 * n
        for t, ref in zip(trainers, refs):
            assert t.critic.params.tobytes() == ref.critic.params.tobytes()

    def test_worker_exits_when_its_parent_dies(self, child_pids, capfd):
        """A parent SIGKILLed in the middle of an iteration leaves a child
        that ends by itself once its epochs are done, and quietly: with no
        one left to read its result, it prints no traceback."""
        pid_r, pid_w = os.pipe()
        parent = os.fork()
        if parent == 0:  # a parent killed in its actor loop, the child running
            try:
                fork = trainer_mod._forked

                def reporting(*args):
                    child = fork(*args)
                    os.write(pid_w, child[0].to_bytes(8, "little"))
                    return child

                trainer_mod._worker_wanted = lambda: True
                trainer_mod._forked = reporting
                Trainer._actor_update = lambda self, *args: os.kill(os.getpid(), signal.SIGKILL)
                Trainer(stub_cfg()).run_iteration()
            finally:
                os._exit(0)
        os.close(pid_w)
        data = b""  # read no further: the child holds the pipe open too
        while len(data) < 8 and (chunk := os.read(pid_r, 8 - len(data))):
            data += chunk
        os.close(pid_r)
        _, status = os.waitpid(parent, 0)
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        assert len(data) == 8
        child = int.from_bytes(data, "little")

        def running(pid) -> bool:  # an exited child may stay a zombie of init
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat[stat.rindex(")") + 2] != "Z"

        deadline = time.monotonic() + 30
        while running(child) and time.monotonic() < deadline:
            time.sleep(0.02)
        left = running(child)
        if left:  # a failing run leaves nothing behind either
            os.kill(child, signal.SIGKILL)
        assert not left
        assert "Traceback" not in capfd.readouterr().err

    def test_worker_with_no_reader_exits_1_quietly(self, capfd):
        """The child's result outgrows the pipe's buffer, so its write waits
        for a reader; with the read end closed, as when this process is gone,
        the child exits 1 and prints nothing."""
        pid, read_end = trainer_mod._forked(lambda: b"x" * (1 << 20))
        os.close(read_end)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 1
        assert capfd.readouterr().err == ""

    def test_child_that_dies_with_its_result_half_sent_raises(self, child_pids, open_fds):
        """The array has gone into the pipe, then the child exits while
        pickling what follows it."""

        class DiesWhenPickled:
            def __reduce__(self):
                os._exit(0)

        fds = open_fds()
        child = trainer_mod._forked(lambda: [np.zeros(1 << 17), DiesWhenPickled()])
        with pytest.raises(ChildProcessError, match="without a result"):
            trainer_mod._result(*child)
        assert not child_pids() and open_fds() == fds

    def test_a_dropped_trainer_takes_its_pending_child_with_it(self, monkeypatch, worker_pids, child_pids, open_fds):
        """An iteration of a trainer that is then dropped, as a warm-up runs
        one: the child, still running its critic epochs, is killed and
        reaped, and its pipe closed."""
        monkeypatch.setattr(Trainer, "_critic_epochs", lambda self, *args: time.sleep(60))
        fds = open_fds()
        started = time.monotonic()
        try:
            Trainer(stub_cfg()).run_iteration()
            assert time.monotonic() - started < 30
            assert len(worker_pids) == 1
            assert not child_pids() and open_fds() == fds
        finally:
            for pid in child_pids():  # a failing run leaves nothing behind either
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    def test_critic_divergence_surfaces_in_the_next_rollout(self, tmp_path, monkeypatch, capsys, worker_pids, child_pids):
        """The critic of iteration 1 fails in its child; the next rollout's
        join raises it, naming iteration 1, and metrics.csv gets no row 1."""
        rollouts = {"started": 0, "finished": 0}
        collect = Trainer.collect_rollout

        def counted(self):
            rollouts["started"] += 1
            batch = collect(self)
            rollouts["finished"] += 1
            return batch

        monkeypatch.setattr(Trainer, "collect_rollout", counted)
        monkeypatch.setattr(Trainer, "_critic_update", failing_update("_critic_update", 3))
        ini = self.tiny_train_config(tmp_path)
        assert main(["train", "--config", str(ini), "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err == (
            "divergence: critic update at iteration 1, epoch 2, minibatch 2: "
            "_critic_update failed at minibatch 3\n"
        )
        assert rollouts == {"started": 2, "finished": 1}
        assert len(worker_pids) == 1 and not child_pids()
        with open(tmp_path / "run" / "metrics.csv", newline="") as f:
            assert [row[0] for row in csv.reader(f)] == ["iteration"]

    def test_child_that_dies_while_pending_raises_at_the_join(self, monkeypatch, worker_pids, child_pids, open_fds):
        monkeypatch.setattr(Trainer, "_critic_epochs", lambda self, *args: os._exit(0))
        t = Trainer(stub_cfg())
        before = t.critic.params.copy()
        fds = open_fds()
        assert t.run_iteration() == []  # the child is pending
        with pytest.raises(ChildProcessError, match="without a result"):
            t.run_iteration()
        assert len(worker_pids) == 1
        assert not child_pids() and open_fds() == fds
        assert t.critic.params.tobytes() == before.tobytes()

    def test_interrupt_in_the_next_step_loop_kills_the_pending_child(
        self, tmp_path, monkeypatch, worker_pids, child_pids, open_fds
    ):
        """Ctrl-C in iteration 2's step loop, while iteration 1's child still
        runs: the run ends at once, leaving no child and no open pipe."""
        from pastarl.envs.stub import StubEnv

        ran = []
        run, step = Trainer.run_iteration, StubEnv.step

        def running(self):
            reports = run(self)
            ran.append(self.iteration)
            return reports

        def interrupted(self, action):
            if ran:
                raise KeyboardInterrupt
            return step(self, action)

        # The child would sleep for a minute: only SIGKILL ends it this soon.
        monkeypatch.setattr(Trainer, "_critic_epochs", lambda self, *args: time.sleep(60))
        monkeypatch.setattr(Trainer, "run_iteration", running)
        monkeypatch.setattr(StubEnv, "step", interrupted)
        ini = self.tiny_train_config(tmp_path)
        fds = open_fds()
        started = time.monotonic()
        try:
            # The traceback, kept here, keeps the trainer alive: Trainer.run
            # itself must kill the child, not the trainer's collection.
            with pytest.raises(KeyboardInterrupt) as interrupt:
                main(["train", "--config", str(ini), "--out", str(tmp_path / "run")])
            assert time.monotonic() - started < 30
            assert ran == [1] and len(worker_pids) == 1
            assert not child_pids() and open_fds() == fds
            assert interrupt.traceback
        finally:
            for pid in child_pids():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    def test_mid_run_checkpoints_equal_the_inline_ones(self, tmp_path, monkeypatch, worker_pids):
        """Checkpoints after iterations 2 and 4 of 5, and every other file,
        have the bytes a run with the critic inline writes."""
        ini = self.tiny_train_config(tmp_path)
        written = {}
        for wanted in (False, True):
            monkeypatch.setattr(trainer_mod, "_worker_wanted", lambda: wanted)
            out = tmp_path / f"run{wanted}"
            main(["train", "--config", str(ini), "--out", str(out), "--override", "ppo.total_iterations=5",
                  "--override", "output.checkpoint_every=2"])
            written[wanted] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        assert len(worker_pids) == 5
        assert sorted(written[True]) == [
            "checkpoint_final.json", "checkpoint_iter00002.json", "checkpoint_iter00004.json",
            "eval.csv", "metrics.csv",
        ]
        assert written[True] == written[False]

    def test_worker_is_not_wanted_in_a_pool_process(self):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=1) as pool:
            assert pool.submit(trainer_mod._worker_wanted).result() is False


class TestAlgorithmTraces:
    def test_stch_fixed_pins_mu_and_zeroes_braking(self):
        t = Trainer(stub_cfg(algorithm="stch_fixed", fixed_mu=0.7))
        rep = iterate(t)
        assert rep.mu == 0.7
        assert rep.mu_base == 0.7
        assert rep.mu_star == 0.7
        assert rep.beta == 0.0

    def test_linear_and_tch_report_zero_controller_fields(self):
        for algo in ("linear", "tch"):
            rep = iterate(Trainer(stub_cfg(algorithm=algo)))
            assert rep.mu == 0.0 and rep.kappa == 0.0 and rep.beta == 0.0

    def test_pasta_mu_descends_under_low_conflict(self):
        t = Trainer(stub_cfg(seed=2, total_iterations=4))
        mus = [iterate(t).mu for _ in range(4)]
        assert mus[0] == t.cfg.mu_start  # first step happens at t=0
        assert mus[-1] < mus[0]


def make_flat_batch(trainer, T, adv):
    """A structurally valid batch whose normalized advantages are set by hand."""
    obs_dim, act_dim, m = 3, 2, 2
    rng = np.random.default_rng(0)
    states = rng.normal(size=(T, obs_dim))
    pre = rng.normal(size=(T, act_dim))
    x = np.hstack([states, np.tile(trainer.w, (T, 1))])
    means, _ = trainer.actor.mean_forward(x)
    batch = RolloutBatch(
        inputs=x,
        pre_clamp=pre,
        log_probs=trainer.actor.log_probs(means, pre),
        rewards=np.zeros((T, m)),
        dones=np.zeros(T, dtype=bool),
        values=np.zeros((T + 1, m)),
    )
    batch.norm_advantages = np.asarray(adv, dtype=np.float64)
    return batch, x


class TestScalarizationRouting:
    """Directly drive the actor update with crafted advantages to pin down
    which objectives each algorithm's update can depend on."""

    def run_actor_update(self, algorithm, adv, seed=11):
        # w = (1, 0): linear's c is w, and tch's is w_0 e_0 = w.
        cfg = stub_cfg(algorithm=algorithm, preference=(1.0, 0.0), seed=seed)
        t = Trainer(cfg)
        T = 16
        batch, x = make_flat_batch(t, T, adv)
        t._actor_update(x, batch, np.arange(T), np.array([1.0, 0.0]))
        return t.actor.params

    @pytest.mark.parametrize("algorithm", ["pasta", "linear"])
    def test_reported_clip_losses_are_the_clipped_objective(self, algorithm):
        """Logged probabilities off the current policy's put the ratio on both
        sides of the clip range; the reported per-objective losses are the
        minibatch means of the clipped objective, bit for bit."""
        t = Trainer(stub_cfg(algorithm=algorithm, preference=(1.0, 0.0)))
        T = 16
        rng = np.random.default_rng(3)
        batch, x = make_flat_batch(t, T, rng.normal(size=(T, 2)))
        batch.log_probs = batch.log_probs + rng.normal(scale=0.5, size=T)
        means, _ = t.actor.mean_forward(x)
        ratio = np.exp(t.actor.log_probs(means, batch.pre_clamp) - batch.log_probs)
        assert (ratio < 1.0 - t.cfg.clip_eps).any() and (ratio > 1.0 + t.cfg.clip_eps).any()
        _, clip_losses = t._actor_update(x, batch, np.arange(T), np.array([1.0, 0.0]))
        expected = clipped_objective_loss(ratio[:, None], batch.norm_advantages, t.cfg.clip_eps).mean(axis=0)
        np.testing.assert_array_equal(clip_losses, expected)

    def test_linear_with_onehot_weight_ignores_other_objective(self):
        rng = np.random.default_rng(7)
        col0 = rng.normal(size=16)
        a = np.column_stack([col0, rng.normal(size=16)])
        b = np.column_stack([col0, rng.normal(size=16) * 3.0])
        np.testing.assert_array_equal(
            self.run_actor_update("linear", a), self.run_actor_update("linear", b)
        )

    def test_linear_update_depends_on_weighted_objective(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(16, 2))
        b = a.copy()
        b[:, 0] += 1.0
        assert not np.array_equal(
            self.run_actor_update("linear", a), self.run_actor_update("linear", b)
        )

    def test_tch_update_uses_only_worst_objective(self):
        rng = np.random.default_rng(9)
        col0 = rng.normal(size=16)
        a = np.column_stack([col0, rng.normal(size=16)])
        b = np.column_stack([col0, rng.normal(size=16) - 2.0])
        np.testing.assert_array_equal(
            self.run_actor_update("tch", a), self.run_actor_update("tch", b)
        )


class TestReductions:
    def test_single_objective_collapses_to_plain_ppo(self):
        # With m == 1 there is nothing to scalarize or project: the update
        # must match the linear path exactly, with zero reported conflict.
        kw = dict(horizon=64, epochs=2, minibatch=32, total_iterations=2, seed=3,
                  hidden=16, preference=(1.0,), eval_episodes=2)
        ta = Trainer(TrainConfig(algorithm="pasta", **kw), env=OneObjectiveEnv(),
                     eval_env=OneObjectiveEnv())
        tb = Trainer(TrainConfig(algorithm="linear", **kw), env=OneObjectiveEnv(),
                     eval_env=OneObjectiveEnv())
        for _ in range(2):
            ra, rb = iterate(ta), iterate(tb)
        assert ra.kappa == 0.0
        assert ra.clip_losses == rb.clip_losses
        np.testing.assert_array_equal(ta.actor.params, tb.actor.params)


def record_codes(records) -> str:
    """A run's records as the sink got them: E<k> an evaluation, R<k> a
    report, C<k> a checkpoint and F<k> the final one."""
    codes = []
    for r in records:
        kind = {EvalRecord: "E", IterationReport: "R"}.get(type(r)) or ("F" if r.final else "C")
        codes.append(f"{kind}{r.iteration}")
    return " ".join(codes)


class TestTrainLoop:
    @pytest.mark.parametrize(
        "total, eval_every, checkpoint_every, inline, forked",
        [
            # A forked child's report comes with the next iteration's call,
            # or with its own where the run checkpoints after it.
            (5, 2, 0, "E0 R1 R2 E2 R3 R4 E4 R5 E5 F5", "E0 R1 E2 R2 R3 E4 R4 R5 E5 F5"),
            # checkpoint_every divides total_iterations: one record for the last.
            (4, 2, 2, "E0 R1 R2 E2 C2 R3 R4 E4 F4", "E0 R1 R2 E2 C2 R3 R4 E4 F4"),
            (3, 1, 5, "E0 R1 E1 R2 E2 R3 E3 F3", "E0 E1 R1 E2 R2 R3 E3 F3"),
            (3, 5, 0, "E0 R1 R2 R3 E3 F3", "E0 R1 R2 R3 E3 F3"),
            (1, 1, 0, "E0 R1 E1 F1", "E0 R1 E1 F1"),
        ],
    )
    def test_the_sink_gets_every_record_in_order(
        self, placement, total, eval_every, checkpoint_every, inline, forked
    ):
        cfg = stub_cfg(total_iterations=total, eval_every=eval_every, checkpoint_every=checkpoint_every)
        records = []
        Trainer(cfg).run(records.append)
        assert record_codes(records) == (forked if placement == "worker" else inline)
        for r in records:
            if isinstance(r, EvalRecord):
                assert r.eu == pytest.approx(float(np.dot(cfg.preference, r.returns)))

    def test_checkpoints_find_the_critic_settled(self, monkeypatch, worker_pids):
        """run_iteration joins its own child exactly where the run checkpoints
        after it, so each Checkpoint comes after every report up to its
        iteration, with no child pending."""
        joined, seen = [], []
        run_iteration = Trainer.run_iteration

        def recording(self):
            reports = run_iteration(self)
            joined.append((self.iteration, self._pending is None))
            return reports

        monkeypatch.setattr(Trainer, "run_iteration", recording)
        t = Trainer(stub_cfg(total_iterations=5, checkpoint_every=2))

        def sink(record):
            seen.append(record)
            if isinstance(record, Checkpoint):
                assert t._pending is None and not t._completed
                reported = [r.iteration for r in seen if isinstance(r, IterationReport)]
                assert reported == list(range(1, record.iteration + 1))

        t.run(sink)
        assert joined == [(1, False), (2, True), (3, False), (4, True), (5, True)]
        assert record_codes(r for r in seen if isinstance(r, Checkpoint)) == "C2 C4 F5"
        assert len(worker_pids) == 5

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_a_failing_sink_leaves_no_child_or_pipe(self, error, worker_pids, child_pids, open_fds):
        """A sink that raises on a report, with the next iteration's child
        pending: run ends that child before the error leaves it."""
        t = Trainer(stub_cfg(total_iterations=3))

        def sink(record):
            if isinstance(record, IterationReport):
                assert t._pending is not None
                raise error("the sink failed")

        fds = open_fds()
        with pytest.raises(error, match="the sink failed"):
            t.run(sink)
        # t is still referenced: run itself, not the trainer's collection,
        # must have killed the child.
        assert t._pending is None and len(worker_pids) == 2
        assert not child_pids() and open_fds() == fds

    def test_policy_learns_single_objective_stub(self):
        # w = (1, 0) turns the stub into "push action 0 toward 1"; ten
        # iterations should lift the 8-step episodic return well above the
        # untrained policy's.
        cfg = stub_cfg(
            algorithm="linear",
            preference=(1.0, 0.0),
            horizon=128,
            epochs=4,
            minibatch=32,
            total_iterations=10,
            seed=0,
            lr=3e-3,
            eval_every=100,
            eval_episodes=4,
        )
        t = Trainer(cfg)
        before = t.evaluate(0).returns[0]
        for _ in range(10):
            iterate(t)
        after = t.evaluate(10).returns[0]
        assert after > before + 2.0
