import csv

import numpy as np
import pytest

from pastarl import config as configlib
from pastarl.cli import run_training
from pastarl.envs.base import MomdpEnv
from pastarl.errors import ConfigError, DivergenceError
from pastarl.gae import RolloutBatch
from pastarl.trainer import TrainConfig, Trainer, weighted_value_loss
from tests.oracles import clipped_objective_loss


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
        return self._obs(), np.array([a]), done, {"reward_snapshot": {"a0": a}, "events": {}}

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
        assert batch.states.shape == (20, 3)
        assert batch.values.shape == (21, 2)
        # cap 8 inside horizon 20: episodes end at steps 7 and 15.
        np.testing.assert_array_equal(np.flatnonzero(batch.dones), [7, 15])
        assert len(batch.episodic_returns) == 2
        np.testing.assert_allclose(batch.episodic_returns[0], batch.rewards[:8].sum(axis=0))
        np.testing.assert_allclose(batch.episodic_returns[1], batch.rewards[8:16].sum(axis=0))

    def test_values_come_from_critic_on_state_preference_input(self):
        t = Trainer(stub_cfg(horizon=12))
        batch = t.collect_rollout()
        x = np.hstack([batch.states, np.tile(t.w, (12, 1))])
        np.testing.assert_array_equal(batch.values[:12], np.atleast_2d(t.critic.values(x)))

    def test_partial_episode_rolls_into_next_batch(self):
        t = Trainer(stub_cfg(horizon=12, env_params={"episode_cap": 8}))
        b1 = t.collect_rollout()
        assert len(b1.episodic_returns) == 1
        b2 = t.collect_rollout()
        # The episode spanning the batch boundary completes 4 steps into b2.
        assert b2.dones[3]
        carried = b1.rewards[8:].sum(axis=0) + b2.rewards[:4].sum(axis=0)
        np.testing.assert_allclose(b2.episodic_returns[0], carried)


class TestIterationMechanics:
    def test_same_seed_runs_are_bit_identical(self):
        t1, t2 = Trainer(stub_cfg()), Trainer(stub_cfg())
        for _ in range(2):
            r1, r2 = t1.run_iteration(), t2.run_iteration()
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
        rep = t.run_iteration()
        np.testing.assert_allclose(rep.clip_losses, [0.0, 0.0], atol=1e-12)

    def test_critic_updates_precede_actor_updates_per_minibatch(self, monkeypatch):
        events = []

        def recording(name):
            method = getattr(Trainer, name)

            def wrapped(self, x, *args):
                events.append((name, x.copy()))
                return method(self, x, *args)

            return wrapped

        for name in ("_critic_update", "_actor_update"):
            monkeypatch.setattr(Trainer, name, recording(name))
        Trainer(stub_cfg(horizon=64, epochs=2, minibatch=32)).run_iteration()
        assert len(events) == 2 * 2 * (64 // 32)
        for k in range(0, len(events), 2):
            critic, actor = events[k], events[k + 1]
            assert critic[0] == "_critic_update" and actor[0] == "_actor_update"
            np.testing.assert_array_equal(critic[1], actor[1])  # the same minibatch

    def test_conflicting_stub_objectives_produce_nonzero_kappa(self):
        t = Trainer(stub_cfg(seed=2))
        rep = t.run_iteration()
        assert 0.0 < rep.kappa <= 1.0
        assert t.cfg.mu_min <= rep.mu <= t.cfg.mu_max

    def test_no_pcgrad_still_reports_conflicts_but_changes_update(self):
        t_proj = Trainer(stub_cfg(seed=2))
        t_raw = Trainer(stub_cfg(seed=2, no_pcgrad=True))
        r_proj, r_raw = t_proj.run_iteration(), t_raw.run_iteration()
        assert r_raw.kappa > 0.0
        assert r_proj.kappa == r_raw.kappa  # same batch, same conflict count
        assert not np.array_equal(t_proj.actor.params, t_raw.actor.params)

    def test_weighted_aggregation_changes_update(self):
        t_sum = Trainer(stub_cfg(seed=2))
        t_wtd = Trainer(stub_cfg(seed=2, weighted_pcgrad=True))
        t_sum.run_iteration()
        t_wtd.run_iteration()
        assert not np.array_equal(t_sum.actor.params, t_wtd.actor.params)

    def test_critic_divergence_raises(self):
        t = Trainer(stub_cfg())
        x = np.zeros((4, 3 + 2))
        bad = np.full((4, 2), np.nan)
        with pytest.raises(DivergenceError, match="value_loss"):
            t._critic_update(x, bad, np.array([0.5, 0.5]))


class TestAlgorithmTraces:
    def test_stch_fixed_pins_mu_and_zeroes_braking(self):
        t = Trainer(stub_cfg(algorithm="stch_fixed", fixed_mu=0.7))
        rep = t.run_iteration()
        assert rep.mu == 0.7
        assert rep.mu_base == 0.7
        assert rep.mu_star == 0.7
        assert rep.beta == 0.0

    def test_linear_and_tch_report_zero_controller_fields(self):
        for algo in ("linear", "tch"):
            rep = Trainer(stub_cfg(algorithm=algo)).run_iteration()
            assert rep.mu == 0.0 and rep.kappa == 0.0 and rep.beta == 0.0

    def test_pasta_mu_descends_under_low_conflict(self):
        t = Trainer(stub_cfg(seed=2, total_iterations=4))
        mus = [t.run_iteration().mu for _ in range(4)]
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
        states=states,
        actions=np.clip(pre, 0, 1),
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

    def run_actor_update(self, algorithm, adv, j_worst=0, seed=11):
        cfg = stub_cfg(algorithm=algorithm, preference=(1.0, 0.0), seed=seed)
        t = Trainer(cfg)
        T = 16
        batch, x = make_flat_batch(t, T, adv)
        eta = np.array([0.5, 0.5])
        r_bar = np.array([0.5, 0.5])
        t._actor_update(x, batch, np.arange(T), eta, j_worst, r_bar)
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
        _, clip_losses = t._actor_update(x, batch, np.arange(T), np.array([0.5, 0.5]), 0, np.array([0.5, 0.5]))
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
            self.run_actor_update("tch", a, j_worst=0), self.run_actor_update("tch", b, j_worst=0)
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
            ra, rb = ta.run_iteration(), tb.run_iteration()
        assert ra.kappa == 0.0
        assert ra.clip_losses == rb.clip_losses
        np.testing.assert_array_equal(ta.actor.params, tb.actor.params)

    def test_frozen_controller_at_mu_start_matches_fixed_mu_baseline(self):
        # Disabling both decay and braking pins mu at mu_start, which must
        # reproduce the fixed-mu baseline bit for bit.
        t1 = Trainer(stub_cfg(controller_mode="no_conflict_no_decay", mu_start=10.0))
        t2 = Trainer(stub_cfg(algorithm="stch_fixed", fixed_mu=10.0))
        for _ in range(3):
            r1, r2 = t1.run_iteration(), t2.run_iteration()
        assert r1.clip_losses == r2.clip_losses
        assert r1.mu == r2.mu == 10.0
        np.testing.assert_array_equal(t1.actor.params, t2.actor.params)


class TestTrainLoop:
    def test_schedule_evaluates_initially_periodically_and_at_end(self, tmp_path):
        cfg = configlib.default_config()
        cfg["environment"]["episode_cap"] = 8
        cfg["ppo"].update(
            horizon=64, epochs=2, minibatch=32, total_iterations=5, seed=11, hidden=16
        )
        cfg["output"].update(eval_every=2, eval_episodes=2)
        out = run_training(cfg, tmp_path / "run")
        with open(out / "metrics.csv", newline="") as f:
            metrics = list(csv.DictReader(f))
        with open(out / "eval.csv", newline="") as f:
            evals = list(csv.DictReader(f))
        assert [int(r["iteration"]) for r in metrics] == [1, 2, 3, 4, 5]
        assert [r["eval_hv"] != "" for r in metrics] == [False, True, False, True, True]
        assert [int(rec["iteration"]) for rec in evals] == [0, 2, 4, 5]
        w = np.array(cfg["algorithm"]["preference"])
        for rec in evals:
            returns = [float(rec["return_0"]), float(rec["return_1"])]
            assert float(rec["eu"]) == pytest.approx(float(np.dot(w, returns)))
            assert 0.0 <= float(rec["hv_so_far"]) <= 1.0

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
            t.run_iteration()
        after = t.evaluate(10).returns[0]
        assert after > before + 2.0
