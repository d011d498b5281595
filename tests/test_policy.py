import tracemalloc

import numpy as np
import pytest

from pastarl.errors import ContractViolationError
from pastarl.policy import (
    ENTROPY_CONST,
    LOG_STD_INIT,
    LOG_STD_MAX,
    LOG_STD_MIN,
    BranchedCritic,
    GaussianActor,
    SharedCritic,
)
from pastarl.nn import Network
from tests import oracles
from tests.conftest import finite_difference, same_bits
from tests.oracles import act, act_deterministic

OBS, M, ACT, HIDDEN = 4, 2, 3, 8


@pytest.fixture
def actor(rng):
    return GaussianActor.create(OBS, M, ACT, rng, hidden=HIDDEN)


def gaussian_logpdf(x, mean, std):
    """Independent diagonal-Gaussian reference density."""
    z = (x - mean) / std
    return float(-0.5 * np.sum(z * z) - np.sum(np.log(std)) - 0.5 * x.size * np.log(2 * np.pi))


class TestActorSampling:
    def test_log_std_initialized_to_half(self, actor):
        np.testing.assert_allclose(np.exp(actor.log_std), np.full(ACT, 0.5), rtol=1e-12)
        assert LOG_STD_INIT == pytest.approx(np.log(0.5))

    def test_actions_live_in_unit_box(self, actor, rng):
        for _ in range(100):
            s = rng.normal(size=OBS) * 3
            sample = act(actor, s, np.full(M, 0.5), rng)
            assert np.all(sample.action >= 0.0) and np.all(sample.action <= 1.0)

    def test_log_prob_evaluated_at_pre_clamp(self, actor, rng):
        s = rng.normal(size=OBS)
        w = np.full(M, 0.5)
        sample = act(actor, s, w, rng)
        x = np.concatenate([s, w])[None, :]
        means = actor.mean_forward(x)[0][0]
        expected = gaussian_logpdf(sample.pre_clamp, means, np.exp(actor.log_std))
        assert sample.log_prob == pytest.approx(expected, rel=1e-12)
        assert actor.log_probs(means, sample.pre_clamp) == pytest.approx(expected, rel=1e-12)

    def test_nearly_deterministic_at_log_std_floor(self, actor, rng):
        actor.log_std[:] = LOG_STD_MIN
        s = rng.normal(size=OBS)
        w = np.full(M, 0.5)
        sample = act(actor, s, w, rng)
        means, _ = actor.mean_forward(np.concatenate([s, w])[None, :])
        np.testing.assert_allclose(sample.pre_clamp, means[0], atol=1e-8)

    def test_deterministic_action_is_clipped_mean(self, actor, rng):
        s = rng.normal(size=OBS)
        w = np.full(M, 0.5)
        means, _ = actor.mean_forward(np.concatenate([s, w])[None, :])
        np.testing.assert_array_equal(act_deterministic(actor, s, w), np.clip(means[0], 0, 1))

    def test_zero_weights_network_means_half(self, rng):
        actor = GaussianActor.create(OBS, M, ACT, rng, hidden=HIDDEN)
        actor.params[:] = 0.0
        means, _ = actor.mean_forward(np.zeros((1, OBS + M)))
        # sigmoid(0) = 0.5 for every action dimension.
        np.testing.assert_allclose(means, np.full((1, ACT), 0.5), rtol=1e-15)

    def test_same_rng_same_sample(self, actor):
        s = np.arange(OBS, dtype=np.float64)
        w = np.full(M, 0.5)
        a = act(actor, s, w, np.random.default_rng(5))
        b = act(actor, s, w, np.random.default_rng(5))
        np.testing.assert_array_equal(a.pre_clamp, b.pre_clamp)
        assert a.log_prob == b.log_prob


class TestActorEntropy:
    def test_closed_form_two_dims_zero_log_std(self, rng):
        actor = GaussianActor.create(OBS, M, 2, rng, hidden=HIDDEN)
        actor.log_std[:] = 0.0
        # 2 * 0.5 ln(2 pi e) = 2.837877066...
        assert actor.entropy() == pytest.approx(np.log(2 * np.pi * np.e), rel=1e-12)
        assert actor.entropy() == pytest.approx(2.8378770664093453, rel=1e-12)

    def test_monte_carlo_agreement(self, actor):
        actor.log_std[:] = np.array([0.3, -0.5, 0.0])
        rng = np.random.default_rng(123)
        std = np.exp(actor.log_std)
        draws = rng.normal(0.0, std, size=(200_000, ACT))
        logps = (
            -0.5 * np.sum((draws / std) ** 2, axis=1)
            - np.sum(actor.log_std)
            - 0.5 * ACT * np.log(2 * np.pi)
        )
        assert actor.entropy() == pytest.approx(-logps.mean(), abs=5e-3)

    def test_entropy_grad_touches_only_log_std(self, actor):
        g = np.zeros(actor.n_params)
        actor.add_entropy_grad(g, 1.0)
        n_net = actor.backbone.n_params + actor.mean_head.n_params
        np.testing.assert_array_equal(g[:n_net], np.zeros(n_net))
        np.testing.assert_array_equal(g[n_net:], np.ones(ACT))
        # d entropy / d log_std_d = 1 exactly, matching finite differences.
        theta0 = actor.params.copy()

        def entropy_of(theta):
            actor.params[:] = theta
            return actor.entropy()

        np.testing.assert_allclose(finite_difference(entropy_of, theta0), g, rtol=1e-9, atol=1e-12)
        actor.params[:] = theta0

    def test_clamp_projects_into_range(self, actor):
        actor.log_std[:] = np.array([-50.0, 5.0, 0.0])
        actor.clamp_log_std()
        np.testing.assert_array_equal(actor.log_std, [LOG_STD_MIN, LOG_STD_MAX, 0.0])

    def test_clamp_gives_np_clip_bits(self, rng):
        """NaN, +-inf, +-0.0, the bounds themselves and values either side."""
        values = [np.nan, np.inf, -np.inf, 0.0, -0.0, LOG_STD_MIN, LOG_STD_MAX, -20.5, 2.5, -3.0, 1e-300]
        actor = GaussianActor.create(OBS, M, len(values), rng, hidden=HIDDEN)
        actor.log_std[:] = values
        want = np.clip(np.array(values), LOG_STD_MIN, LOG_STD_MAX)
        actor.clamp_log_std()
        assert actor.log_std.tobytes() == want.tobytes()


class TestActorBackward:
    def test_weighted_logp_gradient_matches_finite_differences(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            actor = GaussianActor.create(3, 2, 2, rng, hidden=5)
            B = 4
            x = rng.normal(size=(B, 5))
            pre = rng.normal(loc=0.5, scale=0.4, size=(B, 2))
            # one coefficient row, and k = 3 rows (one per objective)
            for coeffs in (rng.normal(size=(1, B)), rng.normal(size=(3, B))):
                theta0 = actor.params.copy()
                means, records = actor.mean_forward(x)
                analytic = actor.backward_weighted_logp(records, pre, coeffs)
                assert analytic.shape == (coeffs.shape[0], actor.n_params)
                for row, c in zip(analytic, coeffs):

                    def loss(theta):
                        actor.params[:] = theta
                        means, _ = actor.mean_forward(x)
                        return float(np.sum(c * actor.log_probs(means, pre)))

                    numeric = finite_difference(loss, theta0)
                    actor.params[:] = theta0
                    np.testing.assert_allclose(row, numeric, rtol=2e-5, atol=1e-7)

    def test_batched_rows_match_separate_calls(self, rng):
        """(k, B) coefficients give the same bits as k one-row calls."""
        for k in (2, 3, 4):
            actor = GaussianActor.create(OBS, k, ACT, rng, hidden=HIDDEN)
            x = rng.normal(size=(16, OBS + k))
            _, records = actor.mean_forward(x)
            pre = rng.normal(loc=0.5, scale=0.4, size=(16, ACT))
            coeffs = rng.normal(size=(16, k)).T  # not contiguous, as in the trainer
            batched = actor.backward_weighted_logp(records, pre, coeffs)
            for i in range(k):
                one = actor.backward_weighted_logp(records, pre, coeffs[i : i + 1])
                np.testing.assert_array_equal(batched[i], one[0])

    def test_coeff_shape_mismatch_rejected(self, actor, rng):
        x = rng.normal(size=(4, OBS + M))
        _, records = actor.mean_forward(x)
        with pytest.raises(ContractViolationError):
            actor.backward_weighted_logp(records, np.zeros((4, ACT)), np.zeros((1, 3)))
        with pytest.raises(ContractViolationError):
            actor.backward_weighted_logp(records, np.zeros((4, ACT)), np.zeros(4))

    def test_flat_round_trip(self, actor, rng):
        clone = GaussianActor.create(OBS, M, ACT, rng, hidden=HIDDEN)
        clone.params[:] = actor.params
        x = rng.normal(size=(3, OBS + M))
        np.testing.assert_array_equal(clone.mean_forward(x)[0], actor.mean_forward(x)[0])
        np.testing.assert_array_equal(clone.log_std, actor.log_std)


class TestBranchedCritic:
    def test_head_isolation(self, rng):
        """A loss touching only objective i leaves other heads' grads at zero."""
        critic = BranchedCritic.create(3, 3, rng, hidden=6)
        x = rng.normal(size=(5, 6))
        vals, cache = critic.forward(x)
        dv = np.zeros((5, 3))
        dv[:, 1] = 1.0
        flat = critic.backward(cache, dv)
        k = critic.trunk.n_params
        h = critic.stacked_heads.n_params // 3
        assert flat.shape == (critic.n_params,) == (k + 3 * h,)
        head_grads = [flat[k + i * h : k + (i + 1) * h] for i in range(3)]
        np.testing.assert_array_equal(head_grads[0], np.zeros(h))
        assert np.any(head_grads[1] != 0)
        np.testing.assert_array_equal(head_grads[2], np.zeros(h))

    def test_backward_matches_finite_differences(self, rng):
        critic = BranchedCritic.create(2, 2, rng, hidden=4)
        x = rng.normal(size=(3, 4))
        dv = rng.normal(size=(3, 2))

        def loss(theta):
            critic.params[:] = theta
            vals, _ = critic.forward(x)
            return float(np.sum(vals * dv))

        theta0 = critic.params.copy()
        _, cache = critic.forward(x)
        analytic = critic.backward(cache, dv)
        numeric = finite_difference(loss, theta0)
        critic.params[:] = theta0
        np.testing.assert_allclose(analytic, numeric, rtol=2e-5, atol=1e-7)

    def test_stacked_heads_match_per_head_networks(self, rng):
        """The batched heads give the bits of m separate head passes, each a
        network built on its own copy of the head's row of critic.params."""
        critic = BranchedCritic.create(3, 3, rng, hidden=6)
        x = rng.normal(size=(9, 6))
        vals, cache = critic.forward(x)
        dv = rng.normal(size=(9, 3))
        flat = critic.backward(cache, dv)
        feats, trunk_record = critic.trunk.forward(x)
        nt = critic.trunk.n_params
        rows = critic.params[nt:].reshape(3, -1)
        feat_grad = 0.0
        for i, row in enumerate(rows):
            head = Network([6, 6, 1], ["tanh", "identity"], row.copy())
            v_i, record_i = head.forward(feats)
            np.testing.assert_array_equal(vals[:, i], v_i[:, 0])
            head_flat, f_grad = head.backward(record_i, dv[:, i : i + 1])
            start = nt + i * head.n_params
            np.testing.assert_array_equal(flat[start : start + head.n_params], head_flat)
            feat_grad = feat_grad + f_grad
        trunk_flat, _ = critic.trunk.backward(trunk_record, feat_grad)
        np.testing.assert_array_equal(flat[: critic.trunk.n_params], trunk_flat)

    def test_checkpoint_heads_are_the_rows_of_the_stacked_vector(self, rng):
        critic = BranchedCritic.create(3, 2, rng, hidden=4)
        nets = critic.checkpoint_networks()
        assert list(nets) == ["critic_trunk", "critic_head_0", "critic_head_1"]
        flat = np.concatenate([net.params for net in nets.values()])
        assert flat.tobytes() == critic.params.tobytes()
        for i in range(2):
            assert nets[f"critic_head_{i}"].dims == [4, 4, 1]
            assert nets[f"critic_head_{i}"] is critic.heads[i]  # the networks values() runs
            assert np.shares_memory(critic.heads[i].params, critic.params)

    def test_flat_round_trip(self, rng):
        critic = BranchedCritic.create(2, 3, rng, hidden=4)
        clone = BranchedCritic.create(2, 3, rng, hidden=4)
        clone.params[:] = critic.params
        x = rng.normal(size=(4, 5))
        np.testing.assert_array_equal(clone.values(x), critic.values(x))


class TestLeanPasses:
    """The record-free passes give forward()'s bits; the backward passes that
    write into one gradient give the bits of the allocate-and-concatenate
    references in tests/oracles.py and leave their inputs untouched."""

    @pytest.mark.parametrize("B", [1, 64, 2049])
    def test_actor_means_equal_mean_forward(self, actor, rng, B):
        """The per-step pass reads its buffer as it is at each call and
        writes the same means array every time."""
        x = np.zeros((B, OBS + M))
        run, means = actor.mean_pass(x)
        for _ in range(2):
            x[...] = rng.normal(size=x.shape)
            run()
            assert same_bits(means, actor.mean_forward(x)[0])

    @pytest.mark.parametrize("critic_cls", [BranchedCritic, SharedCritic])
    @pytest.mark.parametrize("m", [3, 4])
    def test_critic_values_equal_forward_over_a_horizon(self, critic_cls, m):
        rng = np.random.default_rng(m)
        critic = critic_cls.create(14, m, rng, hidden=64)
        x = rng.normal(size=(2049, 14 + m))
        x_before = x.copy()
        vals = critic.values(x)
        assert same_bits(vals, critic.forward(x)[0])
        assert vals.flags.c_contiguous
        assert same_bits(x, x_before)

    def test_values_hold_one_head_at_a_time(self):
        """The traced peak of the branched critic's values on a (2049, 18)
        batch at m = 4, hidden 64 stays below the bytes of the input, the
        trunk's two layers, one head's hidden layer and the (2049, m)
        output: (18 + 2 * 64 + 64 + 4) float64 columns of 2049 rows.
        forward(), which keeps every layer of all m heads, peaks at nearly
        twice that."""
        rows, obs, m, hidden = 2049, 14, 4, 64
        critic = BranchedCritic.create(obs, m, np.random.default_rng(0), hidden=hidden)
        x = np.random.default_rng(1).normal(size=(rows, obs + m))
        bound = 8 * rows * ((obs + m) + 2 * hidden + hidden + m)
        tracemalloc.start()
        try:
            critic.values(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("m", [3, 4])
    def test_actor_backward_rows_match_concatenated_blocks(self, m):
        """Every row set the trainer backpropagates: the first k objectives'
        rows for k = 1..m, as the non-contiguous transpose it passes, and
        the single row of a scalarized clip."""
        rng = np.random.default_rng(m)
        actor = GaussianActor.create(OBS, m, 6, rng, hidden=16)
        B = 64
        x = rng.normal(size=(B, OBS + m))
        pre = rng.normal(loc=0.5, scale=0.4, size=(B, 6))
        _, records = actor.mean_forward(x)
        kept = [h.copy() for record in records for h in record]
        unclipped = rng.normal(size=(B, m))
        rows = [unclipped.T[:k] for k in range(1, m + 1)]
        rows.append(np.where(unclipped[:, 0] < 0.5, unclipped @ np.full(m, 1.0 / m), 0.0)[None, :])
        for coeffs in rows:
            coeffs = coeffs / B
            coeffs_before = coeffs.copy()
            got = actor.backward_weighted_logp(records, pre, coeffs)
            assert same_bits(got, oracles.actor_backward(actor, records, pre, coeffs))
            assert same_bits(coeffs, coeffs_before)
        assert all(same_bits(h, h0) for h, h0 in zip([h for r in records for h in r], kept))

    @pytest.mark.parametrize("m", [3, 4])
    def test_critic_backward_matches_concatenated_blocks(self, m):
        rng = np.random.default_rng(m)
        x = rng.normal(size=(64, OBS + m))
        dv = rng.normal(size=(64, m))
        dv_before = dv.copy()
        branched = BranchedCritic.create(OBS, m, rng, hidden=16)
        _, cache = branched.forward(x)
        assert same_bits(branched.backward(cache, dv), oracles.branched_critic_backward(branched, cache, dv))
        shared = SharedCritic.create(OBS, m, rng, hidden=16)
        _, record = shared.forward(x)
        want, _ = oracles.backward(shared.net, record, dv, input_grad=False)
        assert same_bits(shared.backward(record, dv), want)
        assert same_bits(dv, dv_before)


class TestSharedCritic:
    def test_emits_m_values(self, rng):
        critic = SharedCritic.create(3, 4, rng, hidden=5)
        assert critic.values(np.zeros((2, 7))).shape == (2, 4)

    def test_backward_matches_finite_differences(self, rng):
        critic = SharedCritic.create(2, 2, rng, hidden=4)
        x = rng.normal(size=(3, 4))
        dv = rng.normal(size=(3, 2))

        def loss(theta):
            critic.params[:] = theta
            return float(np.sum(critic.values(x) * dv))

        theta0 = critic.params.copy()
        _, cache = critic.forward(x)
        analytic = critic.backward(cache, dv)
        numeric = finite_difference(loss, theta0)
        critic.params[:] = theta0
        np.testing.assert_allclose(analytic, numeric, rtol=2e-5, atol=1e-7)

    def test_no_head_isolation_in_shared_critic(self, rng):
        """Contrast with the branched critic: one objective's loss reaches
        shared hidden weights feeding every output."""
        critic = SharedCritic.create(2, 2, rng, hidden=4)
        x = rng.normal(size=(3, 4))
        _, cache = critic.forward(x)
        dv = np.zeros((3, 2))
        dv[:, 0] = 1.0
        flat = critic.backward(cache, dv)
        first_layer = flat[: 4 * 4]
        assert np.any(first_layer != 0)


class TestActorCriticShapes:
    def test_head_backbone_mismatch_rejected(self, rng):
        backbone = GaussianActor.create(OBS, M, ACT, rng, hidden=HIDDEN).backbone
        bad_head = Network.random([HIDDEN + 1, ACT], ["sigmoid"], rng)
        with pytest.raises(ContractViolationError):
            GaussianActor(backbone, bad_head, np.zeros(ACT))

    @pytest.mark.parametrize("activation", ["identity", "tanh"])
    def test_mean_head_without_sigmoid_rejected(self, rng, activation):
        backbone = GaussianActor.create(OBS, M, ACT, rng, hidden=HIDDEN).backbone
        head = Network.random([HIDDEN, ACT], [activation], rng)
        with pytest.raises(ContractViolationError, match="sigmoid"):
            GaussianActor(backbone, head, np.zeros(ACT))


class TestMeansInTheBox:
    """The rollouts step with the means unclipped: the sigmoid head keeps
    them in [0, 1], or NaN, however large its pre-activations."""

    @pytest.mark.parametrize("bias", [-1e3, 1e3])
    def test_huge_pre_activations_give_box_edges(self, actor, rng, bias):
        actor.mean_head.layers[-1].weights[...] = 0.0
        actor.mean_head.layers[-1].biases[...] = bias
        x = rng.normal(size=(5, OBS + M))
        run, means = actor.mean_pass(x)
        with np.errstate(over="ignore"):  # exp(1e3) is inf, and its reciprocal 0.0
            run()
            forward_means = actor.mean_forward(x)[0]
        assert np.all(means == (0.0 if bias < 0 else 1.0))
        assert same_bits(means, forward_means)

    def test_nan_parameters_give_nan_means(self, actor, rng):
        actor.params[:] = np.nan
        x = rng.normal(size=(5, OBS + M))
        run, means = actor.mean_pass(x)
        run()
        assert np.all(np.isnan(means))
        assert np.all(np.isnan(actor.mean_forward(x)[0]))

    def test_pass_refuses_a_buffer_it_would_copy(self, actor):
        with pytest.raises(ContractViolationError, match="float64"):
            actor.mean_pass(np.zeros((1, OBS + M), dtype=np.float32))
        with pytest.raises(ContractViolationError):
            actor.mean_pass(np.zeros(OBS + M))

    def test_branched_head_shape_rejected(self, rng):
        trunk = Network.random([4, 6], ["tanh"], rng)
        bad = Network([6, 2], ["identity"], stack=1)  # out_dim must be 1
        with pytest.raises(ContractViolationError, match="does not fit"):
            BranchedCritic(trunk, bad)
        with pytest.raises(ContractViolationError, match="stacked"):
            BranchedCritic(trunk, Network([6, 1], ["identity"]))


class TestOneInputShape:
    """Every model runs on a (B, in) batch; one row is a (1, in) batch, and a
    bare vector is refused rather than broadcast or indexed past its end."""

    def test_actor_rejects_one_dimensional_input(self, actor):
        assert actor.mean_forward(np.zeros((1, OBS + M)))[0].shape == (1, ACT)
        with pytest.raises(ContractViolationError):
            actor.mean_forward(np.zeros(OBS + M))

    @pytest.mark.parametrize("critic_cls", [BranchedCritic, SharedCritic])
    def test_critics_reject_one_dimensional_input(self, critic_cls, rng):
        critic = critic_cls.create(OBS, M, rng, hidden=HIDDEN)
        assert critic.values(np.zeros((1, OBS + M))).shape == (1, M)
        with pytest.raises(ContractViolationError):
            critic.values(np.zeros(OBS + M))
        _, cache = critic.forward(np.zeros((3, OBS + M)))
        with pytest.raises(ContractViolationError):
            critic.backward(cache, np.zeros(M))
