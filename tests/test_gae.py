import numpy as np
import pytest

from pastarl.errors import ContractViolationError
from pastarl.gae import RolloutBatch, compute_gae, normalize_advantages


def make_batch(rewards, dones, values):
    rewards = np.asarray(rewards, dtype=np.float64)
    T, m = rewards.shape
    return RolloutBatch(
        inputs=np.zeros((T, 1)),
        pre_clamp=np.zeros((T, 1)),
        log_probs=np.zeros(T),
        rewards=rewards,
        dones=np.asarray(dones, dtype=bool),
        values=np.asarray(values, dtype=np.float64),
    )


def reference_gae(rewards, dones, values, gamma, lam):
    """Direct delta-sum oracle: A_t = sum_k (gamma lam)^k delta_{t+k} within
    the episode, computed forward with explicit episode segmentation."""
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    T, m = rewards.shape
    deltas = np.zeros((T, m))
    for t in range(T):
        bootstrap = 0.0 if dones[t] else gamma
        deltas[t] = rewards[t] + bootstrap * values[t + 1] - values[t]
    adv = np.zeros((T, m))
    for t in range(T):
        acc = np.zeros(m)
        scale = 1.0
        for k in range(t, T):
            acc += scale * deltas[k]
            if dones[k]:
                break
            scale *= gamma * lam
        adv[t] = acc
    return adv


class TestComputeGae:
    def test_single_terminal_step(self):
        batch = make_batch([[2.0, -1.0]], [True], [[0.5, 0.5], [9.0, 9.0]])
        compute_gae(batch, gamma=0.9, lam=0.8)
        # Terminal: bootstrap row must not leak; A = r - V.
        np.testing.assert_allclose(batch.advantages, [[1.5, -1.5]], rtol=1e-15)
        np.testing.assert_allclose(batch.value_targets, [[2.0, -1.0]], rtol=1e-15)

    def test_single_truncated_step_uses_bootstrap(self):
        batch = make_batch([[1.0]], [False], [[0.0], [2.0]])
        compute_gae(batch, gamma=0.5, lam=1.0)
        np.testing.assert_allclose(batch.advantages, [[1.0 + 0.5 * 2.0]], rtol=1e-15)

    def test_matches_direct_delta_sum_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            T = int(rng.integers(1, 30))
            m = int(rng.integers(1, 4))
            rewards = rng.normal(size=(T, m))
            dones = rng.random(T) < 0.2
            values = rng.normal(size=(T + 1, m))
            gamma = float(rng.uniform(0.8, 1.0))
            lam = float(rng.uniform(0.5, 1.0))
            batch = make_batch(rewards, dones, values)
            compute_gae(batch, gamma, lam)
            expected = reference_gae(rewards, dones, values, gamma, lam)
            np.testing.assert_allclose(batch.advantages, expected, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(
                batch.value_targets, expected + values[:T], rtol=1e-10, atol=1e-12
            )

    def test_monte_carlo_identity_when_gamma_lam_one(self):
        # gamma = lam = 1 on a single full episode: target = sum of future
        # rewards (undiscounted return to go).
        rewards = np.array([[1.0], [2.0], [3.0]])
        dones = [False, False, True]
        values = np.array([[0.3], [-0.2], [0.9], [5.0]])
        batch = make_batch(rewards, dones, values)
        compute_gae(batch, gamma=1.0, lam=1.0)
        np.testing.assert_allclose(batch.value_targets, [[6.0], [5.0], [3.0]], rtol=1e-12)

    def test_objective_columns_are_independent(self):
        rng = np.random.default_rng(3)
        rewards = rng.normal(size=(12, 3))
        dones = rng.random(12) < 0.25
        values = rng.normal(size=(13, 3))
        batch = make_batch(rewards, dones, values)
        compute_gae(batch, 0.97, 0.9)
        for i in range(3):
            solo = make_batch(rewards[:, [i]], dones, values[:, [i]])
            compute_gae(solo, 0.97, 0.9)
            np.testing.assert_array_equal(batch.advantages[:, [i]], solo.advantages)

    def test_matches_the_numpy_row_recursion_bit_for_bit(self):
        """The float recursion rounds as the recursion on numpy rows did."""
        rng = np.random.default_rng(23)
        for _ in range(50):
            T, m = int(rng.integers(1, 200)), int(rng.integers(1, 5))
            rewards = rng.normal(size=(T, m)) * 10.0 ** rng.integers(-3, 4)
            dones = rng.random(T) < 0.1
            values = rng.normal(size=(T + 1, m))
            gamma, lam = float(rng.uniform(0.8, 1.0)), float(rng.uniform(0.5, 1.0))
            not_done = 1.0 - dones.astype(np.float64)
            expected = np.zeros((T, m))
            carry = np.zeros(m)
            for t in range(T - 1, -1, -1):
                delta = rewards[t] + gamma * not_done[t] * values[t + 1] - values[t]
                carry = delta + gamma * lam * not_done[t] * carry
                expected[t] = carry
            batch = compute_gae(make_batch(rewards, dones, values), gamma, lam)
            assert batch.advantages.tobytes() == expected.tobytes()
            assert batch.value_targets.tobytes() == (expected + values[:T]).tobytes()

    def test_done_boundary_blocks_leakage(self):
        # Identical prefixes, different post-done suffixes: advantages before
        # the boundary must be identical.
        values_a = np.array([[0.1], [0.2], [7.0], [8.0]])
        values_b = np.array([[0.1], [0.2], [-3.0], [4.0]])
        rew_a = np.array([[1.0], [2.0], [5.0]])
        rew_b = np.array([[1.0], [2.0], [-9.0]])
        dones = [False, True, False]
        a = compute_gae(make_batch(rew_a, dones, values_a), 0.99, 0.95)
        b = compute_gae(make_batch(rew_b, dones, values_b), 0.99, 0.95)
        np.testing.assert_array_equal(a.advantages[:2], b.advantages[:2])


class TestNormalizeAdvantages:
    def test_per_column_standardization(self):
        rng = np.random.default_rng(8)
        batch = make_batch(rng.normal(size=(50, 2)), rng.random(50) < 0.1, rng.normal(size=(51, 2)))
        compute_gae(batch, 0.99, 0.95)
        normalize_advantages(batch)
        for i in range(2):
            col = batch.norm_advantages[:, i]
            assert col.mean() == pytest.approx(0.0, abs=1e-12)
            assert col.std() == pytest.approx(1.0, rel=1e-6)

    def test_matches_population_formula(self):
        batch = make_batch([[1.0], [3.0]], [False, True], [[0.0], [0.0], [0.0]])
        compute_gae(batch, 1.0, 1.0)
        normalize_advantages(batch)
        a = batch.advantages[:, 0]
        expected = (a - a.mean()) / (a.std() + 1e-8)
        np.testing.assert_allclose(batch.norm_advantages[:, 0], expected, rtol=1e-14)

    def test_constant_column_maps_to_zero(self):
        batch = make_batch([[1.0], [1.0]], [True, True], [[0.0], [0.0], [0.0]])
        compute_gae(batch, 0.9, 0.9)
        normalize_advantages(batch)
        np.testing.assert_array_equal(batch.norm_advantages, np.zeros((2, 1)))

    def test_requires_compute_gae_first(self):
        batch = make_batch([[1.0]], [True], [[0.0], [0.0]])
        with pytest.raises(ContractViolationError):
            normalize_advantages(batch)


class TestRolloutBatchShapes:
    def test_rejects_wrong_value_rows(self):
        with pytest.raises(ContractViolationError):
            make_batch([[1.0]], [True], [[0.0]])

    def test_rejects_wrong_done_length(self):
        with pytest.raises(ContractViolationError):
            RolloutBatch(
                inputs=np.zeros((2, 1)),
                pre_clamp=np.zeros((2, 1)),
                log_probs=np.zeros(2),
                rewards=np.zeros((2, 1)),
                dones=np.zeros(3, dtype=bool),
                values=np.zeros((3, 1)),
            )
