import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pastarl.config import KNOBS, TrainConfig
from pastarl.errors import ConfigError, ContractViolationError
from pastarl.scalarize import (
    ALGORITHMS,
    SCALARIZERS,
    ReturnNormalizer,
    actor_coefficients,
    maintenance_mix,
    preference_vector,
    stch_attention,
    tch_worst_index,
    utopia_point,
)
from pastarl.trainer import Trainer
from tests.oracles import stch_scalarize


class TestPreferenceVector:
    def test_accepts_simplex(self):
        w = preference_vector([0.2, 0.3, 0.5], m=3)
        np.testing.assert_allclose(w, [0.2, 0.3, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            preference_vector([0.5, 0.7, -0.2])

    def test_rejects_bad_sum(self):
        with pytest.raises(ConfigError):
            preference_vector([0.5, 0.6])

    def test_rejects_wrong_length(self):
        with pytest.raises(ConfigError):
            preference_vector([0.5, 0.5], m=3)

    def test_zero_entries_allowed(self):
        w = preference_vector([1.0, 0.0])
        assert w[1] == 0.0


class TestUtopia:
    def test_default_offset(self):
        np.testing.assert_array_equal(utopia_point(3), np.full(3, 1.05))

    def test_rejects_zeta_at_or_below_one(self):
        with pytest.raises(ConfigError):
            utopia_point(2, zeta=1.0)


class TestReturnNormalizer:
    def test_first_batch_single_episode_maps_to_zero(self):
        norm = ReturnNormalizer(2)
        r = norm.update_and_normalize(np.array([[3.0, -1.0]]))
        # min == max == mean, so the eps'd denominator sends everything to 0.
        np.testing.assert_array_equal(r, [0.0, 0.0])

    def test_extrema_only_widen(self):
        norm = ReturnNormalizer(1)
        norm.update_and_normalize(np.array([[0.0], [10.0]]))
        norm.update_and_normalize(np.array([[4.0], [6.0]]))
        assert norm.low[0] == 0.0 and norm.high[0] == 10.0

    def test_mean_maps_linearly_between_extrema(self):
        norm = ReturnNormalizer(1)
        r = norm.update_and_normalize(np.array([[0.0], [10.0], [5.0]]))
        np.testing.assert_allclose(r, [0.5], rtol=1e-7)

    def test_output_clipped_to_unit_interval(self):
        norm = ReturnNormalizer(1)
        norm.update_and_normalize(np.array([[0.0], [10.0]]))
        r = norm.update_and_normalize(np.array([[10.0], [10.0]]))
        assert 0.0 <= r[0] <= 1.0

    def test_rejects_empty_or_misshaped(self):
        norm = ReturnNormalizer(2)
        with pytest.raises(ContractViolationError):
            norm.update_and_normalize(np.zeros((0, 2)))
        with pytest.raises(ContractViolationError):
            norm.update_and_normalize(np.zeros((3, 3)))

    def test_rejects_one_dimensional_returns(self):
        """One episode is a (1, m) batch; a bare (m,) vector or a scalar is refused."""
        norm = ReturnNormalizer(2)
        for returns in (np.array([3.0, -1.0]), np.float64(3.0)):
            with pytest.raises(ContractViolationError):
                norm.update_and_normalize(returns)
        assert np.all(np.isinf(norm.low)) and np.all(np.isinf(norm.high))

    def test_single_objective_works(self):
        norm = ReturnNormalizer(1)
        r = norm.update_and_normalize(np.array([[1.0], [2.0]]))
        assert r.shape == (1,)


class TestStchValue:
    def test_two_objective_closed_form(self):
        # w = (0.5, 0.5), z* = 1.05, r_bar = (1, 1): both deviations are
        # 0.025, so S = -0.025 - mu ln 2 exactly.
        w = np.array([0.5, 0.5])
        z = utopia_point(2)
        r = np.ones(2)
        mu = 0.05
        expected = -0.025 - mu * np.log(2.0)
        assert stch_scalarize(r, w, z, mu) == pytest.approx(expected, rel=1e-12)

    def test_single_objective_reduces_to_negative_deviation(self):
        w = np.array([1.0])
        z = utopia_point(1)
        r = np.array([0.3])
        assert stch_scalarize(r, w, z, 0.05) == pytest.approx(-(1.05 - 0.3), rel=1e-12)

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ConfigError):
            stch_attention(np.ones(2), np.full(2, 0.5), utopia_point(2), 0.0)

    def test_tiny_mu_stays_finite(self):
        w = np.array([0.9, 0.1])
        val = stch_scalarize(np.array([0.2, 0.8]), w, utopia_point(2), 1e-8)
        assert np.isfinite(val)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolationError):
            stch_attention(np.ones(3), np.full(2, 0.5), utopia_point(2), 0.1)

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5),
        st.floats(0.01, 10.0),
    )
    def test_sandwich_bound(self, r_list, mu):
        """0 <= (-S) - max_i y_i <= mu ln m for any normalized returns."""
        r = np.array(r_list)
        m = r.size
        w = np.full(m, 1.0 / m)
        z = utopia_point(m)
        y_max = float(np.max(w * (z - r)))
        neg_s = -stch_scalarize(r, w, z, mu)
        assert neg_s - y_max >= -1e-12
        assert neg_s - y_max <= mu * np.log(m) + 1e-12


class TestAttention:
    def test_sums_to_one_and_positive(self):
        d = stch_attention(np.array([0.1, 0.9, 0.5]), np.full(3, 1 / 3), utopia_point(3), 0.2)
        assert d.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(d > 0)

    def test_two_point_softmax_closed_form(self):
        # Deviation gap of 0.1 at mu = 0.05 gives logits (2, 0) after the
        # 1/mu scale, and sigmoid(2) = 0.880797.
        w = np.array([1.0, 1.0]) / 2
        r = np.array([0.8, 1.0])
        d = stch_attention(r, w, np.full(2, 1.05), 0.05)
        assert d[0] == pytest.approx(1.0 / (1.0 + np.exp(-2.0)), rel=1e-9)

    def test_large_mu_approaches_uniform(self):
        d = stch_attention(np.array([0.0, 1.0]), np.full(2, 0.5), utopia_point(2), 1000.0)
        np.testing.assert_allclose(d, [0.5, 0.5], atol=1e-3)

    def test_small_mu_concentrates_on_worst(self):
        d = stch_attention(np.array([0.0, 1.0]), np.full(2, 0.5), utopia_point(2), 0.005)
        assert d[0] > 0.999999

    def test_rows_match_one_row_at_a_time(self):
        rng = np.random.default_rng(11)
        R = rng.uniform(0.0, 1.0, size=(4, 5, 3))
        W = rng.dirichlet(np.ones(3), size=(4, 5))
        z = utopia_point(3)
        D = stch_attention(R, W, z, 0.05)
        assert D.shape == (4, 5, 3)
        for idx in np.ndindex(4, 5):
            np.testing.assert_array_equal(D[idx], stch_attention(R[idx], W[idx], z, 0.05))
        np.testing.assert_allclose(D.sum(axis=-1), 1.0, rtol=1e-12)

    @pytest.mark.parametrize(
        "r_shape, w_shape",
        [((4, 3), (4, 2)), ((4, 2), (3, 2)), ((), (2,))],
    )
    def test_row_shape_mismatch_rejected(self, r_shape, w_shape):
        with pytest.raises(ContractViolationError):
            stch_attention(np.ones(r_shape), np.full(w_shape, 0.5), utopia_point(2), 0.1)

    def test_gradient_matches_finite_difference_of_value(self):
        w = np.array([0.6, 0.4])
        z = utopia_point(2)
        mu = 0.07
        r = np.array([0.25, 0.75])
        h = 1e-7
        for i in range(2):
            up, dn = r.copy(), r.copy()
            up[i] += h
            dn[i] -= h
            num = (stch_scalarize(up, w, z, mu) - stch_scalarize(dn, w, z, mu)) / (2 * h)
            assert (w * stch_attention(r, w, z, mu))[i] == pytest.approx(num, rel=1e-6)


class TestHardTch:
    def test_picks_largest_weighted_deviation(self):
        w = np.array([0.2, 0.8])
        r = np.array([0.0, 0.9])  # deviations 0.21 vs 0.12
        j, y = tch_worst_index(r, w, utopia_point(2))
        assert j == 0
        np.testing.assert_allclose(y, [0.21, 0.12], rtol=1e-12)

    def test_picks_per_row(self):
        r = np.array([[0.0, 0.9], [0.9, 0.0], [0.5, 0.5]])
        j, y = tch_worst_index(r, np.array([0.2, 0.8]), utopia_point(2))
        np.testing.assert_array_equal(j, [0, 1, 1])
        assert y.shape == (3, 2)

    def test_tie_goes_to_lowest_index(self):
        j, _ = tch_worst_index(np.array([0.5, 0.5]), np.full(2, 0.5), utopia_point(2))
        assert j == 0


class TestMaintenanceMix:
    def test_uniform_floor(self):
        eta = maintenance_mix(np.array([1.0, 0.0, 0.0]), rho=0.15)
        np.testing.assert_allclose(eta, [0.9, 0.05, 0.05], rtol=1e-12)
        assert np.all(eta >= 0.15 / 3 - 1e-15)

    def test_preserves_simplex(self):
        eta = maintenance_mix(np.array([0.7, 0.2, 0.1]), rho=0.3)
        assert eta.sum() == pytest.approx(1.0, rel=1e-12)

    def test_rejects_rho_outside_open_interval(self):
        for rho in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                maintenance_mix(np.full(2, 0.5), rho)

    @given(st.lists(st.floats(0, 1), min_size=2, max_size=6), st.floats(0.01, 0.99))
    def test_floor_property(self, d_list, rho):
        d = np.array(d_list)
        if d.sum() == 0:
            return
        d = d / d.sum()
        eta = maintenance_mix(d, rho)
        assert np.all(eta >= rho / d.size - 1e-12)
        assert eta.sum() == pytest.approx(1.0, rel=1e-9)

    def test_batch_rows_match_one_row_at_a_time(self):
        np.testing.assert_allclose(maintenance_mix(np.full((2, 3), 1 / 3), 0.15).sum(axis=-1), 1.0, rtol=1e-12)
        D = np.random.default_rng(4).dirichlet(np.ones(3), size=(5, 2))
        E = maintenance_mix(D, 0.3)
        for idx in np.ndindex(5, 2):
            np.testing.assert_array_equal(E[idx], maintenance_mix(D[idx], 0.3))
        np.testing.assert_allclose(E.sum(axis=-1), 1.0, rtol=1e-12)


def trainer_combine(m: int, weighted_pcgrad: bool):
    """The combine that a Trainer with m objectives passes to actor_coefficients."""
    env = {2: "stub", 3: "frogger", 4: "formation"}[m]
    w = np.full(m, 1.0 / m)
    w[-1] = 1.0 - w[:-1].sum()
    cfg = TrainConfig(env_name=env, preference=tuple(w), hidden=4, weighted_pcgrad=weighted_pcgrad)
    return Trainer(cfg)._combine


class TestActorCoefficients:
    def test_linear_is_w(self):
        w = np.array([0.2, 0.8])
        c = actor_coefficients("linear", np.array([0.0, 0.9]), w, utopia_point(2), 0.0, None)
        np.testing.assert_array_equal(c, w)

    def test_tch_is_the_weight_of_the_worst_objective(self):
        # Deviations 0.21 vs 0.12: objective 0 is the worst.
        c = actor_coefficients("tch", np.array([0.0, 0.9]), np.array([0.2, 0.8]), utopia_point(2), 0.0, None)
        np.testing.assert_array_equal(c, [0.2, 0.0])

    def test_tch_tie_goes_to_lowest_index(self):
        c = actor_coefficients("tch", np.array([0.5, 0.5]), np.full(2, 0.5), utopia_point(2), 0.0, None)
        np.testing.assert_array_equal(c, [0.5, 0.0])

    def test_stch_combines_the_attention(self):
        r, w, z = np.array([0.1, 0.9, 0.5]), np.array([0.2, 0.3, 0.5]), utopia_point(3)
        c = actor_coefficients("stch", r, w, z, 0.2, np.multiply)
        np.testing.assert_array_equal(c, w * stch_attention(r, w, z, 0.2))

    @pytest.mark.parametrize("w", [(0.2, 0.8), (0.5, 0.5), (0.1, 0.6, 0.3), (0.4, 0.1, 0.2, 0.3)])
    def test_large_mu_normalized_gradient_tends_to_linear(self, w):
        w = np.array(w)
        r = np.linspace(0.0, 1.0, w.size)
        z = utopia_point(w.size)
        c = actor_coefficients("stch", r, w, z, 1e6, np.multiply)
        np.testing.assert_allclose(c / c.sum(), actor_coefficients("linear", r, w, z, 0.0, None), atol=1e-6)

    @pytest.mark.parametrize(
        "r, w",
        [((0.0, 0.9), (0.2, 0.8)), ((0.9, 0.0), (0.2, 0.8)), ((0.3, 0.2, 0.8), (0.1, 0.6, 0.3))],
    )
    def test_small_mu_gradient_tends_to_tch(self, r, w):
        r, w = np.array(r), np.array(w)
        z = utopia_point(w.size)
        c = actor_coefficients("stch", r, w, z, 1e-4, np.multiply)
        np.testing.assert_allclose(c, actor_coefficients("tch", r, w, z, 0.0, None), atol=1e-12)

    @pytest.mark.parametrize("rule", SCALARIZERS)
    def test_rows_match_one_row_at_a_time(self, rule):
        rng = np.random.default_rng(12)
        R = rng.uniform(0.0, 1.0, size=(4, 5, 3))
        W = rng.dirichlet(np.ones(3), size=(4, 5))
        z = utopia_point(3)
        C = actor_coefficients(rule, R, W, z, 0.05, np.multiply)
        assert C.shape == (4, 5, 3)
        for idx in np.ndindex(4, 5):
            np.testing.assert_array_equal(C[idx], actor_coefficients(rule, R[idx], W[idx], z, 0.05, np.multiply))

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError):
            actor_coefficients("mean", np.ones(2), np.full(2, 0.5), utopia_point(2), 0.1, np.multiply)

    def test_every_algorithm_name_has_exactly_one_table_row(self):
        names = next(f for f in KNOBS if f.name == "algorithm").metadata["valid"]
        assert len(set(names)) == len(names)
        assert sorted(names) == sorted(ALGORITHMS)
        for row in ALGORITHMS.values():
            assert row.mu in ("controller", "fixed_mu", None)
            assert row.rule in SCALARIZERS
            assert row.clip in ("objective", "scalarized")
            assert row.projects in (False, True)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_all_ones_combine_is_the_plain_sum(self, m):
        rng = np.random.default_rng(m)
        r, w = rng.uniform(size=m), rng.dirichlet(np.ones(m))
        c = actor_coefficients("stch", r, w, utopia_point(m), 0.3, trainer_combine(m, False))
        np.testing.assert_array_equal(c, np.ones(m))
        g = rng.normal(size=(m, 500))
        np.testing.assert_array_equal((c[:, None] * g).sum(axis=0), g.sum(axis=0))

    def test_weighted_combine_scales_by_m_eta(self):
        # delta = (1, 0) at rho = 0.15 mixes to eta = (0.925, 0.075).
        c = trainer_combine(2, True)(np.array([1.0, 0.0]), np.full(2, 0.5))
        np.testing.assert_allclose(c, [1.85, 0.15], rtol=1e-14)
        np.testing.assert_allclose((c[:, None] * np.eye(2)).sum(axis=0), [1.85, 0.15], rtol=1e-14)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_weighted_combine_is_the_m_eta_sum_bit_for_bit(self, m):
        rng = np.random.default_rng(m)
        r, w, z = rng.uniform(size=m), rng.dirichlet(np.ones(m)), utopia_point(m)
        c = actor_coefficients("stch", r, w, z, 0.3, trainer_combine(m, True))
        eta = maintenance_mix(stch_attention(r, w, z, 0.3), 0.15)
        g = rng.normal(size=(m, 500))
        np.testing.assert_array_equal((c[:, None] * g).sum(axis=0), (m * eta[:, None] * g).sum(axis=0))

    def test_uniform_eta_reproduces_the_sum(self):
        g = np.random.default_rng(1).normal(size=(3, 7))
        c = trainer_combine(3, True)(np.full(3, 1 / 3), np.full(3, 1 / 3))
        np.testing.assert_allclose((c[:, None] * g).sum(axis=0), g.sum(axis=0), rtol=1e-12)
