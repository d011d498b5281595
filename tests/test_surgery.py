import itertools

import numpy as np
import pytest

from pastarl.config import TrainConfig
from pastarl.errors import ContractViolationError
from pastarl.surgery import ProjectionResult, conflict_ratio, project_conflicts


class TestProjectConflicts:
    def test_two_gradient_worked_example(self, rng):
        # g0 = (1, 0) vs g1 = (-1, 1): dot -1.  g0 loses its component along
        # g1: g0 - (-1/2)(-1, 1) = (0.5, 0.5).  g1 loses its component along
        # the ORIGINAL g0: g1 - (-1/1)(1, 0) = (0, 1).
        g = np.array([[1.0, 0.0], [-1.0, 1.0]])
        res = project_conflicts(g, rng)
        np.testing.assert_allclose(res.grads[0], [0.5, 0.5], rtol=1e-14)
        np.testing.assert_allclose(res.grads[1], [0.0, 1.0], rtol=1e-14)
        assert res.pairs_examined == 2
        assert res.conflicts_found == 2
        assert res.kappa == 1.0

    def test_antiparallel_pair_annihilates(self, rng):
        g = np.array([[2.0, 0.0], [-1.0, 0.0]])
        res = project_conflicts(g, rng)
        np.testing.assert_allclose(res.grads, np.zeros((2, 2)), atol=1e-15)
        assert res.kappa == 1.0

    def test_agreeing_gradients_untouched(self, rng):
        g = np.array([[1.0, 0.5], [0.5, 1.0], [0.2, 0.2]])
        res = project_conflicts(g, rng)
        np.testing.assert_array_equal(res.grads, g)
        assert res.conflicts_found == 0
        assert res.kappa == 0.0

    def test_orthogonal_gradients_untouched(self, rng):
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        res = project_conflicts(g, rng)
        np.testing.assert_array_equal(res.grads, g)
        assert res.kappa == 0.0

    def test_each_applied_projection_clears_its_conflict(self):
        """Mirror the algorithm with the same rng: immediately after every
        applied projection the dot with that original gradient is ~0, the
        norm never grows, and the final state matches the package output."""
        data_rng = np.random.default_rng(11)
        for seed in range(100):
            m = int(data_rng.integers(2, 6))
            g = data_rng.normal(size=(m, 12))
            res = project_conflicts(g, np.random.default_rng(seed))

            mirror_rng = np.random.default_rng(seed)
            work = g.copy()
            conflicts = 0
            for i in range(m):
                others = np.delete(np.arange(m), i)
                for j in mirror_rng.permutation(others):
                    dot = work[i] @ g[j]
                    if dot < 0.0:
                        conflicts += 1
                        norm_before = np.linalg.norm(work[i])
                        work[i] = work[i] - (dot / (g[j] @ g[j])) * g[j]
                        assert work[i] @ g[j] >= -1e-9
                        assert np.linalg.norm(work[i]) <= norm_before + 1e-12
            # The package accumulates norms with einsum; tolerate ULP drift.
            np.testing.assert_allclose(res.grads, work, rtol=1e-10, atol=1e-12)
            assert res.conflicts_found == conflicts

    def test_two_gradients_end_state_dots_nonnegative(self):
        # With m = 2 there is no later projection to reintroduce conflict,
        # so the end-state pairwise dots are nonnegative.
        rng = np.random.default_rng(7)
        for _ in range(200):
            g = rng.normal(size=(2, 10))
            res = project_conflicts(g, rng)
            assert res.grads[0] @ g[1] >= -1e-9
            assert res.grads[1] @ g[0] >= -1e-9

    def test_zero_norm_gradient_is_skipped_not_nan(self, rng):
        g = np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
        res = project_conflicts(g, rng)
        assert np.all(np.isfinite(res.grads))
        np.testing.assert_array_equal(res.grads[1], [0.0, 0.0])

    def test_same_seed_is_deterministic(self):
        g = np.random.default_rng(5).normal(size=(4, 20))
        a = project_conflicts(g, np.random.default_rng(9))
        b = project_conflicts(g, np.random.default_rng(9))
        np.testing.assert_array_equal(a.grads, b.grads)
        assert a.conflicts_found == b.conflicts_found

    def test_originals_not_mutated(self, rng):
        g = np.array([[1.0, 0.0], [-1.0, 1.0]])
        keep = g.copy()
        project_conflicts(g, rng)
        np.testing.assert_array_equal(g, keep)

    def test_single_gradient_passthrough(self, rng):
        g = np.array([[3.0, -2.0]])
        res = project_conflicts(g, rng)
        np.testing.assert_array_equal(res.grads, g)
        assert res.pairs_examined == 0
        assert res.kappa == 0.0

    def test_rejects_non_matrix(self, rng):
        with pytest.raises(ContractViolationError):
            project_conflicts(np.zeros(3), rng)


class TestConflictRatio:
    def test_counts_ordered_pairs(self):
        # g0.g1 < 0, g0.g2 > 0, g1.g2 < 0 -> 4 of 6 ordered pairs conflict.
        g = np.array([[1.0, 0.0], [-1.0, 0.1], [1.0, 1.0]])
        assert conflict_ratio(g) == pytest.approx(4.0 / 6.0)

    def test_no_conflict_is_zero(self):
        assert conflict_ratio(np.array([[1.0, 0.0], [1.0, 1.0]])) == 0.0

    def test_single_gradient_is_zero(self):
        assert conflict_ratio(np.array([[1.0, 2.0]])) == 0.0

    def test_matches_projection_count_on_first_conflict_detection(self):
        # With two gradients there is no sequential interaction, so the raw
        # ratio and the projection count agree exactly.
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = rng.normal(size=(2, 8))
            res = project_conflicts(g, rng)
            assert res.kappa == pytest.approx(conflict_ratio(g))


    def test_identical_rows_are_zero_and_opposite_rows_one(self, rng):
        g = rng.standard_normal(8)
        assert conflict_ratio(np.stack([g, g, g])) == 0.0
        assert conflict_ratio(np.stack([g, -g])) == 1.0

    @pytest.mark.parametrize("P", [2, 8, 256])
    def test_noise_in_closed_form_over_sign_flips(self, P):
        """Isotropic Gaussian rows are as likely as each of their 8 sign
        flips.  Flipping a row flips the signs of its two pairs, so over the
        flips of any draw the three pair indicators are pairwise independent
        fair coins: with m = 3, kappa is a multiple of 1/3 with mean 1/2 and
        variance 3 * (1/4) / 9 = 1/12, exactly, at any P."""
        rng = np.random.default_rng(P)
        for _ in range(20):
            g = rng.standard_normal((3, P))
            kappas = np.array([
                conflict_ratio(np.array(signs)[:, None] * g)
                for signs in itertools.product((1.0, -1.0), repeat=3)
            ])
            np.testing.assert_array_equal(kappas * 3, np.round(kappas * 3))
            assert kappas.mean() == pytest.approx(0.5, abs=1e-15)
            assert kappas.std() == pytest.approx(np.sqrt(1 / 12), abs=1e-15)

    def test_noise_alone_averages_above_the_braking_threshold(self):
        """4 000 draws of three isotropic Gaussian rows at P = 2, 8 and 256:
        kappa's mean is 1/2 and its standard deviation sqrt(1/12) ~ 0.289,
        so minibatch noise alone reads above the default tau = 0.4."""
        rng = np.random.default_rng(22)
        n = 4000
        for P in (2, 8, 256):
            kappas = np.array([conflict_ratio(rng.standard_normal((3, P))) for _ in range(n)])
            assert abs(kappas.mean() - 0.5) < 4 * np.sqrt(1 / 12 / n)
            assert abs(kappas.std() - np.sqrt(1 / 12)) < 0.015
            assert kappas.mean() > TrainConfig().tau


class TestProjectionResult:
    def test_kappa_zero_when_no_pairs(self):
        assert ProjectionResult(np.zeros((1, 2)), 0, 0).kappa == 0.0
