import itertools

import numpy as np
import pytest

from pastarl.errors import ContractViolationError
from pastarl.metrics import (
    dolan_more_auc,
    dolan_more_profile,
    hypervolume,
    normalize_points,
    objective_dominance_rate,
    win_rate,
)
from tests.oracles import pareto_filter


def inclusion_exclusion_hv(points):
    """Independent oracle: |union of boxes| by inclusion-exclusion.

    Exact for any point count, exponential in it; used for small sets.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = pts.shape[0]
    total = 0.0
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            inter = np.prod(np.min(pts[list(combo)], axis=0))
            total += (-1) ** (k + 1) * inter
    return total


def mc_hypervolume(points, n_samples, rng):
    pts = np.atleast_2d(points)
    samples = rng.random((n_samples, pts.shape[1]))
    covered = np.zeros(n_samples, dtype=bool)
    for p in pts:
        covered |= np.all(samples <= p, axis=1)
    return covered.mean()


class TestHypervolume:
    def test_unit_corner_fills_box(self):
        for m in (1, 2, 3, 4):
            assert hypervolume(np.ones((1, m))) == pytest.approx(1.0, abs=1e-15)

    def test_single_point_is_coordinate_product(self):
        assert hypervolume([[0.5, 0.5]]) == pytest.approx(0.25, rel=1e-15)
        assert hypervolume([[0.2, 0.9, 0.5]]) == pytest.approx(0.09, rel=1e-12)

    def test_two_point_staircase(self):
        # Classic: {(1, 0.5), (0.5, 1)} covers 0.75 of the unit square.
        assert hypervolume([[1.0, 0.5], [0.5, 1.0]]) == pytest.approx(0.75, rel=1e-15)

    def test_dominated_point_adds_nothing(self):
        base = hypervolume([[0.8, 0.8]])
        assert hypervolume([[0.8, 0.8], [0.5, 0.5]]) == pytest.approx(base, rel=1e-15)

    def test_duplicates_add_nothing(self):
        assert hypervolume([[0.6, 0.7], [0.6, 0.7]]) == pytest.approx(0.42, rel=1e-12)

    def test_one_dimensional_is_max(self):
        assert hypervolume([[0.3], [0.9], [0.5]]) == pytest.approx(0.9)

    def test_empty_set_zero(self):
        assert hypervolume(np.zeros((0, 3))) == 0.0

    def test_matches_inclusion_exclusion_small_sets(self):
        rng = np.random.default_rng(1)
        for m in (2, 3, 4):
            for n in (1, 2, 3):
                for _ in range(60):
                    pts = rng.random((n, m))
                    assert hypervolume(pts) == pytest.approx(
                        inclusion_exclusion_hv(pts), abs=1e-12
                    )

    def test_matches_monte_carlo_m3(self):
        rng = np.random.default_rng(2)
        pts = rng.random((10, 3))
        hv = hypervolume(pts)
        n = 200_000
        est = mc_hypervolume(pts, n, np.random.default_rng(3))
        se = np.sqrt(est * (1 - est) / n)
        assert abs(hv - est) <= 4 * se

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(4)
        pts = rng.random((6, 3))
        base = hypervolume(pts)
        for perm in itertools.permutations(range(3)):
            assert hypervolume(pts[:, list(perm)]) == pytest.approx(base, rel=1e-12)

    def test_scaling_consistency_2d(self):
        rng = np.random.default_rng(5)
        pts = rng.random((5, 2))
        c = 0.6
        assert hypervolume(c * pts) == pytest.approx(c * c * hypervolume(pts), rel=1e-12)

    def test_filter_before_hv_changes_nothing(self):
        rng = np.random.default_rng(6)
        pts = rng.random((12, 3))
        assert hypervolume(pareto_filter(pts)) == pytest.approx(hypervolume(pts), rel=1e-12)

    def test_out_of_box_rejected_but_eps_tolerated(self):
        with pytest.raises(ContractViolationError):
            hypervolume([[1.2, 0.5]])
        with pytest.raises(ContractViolationError):
            hypervolume([[-0.1, 0.5]])
        assert hypervolume([[1.0 + 1e-13, 0.5]]) == pytest.approx(0.5, rel=1e-9)


class TestParetoFilter:
    def test_removes_strictly_dominated(self):
        pts = np.array([[1.0, 0.2], [0.5, 0.1], [0.2, 1.0]])
        kept = pareto_filter(pts)
        np.testing.assert_array_equal(kept, [[1.0, 0.2], [0.2, 1.0]])

    def test_keeps_incomparable_and_duplicates(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert pareto_filter(pts).shape == (2, 2)

    def test_weakly_dominated_is_removed(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.6]])
        np.testing.assert_array_equal(pareto_filter(pts), [[0.5, 0.6]])


class TestNormalizePoints:
    def test_shared_bounds_across_groups(self):
        groups = {"a": np.array([[0.0, 0.0], [10.0, 5.0]]), "b": np.array([[5.0, 5.0]])}
        out = normalize_points(groups)
        np.testing.assert_allclose(out["b"], [[0.5, 1.0]], rtol=1e-6)
        np.testing.assert_allclose(out["a"][1], [1.0, 1.0], rtol=1e-6)

    def test_degenerate_objective_maps_to_zero(self):
        out = normalize_points({"a": np.array([[3.0, 1.0], [3.0, 2.0]])})
        np.testing.assert_array_equal(out["a"][:, 0], [0.0, 0.0])

    def test_output_always_in_unit_box(self):
        rng = np.random.default_rng(0)
        groups = {k: rng.normal(size=(7, 3)) * 10 for k in "abc"}
        for pts in normalize_points(groups).values():
            assert np.all(pts >= 0.0) and np.all(pts <= 1.0)


class TestWinRate:
    def test_hand_fixture_with_tie(self):
        hv = np.array(
            [
                [1.0, 0.5, 0.3],
                [1.0, 0.7, 0.1],
            ]
        )
        # Column 0 ties -> both win it; columns 1, 2 split.
        np.testing.assert_allclose(win_rate(hv), [2 / 3, 2 / 3])

    def test_strict_winner_takes_all(self):
        hv = np.array([[0.9, 0.9], [0.1, 0.2]])
        np.testing.assert_array_equal(win_rate(hv), [1.0, 0.0])

    def test_tie_tolerance_is_tight(self):
        hv = np.array([[1.0, 1.0], [1.0 - 1e-13, 1.0 - 1e-6]])
        np.testing.assert_array_equal(win_rate(hv), [1.0, 0.5])


class TestObjectiveDominance:
    def test_counts_cells_across_preferences_and_objectives(self):
        # 2 methods x 2 preferences x 3 objectives = 6 cells per method.
        vals = np.array(
            [
                [[1.0, 0.0, 5.0], [2.0, 2.0, 0.0]],
                [[0.5, 1.0, 5.0], [3.0, 1.0, 1.0]],
            ]
        )
        # Cellwise maxes are [1.0, 1.0, 5.0] and [3.0, 2.0, 1.0]; ties count
        # for every method that attains them.
        # Method 0 hits: 1.0==1.0, 0.0<1.0, 5.0==5.0, 2.0<3.0, 2.0==2.0, 0.0<1.0 -> 3
        # Method 1 hits: 0.5<1.0, 1.0==1.0, 5.0==5.0, 3.0==3.0, 1.0<2.0, 1.0==1.0 -> 4
        np.testing.assert_allclose(objective_dominance_rate(vals), [3 / 6, 4 / 6])

    def test_tie_tolerance(self):
        vals = np.array([[[1.0]], [[1.0 - 1e-10]], [[1.0 - 1e-6]]])
        np.testing.assert_array_equal(objective_dominance_rate(vals), [1.0, 1.0, 0.0])


class TestDolanMore:
    def test_ratios_and_grid(self):
        hv = np.array([[1.0, 0.5], [0.8, 0.8]])
        ratios, grid = dolan_more_profile(hv)
        np.testing.assert_allclose(ratios, [[1.0, 2.0], [1.0, 1.0]])
        np.testing.assert_array_equal(grid, [1.0, 2.0])

    def test_zero_hv_maps_to_infinity(self):
        ratios, _ = dolan_more_profile(np.array([[1.0, 0.0]]))
        assert ratios[0, 1] == np.inf

    def test_two_method_closed_form_auc(self):
        # Single instance, one method twice as good: theta_max = 2.
        # Winner's profile is 1 everywhere -> AUC 1.  Loser's profile steps
        # 0 -> 1 at theta = 2; trapezoid gives 0.5.
        auc = dolan_more_auc(np.array([[1.0, 0.5]]))
        np.testing.assert_allclose(auc, [1.0, 0.5])

    def test_multi_instance_hand_computation(self):
        hv = np.array([[1.0, 0.5], [0.8, 0.8]])
        # ratios: A -> [1, 1], B -> [2, 1]; grid [1, 2].
        # rho_A = [1, 1] -> AUC 1.  rho_B = [0.5, 1] -> trapezoid 0.75.
        auc = dolan_more_auc(hv)
        np.testing.assert_allclose(auc, [1.0, 0.75])

    def test_degenerate_all_tied(self):
        auc = dolan_more_auc(np.array([[0.7, 0.7], [0.5, 0.5]]))
        np.testing.assert_array_equal(auc, [1.0, 1.0])

    def test_all_zero_column_scores_zero(self):
        auc = dolan_more_auc(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert auc[1] == 0.0
        assert auc[0] == 1.0

    def test_profile_is_distribution_function(self):
        rng = np.random.default_rng(7)
        hv = rng.uniform(0.1, 1.0, size=(20, 4))
        ratios, grid = dolan_more_profile(hv)
        for b in range(4):
            rho = np.array([(ratios[:, b] <= th).mean() for th in grid])
            assert np.all(np.diff(rho) >= 0)
            assert rho[-1] == pytest.approx(1.0)
