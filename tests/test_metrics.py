import itertools

import numpy as np
import pytest

from pastarl.errors import ContractViolationError
from pastarl.metrics import hypervolume
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
