import numpy as np
import pytest

from pastarl.errors import ConfigError, ContractViolationError
from pastarl.scalarize import SCALARIZERS
from pastarl.toybench import (
    concave_mop,
    convex_mop,
    front_endpoints,
    linear_oracle_point,
    nearest_endpoint,
    pareto_grid_oracle,
    solve_scalarized,
    stch_oracle_point,
    tch_oracle_point,
)
from tests.oracles import solve_one_preference


def assert_grad_matches_fd(mop, x, rtol=1e-6):
    x = np.asarray(x, dtype=np.float64)
    g = mop.grad(x)
    h = 1e-6
    for d in range(mop.n):
        up, dn = x.copy(), x.copy()
        up[d] += h
        dn[d] -= h
        num = (mop.f(up) - mop.f(dn)) / (2 * h)
        np.testing.assert_allclose(g[:, d], num, rtol=rtol, atol=1e-8)


class TestConvexMop:
    def test_objective_values(self):
        mop = convex_mop()
        np.testing.assert_allclose(mop.f(np.array([0.5])), [0.25, 0.25], rtol=1e-15)
        np.testing.assert_allclose(mop.f(np.array([[0.0], [1.0]])), [[0.0, 1.0], [1.0, 0.0]])

    def test_gradient_matches_finite_differences(self):
        mop = convex_mop()
        for x in ([-0.5], [0.3], [1.7]):
            assert_grad_matches_fd(mop, np.array(x))

    def test_linear_balanced_weight_finds_half(self):
        # min 0.5 x^2 + 0.5 (x-1)^2 has the closed-form solution x = 0.5.
        mop = convex_mop()
        x, f = solve_scalarized(mop, "linear", np.array([0.5, 0.5]), np.array([1.9]))
        assert x[0] == pytest.approx(0.5, abs=1e-6)
        np.testing.assert_allclose(f, [0.25, 0.25], atol=1e-5)

    def test_linear_skewed_weight_closed_form(self):
        # min w0 x^2 + w1 (x-1)^2 -> x* = w1 / (w0 + w1) = w1.
        mop = convex_mop()
        w = np.array([0.8, 0.2])
        x, _ = solve_scalarized(mop, "linear", w, np.array([-0.9]))
        assert x[0] == pytest.approx(0.2, abs=1e-6)

    def test_tch_balanced_weight_bisection_oracle(self):
        # Balanced hard TCH equalizes the two weighted deviations; solve
        # x^2 = (x-1)^2 by bisection on their difference for the oracle.
        mop = convex_mop()
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid**2 - (mid - 1.0) ** 2 < 0.0:
                lo = mid
            else:
                hi = mid
        x_star = 0.5 * (lo + hi)
        x, _ = solve_scalarized(mop, "tch", np.array([0.5, 0.5]), np.array([1.8]), steps=4000, lr=0.01)
        assert x[0] == pytest.approx(x_star, abs=1e-2)

    def test_stch_tracks_tch_at_small_mu(self):
        mop = convex_mop()
        w = np.array([0.5, 0.5])
        x, _ = solve_scalarized(mop, "stch", w, np.array([1.8]), mu=0.01)
        assert x[0] == pytest.approx(0.5, abs=1e-3)


class TestConcaveMop:
    def test_anchor_values(self):
        mop = concave_mop(spread=1.7)
        f0 = mop.f(np.zeros(2))
        assert f0[0] == pytest.approx(0.0, abs=1e-15)
        assert f0[1] == pytest.approx(1.0 - np.exp(-2 * 1.7**2), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        mop = concave_mop()
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert_grad_matches_fd(mop, rng.uniform(mop.lo, mop.hi))

    def test_front_bulges_above_chord(self):
        """Concavity in the minimization sense: midpoints of the front lie
        above the line joining the endpoints, so a weighted sum prefers the
        endpoints."""
        front, _ = pareto_grid_oracle(concave_mop(spread=1.7), resolution=200)
        ends = front_endpoints(front)
        mid = front[np.argmin(np.abs(front[:, 0] - front[:, 1]))]
        # Chord at f0 = mid[0]: linear interpolation between endpoints.
        t = (mid[0] - ends[0][0]) / (ends[1][0] - ends[0][0])
        chord_f1 = ends[0][1] + t * (ends[1][1] - ends[0][1])
        assert mid[1] > chord_f1 + 0.1


class TestGridOracle:
    def test_front_is_mutually_nondominated(self):
        front, _ = pareto_grid_oracle(concave_mop(), resolution=60)
        for i in range(front.shape[0]):
            dominated = np.all(front <= front[i], axis=1) & np.any(front < front[i], axis=1)
            assert not np.any(dominated)

    def test_front_dominates_random_grid_points(self):
        mop = concave_mop()
        front, _ = pareto_grid_oracle(mop, resolution=60)
        rng = np.random.default_rng(1)
        xs = rng.uniform(mop.lo, mop.hi, size=(200, 2))
        objs = mop.f(xs)
        for o in objs:
            # No grid-front point is strictly dominated by a random point.
            assert not np.any(np.all(front >= o + 1e-9, axis=1))

    def test_refinement_moves_front_closer_to_ideal(self):
        mop = concave_mop()
        coarse, _ = pareto_grid_oracle(mop, resolution=40)
        fine, _ = pareto_grid_oracle(mop, resolution=160)
        w = np.array([0.5, 0.5])
        coarse_best = np.min(np.max(w * (coarse + 0.05), axis=1))
        fine_best = np.min(np.max(w * (fine + 0.05), axis=1))
        assert fine_best <= coarse_best + 1e-12

    def test_convex_front_matches_analytic_set(self):
        # For the convex problem the Pareto set is x in [0, 1]; check the
        # oracle's decision points stay inside it.
        front, xs = pareto_grid_oracle(convex_mop(), resolution=301)
        assert np.all(xs[:, 0] >= -1e-9) and np.all(xs[:, 0] <= 1.0 + 1e-9)
        assert front.shape[0] > 50


class TestOraclePoints:
    def test_tch_oracle_minimizes_weighted_max(self):
        front = np.array([[0.0, 1.0], [0.4, 0.4], [1.0, 0.0]])
        w = np.array([0.5, 0.5])
        np.testing.assert_array_equal(tch_oracle_point(front, w), [0.4, 0.4])

    def test_stch_oracle_equals_tch_at_balanced_weight_symmetric_front(self):
        front = np.array([[0.0, 1.0], [0.4, 0.4], [1.0, 0.0]])
        w = np.array([0.5, 0.5])
        np.testing.assert_array_equal(
            stch_oracle_point(front, w, mu=0.05), tch_oracle_point(front, w)
        )

    def test_linear_oracle_minimizes_weighted_sum(self):
        front = np.array([[0.0, 1.0], [0.4, 0.4], [1.0, 0.0]])
        np.testing.assert_array_equal(linear_oracle_point(front, np.array([0.5, 0.5])), [0.4, 0.4])
        np.testing.assert_array_equal(linear_oracle_point(front, np.array([0.9, 0.1])), [0.0, 1.0])

    def test_endpoints_pick_extremes(self):
        front = np.array([[0.0, 1.0], [0.4, 0.4], [1.0, 0.0]])
        ends = front_endpoints(front)
        np.testing.assert_array_equal(ends[0], [0.0, 1.0])
        np.testing.assert_array_equal(ends[1], [1.0, 0.0])


class TestEndpointAttraction:
    def test_linear_lands_on_endpoints_stch_spreads(self):
        """The headline contrast: on the concave front, linear scalarization
        collapses to endpoints for interior weights while small-mu STCH lands
        near the weight-matched interior oracle point."""
        mop = concave_mop(spread=1.7)
        front, _ = pareto_grid_oracle(mop, resolution=600)
        ts = np.linspace(0.25, 0.75, 9)
        W = np.stack([ts, 1.0 - ts], axis=-1)
        X0 = np.random.default_rng(3).uniform(mop.lo, mop.hi, size=(len(ts), 2))
        _, f_lin = solve_scalarized(mop, "linear", W, X0)
        _, f_stch = solve_scalarized(mop, "stch", W, X0, mu=0.05)
        d_end = np.linalg.norm(f_lin - nearest_endpoint(front, f_lin), axis=-1)
        assert np.all(d_end < 1e-2)
        oracle = stch_oracle_point(front, W, mu=0.05)
        interior_hits = int(np.sum(np.linalg.norm(f_stch - oracle, axis=-1) < 1e-2))
        assert interior_hits >= 8

    def test_stch_balanced_weight_hits_front_middle(self):
        mop = concave_mop(spread=1.7)
        front, _ = pareto_grid_oracle(mop, resolution=600)
        w = np.array([0.5, 0.5])
        _, f = solve_scalarized(mop, "stch", w, np.array([0.3, 1.2]), mu=0.05)
        oracle = tch_oracle_point(front, w)
        assert np.linalg.norm(f - oracle) < 1e-2
        # The balanced interior point is far from both endpoints.
        for e in front_endpoints(front):
            assert np.linalg.norm(f - e) > 0.3


class TestPreferenceAxis:
    """One call solves a whole batch of preferences, bit for bit the same as
    solving each preference on its own."""

    @pytest.mark.parametrize("make", [convex_mop, concave_mop])
    def test_grad_keeps_leading_axes(self, make):
        mop = make()
        X = np.random.default_rng(5).uniform(mop.lo, mop.hi, size=(2, 3, mop.n))
        G = mop.grad(X)
        assert G.shape == (2, 3, mop.m, mop.n)
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(G[idx], mop.grad(X[idx]))

    @pytest.mark.parametrize("make", [convex_mop, concave_mop])
    @pytest.mark.parametrize("scalarizer", SCALARIZERS)
    def test_batch_equals_the_per_preference_loop(self, make, scalarizer):
        mop = make()
        ts = np.linspace(0.1, 0.9, 5)
        W = np.stack([ts, 1.0 - ts], axis=-1)
        X0 = np.random.default_rng(6).uniform(mop.lo, mop.hi, size=(5, mop.n))
        x, f = solve_scalarized(mop, scalarizer, W, X0, steps=300)
        assert x.shape == (5, mop.n) and f.shape == (5, mop.m)
        for p in range(5):
            x_ref, f_ref = solve_one_preference(mop, scalarizer, W[p], X0[p], steps=300)
            np.testing.assert_array_equal(x[p], x_ref)
            np.testing.assert_array_equal(f[p], f_ref)
            x_p, f_p = solve_scalarized(mop, scalarizer, W[p], X0[p], steps=300)
            assert x_p.shape == (mop.n,) and f_p.shape == (mop.m,)
            np.testing.assert_array_equal(x_p, x_ref)

    def test_two_leading_axes(self):
        mop = concave_mop()
        W = np.random.default_rng(7).dirichlet(np.ones(2), size=(2, 3))
        X0 = np.random.default_rng(8).uniform(mop.lo, mop.hi, size=(2, 3, 2))
        x, f = solve_scalarized(mop, "tch", W, X0, steps=100)
        assert x.shape == (2, 3, 2) and f.shape == (2, 3, 2)
        np.testing.assert_array_equal(x[1, 2], solve_scalarized(mop, "tch", W[1, 2], X0[1, 2], steps=100)[0])

    def test_leading_axes_must_match(self):
        mop = concave_mop()
        with pytest.raises(ContractViolationError):
            solve_scalarized(mop, "linear", np.array([0.5, 0.5]), np.zeros((3, 2)))

    def test_oracles_take_a_batch_of_preferences(self):
        front, _ = pareto_grid_oracle(concave_mop(), resolution=80)
        ts = np.linspace(0.1, 0.9, 4)
        W = np.stack([ts, 1.0 - ts], axis=-1)
        for oracle in (linear_oracle_point, tch_oracle_point, stch_oracle_point):
            batch = oracle(front, W)
            assert batch.shape == (4, 2)
            for p in range(4):
                np.testing.assert_array_equal(batch[p], oracle(front, W[p]))

    def test_nearest_endpoint_per_row(self):
        front = np.array([[0.0, 1.0], [0.4, 0.4], [1.0, 0.0]])
        F = np.array([[0.1, 0.9], [0.9, 0.2], [0.2, 1.0]])
        np.testing.assert_array_equal(
            nearest_endpoint(front, F), [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        )


class TestSolverContract:
    def test_unknown_scalarizer_rejected(self):
        with pytest.raises(ConfigError):
            solve_scalarized(convex_mop(), "chebyshev", np.array([0.5, 0.5]), np.array([0.0]))
        assert "chebyshev" not in SCALARIZERS

    def test_iterates_stay_in_box(self):
        mop = convex_mop()
        x, _ = solve_scalarized(mop, "linear", np.array([0.0, 1.0]), np.array([-1.0]), steps=50, lr=5.0)
        assert mop.lo[0] <= x[0] <= mop.hi[0]

    def test_custom_utopia_respected(self):
        mop = convex_mop()
        x, _ = solve_scalarized(
            mop, "stch", np.array([0.5, 0.5]), np.array([1.5]), z=np.array([-0.5, -0.5])
        )
        assert np.isfinite(x[0])
