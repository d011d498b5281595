import ast
import json
from pathlib import Path

import numpy as np
import pytest

from pastarl.envs import (
    ENV_CLASSES,
    FormationEnv,
    FroggerEnv,
    PatrolOpponent,
    StealthWorld,
    StubEnv,
    TrajectoryRecorder,
    make_env,
    opponent_step,
    replay_rewards,
)
from pastarl.envs import stealth as stealth_mod
from pastarl.envs.crazyflie import formation_rewards, frogger_rewards
from pastarl.envs.stealth import stealth_rewards
from pastarl.errors import ConfigError


class _NoReverse:
    """rng stand-in whose reversal draw never fires."""

    def random(self):
        return 1.0


class _AlwaysReverse:
    def random(self):
        return 0.0


def blank_stealth(n_targets=1):
    """A stealth world with hand-placed geometry instead of a sampled one."""
    env = StealthWorld(n_targets=n_targets, n_circles=0, n_rects=0, episode_cap=50)
    env.circles = np.empty((0, 2))
    env.rects = np.empty((0, 2))
    env.targets = np.zeros((n_targets, 2))
    env.scanned = np.zeros(n_targets, dtype=bool)
    env.pos = np.zeros(2)
    env.theta = 0.0
    env.steps = 0
    return env


class TestStealthRewards:
    def test_new_target_scores_ten(self):
        snap = dict(n_new=1, vision_sum=0.0, n_targets=5, d_risk=0.0, d_max=0.75,
                    collided=0, displacement=0.0)
        r = stealth_rewards(snap)
        assert r[0] == 10.0

    def test_vision_tracking_bonus(self):
        snap = dict(n_new=0, vision_sum=2.0, n_targets=5, d_risk=0.0, d_max=0.75,
                    collided=0, displacement=0.0)
        assert stealth_rewards(snap)[0] == pytest.approx(0.1)

    def test_stealth_zero_at_center_one_at_border(self):
        center = dict(n_new=0, vision_sum=0.0, n_targets=5, d_risk=0.75, d_max=0.75,
                      collided=0, displacement=0.0)
        border = dict(center, d_risk=0.0)
        assert stealth_rewards(center)[1] == 0.0
        assert stealth_rewards(border)[1] == 1.0

    def test_collision_penalty_floors_stealth(self):
        snap = dict(n_new=0, vision_sum=0.0, n_targets=5, d_risk=0.0, d_max=0.75,
                    collided=1, displacement=0.0)
        assert stealth_rewards(snap)[1] == 0.0

    def test_exploration_saturates_at_one(self):
        snap = dict(n_new=0, vision_sum=0.0, n_targets=5, d_risk=0.0, d_max=0.75,
                    collided=0, displacement=0.9)
        assert stealth_rewards(snap)[2] == 1.0
        snap["displacement"] = 0.02
        assert stealth_rewards(snap)[2] == pytest.approx(0.04)

    @staticmethod
    def clip_rewards(snap):
        """The reward formula with np.clip on each objective."""
        return np.array([
            np.clip(10.0 * snap["n_new"] + 0.05 * snap["vision_sum"], 0.0, 10.0 * snap["n_targets"]),
            np.clip(1.0 - snap["d_risk"] / snap["d_max"] - snap["collided"], 0.0, 1.0),
            np.clip(2.0 * snap["displacement"], 0.0, 1.0),
        ])

    def assert_same_bits(self, snap):
        r, expected = stealth_rewards(snap), self.clip_rewards(snap)
        assert r.dtype == np.float64 and r.shape == (3,)
        # Bit patterns, so that a zero's sign counts too.
        np.testing.assert_array_equal(r.view(np.int64), expected.view(np.int64))

    def test_matches_clip_formula_on_random_snapshots(self):
        rng = np.random.default_rng(0)
        for _ in range(3000):
            n_targets = int(rng.integers(0, 8))
            snap = dict(
                n_new=int(rng.integers(0, n_targets + 1)),
                vision_sum=float(0.5 * rng.integers(0, 13)),
                n_targets=n_targets,
                d_risk=float(rng.uniform(0.0, 0.75)),
                d_max=0.75,
                collided=int(rng.integers(0, 2)),
                displacement=float(rng.uniform(0.0, 0.06)) * int(rng.integers(0, 2)),
            )
            self.assert_same_bits(snap)
            # Replay reads snapshots back from JSON lines.
            self.assert_same_bits(json.loads(json.dumps(snap)))

    @pytest.mark.parametrize(
        "change",
        [
            {},  # every objective exactly at its lower bound, 0
            {"n_new": 5},  # score exactly at its upper bound
            {"n_new": 5, "vision_sum": 1.5},  # score above it
            {"n_targets": 0, "vision_sum": 0.5},  # an upper bound of 0
            {"d_risk": 0.0},  # stealth exactly 1
            {"d_risk": 0.0, "collided": 1},  # stealth exactly 0 from a collision
            {"d_risk": 0.9},  # stealth below 0
            {"displacement": 0.5},  # exploration exactly 1
            {"displacement": 0.9},  # exploration above 1
            {"displacement": -0.0},  # a negative zero stays negative, as under np.clip
        ],
    )
    def test_matches_clip_formula_at_bounds(self, change):
        snap = {**dict(n_new=0, vision_sum=0.0, n_targets=5, d_risk=0.75, d_max=0.75,
                       collided=0, displacement=0.0), **change}
        self.assert_same_bits(snap)
        self.assert_same_bits(json.loads(json.dumps(snap)))


class TestStealthGeometry:
    def test_dead_ahead_target_lands_in_center_near_cell(self):
        env = blank_stealth()
        env.targets = np.array([[0.2, 0.0]])
        grid, _ = env.sensors()
        # Band 0 (near), sector 1 (center) -> cell index 1; one target = 0.5.
        expected = np.zeros(6)
        expected[1] = 0.5
        np.testing.assert_allclose(grid, expected, rtol=1e-12)

    def test_two_targets_saturate_a_cell(self):
        env = blank_stealth(n_targets=2)
        env.targets = np.array([[0.2, 0.0], [0.25, 0.0]])
        grid, _ = env.sensors()
        assert grid[1] == 1.0

    def test_far_band_and_side_sectors(self):
        env = blank_stealth(n_targets=2)
        # 0.4 > sensor_range/2 = 0.3 -> far band.  Bearing +0.6 rad is within
        # fov/2 = 0.8575 and lands in the leftmost-positive sector (index 2).
        env.targets = np.array(
            [[0.4 * np.cos(0.6), 0.4 * np.sin(0.6)], [0.4 * np.cos(-0.6), 0.4 * np.sin(-0.6)]]
        )
        grid, _ = env.sensors()
        assert grid[3 + 2] == 0.5  # far band, left sector
        assert grid[3 + 0] == 0.5  # far band, right sector

    def test_target_outside_fov_invisible(self):
        env = blank_stealth()
        env.targets = np.array([[-0.2, 0.0]])  # directly behind
        grid, _ = env.sensors()
        np.testing.assert_array_equal(grid, np.zeros(6))

    def test_scanned_target_invisible_to_grid_and_lidar(self):
        env = blank_stealth()
        env.targets = np.array([[0.2, 0.0]])
        env.scanned[0] = True
        grid, lidar = env.sensors()
        np.testing.assert_array_equal(grid, np.zeros(6))
        assert lidar[0] == 1.0

    def test_lidar_normalized_range_to_wall(self):
        env = blank_stealth(n_targets=1)
        env.targets = np.array([[0.0, -0.9]])  # out of the way
        env.pos = np.array([0.8, 0.0])
        _, lidar = env.sensors()
        # Ray 0 points along theta = 0: wall at x = 1 is 0.2 away.
        assert lidar[0] == pytest.approx(0.2 / 0.35, rel=1e-12)
        # Ray 10 points backward: wall at x = -1 is 1.8 away -> saturated.
        assert lidar[10] == 1.0

    def test_lidar_sees_unscanned_target_as_circle(self):
        env = blank_stealth()
        env.targets = np.array([[0.2, 0.0]])
        _, lidar = env.sensors()
        assert lidar[0] == pytest.approx((0.2 - 0.05) / 0.35, rel=1e-12)

    def test_lidar_rect_slab_intersection(self):
        env = blank_stealth()
        env.targets = np.array([[0.0, -0.9]])
        env.rects = np.array([[0.3, 0.0]])
        _, lidar = env.sensors()
        # Rect near face sits at x = 0.3 - 0.12 = 0.18.
        assert lidar[0] == pytest.approx(0.18 / 0.35, rel=1e-12)

    def test_d_risk_profile(self):
        env = blank_stealth()
        assert env._d_risk(np.zeros(2)) == pytest.approx(0.75)
        assert env._d_risk(np.array([0.75, 0.0])) == 0.0
        assert env._d_risk(np.array([0.9, 0.9])) == 0.0
        assert env.d_max == pytest.approx(0.75)


class TestStealthDynamics:
    def test_heading_updates_before_position(self):
        env = blank_stealth()
        env.targets = np.array([[0.0, -0.9]])
        # a = (1, 1): omega = pi, theta = 0 + pi * 0.05; the move uses the NEW heading.
        env.step(np.array([1.0, 1.0]))
        new_theta = 0.0 + np.pi * 0.05
        assert env.theta == pytest.approx(new_theta, rel=1e-12)
        expected = 0.05 * np.array([np.cos(new_theta), np.sin(new_theta)])
        np.testing.assert_allclose(env.pos, expected, rtol=1e-12)

    def test_collision_restores_position_and_flags(self):
        env = blank_stealth()
        env.targets = np.array([[0.0, -0.9]])
        env.circles = np.array([[0.1, 0.0]])
        before = env.pos.copy()
        _, reward, _, info = env.step(np.array([1.0, 0.5]))  # straight ahead
        assert info["reward_snapshot"]["collided"] == 1
        np.testing.assert_array_equal(env.pos, before)
        assert info["reward_snapshot"]["displacement"] == 0.0
        assert reward[2] == 0.0  # no displacement, no exploration reward

    def test_scan_marks_target_once(self):
        env = blank_stealth()
        env.targets = np.array([[0.2, 0.0]])
        _, r1, _, info1 = env.step(np.array([0.0, 0.5]))  # no motion, just scan
        assert info1["reward_snapshot"]["n_new"] == 1
        assert env.scanned[0]
        assert r1[0] == pytest.approx(10.0)
        _, r2, _, info2 = env.step(np.array([0.0, 0.5]))
        assert info2["reward_snapshot"]["n_new"] == 0
        assert r2[0] == 0.0  # scanned target no longer tracked either

    def test_target_beyond_scan_range_only_tracked(self):
        env = blank_stealth()
        env.targets = np.array([[0.4, 0.0]])  # inside sensor range, outside scan range
        _, r, _, info = env.step(np.array([0.0, 0.5]))
        assert info["reward_snapshot"]["n_new"] == 0
        assert r[0] == pytest.approx(0.05 * 0.5)  # grid tracking only

    def test_episode_cap_terminates(self):
        env = blank_stealth()
        env.episode_cap = 3
        env.targets = np.array([[0.0, -0.9]])
        dones = [env.step(np.array([0.0, 0.5]))[2] for _ in range(3)]
        assert dones == [False, False, True]

    def test_observation_layout(self):
        env = StealthWorld()
        obs = env.reset(np.random.default_rng(0))
        assert obs.shape == (30,)
        np.testing.assert_allclose(obs[2] ** 2 + obs[3] ** 2, 1.0, rtol=1e-12)
        assert np.all(obs[4:10] >= 0) and np.all(obs[4:10] <= 1)
        assert np.all(obs[10:] >= 0) and np.all(obs[10:] <= 1)

    def test_reset_places_everything_collision_free(self):
        env = StealthWorld(n_targets=4)
        for seed in range(5):
            env.reset(np.random.default_rng(seed))
            assert not env._collides(env.pos)
            assert len(env.circles) == 3 and len(env.rects) == 2
            assert env.targets.shape == (4, 2)
            assert not env.scanned.any()


# -- reference: StealthWorld's geometry as per-object loops -------------------
#
# StealthWorld computes its sensors, scans and collisions over all rays and
# objects at once.  These loops are the scalar form of the same formulas, one
# ray and one object at a time; the vectorized code must match them bit for bit.


def ref_ray_walls(env, u):
    best = np.inf
    for axis in (0, 1):
        if abs(u[axis]) < 1e-12:
            continue
        for wall in (-env.half_dims[axis], env.half_dims[axis]):
            t = (wall - env.pos[axis]) / u[axis]
            if t > 0:
                other = env.pos[1 - axis] + t * u[1 - axis]
                if abs(other) <= env.half_dims[1 - axis] + 1e-12:
                    best = min(best, t)
    return best


def ref_ray_circle(env, u, center, radius):
    rel = center - env.pos
    b = float(rel @ u)
    disc = b * b - float(rel @ rel) + radius * radius
    if disc < 0:
        return np.inf
    t = b - np.sqrt(disc)
    return t if t > 0 else np.inf


def ref_ray_rect(env, u, center):
    lo, hi = center - env.rect_half, center + env.rect_half
    t_near, t_far = -np.inf, np.inf
    for axis in (0, 1):
        if abs(u[axis]) < 1e-12:
            if not lo[axis] <= env.pos[axis] <= hi[axis]:
                return np.inf
            continue
        t1 = (lo[axis] - env.pos[axis]) / u[axis]
        t2 = (hi[axis] - env.pos[axis]) / u[axis]
        t_near = max(t_near, min(t1, t2))
        t_far = min(t_far, max(t1, t2))
    if t_near > t_far or t_far < 0:
        return np.inf
    return t_near if t_near > 0 else np.inf


def ref_lidar(env):
    angles = env.theta + 2.0 * np.pi * np.arange(env.n_lidar) / env.n_lidar
    out = np.ones(env.n_lidar)
    for i, ang in enumerate(angles):
        u = np.array([np.cos(ang), np.sin(ang)])
        t_hit = ref_ray_walls(env, u)
        for c in env.circles:
            t_hit = min(t_hit, ref_ray_circle(env, u, c, env.circle_radius))
        for k in range(len(env.targets)):
            if not env.scanned[k]:
                t_hit = min(t_hit, ref_ray_circle(env, u, env.targets[k], env.target_radius))
        for c in env.rects:
            t_hit = min(t_hit, ref_ray_rect(env, u, c))
        if t_hit <= env.lidar_range:
            out[i] = t_hit / env.lidar_range
    return out


def ref_target_view(env, k):
    rel = env.targets[k] - env.pos
    bearing = np.arctan2(rel[1], rel[0]) - env.theta
    return np.linalg.norm(rel), (bearing + np.pi) % (2.0 * np.pi) - np.pi


def ref_grid(env):
    counts = np.zeros(6)
    for k in range(len(env.targets)):
        if env.scanned[k]:
            continue
        dist, bearing = ref_target_view(env, k)
        if dist > env.sensor_range or abs(bearing) > env.fov / 2.0:
            continue
        band = 0 if dist < env.sensor_range / 2.0 else 1
        sector = min(2, int((bearing + env.fov / 2.0) / (env.fov / 3.0)))
        counts[band * 3 + sector] += 1
    return np.minimum(1.0, 0.5 * counts)


def ref_scan(env):
    """The scanned mask after a scan, without changing env."""
    scanned = env.scanned.copy()
    for k in range(len(env.targets)):
        if scanned[k]:
            continue
        dist, bearing = ref_target_view(env, k)
        if dist <= env.scan_range and abs(bearing) <= env.fov / 2.0:
            scanned[k] = True
    return scanned


def ref_overlaps(env, p, radius):
    for c in env.circles:
        if np.linalg.norm(p - c) < radius + env.circle_radius:
            return True
    for c in env.rects:
        closest = np.clip(p, c - env.rect_half, c + env.rect_half)
        if np.linalg.norm(p - closest) < radius:
            return True
    return False


def ref_collides(env, p):
    return bool(np.any(np.abs(p) + env.agent_radius > env.half_dims)) or ref_overlaps(env, p, env.agent_radius)


def ref_reset(env, rng):
    """(circles, rects, targets, pos, theta) drawn one object at a time."""
    lo, hi = -env.half_dims + 0.3, env.half_dims - 0.3
    env.circles = [rng.uniform(lo, hi) for _ in range(env.n_circles)]
    env.rects = [rng.uniform(lo, hi) for _ in range(env.n_rects)]

    def free_point(clearance):
        while True:
            p = rng.uniform(-env.half_dims + clearance, env.half_dims - clearance)
            if not ref_overlaps(env, p, clearance):
                return p

    targets = [free_point(env.target_radius) for _ in range(env.n_targets)]
    pos = free_point(env.agent_radius)
    return env.circles, env.rects, targets, pos, rng.uniform(-np.pi, np.pi)


def assert_matches_reference(env, probe):
    """Vectorized sensors, scan and collision test equal the loops exactly."""
    grid, lidar = env.sensors()
    np.testing.assert_array_equal(lidar, ref_lidar(env))
    np.testing.assert_array_equal(grid, ref_grid(env))
    expected = ref_scan(env)
    before = env.scanned.copy()
    assert env._scan_targets() == np.count_nonzero(expected & ~before)
    np.testing.assert_array_equal(env.scanned, expected)
    env.scanned = before
    assert env._collides(probe) == ref_collides(env, probe)


# World parameter mixes, each with a seed: the defaults, a crowded world with
# a wider scan, a sparse one with no circles, and one whose scan reaches past
# sensor_range, so targets are scanned that the grid never counts.
STEALTH_MIXES = [
    ({}, 0),
    ({"n_targets": 8, "n_circles": 5, "n_rects": 4, "scan_range": 0.5}, 1),
    ({"n_targets": 2, "n_circles": 0, "n_rects": 1}, 2),
    ({"n_targets": 3, "n_circles": 1, "n_rects": 0, "scan_range": 0.9}, 3),
]


class TestStealthReference:
    @pytest.mark.parametrize("params, seed", STEALTH_MIXES)
    def test_random_rollout_states_match_loops(self, params, seed):
        """1800 states per case (5400 in all) from random-action rollouts.  At
        each state a random subset of targets is marked scanned so the lidar
        and grid see every mix, and a probe point near the agent checks the
        collision test, often right at an obstacle's edge."""
        env = StealthWorld(episode_cap=150, **params)
        rng = np.random.default_rng(seed)
        probe_rng = np.random.default_rng(seed + 100)
        env.reset(rng)
        for _ in range(1800):
            _, _, done, _ = env.step(rng.random(2))
            trajectory_mask = env.scanned
            env.scanned = probe_rng.random(env.n_targets) < 0.5
            assert_matches_reference(env, env.pos + probe_rng.normal(scale=0.1, size=2))
            env.scanned = trajectory_mask
            if done:
                env.reset(rng)

    def test_reset_matches_per_object_draws(self):
        for seed in range(20):
            env = StealthWorld(n_targets=6, n_circles=4, n_rects=3)
            env.reset(np.random.default_rng(seed))
            circles, rects, targets, pos, theta = ref_reset(StealthWorld(n_targets=6, n_circles=4, n_rects=3),
                                                            np.random.default_rng(seed))
            np.testing.assert_array_equal(env.circles, circles)
            np.testing.assert_array_equal(env.rects, rects)
            np.testing.assert_array_equal(env.targets, targets)
            np.testing.assert_array_equal(env.pos, pos)
            assert env.theta == theta

    def test_axis_parallel_rays(self):
        env = blank_stealth()
        env.targets = np.array([[0.0, -0.9]])
        # At theta = 0, rays 5 and 15 point along +-y with |cos| < 1e-12.
        u = np.cos(env.theta + 2.0 * np.pi * np.array([5, 15]) / env.n_lidar)
        assert np.all(np.abs(u) < 1e-12)
        # Agent inside the rect's x slab: ray 5 hits its lower face at y = 0.25 - 0.09.
        env.rects = np.array([[0.0, 0.25], [0.3, -0.25]])
        lidar = env.sensors()[1]
        assert lidar[5] == pytest.approx(0.16 / 0.35, rel=1e-12)
        # Outside the second rect's x slab: ray 15 passes it.
        assert lidar[15] == 1.0
        assert_matches_reference(env, np.array([0.0, 0.1]))

    def test_agent_inside_slab_on_parallel_axis_at_slab_edge(self):
        env = blank_stealth()
        env.targets = np.array([[0.0, -0.9]])
        env.rects = np.array([[0.12, 0.25]])  # agent x = 0 lies on the slab's edge
        assert env.sensors()[1][5] == pytest.approx(0.16 / 0.35, rel=1e-12)
        assert_matches_reference(env, np.zeros(2))

    def test_tangent_ray(self):
        env = blank_stealth()
        env.targets = np.array([[0.0, -0.9]])
        env.circle_radius = 0.125  # exact binary values make disc exactly 0
        env.circles = np.array([[0.25, 0.125]])
        rel = env.circles[0] - env.pos
        assert (rel @ np.array([1.0, 0.0])) ** 2 - rel @ rel + env.circle_radius**2 == 0.0
        assert env.sensors()[1][0] == 0.25 / 0.35
        assert_matches_reference(env, np.zeros(2))

    def test_obstacles_behind_agent(self):
        env = blank_stealth()
        env.targets = np.array([[-0.2, 0.0]])
        env.circles = np.array([[-0.3, 0.05]])
        env.rects = np.array([[-0.25, -0.05]])
        lidar = env.sensors()[1]
        assert lidar[0] == 1.0  # nothing ahead within range
        assert lidar[10] < 1.0  # the target straight behind
        assert_matches_reference(env, np.array([-0.1, 0.0]))

    def test_all_targets_scanned(self):
        env = StealthWorld(n_targets=4)
        env.reset(np.random.default_rng(3))
        env.scanned[:] = True
        np.testing.assert_array_equal(env.sensors()[0], np.zeros(6))
        assert env._scan_targets() == 0
        assert_matches_reference(env, env.pos)

    @pytest.mark.parametrize("delta", [-1e-12, 0.0, 1e-12])
    @pytest.mark.parametrize("kind", ["circle", "target", "rect"])
    def test_near_edge_at_lidar_range(self, kind, delta):
        """Ray 0 runs along +x from the origin; the object's near edge lies at
        lidar_range + delta on it, right at the edge of what the lidar keeps."""
        env = blank_stealth()
        env.targets = np.array([[0.0, -0.9]])
        edge = env.lidar_range + delta
        if kind == "circle":
            env.circles = np.array([[edge + env.circle_radius, 0.0]])
        elif kind == "target":
            env.targets = np.array([[edge + env.target_radius, 0.0]])
        else:
            env.rects = np.array([[edge + env.rect_half[0], 0.0]])
        lidar = env.sensors()[1]
        if delta < 0:
            assert lidar[0] < 1.0
        elif delta > 0:
            assert lidar[0] == 1.0
        assert_matches_reference(env, np.zeros(2))

    @pytest.mark.parametrize("side", [-1, 0, 1])
    @pytest.mark.parametrize("kind", ["circle", "target", "rect"])
    def test_at_the_reach_margin(self, kind, side):
        """Ray 0 runs along +x from the origin.  The object lies where the
        lidar's float reach test puts its limit: a disc's center at
        lidar_range + 1e-9 + r, a rect's near face at lidar_range + 1e-9,
        or one ulp to either side.  The one ulp inside is kept and the
        others are skipped, but all lie beyond lidar_range, so every reading
        is 1 whichever way the test goes."""
        env = blank_stealth()
        env.targets = np.array([[0.0, -0.9]])
        reach = env.lidar_range + 1e-9

        def nudged(v):
            return np.nextafter(v, side * np.inf) if side else v

        if kind == "rect":
            gap = nudged(reach)
            env.rects = np.array([[gap + env.rect_half[0], 0.0]])
            assert env.rects[0, 0] - env.rect_half[0] == gap
            assert (gap * gap < reach * reach) == (side < 0)
        else:
            r = env.circle_radius if kind == "circle" else env.target_radius
            center = nudged(reach + r)
            assert (center * center < (reach + r) * (reach + r)) == (side < 0)
            if kind == "circle":
                env.circles = np.array([[center, 0.0]])
            else:
                env.targets = np.array([[center, 0.0]])
        np.testing.assert_array_equal(env.sensors()[1], np.ones(env.n_lidar))
        assert_matches_reference(env, np.zeros(2))

    @pytest.mark.parametrize("side", [-1, 0, 1])
    def test_walls_at_the_reach_margin(self, side):
        """The agent at the center of an arena whose walls all lie at
        lidar_range + 1e-9, or one ulp to either side: the lidar's reach test
        keeps them only one ulp inside.  A ray meets a wall no nearer than
        the wall itself, so every reading is 1 whichever way it goes."""
        env = blank_stealth(n_targets=0)
        reach = env.lidar_range + 1e-9
        gap = np.nextafter(reach, side * np.inf) if side else reach
        assert (gap < reach) == (side < 0)
        env.half_dims = np.array([gap, gap])
        np.testing.assert_array_equal(env.sensors()[1], np.ones(env.n_lidar))
        assert_matches_reference(env, np.zeros(2))

    def test_agent_in_a_corner(self):
        """Two walls within reach: the rays between them see the nearer wall,
        and the diagonal ray the corner."""
        env = blank_stealth(n_targets=0)
        env.pos = np.array([0.8, 0.85])
        env.theta = np.pi / 4.0
        lidar = env.sensors()[1]
        assert lidar[0] < 1.0 and np.count_nonzero(lidar < 1.0) >= 5
        assert_matches_reference(env, env.pos)
        for theta in np.linspace(-np.pi, np.pi, 17):
            env.theta = theta
            assert_matches_reference(env, env.pos + np.array([0.1, 0.0]))

    @pytest.mark.parametrize("at", ["overlap", "margin"])
    @pytest.mark.parametrize("side", [-1, 0, 1])
    @pytest.mark.parametrize("kind", ["circle", "rect"])
    def test_probe_at_the_overlap_distance(self, kind, side, at):
        """A probe left of a circle centered at the origin, or of a rect whose
        left face is x = 0.  Its distance is exactly the overlap distance
        (agent_radius, plus circle_radius for a circle), or that plus 1e-9
        where _overlaps' float test stops keeping it, or one ulp to either
        side of each: only the one inside the overlap distance collides."""
        env = blank_stealth(n_targets=0)
        env.pos = np.array([0.0, -0.5])
        limit = env.agent_radius + (env.circle_radius if kind == "circle" else 0.0)
        edge = limit if at == "overlap" else limit + 1e-9
        gap = np.nextafter(edge, side * np.inf) if side else edge
        probe = np.array([-gap, 0.0])
        if kind == "circle":
            env.circles = np.array([[0.0, 0.0]])
        else:
            env.rects = np.array([[env.rect_half[0], 0.0]])
            assert env.rects[0, 0] - env.rect_half[0] == 0.0
        assert np.linalg.norm(probe) == gap
        assert env._collides(probe) is (at == "overlap" and side < 0)
        assert_matches_reference(env, probe)

    def test_disc_only_one_ray_reaches(self):
        """A circle 0.4 ahead: ray 0 meets it at 0.28, and the rays 18
        degrees to either side pass it at 0.4 sin 18deg = 0.1236 > 0.12."""
        env = blank_stealth()
        env.targets = np.array([[0.0, -0.9]])
        env.circles = np.array([[0.4, 0.0]])
        lidar = env.sensors()[1]
        assert lidar[0] == pytest.approx(0.28 / 0.35, rel=1e-12)
        assert np.count_nonzero(lidar < 1.0) == 1
        assert_matches_reference(env, np.zeros(2))

    def test_objects_around_the_lidar_reach(self):
        """Discs and rects whose nearest point lies within a few 1e-10 of
        lidar_range, straight along a ray or nearly so."""
        rng = np.random.default_rng(7)
        env = StealthWorld(n_targets=3, n_circles=3, n_rects=3)
        step = 2.0 * np.pi / env.n_lidar
        for _ in range(400):
            env.reset(rng)
            env.pos = rng.uniform(-0.5, 0.5, size=2)
            # Rays along the axes (theta a multiple of the ray spacing), give or take.
            env.theta = step * rng.integers(-10, 10) + rng.choice([0.0, 1e-7]) * rng.normal()
            ang = env.theta + step * rng.integers(0, env.n_lidar, size=(6, 1)) + 1e-6 * rng.normal(size=(6, 1))
            reach = env.lidar_range + rng.normal(scale=3e-10, size=(9, 1))
            toward = np.concatenate([np.cos(ang), np.sin(ang)], axis=1)
            env.circles = env.pos + (reach[:3] + env.circle_radius) * toward[:3]
            env.targets = env.pos + (reach[3:6] + env.target_radius) * toward[3:6]
            # A rect straight along an axis has its near face at reach.
            axis = rng.integers(0, 2, size=3)
            offset = np.zeros((3, 2))
            offset[np.arange(3), axis] = reach[6:, 0] + env.rect_half[axis]
            env.rects = env.pos + rng.choice([-1.0, 1.0], size=(3, 1)) * offset
            env.scanned = rng.random(3) < 0.3
            assert_matches_reference(env, env.pos)

    def test_only_walls_in_range(self):
        """Every disc and rect lies beyond lidar_range; the walls alone set the
        readings, as if the objects were not there."""
        env = blank_stealth(n_targets=2)
        env.pos = np.array([0.8, -0.1])
        env.theta = 0.3
        env.circles = np.array([[0.2, 0.5], [0.8, -0.6]])
        env.targets = np.array([[0.3, -0.1], [0.8, 0.5]])
        env.rects = np.array([[0.1, -0.6]])
        lidar = env.sensors()[1]
        assert np.any(lidar < 1.0)
        assert_matches_reference(env, env.pos)
        env.circles, env.rects, env.targets = np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2))
        env.scanned = np.zeros(0, dtype=bool)
        np.testing.assert_array_equal(env.sensors()[1], lidar)

    def test_open_space(self):
        """Nothing, walls included, lies within lidar_range of the agent."""
        env = StealthWorld()
        env.reset(np.random.default_rng(8))
        env.pos = np.array([0.05, -0.1])
        env.circles = np.array([[0.6, 0.6], [-0.6, 0.5]])
        env.targets = np.array([[-0.3, -0.6], [0.5, -0.5], [0.0, 0.7], [-0.7, 0.0], [0.7, 0.0]])
        env.rects = np.array([[-0.5, -0.6], [0.6, -0.1]])
        env.scanned = np.zeros(5, dtype=bool)
        for theta in np.linspace(-np.pi, np.pi, 13):
            env.theta = theta
            np.testing.assert_array_equal(env.sensors()[1], np.ones(env.n_lidar))
            assert_matches_reference(env, env.pos)

    def test_no_obstacles_and_no_targets(self):
        env = StealthWorld(n_targets=0, n_circles=0, n_rects=0, episode_cap=30)
        rng = np.random.default_rng(4)
        env.reset(rng)
        assert env.circles.shape == env.rects.shape == env.targets.shape == (0, 2)
        for _ in range(60):
            _, _, done, _ = env.step(rng.random(2))
            assert_matches_reference(env, env.pos + rng.normal(scale=0.1, size=2))
            if done:
                env.reset(rng)


def call_counter(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that counts its calls; returns the
    list of counts, one entry per call."""
    original, calls = getattr(owner, name), []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestStealthFastPaths:
    """The reach tests skip the numpy passes outright when nothing is near:
    these count the calls, on worlds with one object out of reach and then
    in reach."""

    def test_lidar_dots_only_discs_in_reach(self, monkeypatch):
        env = blank_stealth(n_targets=0)
        dots = call_counter(monkeypatch, stealth_mod, "_dot")
        env.circles = np.array([[0.6, 0.0]])
        env._lidar()
        assert not dots
        env.circles = np.array([[0.4, 0.0]])
        env._lidar()
        assert len(dots) == 1

    def test_overlaps_norms_only_obstacles_near(self, monkeypatch):
        env = blank_stealth(n_targets=0)
        norms = call_counter(monkeypatch, stealth_mod, "_norms")
        env.circles = np.array([[0.5, 0.0]])
        env.rects = np.array([[0.0, 0.5]])
        assert not env._overlaps((0.0, 0.0), env.agent_radius)
        assert not norms
        assert env._overlaps((0.35, 0.0), env.agent_radius)
        assert len(norms) == 1
        assert env._overlaps((0.0, 0.37), env.agent_radius)
        assert len(norms) == 2

    def test_target_bearings_measure_only_targets_in_sight(self, monkeypatch):
        env = blank_stealth(n_targets=2)
        env.scan_range = 0.9
        arctan2 = call_counter(monkeypatch, np, "arctan2")
        # One target beyond scan_range, one within sight but scanned.
        env.targets = np.array([[0.95, 0.0], [0.2, 0.0]])
        env.scanned = np.array([False, True])
        dist, bearing = env._target_bearings()
        assert dist == [np.inf, np.inf] and np.isnan(bearing).all()
        assert not arctan2
        # Beyond sensor_range but within scan_range: it is scanned.
        env.targets[0] = [0.8, 0.0]
        assert env._scan_targets() == 1
        assert len(arctan2) == 1


class TestPatrolOpponent:
    def test_bounce_at_limit_reverses_and_clamps(self):
        opp = PatrolOpponent(x=0.94, y=0.3, speed=0.04, direction=1)
        opponent_step(opp, _NoReverse())
        assert opp.x == pytest.approx(0.95)
        assert opp.direction == -1

    def test_speed_magnitude_conserved_away_from_walls(self):
        opp = PatrolOpponent(x=0.0, y=-0.3, speed=0.03, direction=1)
        xs = [opp.x]
        for _ in range(10):
            opponent_step(opp, _NoReverse())
            xs.append(opp.x)
        steps = np.abs(np.diff(xs))
        np.testing.assert_allclose(steps, np.full(10, 0.03), rtol=1e-12)

    def test_forced_reversal_flips_direction(self):
        opp = PatrolOpponent(x=0.0, y=0.3, speed=0.04, direction=1)
        opponent_step(opp, _AlwaysReverse())
        assert opp.direction == -1
        assert opp.x == pytest.approx(-0.04)

    def test_spontaneous_reversal_rate_near_five_percent(self):
        rng = np.random.default_rng(0)
        opp = PatrolOpponent(x=0.0, y=0.0, speed=0.0, direction=1)
        flips = 0
        prev = opp.direction
        n = 100_000
        for _ in range(n):
            opponent_step(opp, rng)
            flips += opp.direction != prev
            prev = opp.direction
        assert flips / n == pytest.approx(0.05, abs=0.005)


class TestFroggerRewards:
    def test_collision_constants(self):
        snap = dict(prev_goal_dist=1.0, goal_dist=1.0, reached_goal=0, collided=1,
                    out_of_bounds=0, d_wall=0.5, d_opp=0.05)
        r = frogger_rewards(snap)
        assert r[0] == pytest.approx(-15.0)
        assert r[2] == pytest.approx(0.1 * (0.05 / 0.3) - 25.0)

    def test_bounds_violation_constants(self):
        snap = dict(prev_goal_dist=1.0, goal_dist=1.0, reached_goal=0, collided=0,
                    out_of_bounds=1, d_wall=-0.01, d_opp=1.0)
        r = frogger_rewards(snap)
        assert r[0] == pytest.approx(-15.0)
        assert r[1] == pytest.approx(-25.0)

    def test_goal_bonus(self):
        snap = dict(prev_goal_dist=0.2, goal_dist=0.05, reached_goal=1, collided=0,
                    out_of_bounds=0, d_wall=0.9, d_opp=1.0)
        r = frogger_rewards(snap)
        assert r[0] == pytest.approx(0.15 + 10.0)

    def test_progress_clipped_to_unit(self):
        snap = dict(prev_goal_dist=5.0, goal_dist=0.5, reached_goal=0, collided=0,
                    out_of_bounds=0, d_wall=0.9, d_opp=1.0)
        assert frogger_rewards(snap)[0] == pytest.approx(1.0)


class TestFroggerEnv:
    def test_reset_layout(self):
        env = FroggerEnv()
        obs = env.reset(np.random.default_rng(1))
        assert obs.shape == (10,)
        np.testing.assert_array_equal(env.pos, [0.0, -0.75])
        lanes = sorted((o.y, o.speed) for o in env.opponents)
        assert lanes == [(-0.3, 0.03), (0.3, 0.04)]

    def test_displacement_cap(self):
        env = FroggerEnv()
        env.reset(np.random.default_rng(1))
        before = env.pos.copy()
        env.step(np.array([1.0, 1.0]))
        np.testing.assert_allclose(env.pos - before, [0.05, 0.05], rtol=1e-12)

    def test_goal_event_terminates_with_bonus(self):
        env = FroggerEnv()
        env.reset(np.random.default_rng(1))
        env.pos = np.array([0.0, 0.68])
        for o in env.opponents:
            o.x = -0.9  # keep opponents away
        _, r, done, info = env.step(np.array([0.5, 1.0]))
        assert info["reward_snapshot"]["reached_goal"] == 1 and done
        assert r[0] > 9.0

    def test_collision_terminates(self):
        env = FroggerEnv()
        env.reset(np.random.default_rng(1))
        env.pos = np.array([0.5, -0.3])
        env.opponents[0].x = 0.5
        env.opponents[0].speed = 0.0
        _, r, done, info = env.step(np.array([0.5, 0.5]))
        assert info["reward_snapshot"]["collided"] == 1 and done
        assert r[2] < -24.0

    def test_bounds_violation_terminates(self):
        env = FroggerEnv()
        env.reset(np.random.default_rng(1))
        env.pos = np.array([0.0, 0.98])
        for o in env.opponents:
            o.x = -0.9
        _, r, done, info = env.step(np.array([0.5, 1.0]))
        assert info["reward_snapshot"]["out_of_bounds"] == 1 and done
        assert r[1] == pytest.approx(-25.0)

    def test_goal_not_awarded_through_collision(self):
        env = FroggerEnv()
        env.reset(np.random.default_rng(1))
        env.pos = np.array([0.0, 0.68])
        env.opponents[1].y = 0.72
        env.opponents[1].x = 0.0
        env.opponents[1].speed = 0.0
        _, _, done, info = env.step(np.array([0.5, 1.0]))
        assert info["reward_snapshot"]["collided"] == 1
        assert info["reward_snapshot"]["reached_goal"] == 0

    def test_episode_cap(self):
        env = FroggerEnv(episode_cap=2)
        env.reset(np.random.default_rng(1))
        assert not env.step(np.array([0.5, 0.5]))[2]
        assert env.step(np.array([0.5, 0.5]))[2]

    def test_same_seed_identical_episode(self):
        rews = []
        for _ in range(2):
            env = FroggerEnv()
            env.reset(np.random.default_rng(42))
            act_rng = np.random.default_rng(7)
            rs = [env.step(act_rng.random(2))[1] for _ in range(50)]
            rews.append(np.array(rs))
        np.testing.assert_array_equal(rews[0], rews[1])


class TestFormationRewards:
    def test_perfect_formation_scores_one(self):
        snap = dict(prev_goal_dist=1.0, goal_dist=1.0, mean_effort=0.0, converged=0,
                    collided=0, min_wall_margin=0.5, min_opp_dist=1.0, obstacle_hit=0,
                    formation_error=0.0)
        assert formation_rewards(snap)[3] == pytest.approx(1.0)

    def test_large_error_goes_negative(self):
        snap = dict(prev_goal_dist=1.0, goal_dist=1.0, mean_effort=0.0, converged=0,
                    collided=0, min_wall_margin=0.5, min_opp_dist=1.0, obstacle_hit=0,
                    formation_error=1.0)
        assert formation_rewards(snap)[3] == pytest.approx(np.exp(-5.0) - 1.0)

    def test_obstacle_hit_constant(self):
        snap = dict(prev_goal_dist=1.0, goal_dist=1.0, mean_effort=0.0, converged=0,
                    collided=1, min_wall_margin=0.5, min_opp_dist=0.05, obstacle_hit=1,
                    formation_error=0.0)
        r = formation_rewards(snap)
        assert r[2] == pytest.approx(0.2 * (0.05 / 0.4) - 10.0)
        assert r[0] == pytest.approx(-5.0)

    def test_convergence_bonus(self):
        snap = dict(prev_goal_dist=0.2, goal_dist=0.05, converged=1, mean_effort=0.0,
                    collided=0, min_wall_margin=0.5, min_opp_dist=1.0, obstacle_hit=0,
                    formation_error=0.0)
        assert formation_rewards(snap)[0] == pytest.approx(5.0 * 0.15 + 10.0)


class TestFormationEnv:
    def test_reset_is_equilateral_at_target_side(self):
        env = FormationEnv()
        obs = env.reset(np.random.default_rng(2))
        assert obs.shape == (14,)
        d = [np.linalg.norm(env.positions[i] - env.positions[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        np.testing.assert_allclose(d, np.full(3, 0.45), rtol=1e-12)
        np.testing.assert_allclose(env.positions.mean(axis=0), [0.0, -0.7], atol=1e-12)

    def test_still_action_keeps_perfect_formation(self):
        env = FormationEnv()
        env.reset(np.random.default_rng(2))
        env.opponent.x = -0.9
        env.opponent.speed = 0.0
        _, r, _, info = env.step(np.full(6, 0.5))
        assert info["reward_snapshot"]["formation_error"] == pytest.approx(0.0, abs=1e-12)
        assert r[3] == pytest.approx(1.0)
        assert info["reward_snapshot"]["mean_effort"] == 0.0

    def test_hard_walls_clamp_positions(self):
        env = FormationEnv()
        env.reset(np.random.default_rng(2))
        env.positions = np.array([[0.99, 0.0], [0.0, 0.99], [-0.99, -0.99]])
        env.step(np.ones(6))  # push everyone toward +x, +y
        assert np.all(np.abs(env.positions) <= 1.0)

    def test_convergence_terminates(self):
        env = FormationEnv()
        env.reset(np.random.default_rng(2))
        env.positions = env.positions - env.positions.mean(axis=0) + env.goal
        env.opponent.x = -0.9
        env.opponent.speed = 0.0
        _, r, done, info = env.step(np.full(6, 0.5))
        assert info["reward_snapshot"]["converged"] == 1 and done
        assert r[0] > 9.0

    def test_obstacle_hit_detected(self):
        env = FormationEnv()
        env.reset(np.random.default_rng(2))
        env.opponent.x = float(env.positions[0, 0])
        env.opponent.y = float(env.positions[0, 1])
        env.opponent.speed = 0.0
        _, r, _, info = env.step(np.full(6, 0.5))
        assert info["reward_snapshot"]["obstacle_hit"] == 1
        assert r[2] < -9.0

    def test_same_seed_identical_episode(self):
        rews = []
        for _ in range(2):
            env = FormationEnv()
            env.reset(np.random.default_rng(9))
            act_rng = np.random.default_rng(4)
            rs = [env.step(act_rng.random(6))[1] for _ in range(40)]
            rews.append(np.array(rs))
        np.testing.assert_array_equal(rews[0], rews[1])


# -- reference: the frogger, formation and stealth steps as per-call numpy -----
#
# FroggerEnv, FormationEnv and StealthWorld step on Python floats and stack the
# distances of a step into one numpy pass per query.  These are the steps as
# they read with one np.linalg.norm call per distance, np.clip on each reward
# term and arrays for the bookkeeping; the float steps must match them bit for
# bit.  The stealth step's collision test, scan and grid are the per-object
# loops above, which the vectorized numpy forms they replace were pinned to.


def ref_frogger_rewards(snap):
    violation = snap["out_of_bounds"]
    collided = snap["collided"]
    r_goal = (
        np.clip(snap["prev_goal_dist"] - snap["goal_dist"], -1.0, 1.0)
        + 10.0 * snap["reached_goal"]
        - 15.0 * max(collided, violation)
    )
    r_bounds = 0.1 * np.clip(snap["d_wall"] / 0.2, 0.0, 1.0) - 25.0 * violation
    r_avoid = 0.1 * np.clip(snap["d_opp"] / 0.3, 0.0, 1.0) - 25.0 * collided
    return np.array([r_goal, r_bounds, r_avoid])


def ref_frogger_observation(env):
    parts = [env.pos, env.goal - env.pos]
    for o in env.opponents:
        parts.append(np.array([o.x - env.pos[0], o.y - env.pos[1], o.direction * o.speed]))
    return np.concatenate(parts)


def ref_frogger_step(env, action):
    a = np.clip(np.asarray(action, dtype=np.float64), 0.0, 1.0)
    disp = (2.0 * a - 1.0) * 0.05
    prev_goal_dist = float(np.linalg.norm(env.pos - env.goal))
    env.pos = env.pos + disp
    for opp in env.opponents:
        opponent_step(opp, env._rng)
    goal_dist = float(np.linalg.norm(env.pos - env.goal))
    out_of_bounds = bool(np.any(np.abs(env.pos) > env.half))
    d_wall = float(min(env.half - abs(env.pos[0]), env.half - abs(env.pos[1])))
    d_opp = float(min(np.linalg.norm(env.pos - np.array([o.x, o.y])) for o in env.opponents))
    collided = d_opp < env.collision_dist
    reached_goal = goal_dist < env.goal_radius and not (collided or out_of_bounds)
    snap = {
        "prev_goal_dist": prev_goal_dist,
        "goal_dist": goal_dist,
        "reached_goal": int(reached_goal),
        "collided": int(collided),
        "out_of_bounds": int(out_of_bounds),
        "d_wall": d_wall,
        "d_opp": d_opp,
    }
    env.steps += 1
    done = reached_goal or collided or out_of_bounds or env.steps >= env.episode_cap
    return ref_frogger_observation(env), ref_frogger_rewards(snap), bool(done), snap


def ref_formation_rewards(snap):
    e = snap["formation_error"]
    r_goal = (
        5.0 * (snap["prev_goal_dist"] - snap["goal_dist"])
        - 0.1 * snap["mean_effort"]
        + 10.0 * snap["converged"]
        - 5.0 * snap["collided"]
    )
    r_bounds = 0.1 * np.clip(snap["min_wall_margin"] / 0.2, 0.0, 1.0)
    r_avoid = 0.2 * np.clip(snap["min_opp_dist"] / 0.4, 0.0, 1.0) - 10.0 * snap["obstacle_hit"]
    r_form = np.exp(-5.0 * e) - np.clip(e, 0.0, 1.0)
    return np.array([r_goal, r_bounds, r_avoid, r_form])


def ref_pair_dists(env):
    return np.array(
        [np.linalg.norm(env.positions[i] - env.positions[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    )


def ref_formation_observation(env):
    centroid = env.positions.mean(axis=0)
    rel_agents = (env.positions - centroid).ravel()
    opp = np.array([
        env.opponent.x - centroid[0],
        env.opponent.y - centroid[1],
        env.opponent.direction * env.opponent.speed,
    ])
    return np.concatenate([env.goal - centroid, rel_agents, opp, ref_pair_dists(env) - env.l_target])


def ref_formation_step(env, joint_action):
    a = np.clip(np.asarray(joint_action, dtype=np.float64), 0.0, 1.0).reshape(3, 2)
    disp = (2.0 * a - 1.0) * 0.05
    prev_goal_dist = float(np.linalg.norm(env.positions.mean(axis=0) - env.goal))
    env.positions = np.clip(env.positions + disp, -env.half, env.half)
    opponent_step(env.opponent, env._rng)
    goal_dist = float(np.linalg.norm(env.positions.mean(axis=0) - env.goal))
    mean_effort = float(np.mean(np.linalg.norm(disp, axis=1)))
    wall_margins = np.minimum(
        env.half - np.abs(env.positions[:, 0]), env.half - np.abs(env.positions[:, 1])
    )
    opp_pos = np.array([env.opponent.x, env.opponent.y])
    opp_dists = np.linalg.norm(env.positions - opp_pos, axis=1)
    pair_dists = ref_pair_dists(env)
    formation_error = float(np.max(np.abs(pair_dists - env.l_target)))
    agent_collision = bool(np.any(pair_dists < env.agent_collision_dist))
    obstacle_hit = bool(np.any(opp_dists < env.obstacle_hit_dist))
    converged = goal_dist < env.converge_dist
    snap = {
        "prev_goal_dist": prev_goal_dist,
        "goal_dist": goal_dist,
        "mean_effort": mean_effort,
        "converged": int(converged),
        "collided": int(agent_collision or obstacle_hit),
        "min_wall_margin": float(np.min(wall_margins)),
        "min_opp_dist": float(np.min(opp_dists)),
        "obstacle_hit": int(obstacle_hit),
        "formation_error": formation_error,
    }
    env.steps += 1
    done = converged or env.steps >= env.episode_cap
    return ref_formation_observation(env), ref_formation_rewards(snap), bool(done), snap


def ref_stealth_observation(env):
    heading = [np.cos(env.theta), np.sin(env.theta)]
    return np.concatenate([env.pos, heading, ref_grid(env), env._lidar()])


def ref_stealth_step(env, action):
    """StealthWorld.step on numpy arrays, with np.clip, np.linalg.norm and the
    per-object collision test, scan and grid loops above.  The lidar is the
    env's own: test_random_rollout_states_match_loops pins it to ref_lidar."""
    a = np.clip(np.asarray(action, dtype=np.float64), 0.0, 1.0)
    v = a[0] * env.v_scale
    omega = (2.0 * a[1] - 1.0) * env.omega_scale
    env.theta = env.theta + omega * env.dt
    candidate = env.pos + v * env.dt * np.array([np.cos(env.theta), np.sin(env.theta)])
    collided = ref_collides(env, candidate)
    displacement = 0.0
    if not collided:
        displacement = float(np.linalg.norm(candidate - env.pos))
        env.pos = candidate
    scanned = ref_scan(env)
    n_new = int(np.count_nonzero(scanned & ~env.scanned))
    env.scanned = scanned
    grid = ref_grid(env)
    d_risk = max(0.0, min(env.l_safe[0] - abs(env.pos[0]), env.l_safe[1] - abs(env.pos[1])))
    snap = {
        "n_new": n_new,
        "vision_sum": float(grid.sum()),
        "n_targets": int(env.n_targets),
        "d_risk": float(d_risk),
        "d_max": float(env.d_max),
        "collided": int(collided),
        "displacement": displacement,
    }
    env.steps += 1
    done = env.steps >= env.episode_cap
    return ref_stealth_observation(env), TestStealthRewards.clip_rewards(snap), bool(done), snap


REF_STEPS = {
    FroggerEnv: ref_frogger_step,
    FormationEnv: ref_formation_step,
    StealthWorld: ref_stealth_step,
}
REF_OBSERVATIONS = {
    FroggerEnv: ref_frogger_observation,
    FormationEnv: ref_formation_observation,
    StealthWorld: ref_stealth_observation,
}


def bits(x):
    """The float64 bit patterns of x, so that a zero's sign counts too."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


def reset_twins(env, ref, seed):
    """Reset an env and its reference copy from equal rng streams; the reset
    observations must agree."""
    obs = env.reset(np.random.default_rng(seed))
    ref.reset(np.random.default_rng(seed))
    np.testing.assert_array_equal(bits(obs), bits(REF_OBSERVATIONS[type(env)](ref)))


def twin_envs(cls, seed, episode_cap=200, **params):
    env, ref = cls(episode_cap=episode_cap, **params), cls(episode_cap=episode_cap, **params)
    reset_twins(env, ref, seed)
    return env, ref


def place(envs, **state):
    """Put the same hand-made state into each env: arrays by attribute name,
    and opponents as dicts of their fields."""
    for env in envs:
        for key, value in state.items():
            if key == "opponents":
                for opp, fields in zip(env.opponents, value):
                    vars(opp).update(fields)
            elif key == "opponent":
                vars(env.opponent).update(value)
            else:
                setattr(env, key, np.array(value, dtype=np.float64))


def assert_step_matches(env, ref, action):
    """One step of each; outputs and snapshot values agree bit for bit.
    Returns (done, info) of the env's step."""
    obs, reward, done, info = env.step(action)
    ref_obs, ref_reward, ref_done, ref_snap = REF_STEPS[type(env)](ref, action)
    np.testing.assert_array_equal(bits(obs), bits(ref_obs))
    np.testing.assert_array_equal(bits(reward), bits(ref_reward))
    assert done is ref_done
    snap = info["reward_snapshot"]
    assert list(snap) == list(ref_snap)
    for key, value in snap.items():
        assert type(value) is type(ref_snap[key]), key
        assert bits(value) == bits(ref_snap[key]), (key, value, ref_snap[key])
    assert list(info) == ["reward_snapshot"]
    return done, info


# Distances that land exactly on a threshold: 0.0 - 0.1 is exact, and the
# square root of a rounded square gives the value back.
AT_LIMIT = 0.1
INSIDE_LIMIT = float(np.nextafter(0.1, 0.0))
STILL = 0.5  # an action entry whose displacement is exactly 0.0


class TestCrazyflieReference:
    @pytest.mark.parametrize("cls", [FroggerEnv, FormationEnv])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_rollout_steps_match_per_call_steps(self, cls, seed):
        """1500 steps per case.  Each episode draws its own drift, so agents
        wander, run into the walls or (frogger) leave the arena; actions reach
        outside [0, 1], so the clip acts too."""
        env, ref = twin_envs(cls, seed, episode_cap=120)
        act_rng = np.random.default_rng(seed + 10)
        drift = act_rng.uniform(0.2, 0.8, cls.action_dim)
        for _ in range(1500):
            done, _ = assert_step_matches(env, ref, drift + act_rng.normal(scale=0.4, size=cls.action_dim))
            if done:
                reset_twins(env, ref, int(act_rng.integers(1 << 30)))
                drift = act_rng.uniform(0.2, 0.8, cls.action_dim)

    @pytest.mark.parametrize("cls", [FroggerEnv, FormationEnv])
    def test_opponent_bounces_at_x_lim(self, cls):
        envs = twin_envs(cls, 3)
        fields = {"x": 0.93, "direction": 1, "speed": 0.04}
        if cls is FroggerEnv:
            place(envs, opponents=[fields, {**fields, "x": -0.93, "direction": -1}])
        else:
            place(envs, opponent=fields)
        assert_step_matches(*envs, np.full(cls.action_dim, STILL))
        opponents = envs[0].opponents if cls is FroggerEnv else [envs[0].opponent]
        assert all(abs(o.x) == o.x_lim for o in opponents)

    def test_frogger_out_of_bounds(self):
        envs = twin_envs(FroggerEnv, 4)
        # The last move ends on the corner (1, -1) itself, still in bounds.
        for pos, action, leaves in (([0.0, 0.98], [STILL, 1.0], True), ([-0.97, 0.2], [0.0, STILL], True),
                                    ([0.95, -0.95], [1.0, 0.0], False)):
            place(envs, pos=pos)
            _, info = assert_step_matches(*envs, np.array(action))
            assert info["reward_snapshot"]["out_of_bounds"] == int(leaves)

    def test_frogger_goal_reached_in_a_collision(self):
        envs = twin_envs(FroggerEnv, 5)
        place(envs, pos=[0.0, 0.68], opponents=[{}, {"x": 0.0, "y": 0.72, "speed": 0.0}])
        done, info = assert_step_matches(*envs, np.array([STILL, 1.0]))
        assert done and info["reward_snapshot"]["collided"] == 1 and info["reward_snapshot"]["reached_goal"] == 0
        assert info["reward_snapshot"]["goal_dist"] < envs[0].goal_radius

    @pytest.mark.parametrize("gap, collides", [(AT_LIMIT, False), (INSIDE_LIMIT, True)])
    def test_frogger_opponent_at_the_collision_distance(self, gap, collides):
        envs = twin_envs(FroggerEnv, 6)
        place(envs, pos=[0.0, -0.3], opponents=[{"x": gap, "speed": 0.0}, {"x": -0.9}])
        _, info = assert_step_matches(*envs, np.full(2, STILL))
        assert info["reward_snapshot"]["d_opp"] == gap
        assert info["reward_snapshot"]["collided"] == int(collides)

    def test_formation_agents_clamped_at_the_walls(self):
        envs = twin_envs(FormationEnv, 7)
        place(envs, positions=[[0.99, 0.0], [0.0, 0.99], [-0.99, -0.99]])
        for action in ([1, STILL, STILL, 1, 0, 0], np.ones(6), np.zeros(6), [1, 0, 0, 1, 1, 0]):
            _, info = assert_step_matches(*envs, np.array(action, dtype=np.float64))
        assert np.abs(envs[0].positions).max() == 1.0
        assert info["reward_snapshot"]["min_wall_margin"] == 0.0

    @pytest.mark.parametrize(
        "positions, opponent",
        [
            # Centroid on the goal with two agents 0.05 apart, or with the
            # opponent on an agent.
            ([[0.0, 0.7], [0.05, 0.7], [-0.05, 0.7]], {"x": -0.9, "speed": 0.0}),
            ([[0.0, 0.75], [0.05, 0.65], [-0.05, 0.7]], {"x": 0.05, "y": 0.65, "speed": 0.0}),
        ],
    )
    def test_formation_converges_in_a_collision(self, positions, opponent):
        envs = twin_envs(FormationEnv, 8)
        place(envs, positions=positions, opponent=opponent)
        done, info = assert_step_matches(*envs, np.full(6, STILL))
        assert done and info["reward_snapshot"]["converged"] == 1
        assert info["reward_snapshot"]["collided"] == 1

    @pytest.mark.parametrize("gap", [AT_LIMIT, INSIDE_LIMIT])
    def test_formation_distances_at_the_thresholds(self, gap):
        envs = twin_envs(FormationEnv, 9)
        # Agents 0 and 1 gap apart; agent 2 gap above the opponent.
        place(envs, positions=[[0.0, 0.0], [gap, 0.0], [0.6, gap]],
              opponent={"x": 0.6, "y": 0.0, "speed": 0.0})
        _, info = assert_step_matches(*envs, np.full(6, STILL))
        snap = info["reward_snapshot"]
        assert snap["min_opp_dist"] == gap and min(ref_pair_dists(envs[1])) == gap
        assert snap["obstacle_hit"] == snap["collided"] == int(gap < 0.1)
        # The same agents with the opponent out of reach: only the agents can collide.
        envs = twin_envs(FormationEnv, 9)
        place(envs, positions=[[0.0, 0.0], [gap, 0.0], [0.6, gap]],
              opponent={"x": -0.9, "y": 0.0, "speed": 0.0})
        _, info = assert_step_matches(*envs, np.full(6, STILL))
        snap = info["reward_snapshot"]
        assert min(ref_pair_dists(envs[1])) == gap and snap["obstacle_hit"] == 0
        assert snap["collided"] == int(gap < 0.1)


STAY = np.array([0.0, STILL])  # no move and no turn: the step only senses


def blank_stealth_twins(n_targets=1, **state):
    """Two blank stealth worlds holding the same hand-made state."""
    envs = blank_stealth(n_targets), blank_stealth(n_targets)
    place(envs, **state)
    return envs


class TestStealthStepReference:
    @pytest.mark.parametrize("params, seed", STEALTH_MIXES)
    def test_random_rollout_steps_match_per_call_steps(self, params, seed):
        """1500 steps per case.  Each episode draws its own drift, so the
        agent wanders into walls and obstacles and scans targets; actions
        reach outside [0, 1], so the clip acts too."""
        env, ref = twin_envs(StealthWorld, seed, episode_cap=150, **params)
        act_rng = np.random.default_rng(seed + 10)
        drift = act_rng.uniform(0.2, 0.8, 2)
        for _ in range(1500):
            done, _ = assert_step_matches(env, ref, drift + act_rng.normal(scale=0.4, size=2))
            if done:
                reset_twins(env, ref, int(act_rng.integers(1 << 30)))
                drift = act_rng.uniform(0.2, 0.8, 2)

    def test_no_circles_rects_or_targets(self):
        env, ref = twin_envs(StealthWorld, 3, episode_cap=60, n_targets=0, n_circles=0, n_rects=0)
        act_rng = np.random.default_rng(13)
        for _ in range(200):
            done, _ = assert_step_matches(env, ref, act_rng.uniform(-0.2, 1.2, 2))
            if done:
                reset_twins(env, ref, int(act_rng.integers(1 << 30)))

    @pytest.mark.parametrize("x, collides", [(0.9, False), (float(np.nextafter(0.9, 1.0)), True)])
    def test_wall_hit(self, x, collides):
        """A full step along +x from 0.9 ends with the agent's edge exactly on
        the wall at 1, which is allowed; from one ulp further it hits."""
        envs = blank_stealth_twins(pos=[x, 0.0], targets=[[0.0, -0.9]])
        _, info = assert_step_matches(*envs, np.array([1.0, STILL]))
        assert info["reward_snapshot"]["collided"] == int(collides)

    @pytest.mark.parametrize("obstacle", ["circles", "rects"])
    def test_move_into_an_obstacle(self, obstacle):
        envs = blank_stealth_twins(**{obstacle: [[0.2, 0.0]]}, targets=[[0.0, -0.9]])
        _, info = assert_step_matches(*envs, np.array([1.0, STILL]))
        assert info["reward_snapshot"]["collided"] == 1 and info["reward_snapshot"]["displacement"] == 0.0
        np.testing.assert_array_equal(envs[0].pos, np.zeros(2))

    def test_all_targets_scanned(self):
        envs = blank_stealth_twins(n_targets=3, targets=[[0.2, 0.0], [0.4, 0.1], [0.25, -0.05]])
        for env in envs:
            env.scanned[:] = True
        _, info = assert_step_matches(*envs, STAY)
        assert info["reward_snapshot"]["vision_sum"] == 0.0 and info["reward_snapshot"]["n_new"] == 0

    @pytest.mark.parametrize("gap, scanned", [(0.3, True), (float(np.nextafter(0.3, 1.0)), False)])
    def test_target_at_the_scan_range(self, gap, scanned):
        """Dead ahead at scan_range (0.3 is its own rounded square's root) the
        target is scanned; one ulp further it is only tracked by the grid."""
        envs = blank_stealth_twins(targets=[[gap, 0.0]])
        _, info = assert_step_matches(*envs, STAY)
        assert info["reward_snapshot"]["n_new"] == int(scanned)
        assert info["reward_snapshot"]["vision_sum"] == (0.0 if scanned else 0.5)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_target_at_the_fov_edge(self, side):
        """The target's bearing lies within 1e-15 of fov/2 (mirrored for the
        other edge).  On AVX-512 hosts np.arctan2 puts it 1.1e-16 inside the
        edge and math.atan2 3.3e-16 outside, so a step that called
        math.atan2 would leave it unscanned."""
        envs = blank_stealth_twins(targets=[[0.1392587133452974, side * 0.1609412700450897]])
        dist, bearing = ref_target_view(envs[1], 0)
        assert dist < envs[1].scan_range and abs(abs(bearing) - envs[1].fov / 2.0) < 1e-15
        assert_step_matches(*envs, STAY)


# -- float rewrites stay on numpy's transcendentals ---------------------------

ENV_SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "pastarl" / "envs").glob("*.py"))
LIBM_NAMES = {"cos", "sin", "atan2", "tan", "exp", "log"}


def libm_transcendentals(source: str) -> list[tuple[int, str]]:
    """(line, name) of each use of math.cos, sin, atan2, tan, exp or log in
    source, through ``import math [as x]`` or ``from math import ...``."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "math"
    }
    hits = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in LIBM_NAMES
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            hits.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            hits += [(node.lineno, alias.name) for alias in node.names if alias.name in LIBM_NAMES]
    return sorted(hits)


class TestTranscendentalGuard:
    def test_envs_use_no_libm_transcendentals(self):
        assert ENV_SOURCES
        found = {path.name: hits for path in ENV_SOURCES if (hits := libm_transcendentals(path.read_text()))}
        assert not found, (
            f"math transcendentals in src/pastarl/envs: {found}.  numpy's SIMD kernels for "
            "cos, sin, atan2, tan, exp and log are not bit-equal to libm's on AVX-512 hosts, "
            "so a float rewrite that calls math.* moves golden bits; call the numpy ufunc."
        )

    def test_guard_sees_every_import_form(self):
        source = "import math\nimport math as m\nfrom math import exp, sqrt\nmath.atan2(1, 2)\nm.cos(0)\nmath.sqrt(2)\n"
        assert libm_transcendentals(source) == [(3, "exp"), (4, "atan2"), (5, "cos")]


class TestStub:
    def test_rewards_are_complementary(self):
        env = StubEnv()
        env.reset(np.random.default_rng(0))
        _, r, _, _ = env.step(np.array([0.3, 0.9]))
        np.testing.assert_allclose(r, [0.3, 0.7], rtol=1e-12)

    def test_observation_clock(self):
        env = StubEnv(episode_cap=8)
        obs = env.reset(np.random.default_rng(0))
        np.testing.assert_allclose(obs, [0.0, 1.0, 0.0], atol=1e-15)
        obs, _, _, _ = env.step(np.zeros(2))
        np.testing.assert_allclose(obs, [np.sin(0.3), np.cos(0.3), 1 / 8], rtol=1e-12)

    def test_cap_terminates(self):
        env = StubEnv(episode_cap=2)
        env.reset(np.random.default_rng(0))
        assert not env.step(np.zeros(2))[2]
        assert env.step(np.zeros(2))[2]


class TestReplay:
    @pytest.mark.parametrize("name", sorted(ENV_CLASSES))
    def test_replay_reproduces_rewards_bit_for_bit(self, name, tmp_path):
        """Every environment class names the reward function its step uses."""
        env = make_env(name)
        assert env.name == name
        rec = TrajectoryRecorder()
        rng = np.random.default_rng(5)
        act_rng = np.random.default_rng(6)
        obs = env.reset(rng)
        for _ in range(40):
            _, r, done, info = env.step(act_rng.random(env.action_dim))
            rec.on_step(env.name, info["reward_snapshot"], r)
            if done:
                env.reset(rng)
        path = tmp_path / "traj.jsonl"
        rec.save(path)
        pairs = replay_rewards(TrajectoryRecorder.load(path))
        assert len(pairs) == 40
        for logged, replayed in pairs:
            np.testing.assert_array_equal(logged, replayed)

    def test_unregistered_env_rejected(self):
        with pytest.raises(ConfigError):
            replay_rewards([{"env": "nope", "snapshot": {}, "reward": [0.0]}])


class TestMakeEnv:
    def test_registry_contents(self):
        assert set(ENV_CLASSES) == {"stealth", "frogger", "formation", "stub"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            make_env("gridworld")

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigError):
            make_env("frogger", n_targets=5)

    def test_params_forwarded(self):
        env = make_env("stealth", n_targets=2, episode_cap=10)
        assert env.n_targets == 2 and env.episode_cap == 10
