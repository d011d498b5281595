"""Stealth visual search: a Dubins-dynamics robot scanning hidden targets.

Three objectives: r_score rewards discovering and tracking unscanned targets,
r_stealth rewards hugging the arena borders (the central zone is risky), and
r_expl rewards movement.  The agent senses through a 2x3 vision grid over a
98-degree field of view plus a 20-ray lidar; observation layout is
[x, y, cos th, sin th] ++ 6 grid cells ++ 20 lidar ranges (dim 30).
"""

from __future__ import annotations

import numpy as np

from pastarl.envs.base import MomdpEnv, _clip, _dot, _norms, checked_episode_cap, register_reward_fn
from pastarl.errors import ConfigError


def stealth_rewards(snap: dict) -> np.ndarray:
    """Pure reward computation from a flat snapshot (used by step and replay)."""
    r_score = _clip(10.0 * snap["n_new"] + 0.05 * snap["vision_sum"], 0.0, 10.0 * snap["n_targets"])
    r_stealth = _clip(1.0 - snap["d_risk"] / snap["d_max"] - snap["collided"], 0.0, 1.0)
    r_expl = _clip(2.0 * snap["displacement"], 0.0, 1.0)
    return np.array([r_score, r_stealth, r_expl], dtype=np.float64)


register_reward_fn("stealth", stealth_rewards)


class StealthWorld(MomdpEnv):
    name = "stealth"
    observation_dim = 30
    action_dim = 2
    m = 3

    def __init__(
        self,
        n_targets: int = 5,
        n_circles: int = 3,
        n_rects: int = 2,
        episode_cap: int = 1000,
        scan_range: float = 0.3,
        safe_frac: float = 0.75,
    ):
        for key, value in (("n_targets", n_targets), ("n_circles", n_circles), ("n_rects", n_rects)):
            if value < 0:
                raise ConfigError(f"environment.{key} must be non-negative, got {value}")
        if not scan_range > 0:
            raise ConfigError(f"environment.scan_range must be positive, got {scan_range}")
        if not 0 < safe_frac <= 1:
            raise ConfigError(f"environment.safe_frac must lie in (0, 1], got {safe_frac}")
        self.half_dims = np.array([1.0, 1.0])
        self.agent_radius = 0.05
        self.target_radius = 0.05
        self.dt = 0.05
        self.v_scale = 1.0
        self.omega_scale = np.pi
        self.fov = 1.715
        self.sensor_range = 0.6
        self.n_lidar = 20
        self._ray_offsets = 2.0 * np.pi * np.arange(self.n_lidar) / self.n_lidar
        self.lidar_range = 0.35
        self.circle_radius = 0.12
        self.rect_half = np.array([0.12, 0.09])
        self.n_targets = n_targets
        self.n_circles = n_circles
        self.n_rects = n_rects
        self.episode_cap = checked_episode_cap(episode_cap)
        self.scan_range = scan_range
        self.l_safe = safe_frac * self.half_dims
        # d_risk peaks at the arena center where both safe margins are widest.
        self.d_max = float(min(self.l_safe))
        self._rng = None

    # -- geometry -----------------------------------------------------------
    #
    # circles, rects and targets are (n, 2) arrays of centers.  Each query runs
    # over all rays and objects at once with the elementwise formulas of a
    # per-object loop, dot products through _dot, and a min reduction, so every
    # result is bit-identical to that loop; tests/test_envs.py keeps it as the
    # reference.  Everything is derived per call from the current arrays, which
    # callers may assign directly.

    def _overlaps(self, p: np.ndarray, radius: float) -> bool:
        """Whether a disc of ``radius`` at p overlaps an obstacle circle or rect."""
        near = np.minimum(np.maximum(p, self.rects - self.rect_half), self.rects + self.rect_half)
        return bool(
            (_norms(p - self.circles) < radius + self.circle_radius).any()
            or (_norms(p - near) < radius).any()
        )

    def _collides(self, p: np.ndarray) -> bool:
        if (np.abs(p) + self.agent_radius > self.half_dims).any():
            return True
        return self._overlaps(p, self.agent_radius)

    def _sample_free_point(self, rng: np.random.Generator, clearance: float) -> np.ndarray:
        for _ in range(1000):
            p = rng.uniform(-self.half_dims + clearance, self.half_dims - clearance)
            if not self._overlaps(p, clearance):
                return p
        raise RuntimeError("rejection sampling failed to place a free point")

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self._rng = rng
        lo, hi = -self.half_dims + 0.3, self.half_dims - 0.3
        self.circles = rng.uniform(lo, hi, size=(self.n_circles, 2))
        self.rects = rng.uniform(lo, hi, size=(self.n_rects, 2))
        self.targets = np.array(
            [self._sample_free_point(rng, self.target_radius) for _ in range(self.n_targets)]
        ).reshape(self.n_targets, 2)
        self.scanned = np.zeros(self.n_targets, dtype=bool)
        self.pos = self._sample_free_point(rng, self.agent_radius)
        self.theta = rng.uniform(-np.pi, np.pi)
        self.steps = 0
        return self._observation(*self.sensors())

    def step(self, action: np.ndarray):
        a = np.clip(np.asarray(action, dtype=np.float64), 0.0, 1.0)
        v = a[0] * self.v_scale
        omega = (2.0 * a[1] - 1.0) * self.omega_scale
        self.theta = self.theta + omega * self.dt
        candidate = self.pos + v * self.dt * np.array([np.cos(self.theta), np.sin(self.theta)])
        collided = self._collides(candidate)
        displacement = 0.0
        if not collided:
            displacement = float(_norms(candidate - self.pos))
            self.pos = candidate

        # Scanning changes only the scanned mask, not where the targets lie.
        view = self._target_bearings()
        n_new = self._scan_targets(view)
        grid, lidar = self.sensors(view)
        d_risk = self._d_risk(self.pos)
        snap = {
            "n_new": int(n_new),
            "vision_sum": float(grid.sum()),
            "n_targets": int(self.n_targets),
            "d_risk": float(d_risk),
            "d_max": float(self.d_max),
            "collided": int(collided),
            "displacement": displacement,
        }
        reward = stealth_rewards(snap)
        self.steps += 1
        done = self.steps >= self.episode_cap
        obs = self._observation(grid, lidar)
        info = {"reward_snapshot": snap, "events": {"collision": collided, "n_new": int(n_new)}}
        return obs, reward, done, info

    def _d_risk(self, p: np.ndarray) -> float:
        return float(max(0.0, min(self.l_safe[0] - abs(p[0]), self.l_safe[1] - abs(p[1]))))

    def _target_bearings(self) -> tuple[np.ndarray, np.ndarray]:
        """Distance to each target and its bearing off the heading, in [-pi, pi)."""
        rel = self.targets - self.pos
        bearing = self._wrap(np.arctan2(rel[:, 1], rel[:, 0]) - self.theta)
        return _norms(rel), bearing

    def _scan_targets(self, view: tuple[np.ndarray, np.ndarray] | None = None) -> int:
        """Unscanned targets inside the FOV wedge within scan_range become scanned.

        ``view`` is this state's ``_target_bearings()``, when already computed.
        """
        dist, bearing = self._target_bearings() if view is None else view
        new = ~self.scanned & (dist <= self.scan_range) & (np.abs(bearing) <= self.fov / 2.0)
        self.scanned |= new
        return int(np.count_nonzero(new))

    @staticmethod
    def _wrap(a: np.ndarray) -> np.ndarray:
        return (a + np.pi) % (2.0 * np.pi) - np.pi

    def sensors(self, view: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(vision_grid 6-vector, lidar 20-vector) for the current world state.

        ``view`` is this state's ``_target_bearings()``, when already computed.
        """
        dist, bearing = self._target_bearings() if view is None else view
        seen = ~self.scanned & (dist <= self.sensor_range) & (np.abs(bearing) <= self.fov / 2.0)
        band = dist[seen] >= self.sensor_range / 2.0
        sector = ((bearing[seen] + self.fov / 2.0) / (self.fov / 3.0)).astype(int)
        counts = np.bincount(3 * band + np.minimum(2, sector), minlength=6)
        grid = np.minimum(1.0, 0.5 * counts)
        return grid, self._lidar()

    def _lidar(self) -> np.ndarray:
        """Range along each ray to the nearest wall, circle, unscanned target or
        rect, divided by lidar_range; 1 where nothing lies within it.

        A ray meets an object no nearer than the object's nearest point, so an
        object whose nearest point lies beyond lidar_range (plus a margin far
        above rounding error) cannot set a reading; the disc and rect blocks
        run only on the objects within reach, and not at all when none is.
        """
        reach = self.lidar_range + 1e-9
        angles = self.theta + self._ray_offsets
        u = np.empty((self.n_lidar, 2))  # (rays, 2)
        u[:, 0], u[:, 1] = np.cos(angles), np.sin(angles)
        # A ray parallel to an axis never crosses that axis' walls or slabs;
        # dividing by inf there keeps the masked quotients finite, and makes
        # the wall quotients +-0, which the t > 0 test drops.
        par = np.abs(u) < 1e-12
        den = np.where(par, np.inf, u)[:, None, :]
        pos = self.pos

        # Walls: t[ray, side, axis] to the line x_axis = -+half_dims[axis].
        # _collides keeps the agent strictly inside the arena, so the smallest
        # positive t is where the ray leaves it, a point on a wall segment.
        t = (np.array([-self.half_dims, self.half_dims]) - pos) / den
        best = np.where(t > 0, t, np.inf).min(axis=(1, 2))

        # Discs: obstacle circles and unscanned targets; t[ray, disc] is the
        # first crossing b - sqrt(b^2 - |rel|^2 + r^2) in front of the agent.
        live = self.targets[~self.scanned]
        rel = np.concatenate([self.circles, live]) - pos
        radii = np.repeat([self.circle_radius, self.target_radius], [len(self.circles), len(live)])
        rr = _dot(rel, rel)
        close = rr < (reach + radii) ** 2
        if close.any():
            rel, rr, radii = rel[close], rr[close], radii[close]
            b = _dot(rel[None, :, :], u[:, None, :])
            disc = b * b - rr + radii * radii
            t = b - np.sqrt(np.maximum(disc, 0.0))
            best = np.minimum(best, np.where((disc >= 0) & (t > 0), t, np.inf).min(axis=1))

        # Rects: slab test, t[ray, rect, axis] to the near and far faces.
        lo, hi = self.rects - self.rect_half, self.rects + self.rect_half
        gap = np.maximum(np.maximum(lo - pos, pos - hi), 0.0)  # to the nearest point
        close = _dot(gap, gap) < reach * reach
        if close.any():
            lo, hi = lo[close], hi[close]
            t1, t2 = (lo - pos) / den, (hi - pos) / den
            near = np.where(par[:, None, :], -np.inf, np.minimum(t1, t2)).max(axis=2)
            far = np.where(par[:, None, :], np.inf, np.maximum(t1, t2)).min(axis=2)
            # Parallel to an axis, the ray misses unless the agent is inside that slab.
            outside = (par[:, None, :] & ~((lo <= pos) & (pos <= hi))).any(axis=2)
            hit = ~outside & (near <= far) & (far >= 0) & (near > 0)
            best = np.minimum(best, np.where(hit, near, np.inf).min(axis=1))

        return np.where(best <= self.lidar_range, best / self.lidar_range, 1.0)

    def _observation(self, grid: np.ndarray, lidar: np.ndarray) -> np.ndarray:
        return np.concatenate([self.pos, [np.cos(self.theta), np.sin(self.theta)], grid, lidar])
