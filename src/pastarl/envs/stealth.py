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
    # circles, rects and targets are (n, 2) arrays of centers; everything is
    # derived per call from the current arrays, which callers may assign
    # directly.  The scalar parts (the move, the arena test, d_risk, the vision
    # grid and the scan) run on Python floats, which round exactly as numpy's
    # elementwise ops do; every 2-vector norm still goes through _norms (one
    # stacked pass per query, since a0*a0 + a1*a1 differs in the last bit), and
    # cos, sin and arctan2 stay numpy ufuncs (libm's differ from numpy's SIMD
    # kernels on AVX-512 hosts).  The lidar runs over all rays and the objects
    # within its reach at once with the elementwise formulas of a per-object
    # loop.  Reach alone is tested on floats, dx*dx + dy*dy against a limit
    # 1e-9 beyond lidar_range: that sum may differ from _dot in the last bit,
    # but it only decides which objects are skipped, never a reading.  So every
    # result is bit-identical to per-object numpy code; tests/test_envs.py
    # keeps it as the reference.

    def _overlaps(self, p, radius: float) -> bool:
        """Whether a disc of ``radius`` at p = (x, y) overlaps an obstacle circle or rect."""
        x, y = p
        hx, hy = self.rect_half.tolist()
        rows = []
        for cx, cy in self.circles.tolist():
            rows += (x - cx, y - cy)
        for rx, ry in self.rects.tolist():  # to the rect's nearest point
            rows += (x - _clip(x, rx - hx, rx + hx), y - _clip(y, ry - hy, ry + hy))
        dists = _norms(np.array(rows).reshape(-1, 2)).tolist()
        n = len(self.circles)
        reach = radius + self.circle_radius
        return any(d < reach for d in dists[:n]) or any(d < radius for d in dists[n:])

    def _collides(self, p) -> bool:
        x, y = p
        hx, hy = self.half_dims.tolist()
        r = self.agent_radius
        if abs(x) + r > hx or abs(y) + r > hy:
            return True
        return self._overlaps(p, r)

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
        return self._observation((np.cos(self.theta), np.sin(self.theta)), *self.sensors())

    def step(self, action: np.ndarray):
        a0, a1 = np.asarray(action, dtype=np.float64).reshape(self.action_dim).tolist()
        v = _clip(a0, 0.0, 1.0) * self.v_scale
        omega = (2.0 * _clip(a1, 0.0, 1.0) - 1.0) * self.omega_scale
        self.theta = theta = self.theta + omega * self.dt
        cos_th, sin_th = float(np.cos(theta)), float(np.sin(theta))
        x, y = self.pos.tolist()
        move = v * self.dt
        candidate = (x + move * cos_th, y + move * sin_th)
        collided = self._collides(candidate)
        displacement = 0.0
        if not collided:
            displacement = _norms(np.array([candidate[0] - x, candidate[1] - y])).item()
            x, y = candidate
            self.pos = np.array(candidate)

        # Scanning changes only the scanned mask, not where the targets lie.
        view = self._target_bearings()
        n_new = self._scan_targets(view)
        grid, lidar = self.sensors(view)
        snap = {
            "n_new": n_new,
            "vision_sum": sum(grid),
            "n_targets": int(self.n_targets),
            "d_risk": self._d_risk((x, y)),
            "d_max": float(self.d_max),
            "collided": int(collided),
            "displacement": displacement,
        }
        reward = stealth_rewards(snap)
        self.steps += 1
        done = self.steps >= self.episode_cap
        obs = self._observation((cos_th, sin_th), grid, lidar)
        info = {"reward_snapshot": snap, "events": {"collision": collided, "n_new": n_new}}
        return obs, reward, done, info

    def _d_risk(self, p) -> float:
        x, y = p
        lx, ly = self.l_safe.tolist()
        return max(0.0, min(lx - abs(x), ly - abs(y)))

    def _target_bearings(self) -> tuple[list[float], list[float]]:
        """Distance to each target and its bearing off the heading, in [-pi, pi)."""
        rel = self.targets - self.pos
        bearing = self._wrap(np.arctan2(rel[:, 1], rel[:, 0]) - self.theta)
        return _norms(rel).tolist(), bearing.tolist()

    def _scan_targets(self, view: tuple[list[float], list[float]] | None = None) -> int:
        """Unscanned targets inside the FOV wedge within scan_range become scanned.

        ``view`` is this state's ``_target_bearings()``, when already computed.
        """
        dist, bearing = self._target_bearings() if view is None else view
        half_fov = self.fov / 2.0
        n_new = 0
        for k, (d, b, done) in enumerate(zip(dist, bearing, self.scanned.tolist())):
            if not done and d <= self.scan_range and abs(b) <= half_fov:
                self.scanned[k] = True
                n_new += 1
        return n_new

    @staticmethod
    def _wrap(a: np.ndarray) -> np.ndarray:
        return (a + np.pi) % (2.0 * np.pi) - np.pi

    def sensors(self, view: tuple[list[float], list[float]] | None = None) -> tuple[list[float], np.ndarray]:
        """(vision grid as 6 floats, lidar 20-vector) for the current world state.

        The grid counts unscanned targets in the FOV within sensor_range, by
        band (near, far) and sector (three equal wedges from the right), 0.5
        per target up to 1.  ``view`` is this state's ``_target_bearings()``,
        when already computed.
        """
        dist, bearing = self._target_bearings() if view is None else view
        half_fov, sector_width = self.fov / 2.0, self.fov / 3.0
        far = self.sensor_range / 2.0
        counts = [0] * 6
        for d, b, done in zip(dist, bearing, self.scanned.tolist()):
            if not done and d <= self.sensor_range and abs(b) <= half_fov:
                # int() truncates as astype(int) does; the quotient is >= 0.
                counts[3 * (d >= far) + min(2, int((b + half_fov) / sector_width))] += 1
        return [min(1.0, 0.5 * c) for c in counts], self._lidar()

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
        x, y = pos.tolist()
        hx, hy = self.half_dims.tolist()

        # Walls: t[ray, side, axis] to the line x_axis = -+half_dims[axis].
        # _collides keeps the agent strictly inside the arena, so the smallest
        # positive t is where the ray leaves it, a point on a wall segment.
        t = np.array([[-hx - x, -hy - y], [hx - x, hy - y]]) / den
        best = np.where(t > 0, t, np.inf).min(axis=(1, 2))

        # Which discs (obstacle circles, then unscanned targets) and rects lie
        # within reach, tested on floats (see the geometry note above).
        discs = [(cx - x, cy - y, self.circle_radius) for cx, cy in self.circles.tolist()]
        discs += [
            (tx - x, ty - y, self.target_radius)
            for (tx, ty), done in zip(self.targets.tolist(), self.scanned.tolist())
            if not done
        ]
        discs = [(dx, dy, r) for dx, dy, r in discs if dx * dx + dy * dy < (reach + r) * (reach + r)]
        rx, ry = self.rect_half.tolist()
        boxes = []
        for cx, cy in self.rects.tolist():
            lx, ly, ux, uy = cx - rx, cy - ry, cx + rx, cy + ry
            gx, gy = max(max(lx - x, x - ux), 0.0), max(max(ly - y, y - uy), 0.0)
            if gx * gx + gy * gy < reach * reach:  # the gap to the nearest point
                boxes.append((lx, ly, ux, uy))

        # Discs: t[ray, disc] is the first crossing b - sqrt(b^2 - |rel|^2 + r^2)
        # in front of the agent.
        if discs:
            rel = np.array([(dx, dy) for dx, dy, _ in discs])
            radii = np.array([r for _, _, r in discs])
            b = _dot(rel[None, :, :], u[:, None, :])
            disc = b * b - _dot(rel, rel) + radii * radii
            t = b - np.sqrt(np.maximum(disc, 0.0))
            best = np.minimum(best, np.where((disc >= 0) & (t > 0), t, np.inf).min(axis=1))

        # Rects: slab test, t[ray, rect, axis] to the near and far faces.
        if boxes:
            box = np.array(boxes)
            lo, hi = box[:, :2], box[:, 2:]
            t1, t2 = (lo - pos) / den, (hi - pos) / den
            near = np.where(par[:, None, :], -np.inf, np.minimum(t1, t2)).max(axis=2)
            far = np.where(par[:, None, :], np.inf, np.maximum(t1, t2)).min(axis=2)
            # Parallel to an axis, the ray misses unless the agent is inside that slab.
            outside = (par[:, None, :] & ~((lo <= pos) & (pos <= hi))).any(axis=2)
            hit = ~outside & (near <= far) & (far >= 0) & (near > 0)
            best = np.minimum(best, np.where(hit, near, np.inf).min(axis=1))

        return np.where(best <= self.lidar_range, best / self.lidar_range, 1.0)

    def _observation(self, heading, grid: list[float], lidar: np.ndarray) -> np.ndarray:
        """[x, y] ++ heading ++ grid ++ lidar; heading is (cos theta, sin theta)."""
        return np.concatenate((self.pos, heading, grid, lidar))
