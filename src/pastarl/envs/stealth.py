"""Stealth visual search: a Dubins-dynamics robot scanning hidden targets.

Three objectives: r_score rewards discovering and tracking unscanned targets,
r_stealth rewards hugging the arena borders (the central zone is risky), and
r_expl rewards movement.  The agent senses through a 2x3 vision grid over a
98-degree field of view plus a 20-ray lidar; observation layout is
[x, y, cos th, sin th] ++ 6 grid cells ++ 20 lidar ranges (dim 30).
"""

from __future__ import annotations

import math

import numpy as np

from pastarl.envs.base import MomdpEnv, _clip, _dot, _norms, checked_episode_cap
from pastarl.errors import ConfigError


def stealth_rewards(snap: dict) -> np.ndarray:
    """Pure reward computation from a flat snapshot (used by step and replay)."""
    r_score = _clip(10.0 * snap["n_new"] + 0.05 * snap["vision_sum"], 0.0, 10.0 * snap["n_targets"])
    r_stealth = _clip(1.0 - snap["d_risk"] / snap["d_max"] - snap["collided"], 0.0, 1.0)
    r_expl = _clip(2.0 * snap["displacement"], 0.0, 1.0)
    return np.array([r_score, r_stealth, r_expl], dtype=np.float64)


class StealthWorld(MomdpEnv):
    name = "stealth"
    reward_fn = staticmethod(stealth_rewards)
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
    # directly.  The geometry runs on Python floats, which round exactly as
    # numpy's elementwise ops do, with two exceptions.  Every 2-vector dot
    # product and norm goes through _dot or _norms (one stacked pass per
    # query, since a0*b0 + a1*b1 differs in the last bit), and cos, sin and
    # arctan2 stay numpy ufuncs (libm's differ from numpy's SIMD kernels on
    # AVX-512 hosts).  Before those passes a reach test on floats, dx*dx + dy*dy
    # against a limit 1e-9 beyond the distance that matters, drops the walls,
    # obstacles and targets too far away to change a result: that sum may
    # differ from _dot in the last bit, but it only decides what is skipped,
    # never a value, and when nothing is in reach the pass is not run.  So
    # every result is bit-identical to per-object numpy code; tests/test_envs.py
    # keeps it as the reference.

    def _overlaps(self, p, radius: float) -> bool:
        """Whether a disc of ``radius`` at p = (x, y) overlaps an obstacle circle or rect."""
        x, y = p
        hx, hy = self.rect_half.tolist()
        rows, limits = [], []
        reach = radius + self.circle_radius
        for cx, cy in self.circles.tolist():
            dx, dy = x - cx, y - cy
            if dx * dx + dy * dy < (reach + 1e-9) * (reach + 1e-9):
                rows += (dx, dy)
                limits.append(reach)
        for rx, ry in self.rects.tolist():  # to the rect's nearest point
            dx, dy = x - _clip(x, rx - hx, rx + hx), y - _clip(y, ry - hy, ry + hy)
            if dx * dx + dy * dy < (radius + 1e-9) * (radius + 1e-9):
                rows += (dx, dy)
                limits.append(radius)
        if not limits:
            return False
        dists = _norms(np.array(rows).reshape(-1, 2)).tolist()
        return any(d < limit for d, limit in zip(dists, limits))

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
        return obs, reward, done, {"reward_snapshot": snap}

    def _d_risk(self, p) -> float:
        x, y = p
        lx, ly = self.l_safe.tolist()
        return max(0.0, min(lx - abs(x), ly - abs(y)))

    def _target_bearings(self) -> tuple[list[float], list[float]]:
        """Distance to each target and its bearing off the heading, in [-pi, pi).

        Only unscanned targets within sight (sensor_range or scan_range,
        whichever is larger) are measured; the others read distance inf and
        bearing nan, which fail every test the grid and the scan make.
        """
        x, y = self.pos.tolist()
        sight = max(self.sensor_range, self.scan_range) + 1e-9
        dist, bearing = [np.inf] * len(self.targets), [np.nan] * len(self.targets)
        near, rows = [], []
        for k, ((tx, ty), done) in enumerate(zip(self.targets.tolist(), self.scanned.tolist())):
            dx, dy = tx - x, ty - y
            if not done and dx * dx + dy * dy < sight * sight:
                near.append(k)
                rows.append((dx, dy))
        if near:
            rel = np.array(rows)
            angles = np.arctan2(rel[:, 1], rel[:, 0]).tolist()
            for k, d, a in zip(near, _norms(rel).tolist(), angles):
                dist[k], bearing[k] = d, self._wrap(a - self.theta)
        return dist, bearing

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
    def _wrap(a: float) -> float:
        """a shifted into [-pi, pi); Python's float % rounds as numpy's remainder."""
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

        A ray meets an object no nearer than the object's nearest point, so a
        wall, disc or rect whose nearest point lies beyond lidar_range (plus a
        margin far above rounding error) cannot set a reading and is skipped.
        A ray parallel to an axis (|u| < 1e-12 there) never crosses that
        axis' walls, and misses a rect unless the agent lies inside its slab.
        """
        lidar_range = self.lidar_range
        reach = lidar_range + 1e-9
        angles = self.theta + self._ray_offsets
        cos_u, sin_u = np.cos(angles), np.sin(angles)
        rays = list(zip(cos_u.tolist(), sin_u.tolist()))
        x, y = self.pos.tolist()
        hx, hy = self.half_dims.tolist()

        # Walls: _collides keeps the agent strictly inside the arena, so the
        # one positive crossing along each axis is the wall the ray's sign
        # points at, and it is where the ray leaves the arena.  A wall at
        # distance d is met at t = d / |u| >= d, so one not within reach is
        # skipped.
        walls = [d if d < reach else None for d in (hx - x, hx + x, hy - y, hy + y)]
        east, west, north, south = walls
        best = [math.inf] * self.n_lidar
        if walls != [None] * 4:
            for i, (ux, uy) in enumerate(rays):
                t = math.inf
                if ux >= 1e-12:
                    if east is not None:
                        t = east / ux
                elif ux <= -1e-12 and west is not None:
                    t = west / -ux
                if uy >= 1e-12:
                    if north is not None and north / uy < t:
                        t = north / uy
                elif uy <= -1e-12 and south is not None and south / -uy < t:
                    t = south / -uy
                best[i] = t

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
            lx, ly, hx, hy = cx - rx, cy - ry, cx + rx, cy + ry
            gx, gy = max(max(lx - x, x - hx), 0.0), max(max(ly - y, y - hy), 0.0)
            if gx * gx + gy * gy < reach * reach:  # the gap to the nearest point
                # The faces' offsets from the agent, and whether it lies inside each slab.
                boxes.append((lx - x, ly - y, hx - x, hy - y, lx <= x <= hx, ly <= y <= hy))

        # Discs: the first crossing b - sqrt(b^2 - |rel|^2 + r^2) in front of
        # the agent, where b = rel . u.  One stacked _dot pass gives every b
        # and |rel|^2; a ray with b <= 0 cannot meet the disc at t > 0.
        if discs:
            n = self.n_lidar
            rel = np.array([(dx, dy) for dx, dy, _ in discs])
            other = np.empty((len(discs), n + 1, 2))
            other[:, :n, 0], other[:, :n, 1], other[:, n] = cos_u, sin_u, rel
            for (*dots, c), (_, _, r) in zip(_dot(rel[:, None, :], other).tolist(), discs):
                rr = r * r
                for i, b in enumerate(dots):
                    if b > 0:
                        disc = b * b - c + rr
                        if disc >= 0:
                            t = b - math.sqrt(disc)
                            if 0 < t < best[i]:
                                best[i] = t

        # Rects: slab test; the sign of u picks each axis' near and far face.
        for x0, y0, x1, y1, in_x, in_y in boxes:
            for i, (ux, uy) in enumerate(rays):
                if ux >= 1e-12:
                    near, far = x0 / ux, x1 / ux
                elif ux <= -1e-12:
                    near, far = x1 / ux, x0 / ux
                elif in_x:
                    near, far = -math.inf, math.inf
                else:
                    continue
                if uy >= 1e-12:
                    t1, t2 = y0 / uy, y1 / uy
                elif uy <= -1e-12:
                    t1, t2 = y1 / uy, y0 / uy
                elif in_y:
                    t1, t2 = -math.inf, math.inf
                else:
                    continue
                # max(near, t1) and min(far, t2), without the calls.
                if t1 > near:
                    near = t1
                if t2 < far:
                    far = t2
                if 0 < near <= far and near < best[i]:
                    best[i] = near

        return np.array([t / lidar_range if t <= lidar_range else 1.0 for t in best])

    def _observation(self, heading, grid: list[float], lidar: np.ndarray) -> np.ndarray:
        """[x, y] ++ heading ++ grid ++ lidar; heading is (cos theta, sin theta)."""
        return np.concatenate((self.pos, heading, grid, lidar))
