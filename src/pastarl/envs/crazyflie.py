"""Planar quadrotor tasks with stochastic patrol opponents.

Frogger: one agent crosses two traffic lanes (patrollers at y = -0.3 and
y = +0.3) to reach a goal zone; objectives are goal progress, boundary
safety, and opponent avoidance.  Formation: a centralized policy drives
three agents from a start zone to a goal while holding an equilateral
triangle, dodging one patroller on y = 0, and staying in bounds; objectives
add formation keeping.  Agents are driven by displacement commands capped
at 0.05 length units per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pastarl.envs.base import MomdpEnv, _clip, _norms, checked_episode_cap

STEP_CAP_DISPLACEMENT = 0.05
REVERSAL_PROB = 0.05


@dataclass
class PatrolOpponent:
    """1-D patroller: constant speed, bounce at +-x_lim, 5% spontaneous reversal."""

    x: float
    y: float
    speed: float
    direction: int = 1
    x_lim: float = 0.95


def opponent_step(opp: PatrolOpponent, rng: np.random.Generator) -> PatrolOpponent:
    """Advance one step in place; returns the same (mutated) opponent."""
    if rng.random() < REVERSAL_PROB:
        opp.direction = -opp.direction
    opp.x += opp.direction * opp.speed
    if abs(opp.x) >= opp.x_lim:
        opp.x = opp.x_lim if opp.x > 0 else -opp.x_lim
        opp.direction = -opp.direction
    return opp


def frogger_rewards(snap: dict) -> np.ndarray:
    violation = snap["out_of_bounds"]
    collided = snap["collided"]
    r_goal = (
        _clip(snap["prev_goal_dist"] - snap["goal_dist"], -1.0, 1.0)
        + 10.0 * snap["reached_goal"]
        - 15.0 * max(collided, violation)
    )
    r_bounds = 0.1 * _clip(snap["d_wall"] / 0.2, 0.0, 1.0) - 25.0 * violation
    r_avoid = 0.1 * _clip(snap["d_opp"] / 0.3, 0.0, 1.0) - 25.0 * collided
    return np.array([r_goal, r_bounds, r_avoid])


def _displacement(action, size: int) -> list[float]:
    """Each of the ``size`` action entries clipped into [0, 1] and mapped onto
    [-STEP_CAP_DISPLACEMENT, STEP_CAP_DISPLACEMENT], as Python floats."""
    a = np.asarray(action, dtype=np.float64).reshape(size).tolist()
    return [(2.0 * _clip(v, 0.0, 1.0) - 1.0) * STEP_CAP_DISPLACEMENT for v in a]


# The steps below work on Python floats, which round exactly as numpy's
# elementwise ops do, and stack all of a step's distances into one numpy pass
# per formula, so every value is bit-identical to a per-call np.linalg.norm
# step.  A norm of one vector is sqrt(x.dot(x)), a BLAS dot, so those rows go
# through _norms (a0*b0 + a1*b1 would differ in the last bit); a norm over
# axis=1 is sqrt(add.reduce(x * x)), so those rows share one add.reduce.  Mins,
# maxima and clips run on the (never NaN) floats.  tests/test_envs.py keeps
# the per-call steps as the reference.


class FroggerEnv(MomdpEnv):
    name = "frogger"
    reward_fn = staticmethod(frogger_rewards)
    observation_dim = 10
    action_dim = 2
    m = 3

    def __init__(self, episode_cap: int = 400):
        self.episode_cap = checked_episode_cap(episode_cap)
        self.half = 1.0
        self.start = np.array([0.0, -0.75])
        self.goal = np.array([0.0, 0.75])
        self.goal_radius = 0.1
        self.collision_dist = 0.1
        self._rng = None

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self._rng = rng
        # One opponent per lane; lane speeds are fixed so |xdot| covers {0.03, 0.04}.
        self.opponents = [
            PatrolOpponent(
                x=float(rng.uniform(-0.95, 0.95)),
                y=lane_y,
                speed=speed,
                direction=int(rng.choice([-1, 1])),
            )
            for lane_y, speed in ((-0.3, 0.03), (0.3, 0.04))
        ]
        self.pos = self.start.copy()
        self.steps = 0
        return self._observation()

    def step(self, action: np.ndarray):
        dx, dy = _displacement(action, self.action_dim)
        x0, y0 = self.pos.tolist()
        x, y = x0 + dx, y0 + dy
        self.pos = np.array([x, y])
        for opp in self.opponents:
            opponent_step(opp, self._rng)

        # Single-vector norms, one BLAS dot each: the goal distance before and
        # after the move, and the distance to each opponent.
        gx, gy = self.goal.tolist()
        dot_rows = [x0 - gx, y0 - gy, x - gx, y - gy]
        for o in self.opponents:
            dot_rows += [x - o.x, y - o.y]
        prev_goal_dist, goal_dist, *opp_dists = _norms(np.array(dot_rows).reshape(-1, 2)).tolist()
        half = self.half
        out_of_bounds = abs(x) > half or abs(y) > half
        d_wall = min(half - abs(x), half - abs(y))
        d_opp = min(opp_dists)
        collided = d_opp < self.collision_dist
        reached_goal = goal_dist < self.goal_radius and not (collided or out_of_bounds)

        snap = {
            "prev_goal_dist": prev_goal_dist,
            "goal_dist": goal_dist,
            "reached_goal": int(reached_goal),
            "collided": int(collided),
            "out_of_bounds": int(out_of_bounds),
            "d_wall": d_wall,
            "d_opp": d_opp,
        }
        reward = frogger_rewards(snap)
        self.steps += 1
        done = reached_goal or collided or out_of_bounds or self.steps >= self.episode_cap
        return self._observation(), reward, done, {"reward_snapshot": snap}

    def _observation(self) -> np.ndarray:
        x, y = self.pos.tolist()
        gx, gy = self.goal.tolist()
        obs = [x, y, gx - x, gy - y]
        for o in self.opponents:
            obs += [o.x - x, o.y - y, o.direction * o.speed]
        return np.array(obs)


def formation_rewards(snap: dict) -> np.ndarray:
    e = snap["formation_error"]
    r_goal = (
        5.0 * (snap["prev_goal_dist"] - snap["goal_dist"])
        - 0.1 * snap["mean_effort"]
        + 10.0 * snap["converged"]
        - 5.0 * snap["collided"]
    )
    r_bounds = 0.1 * _clip(snap["min_wall_margin"] / 0.2, 0.0, 1.0)
    r_avoid = 0.2 * _clip(snap["min_opp_dist"] / 0.4, 0.0, 1.0) - 10.0 * snap["obstacle_hit"]
    r_form = np.exp(-5.0 * e) - _clip(e, 0.0, 1.0)
    return np.array([r_goal, r_bounds, r_avoid, r_form])


def _centroid(xy: list[float]) -> tuple[float, float]:
    """positions.mean(axis=0) of the flat [x0, y0, x1, y1, x2, y2]: numpy adds
    the rows in order onto 0.0, then divides."""
    return (0.0 + xy[0] + xy[2] + xy[4]) / 3, (0.0 + xy[1] + xy[3] + xy[5]) / 3


def _pair_rows(xy: list[float]) -> list[float]:
    """positions[i] - positions[j] for the pairs (0, 1), (0, 2), (1, 2), flat."""
    x0, y0, x1, y1, x2, y2 = xy
    return [x0 - x1, y0 - y1, x0 - x2, y0 - y2, x1 - x2, y1 - y2]


class FormationEnv(MomdpEnv):
    name = "formation"
    reward_fn = staticmethod(formation_rewards)
    observation_dim = 14
    action_dim = 6
    m = 4
    n_agents = 3

    def __init__(self, episode_cap: int = 600):
        self.episode_cap = checked_episode_cap(episode_cap)
        self.half = 1.0
        self.l_target = 0.45
        self.goal = np.array([0.0, 0.7])
        self.start_center = np.array([0.0, -0.7])
        self.converge_dist = 0.1
        self.agent_collision_dist = 0.1
        self.obstacle_hit_dist = 0.1
        self._rng = None

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self._rng = rng
        self.opponent = PatrolOpponent(
            x=float(rng.uniform(-0.95, 0.95)),
            y=0.0,
            speed=0.04,
            direction=int(rng.choice([-1, 1])),
        )
        circ_radius = self.l_target / np.sqrt(3.0)
        angles = np.pi / 2.0 + 2.0 * np.pi * np.arange(3) / 3.0
        self.positions = self.start_center + circ_radius * np.stack(
            [np.cos(angles), np.sin(angles)], axis=1
        )
        self.steps = 0
        xy = self.positions.ravel().tolist()
        pair_dists = _norms(np.array(_pair_rows(xy)).reshape(3, 2)).tolist()
        return self._observation(xy, _centroid(xy), pair_dists)

    def step(self, joint_action: np.ndarray):
        disp = _displacement(joint_action, self.action_dim)
        prev = self.positions.ravel().tolist()
        # Hard walls: agents cannot leave the arena.
        half = self.half
        xy = [_clip(p + d, -half, half) for p, d in zip(prev, disp)]
        self.positions = np.array(xy).reshape(3, 2)
        opp = opponent_step(self.opponent, self._rng)

        # Single-vector norms, one BLAS dot each: the centroid's goal distance
        # before and after the move, and the three pair distances.
        gx, gy = self.goal.tolist()
        (px, py), (cx, cy) = _centroid(prev), _centroid(xy)
        dot_rows = [px - gx, py - gy, cx - gx, cy - gy] + _pair_rows(xy)
        prev_goal_dist, goal_dist, *pair_dists = _norms(np.array(dot_rows).reshape(5, 2)).tolist()
        # Row norms, one add.reduce: each agent's displacement and its distance
        # to the opponent.
        sum_rows = np.array(disp + [v - o for v, o in zip(xy, (opp.x, opp.y) * 3)]).reshape(6, 2)
        e0, e1, e2, *opp_dists = np.sqrt(np.add.reduce(sum_rows * sum_rows, axis=1)).tolist()

        mean_effort = (e0 + e1 + e2) / 3  # np.mean: adding onto 0.0 keeps a norm as it is
        min_wall_margin = min(half - abs(v) for v in xy)
        formation_error = max(abs(d - self.l_target) for d in pair_dists)
        agent_collision = min(pair_dists) < self.agent_collision_dist
        min_opp_dist = min(opp_dists)
        obstacle_hit = min_opp_dist < self.obstacle_hit_dist
        converged = goal_dist < self.converge_dist

        snap = {
            "prev_goal_dist": prev_goal_dist,
            "goal_dist": goal_dist,
            "mean_effort": mean_effort,
            "converged": int(converged),
            "collided": int(agent_collision or obstacle_hit),
            "min_wall_margin": min_wall_margin,
            "min_opp_dist": min_opp_dist,
            "obstacle_hit": int(obstacle_hit),
            "formation_error": formation_error,
        }
        reward = formation_rewards(snap)
        self.steps += 1
        done = converged or self.steps >= self.episode_cap
        return self._observation(xy, (cx, cy), pair_dists), reward, done, {"reward_snapshot": snap}

    def _observation(
        self, xy: list[float], centroid: tuple[float, float], pair_dists: list[float]
    ) -> np.ndarray:
        """[goal, agents, opponent] relative to the centroid, the opponent's
        velocity, and the pair distances less l_target; xy is the flat positions."""
        x0, y0, x1, y1, x2, y2 = xy
        cx, cy = centroid
        gx, gy = self.goal.tolist()
        opp = self.opponent
        l = self.l_target
        d01, d02, d12 = pair_dists
        return np.array([
            gx - cx, gy - cy,
            x0 - cx, y0 - cy, x1 - cx, y1 - cy, x2 - cx, y2 - cy,
            opp.x - cx, opp.y - cy, opp.direction * opp.speed,
            d01 - l, d02 - l, d12 - l,
        ])
