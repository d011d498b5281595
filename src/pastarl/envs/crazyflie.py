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

from pastarl.envs.base import MomdpEnv, checked_episode_cap, register_reward_fn

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
        np.clip(snap["prev_goal_dist"] - snap["goal_dist"], -1.0, 1.0)
        + 10.0 * snap["reached_goal"]
        - 15.0 * max(collided, violation)
    )
    r_bounds = 0.1 * np.clip(snap["d_wall"] / 0.2, 0.0, 1.0) - 25.0 * violation
    r_avoid = 0.1 * np.clip(snap["d_opp"] / 0.3, 0.0, 1.0) - 25.0 * collided
    return np.array([r_goal, r_bounds, r_avoid])


register_reward_fn("frogger", frogger_rewards)


class FroggerEnv(MomdpEnv):
    name = "frogger"
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
        a = np.clip(np.asarray(action, dtype=np.float64), 0.0, 1.0)
        disp = (2.0 * a - 1.0) * STEP_CAP_DISPLACEMENT
        prev_goal_dist = float(np.linalg.norm(self.pos - self.goal))
        self.pos = self.pos + disp
        for opp in self.opponents:
            opponent_step(opp, self._rng)

        goal_dist = float(np.linalg.norm(self.pos - self.goal))
        out_of_bounds = bool(np.any(np.abs(self.pos) > self.half))
        d_wall = float(min(self.half - abs(self.pos[0]), self.half - abs(self.pos[1])))
        d_opp = float(
            min(np.linalg.norm(self.pos - np.array([o.x, o.y])) for o in self.opponents)
        )
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
        info = {
            "reward_snapshot": snap,
            "events": {
                "goal": reached_goal,
                "collision": collided,
                "out_of_bounds": out_of_bounds,
            },
        }
        return self._observation(), reward, bool(done), info

    def _observation(self) -> np.ndarray:
        parts = [self.pos, self.goal - self.pos]
        for o in self.opponents:
            parts.append(np.array([o.x - self.pos[0], o.y - self.pos[1], o.direction * o.speed]))
        return np.concatenate(parts)


def formation_rewards(snap: dict) -> np.ndarray:
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


register_reward_fn("formation", formation_rewards)


class FormationEnv(MomdpEnv):
    name = "formation"
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
        return self._observation()

    def step(self, joint_action: np.ndarray):
        a = np.clip(np.asarray(joint_action, dtype=np.float64), 0.0, 1.0).reshape(3, 2)
        disp = (2.0 * a - 1.0) * STEP_CAP_DISPLACEMENT
        prev_centroid = self.positions.mean(axis=0)
        prev_goal_dist = float(np.linalg.norm(prev_centroid - self.goal))
        # Hard walls: agents cannot leave the arena.
        self.positions = np.clip(self.positions + disp, -self.half, self.half)
        opponent_step(self.opponent, self._rng)

        centroid = self.positions.mean(axis=0)
        goal_dist = float(np.linalg.norm(centroid - self.goal))
        mean_effort = float(np.mean(np.linalg.norm(disp, axis=1)))
        wall_margins = np.minimum(
            self.half - np.abs(self.positions[:, 0]), self.half - np.abs(self.positions[:, 1])
        )
        opp_pos = np.array([self.opponent.x, self.opponent.y])
        opp_dists = np.linalg.norm(self.positions - opp_pos, axis=1)
        pair_dists = np.array(
            [
                np.linalg.norm(self.positions[i] - self.positions[j])
                for i, j in ((0, 1), (0, 2), (1, 2))
            ]
        )
        formation_error = float(np.max(np.abs(pair_dists - self.l_target)))
        agent_collision = bool(np.any(pair_dists < self.agent_collision_dist))
        obstacle_hit = bool(np.any(opp_dists < self.obstacle_hit_dist))
        converged = goal_dist < self.converge_dist

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
        reward = formation_rewards(snap)
        self.steps += 1
        done = converged or self.steps >= self.episode_cap
        info = {
            "reward_snapshot": snap,
            "events": {
                "converged": converged,
                "agent_collision": agent_collision,
                "obstacle_hit": obstacle_hit,
            },
        }
        return self._observation(), reward, bool(done), info

    def _observation(self) -> np.ndarray:
        centroid = self.positions.mean(axis=0)
        rel_agents = (self.positions - centroid).ravel()
        opp = np.array(
            [
                self.opponent.x - centroid[0],
                self.opponent.y - centroid[1],
                self.opponent.direction * self.opponent.speed,
            ]
        )
        pair_dists = np.array(
            [
                np.linalg.norm(self.positions[i] - self.positions[j]) - self.l_target
                for i, j in ((0, 1), (0, 2), (1, 2))
            ]
        )
        return np.concatenate([self.goal - centroid, rel_agents, opp, pair_dists])
