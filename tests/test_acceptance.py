"""End-to-end acceptance checks for the toolkit.

Each test covers one release criterion, measures its margin, and prints a
single ``[ k/13] name: PASS/FAIL (...)`` line (run with ``-s`` to see the
lines as they appear).  Criteria with stated runtime budgets assert them.
"""

import itertools
import time

import numpy as np
import pytest

from pastarl import metrics, toybench
from pastarl.cli import main as cli_main
from pastarl.config import DEFAULT_PREFERENCES_M3
from pastarl.controller import SmoothnessController, base_decay
from pastarl.envs import make_env
from pastarl.envs.base import REWARD_FUNCTIONS, TrajectoryRecorder, replay_rewards
from pastarl.nn import Network
from pastarl.scalarize import stch_attention, tch_worst_index, utopia_point
from pastarl.surgery import project_conflicts
from pastarl.trainer import TrainConfig, Trainer, deterministic_returns
from tests.oracles import stch_scalarize
from tests.test_trainer import iterate


def report(index: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{index:2d}/13] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def random_simplex(rng, m):
    w = rng.dirichlet(np.ones(m))
    return np.maximum(w, 1e-6) / np.maximum(w, 1e-6).sum()


def test_01_smooth_worst_case_sandwich_bound():
    """0 <= smooth value minus hard worst-case <= mu * ln m on 10^4 instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    min_excess, min_slack = np.inf, np.inf
    for _ in range(10_000):
        m = int(rng.integers(2, 5))
        w = random_simplex(rng, m)
        r = rng.uniform(0.0, 1.0, m)
        mu = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        z = utopia_point(m, 1.05)
        s = stch_scalarize(r, w, z, mu)
        hard = float(np.max(w * (z - r)))
        excess = (-s) - hard
        min_excess = min(min_excess, excess)
        min_slack = min(min_slack, mu * np.log(m) + 1e-9 - excess)
    elapsed = time.perf_counter() - t0
    # The lower bound holds mathematically; -1e-12 absorbs the one-ulp
    # reconstruction rounding of mu * (hard/mu + log-sum).
    ok = min_excess >= -1e-12 and min_slack >= 0.0 and elapsed < 1.0
    report(
        1,
        "smooth-worst-case-sandwich-bound",
        ok,
        f"min_excess={min_excess:.2e}, min_slack={min_slack:.2e}, {elapsed:.2f}s",
    )


def test_02_attention_matches_finite_difference_gradient():
    """Softmax attention times weights equals d(smooth value)/d(returns)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 5))
        w = random_simplex(rng, m)
        r = rng.uniform(0.0, 1.0, m)
        mu = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        z = utopia_point(m, 1.05)
        analytic = w * stch_attention(r, w, z, mu)
        h = 1e-4 * mu
        fd = np.zeros(m)
        for i in range(m):
            up, dn = r.copy(), r.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (stch_scalarize(up, w, z, mu) - stch_scalarize(dn, w, z, mu)) / (2 * h)
        worst = max(worst, np.linalg.norm(fd - analytic) / np.linalg.norm(analytic))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 1.0
    report(2, "attention-finite-difference-identity", ok, f"max_rel={worst:.2e}, {elapsed:.2f}s")


def test_03_network_gradients_match_finite_differences():
    """Reverse-mode gradients vs central differences on every production
    architecture (actor backbone and mean head, critic trunk, branch head,
    shared critic), 100 seeds each."""
    t0 = time.perf_counter()
    archs = [
        ([13, 64, 64], ["tanh", "tanh"]),          # actor backbone / critic trunk
        ([64, 2], ["sigmoid"]),                    # actor mean head
        ([64, 64, 1], ["tanh", "identity"]),       # branched-critic value head
        ([13, 64, 64, 64, 3], ["tanh", "tanh", "tanh", "identity"]),  # shared critic
    ]
    h = 3e-5
    worst = 0.0
    for dims, acts in archs:
        for seed in range(100):
            rng = np.random.default_rng(seed)
            net = Network.random(dims, acts, rng)
            x = rng.normal(size=(4, dims[0]))
            up = rng.normal(size=(4, dims[-1]))
            out, tape = net.forward(x)
            analytic, _ = net.backward(tape, up)
            flat = net.params.copy()
            idx = rng.choice(flat.size, size=min(40, flat.size), replace=False)
            fd = np.zeros(idx.size)
            for k, j in enumerate(idx):
                for sign in (+1.0, -1.0):
                    probe = flat.copy()
                    probe[j] += sign * h
                    net.params[:] = probe
                    val, _ = net.forward(x)
                    fd[k] += sign * float(np.sum(up * val))
                fd[k] /= 2 * h
            net.params[:] = flat
            rel = np.linalg.norm(fd - analytic[idx]) / np.linalg.norm(analytic[idx])
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    report(3, "network-gradient-finite-differences", ok, f"max_rel={worst:.2e}, {elapsed:.1f}s")


def test_04_gae_matches_direct_weighted_sum():
    """Backward recursion equals the explicit (gamma*lambda)^l delta sum."""
    from pastarl.gae import RolloutBatch, compute_gae

    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    gamma, lam = 0.99, 0.95
    worst = 0.0
    for _ in range(200):
        T = int(rng.integers(1, 11))
        m = int(rng.integers(1, 4))
        rewards = rng.normal(size=(T, m))
        values = rng.normal(size=(T + 1, m))
        dones = rng.random(T) < 0.25
        batch = RolloutBatch(
            inputs=np.zeros((T, 2)),
            pre_clamp=np.zeros((T, 1)),
            log_probs=np.zeros(T),
            rewards=rewards,
            dones=dones,
            values=values,
        )
        compute_gae(batch, gamma, lam)
        nd = 1.0 - dones.astype(np.float64)
        delta = rewards + gamma * nd[:, None] * values[1:] - values[:-1]
        expected = np.zeros((T, m))
        for t in range(T):
            weight = 1.0
            for l in range(t, T):
                expected[t] += weight * delta[l]
                if dones[l]:
                    break
                weight *= gamma * lam
        worst = max(worst, float(np.max(np.abs(batch.advantages - expected))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    report(4, "gae-direct-sum-equivalence", ok, f"max_abs={worst:.2e}, {elapsed:.2f}s")


def test_05_gradient_projection_contract():
    """Every applied projection leaves a non-negative dot against the original
    counter-gradient; antiparallel pairs annihilate; the conflict ratio
    matches a hand count exactly."""
    t0 = time.perf_counter()
    worst_dot = 0.0
    for case in range(1000):
        rng = np.random.default_rng(5000 + case)
        m = int(rng.integers(2, 6))
        d = int(rng.integers(2, 11))
        g = rng.normal(size=(m, d))
        res = project_conflicts(g, np.random.default_rng(9000 + case))
        mirror = np.random.default_rng(9000 + case)
        work = g.copy()
        conflicts = 0
        for i in range(m):
            others = np.delete(np.arange(m), i)
            for j in mirror.permutation(others):
                dot = float(work[i] @ g[j])
                if dot < 0.0:
                    conflicts += 1
                    work[i] = work[i] - (dot / float(g[j] @ g[j])) * g[j]
                    after = float(work[i] @ g[j])
                    worst_dot = min(worst_dot, after)
                    assert after >= -1e-9
        np.testing.assert_allclose(res.grads, work, rtol=1e-10, atol=1e-12)
        assert res.conflicts_found == conflicts
        assert res.kappa == conflicts / (m * (m - 1))
    # Antiparallel gradients cancel to floating-point dust.
    rng = np.random.default_rng(55)
    worst_residual = 0.0
    for _ in range(100):
        g0 = rng.normal(size=6)
        g = np.stack([g0, -g0])
        res = project_conflicts(g, np.random.default_rng(1))
        residual = float(np.max(np.abs(res.grads))) / float(np.max(np.abs(g0)))
        worst_residual = max(worst_residual, residual)
        assert res.kappa == 1.0
    elapsed = time.perf_counter() - t0
    ok = worst_dot >= -1e-9 and worst_residual < 1e-12 and elapsed < 1.0
    report(
        5,
        "gradient-projection-contract",
        ok,
        f"min_dot={worst_dot:.1e}, annihilation_residual={worst_residual:.1e}, {elapsed:.2f}s",
    )


def test_06_controller_dynamics():
    """(a) exact base tracking below the conflict threshold, (b) elastic
    recovery within 200 iterations of a conflict spike, (c) sustained maximal
    conflict pins mu near mu_max."""
    t0 = time.perf_counter()
    base_cfg = dict(mu_start=10.0, mu_min=0.05, mu_max=10.0, tau=0.4, total_iterations=400)

    # (a) lambda = 1 with kappa <= tau follows the decay schedule exactly,
    # and the default EMA matches an in-test scalar recursion.
    rng = np.random.default_rng(606)
    c = SmoothnessController(TrainConfig(lambda_ema=1.0, **base_cfg))
    exact = True
    for t in range(400):
        tr = c.step(float(rng.uniform(0.0, 0.4)))
        exact = exact and tr.mu == base_decay(c.cfg, t)
    cfg = TrainConfig(lambda_ema=0.05, **base_cfg)
    c2 = SmoothnessController(cfg)
    mu_ref = cfg.mu_start
    worst_rec = 0.0
    for t in range(400):
        kappa = float(rng.uniform(0.0, 1.0))
        tr = c2.step(kappa)
        mb = base_decay(cfg, t)
        beta = (kappa - cfg.tau) / (1.0 - cfg.tau) if kappa > cfg.tau else 0.0
        mu_star = mb + beta * (cfg.mu_max - mb)
        mu_ref = (1.0 - cfg.lambda_ema) * mu_ref + cfg.lambda_ema * mu_star
        worst_rec = max(worst_rec, abs(tr.mu - mu_ref) / mu_ref)

    # (b) 5-iteration kappa = 0.9 spike: back within 1% of the no-spike
    # trajectory within 200 iterations of the spike's end.
    spiked = SmoothnessController(TrainConfig(lambda_ema=0.05, **base_cfg))
    calm = SmoothnessController(TrainConfig(lambda_ema=0.05, **base_cfg))
    gap_at_check = None
    for t in range(256):
        kappa = 0.9 if 50 <= t < 55 else 0.2
        mu_s = spiked.step(kappa).mu
        mu_c = calm.step(0.2).mu
        if t == 255:
            gap_at_check = abs(mu_s - mu_c) / mu_c

    # (c) decay for 100 steps, then kappa = 1 brakes mu back toward mu_max.
    brake = SmoothnessController(TrainConfig(lambda_ema=0.05, **base_cfg))
    for _ in range(100):
        brake.step(0.0)
    for _ in range(150):
        mu_final = brake.step(1.0).mu
    brake_err = abs(mu_final - 10.0) / 10.0

    elapsed = time.perf_counter() - t0
    ok = (
        exact
        and worst_rec < 1e-14
        and gap_at_check < 0.01
        and brake_err < 0.01
        and elapsed < 1.0
    )
    report(
        6,
        "controller-dynamics",
        ok,
        f"recursion_err={worst_rec:.1e}, spike_gap={gap_at_check:.2e}, "
        f"brake_err={brake_err:.2e}, {elapsed:.2f}s",
    )


def test_07_concave_front_recovery():
    """Linear scalarization collapses to the concave front's endpoints while
    small-mu smooth Tchebycheff recovers the weight-matched interior point,
    each on >= 90% of 50 runs."""
    t0 = time.perf_counter()
    mop = toybench.concave_mop(spread=1.7)
    front, _ = toybench.pareto_grid_oracle(mop, resolution=600)
    n = 50
    ts = np.linspace(0.15, 0.85, n)
    W = np.stack([ts, 1.0 - ts], axis=-1)
    X0 = np.random.default_rng(0).uniform(mop.lo, mop.hi, size=(n, 2))
    _, f_lin = toybench.solve_scalarized(mop, "linear", W, X0)
    _, f_stch = toybench.solve_scalarized(mop, "stch", W, X0, mu=0.05)
    d_end = np.linalg.norm(f_lin - toybench.nearest_endpoint(front, f_lin), axis=-1)
    lin_hits = int(np.sum(d_end < 1e-2))
    oracle = toybench.stch_oracle_point(front, W, mu=0.05)
    stch_hits = int(np.sum(np.linalg.norm(f_stch - oracle, axis=-1) < 1e-2))
    elapsed = time.perf_counter() - t0
    ok = lin_hits >= 45 and stch_hits >= 45 and elapsed < 30.0
    report(
        7,
        "concave-front-recovery",
        ok,
        f"linear_endpoint_hits={lin_hits}/{n}, stch_oracle_hits={stch_hits}/{n}, {elapsed:.1f}s",
    )


def test_08_hypervolume_exactness():
    """Exact HV equals inclusion-exclusion on <=3-point sets and agrees with
    a 10^6-sample Monte-Carlo estimate within 3 standard errors."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 5))
        pts = rng.uniform(0.0, 1.0, size=(n, m))
        exact = metrics.hypervolume(pts)
        ie = 0.0
        for k in range(1, n + 1):
            for sub in itertools.combinations(range(n), k):
                ie += (-1) ** (k + 1) * float(np.prod(pts[list(sub)].min(axis=0)))
        worst = max(worst, abs(exact - ie))

    worst_sigma = 0.0
    n_samples = 1_000_000
    for case in range(5):
        pts = np.random.default_rng(900 + case).uniform(0.05, 1.0, size=(10, 3))
        exact = metrics.hypervolume(pts)
        x = np.random.default_rng(1900 + case).uniform(0.0, 1.0, size=(n_samples, 3))
        covered = np.zeros(n_samples, dtype=bool)
        for p in pts:
            covered |= np.all(x <= p, axis=1)
        p_hat = covered.mean()
        se = np.sqrt(p_hat * (1.0 - p_hat) / n_samples)
        worst_sigma = max(worst_sigma, abs(exact - p_hat) / se)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and worst_sigma <= 3.0 and elapsed < 60.0
    report(
        8,
        "hypervolume-exactness",
        ok,
        f"ie_max_abs={worst:.1e}, mc_max_sigma={worst_sigma:.2f}, {elapsed:.1f}s",
    )


def test_09_mu_limits_interpolate_tch_and_linear():
    """mu -> 0 concentrates attention on the hard worst objective; mu = 10
    spreads it to within 0.02 of uniform at the canonical m=3 preferences."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    z = utopia_point(3, 1.05)
    agree = total = 0
    worst_spread = 0.0
    for _ in range(1000):
        w = np.array(DEFAULT_PREFERENCES_M3[rng.integers(len(DEFAULT_PREFERENCES_M3))])
        r = rng.uniform(0.0, 1.0, 3)
        dev = np.sort(w * (z - r))[::-1]
        if dev[0] - dev[1] > 1e-2:
            total += 1
            sharp = stch_attention(r, w, z, 0.01)
            if int(np.argmax(sharp)) == tch_worst_index(r, w, z)[0]:
                agree += 1
        smooth = stch_attention(r, w, z, 10.0)
        worst_spread = max(worst_spread, float(np.max(np.abs(smooth - 1.0 / 3.0))))
    rate = agree / total
    elapsed = time.perf_counter() - t0
    ok = rate >= 0.999 and worst_spread < 0.02 and elapsed < 1.0
    report(
        9,
        "mu-limit-behavior",
        ok,
        f"tch_agreement={rate:.4f} ({agree}/{total}), uniform_dev={worst_spread:.4f}, "
        f"{elapsed:.2f}s",
    )


def _eval_episode_returns(trainer, episodes=8, seed=12345):
    rng = np.random.default_rng(seed)
    return deterministic_returns(trainer.actor, trainer.eval_env, trainer.w, rng, episodes)


def test_10_training_improves_river_crossing():
    """Adaptive training on the river-crossing task: final evaluation
    hypervolume strictly beats the untrained policy's for 3/3 seeds, with mu
    and kappa inside their contractual ranges throughout."""
    t0 = time.perf_counter()
    improved = 0
    bounds_ok = True
    for seed in (0, 1, 2):
        cfg = TrainConfig(
            algorithm="pasta",
            env_name="frogger",
            preference=(1 / 3, 1 / 3, 1 / 3),
            horizon=256,
            total_iterations=50,
            seed=seed,
        )
        tr = Trainer(cfg)
        before = _eval_episode_returns(tr)
        for _ in range(50):
            rep = iterate(tr)
            bounds_ok = bounds_ok and 0.05 <= rep.mu <= 10.0 and 0.0 <= rep.kappa <= 1.0
        after = _eval_episode_returns(tr)
        normed = metrics.normalize_points({"before": before, "after": after})
        if metrics.hypervolume(normed["after"]) > metrics.hypervolume(normed["before"]):
            improved += 1
    elapsed = time.perf_counter() - t0
    ok = improved == 3 and bounds_ok and elapsed < 300.0
    report(
        10,
        "training-improves-river-crossing",
        ok,
        f"improved={improved}/3, bounds_ok={bounds_ok}, {elapsed:.0f}s",
    )


def _reward_oracle(env_name: str, s: dict) -> np.ndarray:
    if env_name == "stealth":
        return np.array([
            min(max(10.0 * s["n_new"] + 0.05 * s["vision_sum"], 0.0), 10.0 * s["n_targets"]),
            min(max(1.0 - s["d_risk"] / s["d_max"] - s["collided"], 0.0), 1.0),
            min(max(2.0 * s["displacement"], 0.0), 1.0),
        ])
    if env_name == "frogger":
        crash = max(s["collided"], s["out_of_bounds"])
        return np.array([
            min(max(s["prev_goal_dist"] - s["goal_dist"], -1.0), 1.0)
            + 10.0 * s["reached_goal"] - 15.0 * crash,
            0.1 * min(max(s["d_wall"] / 0.2, 0.0), 1.0) - 25.0 * s["out_of_bounds"],
            0.1 * min(max(s["d_opp"] / 0.3, 0.0), 1.0) - 25.0 * s["collided"],
        ])
    if env_name == "formation":
        e = s["formation_error"]
        return np.array([
            5.0 * (s["prev_goal_dist"] - s["goal_dist"]) - 0.1 * s["mean_effort"]
            + 10.0 * s["converged"] - 5.0 * s["collided"],
            0.1 * min(max(s["min_wall_margin"] / 0.2, 0.0), 1.0),
            0.2 * min(max(s["min_opp_dist"] / 0.4, 0.0), 1.0) - 10.0 * s["obstacle_hit"],
            np.exp(-5.0 * e) - min(max(e, 0.0), 1.0),
        ])
    return np.array([s["a0"], 1.0 - s["a0"]])


def _hand_snapshots(env_name: str, rng) -> list[dict]:
    """20 snapshots per environment, the first few pinned to event branches."""
    snaps = []
    for k in range(20):
        if env_name == "stealth":
            snaps.append({
                "n_new": int(rng.integers(0, 3)),
                "vision_sum": float(rng.uniform(0.0, 120.0)),
                "n_targets": 5,
                "d_risk": float(rng.uniform(0.0, 0.75)),
                "d_max": 0.75,
                "collided": int(k == 0),
                "displacement": float(rng.uniform(0.0, 0.6)),
            })
        elif env_name == "frogger":
            snaps.append({
                "prev_goal_dist": float(rng.uniform(0.0, 2.0)),
                "goal_dist": float(rng.uniform(0.0, 2.0)),
                "reached_goal": int(k == 0),
                "collided": int(k == 1),
                "out_of_bounds": int(k == 2),
                "d_wall": float(rng.uniform(0.0, 0.5)),
                "d_opp": float(rng.uniform(0.0, 0.6)),
            })
        elif env_name == "formation":
            snaps.append({
                "prev_goal_dist": float(rng.uniform(0.0, 2.0)),
                "goal_dist": float(rng.uniform(0.0, 2.0)),
                "mean_effort": float(rng.uniform(0.0, 1.0)),
                "converged": int(k == 0),
                "collided": int(k == 1),
                "obstacle_hit": int(k == 2),
                "min_wall_margin": float(rng.uniform(0.0, 0.5)),
                "min_opp_dist": float(rng.uniform(0.0, 0.8)),
                "formation_error": float(rng.uniform(0.0, 1.5)),
            })
        else:
            snaps.append({"a0": float(rng.uniform(0.0, 1.0))})
    return snaps


def test_11_environment_reward_fidelity(tmp_path):
    """Recorded trajectories replay bit-identically and 20 hand-constructed
    transitions per environment match the reward formulas to 1e-12,
    exercising the +10/-15/-25/-10 event constants."""
    t0 = time.perf_counter()
    env_names = ("stealth", "frogger", "formation", "stub")
    worst = 0.0
    replay_exact = True
    for name in env_names:
        env = make_env(name)
        rng = np.random.default_rng(42)
        rec = TrajectoryRecorder()
        obs = env.reset(rng)
        for _ in range(50):
            action = rng.uniform(0.0, 1.0, env.action_dim)
            obs, r, done, info = env.step(action)
            rec.on_step(name, info["reward_snapshot"], r)
            if done:
                obs = env.reset(rng)
        path = tmp_path / f"{name}.jsonl"
        rec.save(path)
        for logged, replayed in replay_rewards(TrajectoryRecorder.load(path)):
            replay_exact = replay_exact and bool(np.array_equal(logged, replayed))

        for snap in _hand_snapshots(name, np.random.default_rng(7)):
            got = REWARD_FUNCTIONS[name](snap)
            want = _reward_oracle(name, snap)
            worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - t0
    ok = replay_exact and worst < 1e-12
    report(
        11,
        "environment-reward-fidelity",
        ok,
        f"replay_exact={replay_exact}, hand_formula_max_abs={worst:.1e}, {elapsed:.1f}s",
    )


TINY_INI = """
[environment]
name = stub
episode_cap = 8

[ppo]
horizon = 64
epochs = 2
minibatch = 32
total_iterations = 3
seed = 7
hidden = 16

[output]
eval_every = 2
eval_episodes = 2
"""


def test_12_manifest_rerun_determinism(tmp_path):
    """Re-running from a manifest reproduces the metrics CSV byte for byte."""
    t0 = time.perf_counter()
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_INI)
    assert cli_main(["train", "--config", str(ini), "--out", str(tmp_path / "a")]) == 0
    assert cli_main([
        "train", "--manifest", str(tmp_path / "a" / "manifest.json"),
        "--out", str(tmp_path / "b"),
    ]) == 0
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    eval_a = (tmp_path / "a" / "eval.csv").read_bytes()
    eval_b = (tmp_path / "b" / "eval.csv").read_bytes()
    elapsed = time.perf_counter() - t0
    ok = a == b and eval_a == eval_b
    report(
        12,
        "manifest-rerun-determinism",
        ok,
        f"metrics_identical={a == b}, eval_identical={eval_a == eval_b}, {elapsed:.1f}s",
    )


def test_13_metric_pipeline_fixture():
    """Planted per-method hypervolumes reproduce hand-computed win rate,
    objective dominance rate (14/24), and profile AUC to 1e-12."""
    t0 = time.perf_counter()
    hv = np.array([
        [0.30, 0.40, 0.50, 0.20],
        [0.30, 0.35, 0.55, 0.10],
        [0.25, 0.40, 0.55, 0.20],
    ])
    wr = metrics.win_rate(hv)
    wr_err = float(np.max(np.abs(wr - np.array([0.75, 0.5, 0.75]))))

    # 8 preferences x 3 objectives; method 0 takes the first 14 cells.
    cells = np.zeros((2, 24))
    cells[0, :14], cells[1, :14] = 1.0, 0.5
    cells[0, 14:], cells[1, 14:] = 0.5, 1.0
    odr = metrics.objective_dominance_rate(cells.reshape(2, 8, 3))
    odr_err = float(np.max(np.abs(odr - np.array([14 / 24, 10 / 24]))))

    inst_hv = np.array([[0.4, 0.2], [0.3, 0.3], [0.5, 0.25]])
    auc = metrics.dolan_more_auc(inst_hv)
    ratios, grid = metrics.dolan_more_profile(inst_hv)
    oracle = np.zeros(2)
    for b in range(2):
        rho = np.array([(ratios[:, b] <= th).mean() for th in grid])
        area = 0.0
        for k in range(len(grid) - 1):
            area += 0.5 * (rho[k] + rho[k + 1]) * (grid[k + 1] - grid[k])
        oracle[b] = area / (grid[-1] - 1.0)
    auc_err = float(np.max(np.abs(auc - oracle)))
    closed_form_err = float(np.max(np.abs(auc - np.array([1.0, 2.0 / 3.0]))))

    elapsed = time.perf_counter() - t0
    ok = wr_err < 1e-12 and odr_err < 1e-12 and auc_err < 1e-12 and closed_form_err < 1e-12
    report(
        13,
        "metric-pipeline-fixture",
        ok,
        f"win_rate_err={wr_err:.1e}, dominance_err={odr_err:.1e}, auc_err={auc_err:.1e}, "
        f"{elapsed:.2f}s",
    )
