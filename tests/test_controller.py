import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pastarl.config import TrainConfig
from pastarl.controller import ControllerTrace, SmoothnessController, base_decay, braking_boost
from pastarl.errors import ConfigError, ContractViolationError

CFG = TrainConfig(
    mu_start=10.0, mu_min=0.05, mu_max=10.0, tau=0.4, lambda_ema=0.05, total_iterations=100
)


class TestBaseDecay:
    def test_linear_anneal_endpoints_and_midpoint(self):
        assert base_decay(CFG, 0) == 10.0
        assert base_decay(CFG, 100) == pytest.approx(0.05)
        assert base_decay(CFG, 50) == pytest.approx((10.0 + 0.05) / 2)

    def test_flat_after_horizon(self):
        assert base_decay(CFG, 100) == base_decay(CFG, 5000)


class TestBrakingBoost:
    def test_zero_at_or_below_threshold(self):
        assert braking_boost(CFG, 0.0) == 0.0
        assert braking_boost(CFG, 0.4) == 0.0

    def test_linear_rescale_above_threshold(self):
        assert braking_boost(CFG, 0.7) == pytest.approx((0.7 - 0.4) / 0.6)
        assert braking_boost(CFG, 1.0) == pytest.approx(1.0)

    def test_disabled_braking_ignores_kappa(self):
        cfg = TrainConfig(controller_mode="no_conflict")
        assert braking_boost(cfg, 0.99) == 0.0

    def test_rejects_kappa_out_of_range(self):
        for kappa in (-0.01, 1.01):
            with pytest.raises(ContractViolationError):
                braking_boost(CFG, kappa)


class TestController:
    """Closed forms of mu = mu_base + l * (mu_max - mu_base), where the lift
    l <- (1 - lambda) * l + lambda * beta starts at 0."""

    def test_a_step_lifts_the_base_toward_mu_max(self):
        ctl = SmoothnessController(CFG)
        for _ in range(50):
            ctl.step(0.0)
        trace = ctl.step(0.7)
        assert trace.lift == CFG.lambda_ema * trace.beta
        assert trace.mu == trace.mu_base + trace.lift * (CFG.mu_max - trace.mu_base)
        assert trace.mu_base < trace.mu < CFG.mu_max

    @pytest.mark.parametrize("lambda_ema", [0.05, 0.3, 1.0])
    def test_without_conflict_mu_is_the_base_schedule_exactly(self, lambda_ema):
        """At kappa = 0 for the defaults' 100 iterations mu anneals all the way:
        the last step reads mu_base(99) = 0.1495, within 3 * mu_min."""
        cfg = TrainConfig(lambda_ema=lambda_ema)
        ctl = SmoothnessController(cfg)
        for t in range(cfg.total_iterations):
            trace = ctl.step(0.0)
            assert trace.lift == 0.0
            assert trace.mu == base_decay(cfg, t)
        assert trace.mu == pytest.approx(0.1495, abs=1e-12)
        assert trace.mu <= 3 * cfg.mu_min

    @pytest.mark.parametrize("lambda_ema", [0.05, 0.3, 1.0])
    def test_conflict_at_or_below_tau_leaves_the_base_schedule_exact(self, lambda_ema):
        cfg = TrainConfig(lambda_ema=lambda_ema)
        ctl = SmoothnessController(cfg)
        kappas = np.random.default_rng(3).uniform(0.0, cfg.tau, 150)
        for t, kappa in enumerate(kappas):
            assert ctl.step(float(kappa)).mu == base_decay(cfg, t)

    @pytest.mark.parametrize("kappa", [0.7, 1.0])
    @pytest.mark.parametrize("lambda_ema", [0.05, 0.3, 1.0])
    def test_sustained_conflict_lifts_in_closed_form(self, lambda_ema, kappa):
        """l = beta * (1 - (1 - lambda)^(t + 1)): at kappa = 1 and the default
        lambda, mu > 0.99 * mu_max after 100 steps."""
        cfg = TrainConfig(lambda_ema=lambda_ema)
        ctl = SmoothnessController(cfg)
        beta = braking_boost(cfg, kappa)
        for t in range(100):
            trace = ctl.step(kappa)
            assert trace.lift == pytest.approx(beta * (1.0 - (1.0 - lambda_ema) ** (t + 1)), abs=1e-14)
        assert trace.mu > trace.mu_base + 0.99 * beta * (cfg.mu_max - trace.mu_base)

    @pytest.mark.parametrize("lambda_ema, settled", [(0.05, 32), (0.3, 10), (1.0, 1)])
    def test_a_spike_relaxes_geometrically(self, lambda_ema, settled):
        """One kappa = 1 step leaves l = lambda * (1 - lambda)^n n steps later,
        under 1 % of mu_max - mu_base from the settled-th step on (the 32nd at
        the default lambda)."""
        cfg = TrainConfig(lambda_ema=lambda_ema)
        ctl = SmoothnessController(cfg)
        for _ in range(10):
            ctl.step(0.0)
        for n in range(60):
            trace = ctl.step(1.0 if n == 0 else 0.0)
            assert trace.lift == pytest.approx(lambda_ema * (1.0 - lambda_ema) ** n, abs=1e-14)
            gap = (trace.mu - trace.mu_base) / (cfg.mu_max - trace.mu_base)
            assert (gap < 0.01) == (n >= settled)

    def test_lambda_one_tracks_base_schedule_exactly(self):
        cfg = TrainConfig(lambda_ema=1.0, total_iterations=10)
        ctl = SmoothnessController(cfg)
        for t in range(15):
            trace = ctl.step(0.0)
            assert trace.mu == base_decay(cfg, t)

    @pytest.mark.parametrize("lambda_ema", [0.05, 0.3, 1.0])
    def test_the_lift_weighs_past_betas_geometrically(self, lambda_ema):
        """For any kappas, l_t = sum over s <= t of lambda * (1 - lambda)^(t - s) * beta_s."""
        cfg = TrainConfig(lambda_ema=lambda_ema)
        ctl = SmoothnessController(cfg)
        betas = []
        for t, kappa in enumerate(np.random.default_rng(5).uniform(0.0, 1.0, 120)):
            trace = ctl.step(float(kappa))
            betas.append(braking_boost(cfg, float(kappa)))
            lift = sum(lambda_ema * (1.0 - lambda_ema) ** (t - s) * b for s, b in enumerate(betas))
            assert trace.beta == betas[-1]
            assert trace.lift == pytest.approx(lift, abs=1e-12)
            assert trace.mu == trace.mu_base + trace.lift * (cfg.mu_max - trace.mu_base)

    @pytest.mark.parametrize("lambda_ema", [0.05, 0.3, 1.0])
    def test_a_constant_base_gives_an_ema_of_the_braking_target(self, lambda_ema):
        """With mu_min = mu_start the base is constant, and mu is then the EMA
        of mu_base + beta * (mu_max - mu_base) started at mu_start: what the
        removed no_decay mode computed."""
        cfg = TrainConfig(mu_start=5.0, mu_min=5.0, lambda_ema=lambda_ema)
        ctl = SmoothnessController(cfg)
        mu = cfg.mu_start
        for kappa in np.random.default_rng(7).uniform(0.0, 1.0, 120):
            trace = ctl.step(float(kappa))
            target = cfg.mu_start + trace.beta * (cfg.mu_max - cfg.mu_start)
            mu = (1.0 - lambda_ema) * mu + lambda_ema * target
            assert trace.mu_base == cfg.mu_start
            assert trace.mu == pytest.approx(mu, rel=1e-12)

    @pytest.mark.parametrize("kappa", [0.41, 0.7, 1.0])
    def test_no_conflict_is_the_pure_anneal_at_any_kappa(self, kappa):
        """Without braking the lift never leaves 0, so lambda_ema is not read."""
        cfg = TrainConfig(controller_mode="no_conflict")
        ctl = SmoothnessController(cfg)
        for t in range(cfg.total_iterations + 5):
            trace = ctl.step(kappa)
            assert (trace.beta, trace.lift) == (0.0, 0.0)
            assert trace.mu == base_decay(cfg, t)

    def test_first_step_uses_t_zero(self):
        ctl = SmoothnessController(CFG)
        trace = ctl.step(0.0)
        assert trace.t == 0
        assert trace.mu_base == CFG.mu_start
        assert trace.mu == CFG.mu_start

    def test_spike_recovers_to_base_schedule(self):
        """A 5-iteration conflict spike decays back to within 1% of no-spike mu."""
        cfg = TrainConfig(total_iterations=400)
        spiked = SmoothnessController(cfg)
        calm = SmoothnessController(cfg)
        for t in range(300):
            kappa = 0.9 if 50 <= t < 55 else 0.0
            mu_spiked = spiked.step(kappa).mu
            mu_calm = calm.step(0.0).mu
        assert abs(mu_spiked - mu_calm) / mu_calm < 0.01

    def test_sustained_full_conflict_converges_to_mu_max(self):
        ctl = SmoothnessController(CFG)
        for _ in range(200):
            mu = ctl.step(1.0).mu
        assert abs(mu - CFG.mu_max) / CFG.mu_max < 0.01

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300))
    def test_mu_stays_within_bounds(self, kappas):
        ctl = SmoothnessController(CFG)
        for kappa in kappas:
            trace = ctl.step(kappa)
            assert 0.0 <= trace.lift <= 1.0
            assert CFG.mu_min - 1e-12 <= trace.mu <= CFG.mu_max + 1e-12

    def test_trace_is_complete_record(self):
        trace = SmoothnessController(CFG).step(0.5)
        assert isinstance(trace, ControllerTrace)
        assert trace.kappa == 0.5


class TestConfigValidation:
    def test_rejects_inverted_mu_ordering(self):
        with pytest.raises(ConfigError):
            TrainConfig(mu_start=0.01, mu_min=0.05).validate()
        with pytest.raises(ConfigError):
            TrainConfig(mu_start=20.0, mu_max=10.0).validate()

    def test_rejects_bad_tau_and_lambda(self):
        with pytest.raises(ConfigError):
            TrainConfig(tau=1.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(lambda_ema=0.0).validate()

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ConfigError):
            TrainConfig(total_iterations=0).validate()
