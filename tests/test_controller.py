import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pastarl.config import TrainConfig
from pastarl.controller import (
    ControllerTrace,
    SmoothnessController,
    base_decay,
    braking_boost,
    target_mu,
)
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

    def test_disabled_decay_pins_mu_start(self):
        cfg = TrainConfig(controller_mode="no_decay")
        for t in (0, 10, 10_000):
            assert base_decay(cfg, t) == cfg.mu_start


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


class TestTargetMu:
    def test_interpolates_base_toward_max(self):
        mu_b, beta, mu_star = target_mu(CFG, 50, 0.7)
        assert mu_star == pytest.approx(mu_b + beta * (CFG.mu_max - mu_b))
        assert mu_b < mu_star < CFG.mu_max

    def test_no_conflict_reduces_to_base(self):
        mu_b, beta, mu_star = target_mu(CFG, 30, 0.1)
        assert beta == 0.0
        assert mu_star == mu_b


class TestController:
    def test_step_matches_scalar_recursion_oracle(self):
        ctl = SmoothnessController(CFG)
        rng = np.random.default_rng(3)
        kappas = rng.random(60)
        mu = CFG.mu_start
        for t, kappa in enumerate(kappas):
            trace = ctl.step(float(kappa))
            mu_b = CFG.mu_start - (CFG.mu_start - CFG.mu_min) * min(1.0, t / CFG.total_iterations)
            beta = (kappa - CFG.tau) / (1.0 - CFG.tau) if kappa > CFG.tau else 0.0
            mu_star = mu_b + beta * (CFG.mu_max - mu_b)
            mu = (1.0 - CFG.lambda_ema) * mu + CFG.lambda_ema * mu_star
            assert trace.t == t
            assert trace.mu_base == pytest.approx(mu_b, rel=1e-14)
            assert trace.beta == pytest.approx(beta, rel=1e-14)
            assert trace.mu_star == pytest.approx(mu_star, rel=1e-14)
            assert trace.mu == pytest.approx(mu, rel=1e-14)

    def test_lambda_one_tracks_base_schedule_exactly(self):
        cfg = TrainConfig(lambda_ema=1.0, total_iterations=10)
        ctl = SmoothnessController(cfg)
        for t in range(15):
            trace = ctl.step(0.0)
            assert trace.mu == base_decay(cfg, t)

    def test_first_step_uses_t_zero(self):
        ctl = SmoothnessController(CFG)
        trace = ctl.step(0.0)
        assert trace.t == 0
        assert trace.mu_base == CFG.mu_start
        # One EMA step toward mu_star = mu_start leaves mu unchanged.
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
            mu = ctl.step(kappa).mu
            assert CFG.mu_min - 1e-12 <= mu <= CFG.mu_max + 1e-12

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
