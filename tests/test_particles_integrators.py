"""Tests for repro.particles.integrators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.particles.integrators import (
    DEFAULT_NOISE_VARIANCE,
    EulerMaruyama,
    StochasticHeun,
    get_integrator,
)


def _linear_drift(rate: float):
    def drift(z: np.ndarray) -> np.ndarray:
        return -rate * z

    return drift


class TestEulerMaruyama:
    def test_deterministic_step_without_noise(self, rng):
        stepper = EulerMaruyama(noise_variance=0.0)
        z0 = np.array([[1.0, 2.0]])
        z1 = stepper.step(z0, -z0, _linear_drift(1.0), dt=0.1, rng=rng)
        np.testing.assert_allclose(z1, z0 * 0.9)

    def test_noise_scale(self):
        # With zero drift, the per-step variance should be dt * noise_variance.
        stepper = EulerMaruyama(noise_variance=0.5)
        rng = np.random.default_rng(0)
        z0 = np.zeros((20000, 2))
        z1 = stepper.step(z0, np.zeros_like(z0), lambda z: np.zeros_like(z), dt=0.2, rng=rng)
        assert np.isclose(z1.var(), 0.2 * 0.5, rtol=0.05)

    @pytest.mark.parametrize("scheme", [EulerMaruyama, StochasticHeun])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_noise_variance_rejected(self, scheme, value):
        with pytest.raises(ValueError, match="noise_variance must be non-negative"):
            scheme(noise_variance=value)

    def test_invalid_dt(self, rng):
        stepper = EulerMaruyama()
        with pytest.raises(ValueError):
            stepper.step(np.zeros((2, 2)), np.zeros((2, 2)), _linear_drift(1.0), dt=0.0, rng=rng)

    def test_decay_to_origin_without_noise(self, rng):
        stepper = EulerMaruyama(noise_variance=0.0)
        z = np.array([[5.0, -3.0]])
        for _ in range(200):
            z = stepper.step(z, -z, _linear_drift(1.0), dt=0.05, rng=rng)
        assert np.linalg.norm(z) < 1e-3


class TestStochasticHeun:
    def test_more_accurate_than_euler_for_smooth_drift(self, rng):
        # Exact solution of dz/dt = -z over total time T is z0 * exp(-T).
        z0 = np.array([[1.0, 0.0]])
        total_time, n_steps = 1.0, 20
        dt = total_time / n_steps
        exact = z0 * np.exp(-total_time)

        def integrate(stepper):
            z = z0.copy()
            for _ in range(n_steps):
                z = stepper.step(z, -z, _linear_drift(1.0), dt=dt, rng=rng)
            return z

        euler_error = np.abs(integrate(EulerMaruyama(noise_variance=0.0)) - exact).max()
        heun_error = np.abs(integrate(StochasticHeun(noise_variance=0.0)) - exact).max()
        assert heun_error < euler_error

    def test_shares_noise_between_predictor_and_corrector(self):
        # With zero drift, Heun must reduce to a single Gaussian increment
        # (same statistics as Euler-Maruyama), not two.
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        z0 = np.zeros((100, 2))
        zero = np.zeros_like(z0)
        heun = StochasticHeun(noise_variance=1.0).step(z0, zero, np.zeros_like, 0.1, rng_a)
        euler = EulerMaruyama(noise_variance=1.0).step(z0, zero, np.zeros_like, 0.1, rng_b)
        np.testing.assert_allclose(heun, euler)


class TestStartDrift:
    """The caller supplies the drift at the start; ``drift_fn`` sees intermediate states only."""

    @pytest.mark.parametrize("scheme, predictor_calls", [(EulerMaruyama, 0), (StochasticHeun, 1)])
    def test_drift_fn_evaluates_only_the_predictor(self, scheme, predictor_calls):
        drift = _linear_drift(0.7)
        calls = []

        def counting(z):
            calls.append(z)
            return drift(z)

        z0 = np.random.default_rng(3).normal(size=(5, 4, 2))
        scheme(noise_variance=0.05).step(z0, drift(z0), counting, 0.1, np.random.default_rng(9))
        assert len(calls) == predictor_calls
        assert not any(np.array_equal(z, z0) for z in calls)


class TestRegistry:
    def test_default_noise_variance_is_papers(self):
        assert DEFAULT_NOISE_VARIANCE == pytest.approx(0.05)

    def test_lookup(self):
        assert isinstance(get_integrator("euler-maruyama"), EulerMaruyama)
        assert isinstance(get_integrator("euler"), EulerMaruyama)
        assert isinstance(get_integrator("heun"), StochasticHeun)

    def test_instance_passthrough(self):
        stepper = EulerMaruyama(noise_variance=0.1)
        assert get_integrator(stepper) is stepper

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_integrator("rk4")

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            EulerMaruyama(noise_variance=-0.1)

