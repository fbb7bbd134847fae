"""Tests for repro.particles.equilibrium."""

from __future__ import annotations

import numpy as np
import pytest

from repro.particles.equilibrium import EquilibriumDetector, total_force_norm


class TestTotalForceNorm:
    def test_single_configuration(self):
        drift = np.array([[3.0, 4.0], [1.0, 0.0]])
        assert total_force_norm(drift) == pytest.approx(6.0)

    def test_batch(self):
        drift = np.ones((3, 4, 2))
        np.testing.assert_allclose(total_force_norm(drift), np.full(3, 4 * np.sqrt(2)))


class TestEquilibriumDetector:
    def test_requires_consecutive_quiet_steps(self):
        detector = EquilibriumDetector(threshold=1.0, patience=3)
        quiet = np.zeros((2, 2))
        loud = np.full((2, 2), 10.0)
        assert detector.update(quiet) is False
        assert detector.update(quiet) is False
        assert detector.update(loud) is False  # resets the counter
        assert detector.update(quiet) is False
        assert detector.update(quiet) is False
        assert detector.update(quiet) is True

    def test_quiet_steps_is_the_current_quiet_run(self):
        detector = EquilibriumDetector(threshold=1.0, patience=10)
        quiet = np.zeros((2, 2))
        loud = np.full((2, 2), 10.0)
        counts = [detector.quiet_steps]
        for drift in (quiet, quiet, quiet, loud, quiet):
            detector.update(drift)
            counts.append(detector.quiet_steps)
        assert counts == [0, 1, 2, 3, 0, 1]

    def test_threshold_itself_is_not_quiet(self):
        # "below a specific threshold" (§4.1): a summed norm equal to the
        # threshold breaks the quiet run.
        drift = np.array([[3.0, 4.0], [0.0, 0.0]])  # summed norm exactly 5
        detector = EquilibriumDetector(threshold=5.0, patience=1)
        assert detector.update(drift) is False
        assert detector.quiet_steps == 0
        assert EquilibriumDetector(threshold=np.nextafter(5.0, np.inf), patience=1).update(drift)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            EquilibriumDetector(threshold=0.0)
        with pytest.raises(ValueError):
            EquilibriumDetector(patience=0)
