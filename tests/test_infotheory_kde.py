"""Tests for repro.infotheory.kde."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.infotheory.kde import kde_entropy, kde_multi_information


class TestKdeEntropy:
    def test_gaussian_entropy(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(0, 1, size=(3000, 1))
        true = 0.5 * np.log2(2 * np.pi * np.e)
        assert kde_entropy(samples) == pytest.approx(true, abs=0.15)

    def test_scaling_behaviour(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=(2000, 1))
        assert kde_entropy(4 * samples) - kde_entropy(samples) == pytest.approx(2.0, abs=0.2)

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            kde_entropy(np.zeros((2, 1)))


class TestKdeMultiInformation:
    def test_correlated_gaussians(self):
        rng = np.random.default_rng(2)
        rho = 0.8
        xy = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=2500)
        true = -0.5 * np.log2(1 - rho**2)
        estimate = kde_multi_information([xy[:, :1], xy[:, 1:]])
        assert estimate == pytest.approx(true, abs=0.2)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(3)
        variables = [rng.standard_normal((2500, 1)) for _ in range(2)]
        assert abs(kde_multi_information(variables)) < 0.15


class TestDeferredScipyStats:
    def test_import_leaves_scipy_stats_out_until_the_first_kde(self):
        # scipy.stats is about 0.45 s of a fresh process's start-up and the
        # KDE baseline is its only user, so importing the package (and the
        # CLI) must not load it; the first KDE does, with the same result.
        samples = np.random.default_rng(7).standard_normal((200, 2))
        code = textwrap.dedent(
            """
            import sys
            import numpy as np
            import repro, repro.cli
            print("scipy.stats" in sys.modules)
            from repro.infotheory import kde_entropy
            samples = np.random.default_rng(7).standard_normal((200, 2))
            print(kde_entropy(samples).hex())
            print("scipy.stats" in sys.modules)
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        before, value, after = done.stdout.split()
        assert before == "False"
        assert after == "True"
        assert value == kde_entropy(samples).hex()
