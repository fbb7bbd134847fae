"""Tests for repro.core.experiments (the figure experiment registry)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiments import (
    ExperimentScale,
    all_figure_specs,
    default_scale,
    fig2_force_curves,
    fig3_equilibria,
    fig4_multi_information,
    fig5_single_type_f1,
    fig8_type_sweep_plan,
    fig9_radius_sweep_plan,
    fig10_types_and_radius_plan,
    fig11_decomposition,
    fig12_emergent_structures,
    params_from_preferred_distances,
    random_preferred_distance_params,
    _spread_counts,
)


class TestScale:
    def test_reduced_smaller_than_full(self):
        reduced, full = ExperimentScale.reduced(), ExperimentScale.full()
        assert reduced.n_samples < full.n_samples
        assert reduced.n_steps < full.n_steps
        assert reduced.sweep_repeats < full.sweep_repeats

    def test_env_var_controls_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert default_scale().n_samples == ExperimentScale.full().n_samples
        monkeypatch.setenv("REPRO_FULL", "0")
        assert default_scale().n_samples == ExperimentScale.reduced().n_samples

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert default_scale(full=False).n_samples == ExperimentScale.reduced().n_samples


class TestParamsFromPreferredDistances:
    def test_f1_uses_r_directly(self):
        params = params_from_preferred_distances([[2.0, 4.0], [4.0, 2.0]], force="F1", k=2.0)
        np.testing.assert_allclose(params.r, [[2.0, 4.0], [4.0, 2.0]])
        np.testing.assert_allclose(params.k, 2.0)

    def test_f2_maps_r_to_tau(self):
        params = params_from_preferred_distances([[3.0]], force="F2")
        np.testing.assert_allclose(params.tau, [[9.0]])
        np.testing.assert_allclose(params.sigma, [[1.0]])

    def test_f2_tau_floor(self):
        params = params_from_preferred_distances([[0.5]], force="F2", tau_floor=1.0)
        np.testing.assert_allclose(params.tau, [[1.0]])

    def test_unknown_force(self):
        with pytest.raises(ValueError):
            params_from_preferred_distances([[1.0]], force="F7")

    def test_random_params_symmetric(self):
        params = random_preferred_distance_params(4, force="F1", r_range=(2.0, 8.0), k_value=1.0, rng=0)
        np.testing.assert_allclose(params.r, params.r.T)
        assert params.r.min() >= 2.0 and params.r.max() <= 8.0
        np.testing.assert_allclose(params.k, 1.0)


class TestSpreadCounts:
    def test_even_split(self):
        assert _spread_counts(20, 5) == (4, 4, 4, 4, 4)

    def test_remainder_distributed(self):
        assert _spread_counts(20, 3) == (7, 7, 6)

    def test_one_type(self):
        assert _spread_counts(20, 1) == (20,)

    def test_validation(self):
        with pytest.raises(ValueError):
            _spread_counts(3, 5)
        with pytest.raises(ValueError):
            _spread_counts(5, 0)


class TestFig2:
    def test_force_curves_structure(self):
        curves = fig2_force_curves()
        assert set(curves) == {"distance", "F1", "F2", "r"}
        assert curves["distance"].shape == curves["F1"].shape == curves["F2"].shape
        # Both curves must show the repulsion (negative) then attraction
        # (positive) shape of the figure.
        for key in ("F1", "F2"):
            assert curves[key].min() < 0 < curves[key].max()


class TestFigureSpecs:
    def test_fig3_counts(self):
        for l in (1, 2, 3):
            spec = fig3_equilibria(l, full=False)
            assert spec.simulation.n_types == l
        with pytest.raises(ValueError):
            fig3_equilibria(4)

    def test_fig4_matches_caption(self):
        spec = fig4_multi_information(full=False)
        assert spec.simulation.n_particles == 50
        assert spec.simulation.n_types == 3
        assert spec.simulation.cutoff == 5.0
        np.testing.assert_allclose(
            spec.simulation.params.r,
            [[2.5, 5.0, 4.0], [5.0, 2.5, 2.0], [4.0, 2.0, 3.5]],
        )

    def test_fig5_single_type(self):
        spec = fig5_single_type_f1(full=False)
        assert spec.simulation.n_types == 1
        assert spec.simulation.n_particles == 20
        assert spec.simulation.force == "F1"

    def test_fewer_samples_than_the_estimator_needs_rejected(self):
        # k = 4 needs m >= 5: four samples used to construct, hash and
        # simulate, and fail only in the estimator.
        spec = fig5_single_type_f1(full=False)
        assert spec.analysis.k_neighbors == 4
        with pytest.raises(ValueError, match=r"k must satisfy 1 <= k <= m-1 \(m=4\), got 4"):
            spec.with_updates(n_samples=4)
        assert spec.with_updates(n_samples=5).n_samples == 5

    def test_fig8_sweep_structure(self):
        specs = fig8_type_sweep_plan(full=False, n_types_values=(1, 3, 5)).specs()
        n_types = {spec.simulation.n_types for spec in specs}
        assert n_types == {1, 3, 5}
        assert all(spec.simulation.force == "F2" for spec in specs)
        assert all(spec.simulation.n_particles == 20 for spec in specs)

    def test_fig9_sweep_covers_cutoffs(self):
        specs = fig9_radius_sweep_plan(full=False, cutoffs=(2.5, None)).specs()
        cutoffs = {spec.simulation.cutoff for spec in specs}
        assert cutoffs == {2.5, None}
        assert all(spec.simulation.n_types == 20 for spec in specs)

    def test_fig9_repeats_use_different_parameters(self):
        specs = fig9_radius_sweep_plan(full=False, cutoffs=(5.0,)).specs()
        assert len(specs) >= 2
        assert not np.allclose(specs[0].simulation.params.r, specs[1].simulation.params.r)

    def test_fig9_same_repeat_shares_parameters_across_cutoffs(self):
        specs = fig9_radius_sweep_plan(full=False, cutoffs=(2.5, 15.0)).specs()
        by_cutoff = {}
        for spec in specs:
            by_cutoff.setdefault(spec.simulation.cutoff, []).append(spec)
        # Repeat 0 uses the same random type matrix for every cut-off, so the
        # sweep isolates the effect of r_c (as in the paper).
        np.testing.assert_allclose(
            by_cutoff[2.5][0].simulation.params.r, by_cutoff[15.0][0].simulation.params.r
        )

    def test_fig10_covers_both_type_counts(self):
        specs = fig10_types_and_radius_plan(full=False, type_counts=(5, 20), cutoffs=(10.0,)).specs()
        assert {spec.simulation.n_types for spec in specs} == {5, 20}

    def test_fig11_decomposition_enabled(self):
        spec = fig11_decomposition(full=False)
        assert spec.analysis.compute_decomposition
        assert spec.simulation.n_types == 5
        assert spec.simulation.cutoff == 15.0

    def test_fig12_local_interactions(self):
        spec = fig12_emergent_structures(full=False)
        assert spec.simulation.cutoff is not None
        assert spec.simulation.n_types == 3

    def test_all_figure_specs_complete(self):
        specs = all_figure_specs(full=False)
        assert set(specs) == {
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
        }
        assert all(len(entries) >= 1 for entries in specs.values())

    def test_spec_names_unique(self):
        specs = all_figure_specs(full=False)
        names = [spec.name for entries in specs.values() for spec in entries]
        assert len(names) == len(set(names))

    def test_with_updates(self):
        spec = fig5_single_type_f1(full=False)
        renamed = spec.with_updates(name="custom")
        assert renamed.name == "custom"
        assert spec.name != "custom"
