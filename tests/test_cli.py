"""Tests for the repro.cli command-line interface."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig5"])
        assert args.figure == "fig5"
        assert not args.full
        assert args.max_specs is None

    def test_help_text_lists_every_command(self):
        help_text = build_parser().format_help()
        for command in (
            "list", "run", "sweep", "status", "resume", "query",
            "serve-store", "curves", "analyze", "watch",
        ):
            assert command in help_text

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "fig9"])
        assert args.figure == "fig9"
        assert not args.fresh and not args.full and not args.keep_ensembles
        assert args.max_units is None and args.n_jobs is None

    def test_status_accepts_the_same_engine_overrides_as_sweep(self):
        # Engine knobs enter the content hash, so status must be able to
        # build the exact plan an engine-overridden sweep executed.
        args = build_parser().parse_args(["status", "fig9", "--engine", "sparse"])
        assert args.engine == "sparse"

    def test_estimator_flags_are_parsed_on_run_sweep_and_status(self):
        # A non-default estimator backend enters the content hash, so the
        # same override set must round-trip through all three commands.
        for command in ("run", "sweep", "status"):
            args = build_parser().parse_args(
                [command, "fig9", "--estimator-backend", "kdtree", "--workers", "3"]
            )
            assert args.estimator_backend == "kdtree"
            assert args.workers == 3

    def test_estimator_overrides_are_applied_to_the_analysis_config(self):
        from repro.cli import _apply_analysis_overrides
        from repro.core.experiments import all_figure_specs

        args = build_parser().parse_args(
            ["run", "fig5", "--estimator-backend", "auto", "--workers", "-1"]
        )
        spec = _apply_analysis_overrides(all_figure_specs(full=False)["fig5"][0], args)
        assert spec.analysis.estimator_backend == "auto"
        assert spec.analysis.workers == -1

    def test_invalid_workers_is_a_clean_error(self, tmp_path):
        stream = io.StringIO()
        code = main(
            ["run", "fig5", "--workers", "0", "--output", str(tmp_path)], stream=stream
        )
        assert code == 2
        assert "invalid engine/domain/estimator override" in stream.getvalue()
        assert not list(tmp_path.glob("*.json"))  # nothing ran


class TestListCommand:
    def test_lists_every_figure(self):
        stream = io.StringIO()
        assert main(["list"], stream=stream) == 0
        output = stream.getvalue()
        for figure in ("fig3", "fig4", "fig5", "fig9", "fig12"):
            assert figure in output


class TestCurvesCommand:
    def test_prints_plot_and_writes_csv(self, tmp_path):
        stream = io.StringIO()
        csv_path = tmp_path / "curves.csv"
        assert main(["curves", "--output", str(csv_path)], stream=stream) == 0
        assert "F1" in stream.getvalue()
        assert csv_path.exists()


class TestRunCommand:
    def test_unknown_figure_is_an_error(self, tmp_path):
        stream = io.StringIO()
        code = main(["run", "fig99", "--output", str(tmp_path)], stream=stream)
        assert code == 2
        assert "unknown figure" in stream.getvalue()

    def test_fig2_redirects_to_curves(self, tmp_path):
        stream = io.StringIO()
        assert main(["run", "fig2", "--output", str(tmp_path)], stream=stream) == 2

    def test_runs_single_spec_and_writes_outputs(self, tmp_path, monkeypatch):
        # Shrink the reduced scale so the CLI test stays fast.
        from repro.core import experiments as exp_mod

        tiny = exp_mod.ExperimentScale(n_samples=24, n_steps=10, step_stride=5, sweep_repeats=1)
        monkeypatch.setattr(exp_mod, "default_scale", lambda full=None: tiny)

        stream = io.StringIO()
        code = main(
            ["run", "fig5", "--output", str(tmp_path), "--max-specs", "1", "--quiet"],
            stream=stream,
        )
        assert code == 0
        json_files = list(tmp_path.glob("*.json"))
        csv_files = list(tmp_path.glob("*.csv"))
        assert len(json_files) == 1
        assert len(csv_files) == 1
        payload = json.loads(json_files[0].read_text())
        assert "multi_information" in payload
        assert "delta I" in stream.getvalue()

    def test_nonpositive_max_specs_is_an_error(self, tmp_path):
        # Regression test: --max-specs 0 used to be silently clamped to 1 and
        # run a spec anyway; it now errors exactly like --max-units 0 does.
        for value in ("0", "-3"):
            stream = io.StringIO()
            code = main(
                ["run", "fig5", "--output", str(tmp_path), "--max-specs", value],
                stream=stream,
            )
            assert code == 2
            assert "--max-specs must be >= 1" in stream.getvalue()
            assert not list(tmp_path.glob("*.json"))  # nothing ran

    def test_engine_flags_are_parsed(self):
        args = build_parser().parse_args(["run", "fig5", "--engine", "sparse"])
        assert args.engine == "sparse"
        for retired in (["--neighbor-backend", "cell"], ["--auto-reresolve-every", "2"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "fig5", *retired])

    def test_invalid_engine_is_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig5", "--engine", "warp"])

class TestAnalyzeCommand:
    @staticmethod
    def _tiny_ensemble(path, n_particles=3, seed=0):
        import numpy as np

        from repro.particles.trajectory import EnsembleTrajectory

        rng = np.random.default_rng(seed)
        positions = rng.standard_normal((12, 20, n_particles, 2)).cumsum(axis=0)
        ensemble = EnsembleTrajectory(positions=positions, types=np.zeros(n_particles, dtype=int))
        ensemble.save(path)
        return ensemble

    def test_defaults(self):
        args = build_parser().parse_args(["analyze", "fig5"])
        assert args.figure == "fig5"
        assert args.quantity == "te"
        assert args.backend == "auto"
        assert args.history == 1
        assert args.step_stride == 1
        assert args.n_jobs is None
        assert args.variant == "ksg2"
        assert args.workers == 1

    def test_invalid_backend_is_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "fig5", "--backend", "warp"])

    def test_kdtree_backend_works_with_the_default_variant(self, tmp_path):
        # Regression: the default lagged-MI variant is ksg2, so an explicit
        # --backend kdtree must dispatch to the rectangle tree path rather
        # than rejecting the combination.
        ensemble_path = tmp_path / "ens.npz"
        self._tiny_ensemble(ensemble_path)
        stream = io.StringIO()
        code = main(
            [
                "analyze", "--ensemble", str(ensemble_path), "--backend", "kdtree",
                "--quantity", "both", "--workers", "2", "--output", str(tmp_path),
            ],
            stream=stream,
        )
        assert code == 0
        payload = json.loads((tmp_path / "ens_infodynamics.json").read_text())
        assert payload["backend"] == "kdtree"
        assert payload["variant"] == "ksg2"
        assert payload["workers"] == 2
        assert "lagged_mutual_information_bits" in payload
        assert "transfer_entropy_bits" in payload

    def test_unknown_variant_is_a_one_line_error(self, tmp_path):
        ensemble_path = tmp_path / "ens.npz"
        self._tiny_ensemble(ensemble_path)
        stream = io.StringIO()
        code = main(
            [
                "analyze", "--ensemble", str(ensemble_path), "--quantity", "lagged-mi",
                "--variant", "warp", "--output", str(tmp_path),
            ],
            stream=stream,
        )
        assert code == 2
        output = stream.getvalue()
        assert "unknown variant 'warp'" in output
        assert len(output.strip().splitlines()) == 1  # one line, no traceback
        assert not (tmp_path / "ens_infodynamics.json").exists()

    def test_unknown_variant_is_rejected_even_when_te_never_consults_it(self, tmp_path):
        # Regression: under the default --quantity te the variant is unused,
        # so a lazy check let a typo exit 0 and silently analyze anyway.
        ensemble_path = tmp_path / "ens.npz"
        self._tiny_ensemble(ensemble_path)
        stream = io.StringIO()
        code = main(
            [
                "analyze", "--ensemble", str(ensemble_path),
                "--variant", "warp", "--output", str(tmp_path),
            ],
            stream=stream,
        )
        assert code == 2
        assert "unknown variant 'warp'" in stream.getvalue()
        assert not (tmp_path / "ens_infodynamics.json").exists()

    def test_variant_flag_changes_the_lagged_mi_matrix(self, tmp_path):
        ensemble_path = tmp_path / "ens.npz"
        self._tiny_ensemble(ensemble_path)
        matrices = {}
        for variant in ("ksg1", "ksg2"):
            out = tmp_path / variant
            code = main(
                [
                    "analyze", "--ensemble", str(ensemble_path), "--quantity", "lagged-mi",
                    "--variant", variant, "--quiet", "--output", str(out),
                ],
                stream=io.StringIO(),
            )
            assert code == 0
            payload = json.loads((out / "ens_infodynamics.json").read_text())
            assert payload["variant"] == variant
            matrices[variant] = payload["lagged_mutual_information_bits"]
        assert matrices["ksg1"] != matrices["ksg2"]

    def test_requires_figure_or_ensemble(self, tmp_path):
        stream = io.StringIO()
        assert main(["analyze", "--output", str(tmp_path)], stream=stream) == 2
        assert "figure id or --ensemble" in stream.getvalue()

    def test_unknown_figure_is_an_error(self, tmp_path):
        stream = io.StringIO()
        assert main(["analyze", "fig99", "--output", str(tmp_path)], stream=stream) == 2
        assert "unknown figure" in stream.getvalue()

    def test_analyzes_saved_ensemble_and_writes_json(self, tmp_path):
        import numpy as np

        ensemble_path = tmp_path / "ens.npz"
        self._tiny_ensemble(ensemble_path)
        stream = io.StringIO()
        code = main(
            [
                "analyze", "--ensemble", str(ensemble_path), "--particles", "0,1,2",
                "--quantity", "both", "--backend", "dense", "--output", str(tmp_path),
                "--quiet",
            ],
            stream=stream,
        )
        assert code == 0
        payload = json.loads((tmp_path / "ens_infodynamics.json").read_text())
        assert np.asarray(payload["transfer_entropy_bits"]).shape == (3, 3)
        assert np.asarray(payload["lagged_mutual_information_bits"]).shape == (3, 3)
        assert len(payload["net_information_flow_bits"]) == 3
        assert "strongest net source" in stream.getvalue()

    def test_matrix_table_printed_unless_quiet(self, tmp_path):
        ensemble_path = tmp_path / "ens.npz"
        self._tiny_ensemble(ensemble_path)
        stream = io.StringIO()
        code = main(
            ["analyze", "--ensemble", str(ensemble_path), "--particles", "0,1",
             "--backend", "dense", "--output", str(tmp_path)],
            stream=stream,
        )
        assert code == 0
        assert "target \\ source" in stream.getvalue()

    def test_matrix_table_renders_particle_ids_as_integers(self):
        # Regression test: the target-id column was cast to float, printing
        # particle 3 as "3.000"; indices must render as integers.
        import numpy as np

        from repro.cli import _matrix_table

        table = _matrix_table(np.array([[0.5, 0.25], [0.125, 0.0625]]), [0, 3], "T")
        header, _separator, *rows = table.splitlines()
        assert "target \\ source" in header and "T<-3" in header
        assert [row.split()[0] for row in rows] == ["0", "3"]

    def test_analyze_output_prints_integer_particle_ids(self, tmp_path):
        ensemble_path = tmp_path / "ens.npz"
        self._tiny_ensemble(ensemble_path)  # 3 particles
        stream = io.StringIO()
        code = main(
            ["analyze", "--ensemble", str(ensemble_path), "--particles", "0,2",
             "--backend", "dense", "--output", str(tmp_path)],
            stream=stream,
        )
        assert code == 0
        lines = stream.getvalue().splitlines()
        header_index = next(i for i, line in enumerate(lines) if "target \\ source" in line)
        data_rows = lines[header_index + 2 : header_index + 4]
        assert [row.split()[0] for row in data_rows] == ["0", "2"]

    def test_nonpositive_max_particles_is_rejected(self, tmp_path):
        ensemble_path = tmp_path / "ens.npz"
        self._tiny_ensemble(ensemble_path)
        with pytest.raises(SystemExit, match="--max-particles"):
            main(
                ["analyze", "--ensemble", str(ensemble_path), "--max-particles", "0",
                 "--output", str(tmp_path)],
                stream=io.StringIO(),
            )

    def test_bad_particles_spec_is_rejected(self, tmp_path):
        ensemble_path = tmp_path / "ens.npz"
        self._tiny_ensemble(ensemble_path)
        with pytest.raises(SystemExit):
            main(
                ["analyze", "--ensemble", str(ensemble_path), "--particles", "a,b",
                 "--output", str(tmp_path)],
                stream=io.StringIO(),
            )

    def test_out_of_range_particles_are_rejected(self, tmp_path):
        ensemble_path = tmp_path / "ens.npz"
        self._tiny_ensemble(ensemble_path)  # 3 particles
        with pytest.raises(SystemExit, match="out of range"):
            main(
                ["analyze", "--ensemble", str(ensemble_path), "--particles", "0,99",
                 "--output", str(tmp_path)],
                stream=io.StringIO(),
            )

    def test_runs_figure_spec_simulation(self, tmp_path, monkeypatch):
        from repro.core import experiments as exp_mod

        tiny = exp_mod.ExperimentScale(n_samples=16, n_steps=10, step_stride=2, sweep_repeats=1)
        monkeypatch.setattr(exp_mod, "default_scale", lambda full=None: tiny)

        stream = io.StringIO()
        code = main(
            ["analyze", "fig5", "--max-particles", "2", "--backend", "dense",
             "--output", str(tmp_path), "--quiet"],
            stream=stream,
        )
        assert code == 0
        json_files = list(tmp_path.glob("*_infodynamics.json"))
        assert len(json_files) == 1


@pytest.fixture
def tiny_scale(monkeypatch):
    """Shrink the reduced experiment scale so CLI sweeps stay fast."""
    from repro.core import experiments as exp_mod

    tiny = exp_mod.ExperimentScale(n_samples=12, n_steps=6, step_stride=3, sweep_repeats=1)
    monkeypatch.setattr(exp_mod, "default_scale", lambda full=None: tiny)
    return tiny


class TestSweepStatusResume:
    @staticmethod
    def _store_bytes(store_dir):
        from pathlib import Path

        return {p.name: p.read_bytes() for p in (Path(store_dir) / "units").glob("*.json")}

    def test_unknown_figure_is_an_error(self, tmp_path):
        for command in ("sweep", "status", "resume"):
            stream = io.StringIO()
            assert main([command, "fig99", "--store", str(tmp_path / "s")], stream=stream) == 2
            assert "unknown figure" in stream.getvalue()

    def test_status_and_resume_require_an_existing_store(self, tmp_path, tiny_scale):
        for command in ("status", "resume"):
            stream = io.StringIO()
            code = main([command, "fig9", "--store", str(tmp_path / "missing")], stream=stream)
            assert code == 2
            assert "does not exist" in stream.getvalue()

    def test_status_rejects_a_directory_that_is_not_a_store(self, tmp_path, tiny_scale):
        (tmp_path / "plain").mkdir()
        stream = io.StringIO()
        assert main(["status", "fig9", "--store", str(tmp_path / "plain")], stream=stream) == 2
        assert "not a run store" in stream.getvalue()

    def test_resume_rejects_fresh_flag(self, tmp_path, tiny_scale):
        stream = io.StringIO()
        code = main(["resume", "fig9", "--store", str(tmp_path / "s"), "--fresh"], stream=stream)
        assert code == 2
        assert "conflicting flags" in stream.getvalue()

    def test_nonpositive_max_units_is_an_error(self, tmp_path, tiny_scale):
        stream = io.StringIO()
        code = main(
            ["sweep", "fig9", "--store", str(tmp_path / "s"), "--max-units", "0"], stream=stream
        )
        assert code == 2
        assert "--max-units" in stream.getvalue()

    def test_sweep_interrupt_resume_is_bit_identical(self, tmp_path, tiny_scale):
        store = str(tmp_path / "store")
        reference = str(tmp_path / "reference")
        # the uninterrupted run, for the byte-level comparison
        assert main(["sweep", "fig9", "--store", reference, "--quiet"], stream=io.StringIO()) == 0
        # "interrupted" sweep: only 2 of the 6 reduced-scale units complete
        stream = io.StringIO()
        assert main(["sweep", "fig9", "--store", store, "--max-units", "2"], stream=stream) == 0
        assert "2 computed" in stream.getvalue()
        stream = io.StringIO()
        assert main(["status", "fig9", "--store", store], stream=stream) == 0
        assert "2/6 unit(s) cached" in stream.getvalue()
        assert "missing" in stream.getvalue()
        stream = io.StringIO()
        assert main(["resume", "fig9", "--store", store], stream=stream) == 0
        assert "2 cached, 4 computed" in stream.getvalue()
        assert self._store_bytes(store) == self._store_bytes(reference)

    def test_run_writes_the_measurement_a_sweep_stores(self, tmp_path, tiny_scale):
        # `run` computes its one-unit plan without a store; its document is
        # the measurement section of the stored unit, byte for byte.
        from repro.io.artifacts import RunStore

        store = tmp_path / "store"
        out = tmp_path / "out"
        assert main(["sweep", "fig4", "--store", str(store), "--quiet"], stream=io.StringIO()) == 0
        assert main(["run", "fig4", "--output", str(out), "--quiet"], stream=io.StringIO()) == 0
        (key,) = RunStore(store).keys()
        measurement = RunStore(store).load_document(key)["measurement"]
        (document,) = out.glob("*.json")
        assert document.read_text() == json.dumps(measurement, indent=2, sort_keys=True)

    def test_second_sweep_recomputes_nothing_and_leaves_identical_json(self, tmp_path, tiny_scale):
        store = str(tmp_path / "store")
        assert main(["sweep", "fig4", "--store", store, "--quiet"], stream=io.StringIO()) == 0
        before = self._store_bytes(store)
        stream = io.StringIO()
        assert main(["sweep", "fig4", "--store", store], stream=stream) == 0
        assert "1 cached, 0 computed" in stream.getvalue()
        assert self._store_bytes(store) == before

    def test_corrupt_store_document_is_reported(self, tmp_path, tiny_scale):
        from repro.io import RunStore

        store = str(tmp_path / "store")
        assert main(["sweep", "fig4", "--store", store, "--quiet"], stream=io.StringIO()) == 0
        opened = RunStore(store)
        opened.path_for(opened.keys()[0]).write_text("{ truncated")
        stream = io.StringIO()
        assert main(["status", "fig4", "--store", store], stream=stream) == 2
        assert "corrupt run-store document" in stream.getvalue()
        stream = io.StringIO()
        assert main(["resume", "fig4", "--store", store], stream=stream) == 2
        assert "corrupt" in stream.getvalue()

    def test_resume_warns_when_no_unit_matches_a_nonempty_store(self, tmp_path, tiny_scale):
        store = str(tmp_path / "store")
        assert main(["sweep", "fig4", "--store", store, "--quiet"], stream=io.StringIO()) == 0
        # Resuming a *different* figure against the same store matches no
        # hashes — the flag-mismatch warning must fire before recomputing.
        stream = io.StringIO()
        assert main(["resume", "fig12", "--store", store, "--quiet"], stream=stream) == 0
        assert "warning: none of this plan's" in stream.getvalue()

    def test_status_catches_semantically_damaged_documents(self, tmp_path, tiny_scale):
        import json

        from repro.io import RunStore

        store = str(tmp_path / "store")
        assert main(["sweep", "fig4", "--store", store, "--quiet"], stream=io.StringIO()) == 0
        opened = RunStore(store)
        path = opened.path_for(opened.keys()[0])
        payload = json.loads(path.read_text())
        del payload["measurement"]  # valid JSON, broken schema
        path.write_text(json.dumps(payload))
        stream = io.StringIO()
        assert main(["status", "fig4", "--store", store], stream=stream) == 2
        assert "corrupt run-store document" in stream.getvalue()

    def test_status_on_complete_plan_says_so(self, tmp_path, tiny_scale):
        store = str(tmp_path / "store")
        assert main(["sweep", "fig4", "--store", store, "--quiet"], stream=io.StringIO()) == 0
        stream = io.StringIO()
        assert main(["status", "fig4", "--store", store], stream=stream) == 0
        assert "plan complete" in stream.getvalue()


class TestDomainFlag:
    def test_domain_flag_is_parsed_on_every_simulation_command(self):
        for argv in (
            ["run", "fig5", "--domain", "periodic:8"],
            ["sweep", "fig9", "--domain", "reflecting:5"],
            ["resume", "fig9", "--domain", "periodic:8"],
            ["status", "fig9", "--domain", "periodic:8"],
        ):
            assert build_parser().parse_args(argv).domain == argv[-1]

    def test_domain_override_is_applied_and_normalised(self):
        from repro.cli import _apply_engine_overrides
        from repro.core.experiments import all_figure_specs

        args = build_parser().parse_args(["run", "fig5", "--domain", "periodic:8"])
        spec = all_figure_specs(full=False)["fig5"][0]
        assert _apply_engine_overrides(spec.simulation, args).domain == "periodic:8.0"

    def test_malformed_domain_spec_is_a_clean_error(self, tmp_path, tiny_scale):
        stream = io.StringIO()
        code = main(
            ["run", "fig5", "--domain", "moebius:3", "--output", str(tmp_path)],
            stream=stream,
        )
        assert code == 2
        assert "invalid engine/domain/estimator override" in stream.getvalue()

    def test_anisotropic_and_channel_specs_are_parsed_on_every_command(self):
        from repro.cli import _apply_engine_overrides
        from repro.core.experiments import all_figure_specs

        spec = all_figure_specs(full=False)["fig5"][0]
        for raw, canonical in (
            ("periodic:8,4", "periodic:8.0,4.0"),
            ("channel:8,4", "channel:8.0,4.0"),
            ("reflecting:9,3", "reflecting:9.0,3.0"),
            # A square pair canonicalises to the legacy scalar spelling.
            ("periodic:8,8", "periodic:8.0"),
        ):
            args = build_parser().parse_args(["run", "fig5", "--domain", raw])
            assert _apply_engine_overrides(spec.simulation, args).domain == canonical

    @pytest.mark.parametrize(
        "bad_spec",
        ["periodic:8,-1", "channel:", "periodic:1,2,3", "periodic:8,,4", "channel:4,nan"],
    )
    def test_malformed_per_axis_specs_exit_2_on_run_sweep_and_watch(
        self, tmp_path, tiny_scale, bad_spec
    ):
        # Satellite contract: every malformed spec is a one-line message and
        # exit code 2 on each simulation-running command, never a traceback.
        commands = (
            ["run", "fig5", "--domain", bad_spec, "--output", str(tmp_path)],
            ["sweep", "fig5", "--domain", bad_spec, "--store", str(tmp_path / "s")],
            ["watch", "fig5", "--domain", bad_spec],
        )
        for argv in commands:
            stream = io.StringIO()
            assert main(argv, stream=stream) == 2, argv
            output = stream.getvalue()
            assert len(output.strip().splitlines()) == 1, argv
            assert "invalid engine/domain" in output, argv

    def test_incompatible_periodic_cutoff_is_a_clean_error(self, tmp_path, tiny_scale):
        # fig4 has cutoff 5.0; a periodic box of side 6 allows at most 3.0.
        stream = io.StringIO()
        code = main(
            ["sweep", "fig4", "--domain", "periodic:6", "--store", str(tmp_path / "s")],
            stream=stream,
        )
        assert code == 2
        assert "invalid engine/domain/estimator override" in stream.getvalue()

    def test_sweep_and_status_share_domain_hashes(self, tmp_path, tiny_scale):
        store = str(tmp_path / "store")
        stream = io.StringIO()
        code = main(
            ["sweep", "fig5", "--domain", "periodic:12", "--store", store, "--quiet"],
            stream=stream,
        )
        assert code == 0
        # Status with the same override sees the cached unit; without it, the
        # free-space plan (different hashes) reports everything missing.
        matching = io.StringIO()
        assert main(["status", "fig5", "--domain", "periodic:12", "--store", store],
                    stream=matching) == 0
        assert "1/1 unit(s) cached" in matching.getvalue()
        free = io.StringIO()
        assert main(["status", "fig5", "--store", store], stream=free) == 0
        assert "0/1 unit(s) cached" in free.getvalue()

    def test_status_reports_orphans_and_sweeps_only_on_request(self, tmp_path, tiny_scale):
        # Deleting crash leftovers is destructive on a store other hosts may
        # be writing to (their clock skew can make an in-flight file look
        # aged), so default status only *reports* orphans; --sweep-orphans
        # opts into deletion.
        import os
        from pathlib import Path

        store_dir = tmp_path / "store"
        stream = io.StringIO()
        assert main(["sweep", "fig5", "--store", str(store_dir), "--quiet"],
                    stream=stream) == 0
        orphan = Path(store_dir) / "units" / ("c" * 64 + ".npz")
        orphan.write_bytes(b"crashed mid-save")
        # Fresh strays are protected (they could be a live writer mid-save):
        # neither reported nor sweepable until past the grace period.
        fresh_stream = io.StringIO()
        assert main(["status", "fig5", "--store", str(store_dir)], stream=fresh_stream) == 0
        assert "orphaned" not in fresh_stream.getvalue()
        assert orphan.exists()
        os.utime(orphan, (0, 0))
        # Aged orphan, default status: reported, not deleted.
        report_stream = io.StringIO()
        assert main(["status", "fig5", "--store", str(store_dir)], stream=report_stream) == 0
        assert "1 orphaned file(s)" in report_stream.getvalue()
        assert "--sweep-orphans" in report_stream.getvalue()
        assert "swept" not in report_stream.getvalue()
        assert orphan.exists()
        # Opt-in sweep deletes it.
        sweep_stream = io.StringIO()
        assert main(["status", "fig5", "--store", str(store_dir), "--sweep-orphans"],
                    stream=sweep_stream) == 0
        assert "swept 1 orphaned file(s)" in sweep_stream.getvalue()
        assert not orphan.exists()
