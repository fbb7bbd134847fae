"""Tests for the repro.cli command-line interface."""

from __future__ import annotations

import argparse
import io
import json

import pytest

from repro.cli import build_parser, main


def _commands() -> dict[str, argparse.ArgumentParser]:
    """Every subcommand's parser, by name."""
    (subparsers,) = (
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return subparsers.choices


def _first_spec(argv):
    """The first spec of the plan the figure command ``argv`` resolves."""
    from repro.cli import _resolve_plan

    return _resolve_plan(build_parser().parse_args(argv), 1).specs()[0]


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

    def test_estimator_flags_are_parsed_where_they_apply(self):
        # A non-default estimator backend enters the content hash, so every
        # store command takes it; workers does not, so only the commands
        # that compute a unit take it.
        for command in ("run", "sweep", "resume", "status", "query"):
            args = build_parser().parse_args([command, "fig9", "--estimator-backend", "kdtree"])
            assert args.estimator_backend == "kdtree"
        for command in ("run", "sweep", "resume"):
            args = build_parser().parse_args([command, "fig9", "--workers", "3"])
            assert args.analysis_workers == 3

    def test_estimator_overrides_are_applied_to_the_analysis_config(self):
        spec = _first_spec(["run", "fig5", "--estimator-backend", "auto", "--workers", "-1"])
        assert spec.analysis.estimator_backend == "auto"
        assert spec.analysis.workers == -1

    def test_estimator_flags_of_watch_and_analyze_leave_the_spec_alone(self):
        from repro.core.plan import RunUnit

        default = _first_spec(["watch", "fig4"])
        for command in ("watch", "analyze"):
            spec = _first_spec([command, "fig4", "--workers", "3", "--k", "2", "--history", "2"])
            assert spec.analysis == default.analysis
            assert RunUnit(spec).content_hash == RunUnit(default).content_hash

    def test_invalid_workers_is_a_clean_error(self, tmp_path):
        stream = io.StringIO()
        code = main(
            ["run", "fig5", "--workers", "0", "--output", str(tmp_path)], stream=stream
        )
        assert code == 2
        assert "invalid override" in stream.getvalue()
        assert not list(tmp_path.glob("*.json"))  # nothing ran

    @pytest.mark.parametrize(
        "argv",
        [["status", "fig9", "--workers", "2"], ["query", "fig9", "--workers", "2"],
         ["resume", "fig9", "--fresh"]],
        ids=" ".join,
    )
    def test_flags_that_change_nothing_are_parser_errors(self, argv):
        # workers never enters a content hash and neither command computes;
        # resume computes only missing units by definition.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2

    #: Flags declared once and inherited, with the commands that take them.
    SHARED_FLAGS = [
        ("--full", ("list", "run", "sweep", "resume", "status", "query", "watch", "analyze")),
        ("--store", ("sweep", "resume", "status", "query")),
        ("--max-units", ("sweep", "resume", "status", "query")),
        ("--seed", ("run", "watch", "analyze")),
        ("--engine", ("run", "sweep", "resume", "status", "query", "watch")),
        ("--domain", ("run", "sweep", "resume", "status", "query", "watch")),
        ("--estimator-backend", ("run", "sweep", "resume", "status", "query")),
        ("--workers", ("run", "sweep", "resume")),
        ("--workers", ("watch", "analyze")),
        ("--k", ("watch", "analyze")),
        ("--history", ("watch", "analyze")),
        ("--output", ("run", "analyze")),
        ("--n-jobs", ("sweep", "resume")),
        ("--keep-ensembles", ("sweep", "resume")),
    ]

    @pytest.mark.parametrize(
        "flag, commands", SHARED_FLAGS, ids=[f"{f} on {'/'.join(c)}" for f, c in SHARED_FLAGS]
    )
    def test_a_shared_flag_reads_the_same_on_every_command(self, flag, commands):
        parsers = _commands()
        described = {
            (action.help, action.default, action.type, tuple(action.choices or ()), action.dest)
            for action in (parsers[name]._option_string_actions[flag] for name in commands)
        }
        assert len(described) == 1, described

    def test_the_figure_argument_reads_the_same_on_every_figure_command(self):
        parsers = _commands()
        described = {
            (action.help, action.nargs)
            for name in ("run", "sweep", "resume", "status", "query", "watch")
            for action in parsers[name]._actions
            if action.dest == "figure"
        }
        assert len(described) == 1, described


#: Each figure command, with arguments that send everything it writes into
#: the working directory.
FIGURE_COMMANDS = {
    "run": ["--output", "out"],
    "sweep": ["--store", "s"],
    "resume": ["--store", "s"],
    "status": ["--store", "s"],
    "query": ["--store", "s", "--json", "q.json"],
    "watch": ["--store", "s", "--emit", "m.jsonl"],
    "analyze": ["--output", "out"],
}


def _refusals() -> list[list[str]]:
    """A bad figure, and each bad override a command declares."""
    parsers = _commands()
    cases = []
    for command, outputs in FIGURE_COMMANDS.items():
        cases += [[command, "fig99", *outputs], [command, "fig2", *outputs]]
        for flag, value in (("--domain", "moebius:3"), ("--seed", "-1"), ("--n-jobs", "0")):
            if flag in parsers[command]._option_string_actions:
                cases.append([command, "fig5", flag, value, *outputs])
    cases.append(["watch", "fig4", "--samples", "3", *FIGURE_COMMANDS["watch"]])
    cases.append(["watch", "fig4", "--particles", "0,99", *FIGURE_COMMANDS["watch"]])
    return cases


class TestFrontDoor:
    """Every figure command resolves its figure through one function."""

    @pytest.mark.parametrize("argv", _refusals(), ids=" ".join)
    def test_every_refusal_is_one_line_and_writes_nothing(
        self, argv, tmp_path, monkeypatch, tiny_scale
    ):
        monkeypatch.chdir(tmp_path)
        stream = io.StringIO()
        assert main(argv, stream=stream) == 2
        assert len(stream.getvalue().splitlines()) == 1, stream.getvalue()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", FIGURE_COMMANDS)
    def test_one_unknown_figure_message_and_the_curves_note(self, command, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        messages = []
        for figure in ("fig99", "fig2"):
            stream = io.StringIO()
            assert main([command, figure, *FIGURE_COMMANDS[command]], stream=stream) == 2
            messages.append(stream.getvalue())
        assert messages == [
            "unknown figure 'fig99'; simulation-backed figures: fig3, fig4, fig5, fig6, "
            "fig7, fig8, fig9, fig10, fig11, fig12\n",
            "fig2 is analytic; use the 'curves' command instead.\n",
        ]

    def test_the_limit_applies_before_the_overrides(self, tmp_path, tiny_scale):
        # fig9's first unit (cut-off 2.5) fits a periodic box of side 10; its
        # later cut-offs do not.
        store = str(tmp_path / "s")
        domain = ["--domain", "periodic:10"]
        run = ["run", "fig9", *domain, "--max-specs", "1", "--quiet", "--output", str(tmp_path / "out")]
        assert main(run, stream=io.StringIO()) == 0
        sweep = ["sweep", "fig9", *domain, "--store", store, "--quiet"]
        assert main([*sweep, "--max-units", "1"], stream=io.StringIO()) == 0
        stream = io.StringIO()
        assert main(["status", "fig9", *domain, "--max-units", "1", "--store", store], stream=stream) == 0
        assert "1/1 unit(s) cached" in stream.getvalue()
        stream = io.StringIO()
        assert main(sweep, stream=stream) == 2
        assert stream.getvalue().startswith("invalid override: ")


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

    def test_n_jobs_spreads_one_plan_and_writes_the_same_bytes(
        self, tmp_path, tiny_scale, monkeypatch
    ):
        from repro.core.plan import ExperimentPlan

        calls = []
        execute = ExperimentPlan.execute

        def recording_execute(plan, store=None, **kwargs):
            calls.append((len(plan), store, kwargs.get("n_jobs")))
            return execute(plan, store, **kwargs)

        monkeypatch.setattr(ExperimentPlan, "execute", recording_execute)
        outputs = {}
        for n_jobs in ("1", "2"):
            out = tmp_path / f"jobs{n_jobs}"
            stream = io.StringIO()
            argv = ["run", "fig9", "--max-specs", "2", "--n-jobs", n_jobs, "--output", str(out)]
            assert main(argv, stream=stream) == 0
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            outputs[n_jobs] = (files, stream.getvalue().replace(str(out), "<out>"))
        # One execution of the whole two-unit plan per command, without a store.
        assert calls == [(2, None, 1), (2, None, 2)]
        assert len(outputs["1"][0]) == 4  # a JSON and a CSV per spec
        assert outputs["1"] == outputs["2"]
        assert "fig9: mean delta I over 2 specs" in outputs["1"][1]

    def test_engine_override_writes_the_same_bytes(self, tmp_path, tiny_scale):
        # Both kernels agree bit for bit, so forcing one changes no output.
        outputs = []
        for extra in ([], ["--engine", "sparse"]):
            out = tmp_path / ("forced" if extra else "default")
            argv = ["run", "fig9", "--max-specs", "2", "--quiet", "--output", str(out), *extra]
            assert main(argv, stream=io.StringIO()) == 0
            outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        assert len(outputs[0]) == 4
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize("variant", ["warp", "KSG1", ""])
    def test_unknown_variant_is_a_one_line_error(self, tmp_path, variant):
        ensemble_path = tmp_path / "ens.npz"
        self._tiny_ensemble(ensemble_path)
        stream = io.StringIO()
        code = main(
            [
                "analyze", "--ensemble", str(ensemble_path), "--quantity", "lagged-mi",
                "--variant", variant, "--output", str(tmp_path),
            ],
            stream=stream,
        )
        assert code == 2
        # The estimator's own message, one line, no traceback.
        assert stream.getvalue() == (
            f"analyze: unknown variant {variant!r}; expected 'paper', 'ksg1' or 'ksg2'\n"
        )
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

    @pytest.mark.parametrize("flag", [["--engine", "dense"], ["--domain", "periodic:8"]])
    def test_has_no_engine_or_domain_flag(self, flag):
        # analyze simulates a figure spec as registered.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "fig5", *flag])

    def test_requires_figure_or_ensemble(self, tmp_path):
        stream = io.StringIO()
        assert main(["analyze", "--output", str(tmp_path)], stream=stream) == 2
        assert "figure id or --ensemble" in stream.getvalue()

    def test_unknown_figure_is_an_error(self, tmp_path):
        stream = io.StringIO()
        assert main(["analyze", "fig99", "--output", str(tmp_path)], stream=stream) == 2
        assert "unknown figure" in stream.getvalue()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["fig99"], "analyze takes a figure id or --ensemble PATH, not both\n"),
            (["fig5"], "analyze takes a figure id or --ensemble PATH, not both\n"),
            (["fig5", "--seed", "3"], "analyze takes a figure id or --ensemble PATH, not both\n"),
            (["--seed", "3"], "analyze: --seed selects a figure's spec; it has no effect with --ensemble\n"),
            (["--full"], "analyze: --full selects a figure's spec; it has no effect with --ensemble\n"),
        ],
    )
    def test_an_ensemble_refuses_a_figure_and_its_flags(self, tmp_path, extra, message):
        ensemble_path = tmp_path / "ens.npz"
        self._tiny_ensemble(ensemble_path)
        out = tmp_path / "out"
        stream = io.StringIO()
        code = main(
            ["analyze", *extra, "--ensemble", str(ensemble_path), "--output", str(out)],
            stream=stream,
        )
        assert code == 2
        assert stream.getvalue() == message
        assert not out.exists()

    def test_an_ensemble_alone_writes_the_estimators_payload(self, tmp_path):
        from repro.analysis.information_dynamics import (
            net_information_flow,
            pairwise_transfer_entropy,
        )
        from repro.viz import save_json

        ensemble_path = tmp_path / "ens.npz"
        ensemble = self._tiny_ensemble(ensemble_path)
        stream = io.StringIO()
        assert main(["analyze", "--ensemble", str(ensemble_path), "--output", str(tmp_path)], stream=stream) == 0
        # The defaults: particles 0-2 (all three), k 4, stride 1, auto backend,
        # one worker, history 1.
        te = pairwise_transfer_entropy(
            ensemble, particles=[0, 1, 2], k=4, step_stride=1, backend="auto", n_jobs=None, workers=1,
            history=1,
        )
        expected = save_json(
            tmp_path / "expected.json",
            {
                "source": "ens", "particles": [0, 1, 2], "k": 4, "step_stride": 1, "backend": "auto",
                "workers": 1, "n_samples": ensemble.n_samples, "n_steps": ensemble.n_steps,
                "history": 1, "transfer_entropy_bits": te.tolist(),
                "net_information_flow_bits": net_information_flow(te).tolist(),
            },
        )
        written = tmp_path / "ens_infodynamics.json"
        assert written.read_bytes() == expected.read_bytes()
        assert stream.getvalue().endswith(f"information-dynamics results written to {written}\n")

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

    def _refusal(self, tmp_path, *flags) -> str:
        """The one line ``analyze`` prints when it exits 2 on ``flags``."""
        ensemble_path = tmp_path / "ens.npz"
        self._tiny_ensemble(ensemble_path)  # 3 particles
        stream = io.StringIO()
        code = main(
            ["analyze", "--ensemble", str(ensemble_path), *flags, "--output", str(tmp_path)],
            stream=stream,
        )
        assert code == 2
        assert not (tmp_path / "ens_infodynamics.json").exists()
        (line,) = stream.getvalue().splitlines()
        return line

    def test_nonpositive_max_particles_is_rejected(self, tmp_path):
        assert self._refusal(tmp_path, "--max-particles", "0") == "--max-particles must be >= 1, got 0"

    def test_bad_particles_spec_is_rejected(self, tmp_path):
        line = self._refusal(tmp_path, "--particles", "a,b")
        assert line == "--particles must be a comma-separated list of integers, got 'a,b'"

    def test_out_of_range_particles_are_rejected(self, tmp_path):
        assert "out of range" in self._refusal(tmp_path, "--particles", "0,99")

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
        spec = _first_spec(["run", "fig5", "--domain", "periodic:8"])
        assert spec.simulation.domain == "periodic:8.0"

    def test_malformed_domain_spec_is_a_clean_error(self, tmp_path, tiny_scale):
        stream = io.StringIO()
        code = main(
            ["run", "fig5", "--domain", "moebius:3", "--output", str(tmp_path)],
            stream=stream,
        )
        assert code == 2
        assert "invalid override" in stream.getvalue()

    def test_anisotropic_and_channel_specs_are_parsed_on_every_command(self):
        for raw, canonical in (
            ("periodic:8,4", "periodic:8.0,4.0"),
            ("channel:8,4", "channel:8.0,4.0"),
            ("reflecting:9,3", "reflecting:9.0,3.0"),
            # A square pair canonicalises to the legacy scalar spelling.
            ("periodic:8,8", "periodic:8.0"),
        ):
            for command in ("run", "sweep", "status", "watch"):
                spec = _first_spec([command, "fig5", "--domain", raw])
                assert spec.simulation.domain == canonical

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
            assert "invalid override" in output, argv

    def test_incompatible_periodic_cutoff_is_a_clean_error(self, tmp_path, tiny_scale):
        # fig4 has cutoff 5.0; a periodic box of side 6 allows at most 3.0.
        stream = io.StringIO()
        code = main(
            ["sweep", "fig4", "--domain", "periodic:6", "--store", str(tmp_path / "s")],
            stream=stream,
        )
        assert code == 2
        assert "invalid override" in stream.getvalue()

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
