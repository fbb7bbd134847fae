"""CLI tests for live monitoring (`repro watch`) and store-service robustness.

Covers the watch command end to end (emission lines, JSONL emit, store
persistence, the query-side ``[metrics]`` marker), clean ``serve-store``
shutdown on SIGTERM/SIGINT with ``--port 0``, and the exit-2 error paths of
``query``/``status`` against unreachable or non-store HTTP endpoints.
"""

from __future__ import annotations

import io
import json
import signal
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture
def tiny_scale(monkeypatch):
    """Shrink the reduced experiment scale so watch runs stay fast."""
    from repro.core import experiments as exp_mod

    tiny = exp_mod.ExperimentScale(n_samples=12, n_steps=6, step_stride=3, sweep_repeats=1)
    monkeypatch.setattr(exp_mod, "default_scale", lambda full=None: tiny)
    return tiny


def _dead_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestWatchParser:
    def test_defaults(self):
        args = build_parser().parse_args(["watch", "fig4"])
        assert args.window == 8 and args.stride == 1
        assert args.metrics == "multi_information,transfer_entropy"
        assert args.backend == "dense" and args.workers == 1
        assert args.emit is None and args.store is None
        assert args.samples is None and args.steps is None

    def test_help_text_lists_watch(self):
        assert "watch" in build_parser().format_help()

    def test_invalid_backend_is_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["watch", "fig4", "--backend", "warp"])


class TestWatchCommand:
    def test_unknown_figure_is_an_error(self, tiny_scale):
        stream = io.StringIO()
        assert main(["watch", "fig99"], stream=stream) == 2
        assert "unknown figure" in stream.getvalue()

    def test_unknown_metric_is_an_error(self, tiny_scale):
        stream = io.StringIO()
        code = main(
            ["watch", "fig4", "--window", "4", "--metrics", "entropy_rate"], stream=stream
        )
        assert code == 2
        assert "unknown metric" in stream.getvalue()

    def test_never_filling_window_is_an_error(self, tiny_scale):
        # tiny scale records 7 frames; a window of 20 would never emit.
        stream = io.StringIO()
        assert main(["watch", "fig4", "--window", "20"], stream=stream) == 2
        assert "never fills" in stream.getvalue()

    def test_window_shorter_than_te_history_is_an_error(self, tiny_scale):
        stream = io.StringIO()
        code = main(["watch", "fig4", "--window", "3", "--history", "3"], stream=stream)
        assert code == 2
        assert "no transitions" in stream.getvalue()

    def test_streams_metrics_and_persists_them(self, tmp_path, tiny_scale):
        from repro.io.artifacts import RunStore
        from repro.monitor import MetricsStream

        emit_path = tmp_path / "rows.jsonl"
        store_dir = tmp_path / "store"
        stream = io.StringIO()
        code = main(
            [
                "watch", "fig4", "--window", "4", "--k", "2",
                "--emit", str(emit_path), "--store", str(store_dir),
            ],
            stream=stream,
        )
        assert code == 0
        output = stream.getvalue()
        assert "multi_information" in output and "transfer_entropy" in output
        assert "emission(s)" in output and "persisted" in output
        # The emitted JSONL parses back into the same rows the run printed.
        rows = MetricsStream.load(emit_path)
        assert len(rows) > 0
        assert {row.metric for row in rows} == {"multi_information", "transfer_entropy"}
        assert all(row.window == 4 for row in rows)
        # The persisted store artifact is byte-identical to the stream.
        store = RunStore(store_dir, create=False)
        artifacts = list(store.units_dir.glob("*.metrics.jsonl"))
        assert len(artifacts) == 1
        assert artifacts[0].read_text() == emit_path.read_text()

    def test_watch_emissions_match_the_posthoc_estimator(self, tmp_path, tiny_scale):
        # The CLI wires spec -> simulator -> monitor; re-simulating the same
        # spec without a monitor and applying the estimator post hoc must
        # reproduce every emitted value bitwise (dense backend).
        from repro.core.experiments import figure_plan
        from repro.monitor import (
            MetricsStream,
            StreamingMultiInformation,
            posthoc_window_value,
        )
        from repro.particles.ensemble import EnsembleSimulator

        emit_path = tmp_path / "rows.jsonl"
        code = main(
            ["watch", "fig4", "--window", "4", "--k", "2",
             "--metrics", "multi_information", "--emit", str(emit_path), "--quiet"],
            stream=io.StringIO(),
        )
        assert code == 0
        spec = figure_plan("fig4", full=False).specs()[0]
        ensemble = EnsembleSimulator(spec.simulation, spec.n_samples, seed=spec.seed).run()
        estimator = StreamingMultiInformation(k=2, backend="dense")
        rows = MetricsStream.load(emit_path)
        assert len(rows) > 0
        for row in rows:
            assert row.value == posthoc_window_value(
                estimator, ensemble.positions, row.step, 4
            )

    def test_query_reports_the_metrics_artifact(self, tmp_path, tiny_scale):
        store_dir = str(tmp_path / "store")
        code = main(
            ["watch", "fig4", "--window", "4", "--k", "2", "--quiet",
             "--store", store_dir],
            stream=io.StringIO(),
        )
        assert code == 0
        # Before the sweep: the unit is missing but its stream is reported.
        stream = io.StringIO()
        assert main(["query", "fig4", "--store", store_dir], stream=stream) == 1
        assert "missing" in stream.getvalue() and "[metrics]" in stream.getvalue()
        # After the sweep the same unit is cached — still carrying the marker.
        assert main(["sweep", "fig4", "--store", store_dir, "--quiet"],
                    stream=io.StringIO()) == 0
        stream = io.StringIO()
        payload_path = tmp_path / "query.json"
        assert main(["query", "fig4", "--store", store_dir,
                     "--json", str(payload_path)], stream=stream) == 0
        assert "cached" in stream.getvalue() and "[metrics]" in stream.getvalue()
        payload = json.loads(payload_path.read_text())
        assert all(unit["has_metrics"] for unit in payload["units"])


class TestServeStoreShutdown:
    def _spawn(self, store_dir: Path):
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve-store",
             "--store", str(store_dir), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"},
        )

    def test_port_zero_prints_the_bound_url_and_sigterm_stops_cleanly(self, tmp_path):
        import urllib.request

        proc = self._spawn(tmp_path / "store")
        try:
            line = proc.stdout.readline()  # flushed before serve_forever
            assert "serving run store" in line
            url = line.split(" at ")[1].split(" ")[0]
            port = int(url.rsplit(":", 1)[1])
            assert port != 0  # --port 0 resolved to a real bound port
            with urllib.request.urlopen(url, timeout=5.0) as response:
                marker = json.load(response)
            assert marker["format"] == "repro-run-store"
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=10.0)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert "stopped" in output
        # The socket is released: the same port binds again immediately.
        with socket.socket() as rebind:
            rebind.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            rebind.bind(("127.0.0.1", port))

    def test_sigint_stops_cleanly_too(self, tmp_path):
        import urllib.request

        proc = self._spawn(tmp_path / "store")
        try:
            line = proc.stdout.readline()
            assert "serving" in line
            # An answered request proves serve_forever is running, so the
            # signal cannot race the startup code.
            url = line.split(" at ")[1].split(" ")[0]
            urllib.request.urlopen(url, timeout=5.0).close()
            proc.send_signal(signal.SIGINT)
            output, _ = proc.communicate(timeout=10.0)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert "stopped" in output


class _NotAStoreHandler(BaseHTTPRequestHandler):
    """Answers 200 with JSON that is not a run-store marker."""

    def do_GET(self):  # noqa: N802 - stdlib naming
        body = json.dumps({"service": "definitely-not-a-run-store"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_HEAD = do_GET

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass


class TestStoreErrorExits:
    """query/status against a bad HTTP store spec: exit 2, one-line error."""

    def test_query_and_status_against_a_dead_port_exit_2(self):
        url = f"http://127.0.0.1:{_dead_port()}"
        for command in ("query", "status"):
            stream = io.StringIO()
            assert main([command, "fig4", "--store", url], stream=stream) == 2
            output = stream.getvalue()
            assert "unreachable" in output
            assert len(output.strip().splitlines()) == 1  # one line, no traceback
            assert "start the sweep first" not in output  # wrong advice for URLs

    def test_query_against_a_non_store_service_exits_2(self):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _NotAStoreHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            stream = io.StringIO()
            code = main(["query", "fig4", "--store", f"http://{host}:{port}"], stream=stream)
            assert code == 2
            output = stream.getvalue()
            assert "not a run store" in output
            assert len(output.strip().splitlines()) == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

    def test_watch_fails_fast_on_a_dead_store(self, tiny_scale):
        url = f"http://127.0.0.1:{_dead_port()}"
        stream = io.StringIO()
        assert main(["watch", "fig4", "--window", "4", "--store", url], stream=stream) == 2
        output = stream.getvalue()
        assert "unreachable" in output
        assert "emission" not in output  # failed before simulating
