"""Stdlib HTTP service fronting a filesystem :class:`~repro.io.artifacts.RunStore`.

``repro serve-store`` runs this server so that workers on other hosts can
share one store through :class:`repro.io.remote.HTTPRunStore`.  The wire
format is deliberately boring — the store's own on-disk artifacts, shuttled
verbatim:

==========  =============================  =======================================
method      path                           meaning
==========  =============================  =======================================
GET         ``/``                          store marker + unit count (reachability probe)
GET         ``/units``                     ``{"keys": [...]}`` — sorted content hashes
HEAD/GET    ``/units/<hash>.json``         a unit's document, byte-for-byte
HEAD/GET    ``/units/<hash>.npz``          a unit's raw-ensemble archive
HEAD/GET    ``/units/<hash>.metrics.jsonl``  a unit's live-metrics stream
PUT         ``/units/<hash>.{json,npz}``   commit an artifact (conditional, see below)
PUT         ``/units/<hash>.metrics.jsonl``  commit a metrics stream (usually ``?overwrite=1``)
GET         ``/orphans``                   orphan report (``?min_age=`` seconds)
POST        ``/orphans/sweep``             delete aged orphans
POST        ``/leases/<hash>/acquire``     body ``{"owner", "ttl_seconds"}`` → 200/409
POST        ``/leases/<hash>/renew``       same body → 200/409
POST        ``/leases/<hash>/release``     body ``{"owner"}`` → 200
==========  =============================  =======================================

Commit semantics (what makes concurrent remote workers safe):

* PUT is **content-hash conditional**: without ``?overwrite=1``, an artifact
  that already exists is answered with ``412 Precondition Failed`` and *no
  write happens* — documents are deterministic, so the existing bytes are
  already what the client holds, and the client treats 412 as success.
* A PUT body is validated before anything touches the store: its length must
  match ``Content-Length`` (a dropped connection mid-upload yields a short
  read → 400, store untouched) and a JSON document must parse and carry the
  URL's content hash in ``unit.content_hash``.  Writes then go through the
  store's own atomic write-fsync-rename path.
* Lease endpoints run under a server-wide mutex, which upgrades the
  filesystem backend's best-effort steal arbitration into strict
  serialization — across hosts, lease races are decided here, in one place.

The server is a :class:`~http.server.ThreadingHTTPServer` (daemon threads,
one per connection) — plenty for its job of fronting compute-bound sweep
workers, whose requests are rare compared to the simulations between them.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.io.artifacts import (
    DEFAULT_LEASE_TTL_SECONDS,
    ORPHAN_MIN_AGE_SECONDS,
    RunStore,
    _atomic_write,
)

__all__ = ["StoreServer", "serve_store"]

_UNIT_PATH = re.compile(r"^/units/([0-9a-f]{64})\.(json|npz|metrics\.jsonl)$")
_LEASE_PATH = re.compile(r"^/leases/([0-9a-f]{64})/(acquire|renew|release)$")


class StoreServer(ThreadingHTTPServer):
    """HTTP front-end over a filesystem store; ``with``-able and thread-startable."""

    daemon_threads = True

    def __init__(
        self,
        store: RunStore,
        address: tuple[str, int] = ("127.0.0.1", 0),
        *,
        quiet: bool = True,
    ) -> None:
        super().__init__(address, _StoreRequestHandler)
        self.store = store
        self.lease_mutex = threading.Lock()
        self.quiet = quiet

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_in_background(self) -> threading.Thread:
        """Start ``serve_forever`` on a daemon thread (tests and embedders)."""
        thread = threading.Thread(target=self.serve_forever, name="repro-store-server", daemon=True)
        thread.start()
        return thread


def serve_store(
    root: str | Path,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    create: bool = True,
    quiet: bool = True,
) -> StoreServer:
    """Build a :class:`StoreServer` over the filesystem store at ``root``.

    ``port=0`` picks a free port; read the result's :attr:`StoreServer.url`.
    The caller decides how to run it (``serve_forever`` in the CLI,
    :meth:`StoreServer.serve_in_background` in tests).
    """
    return StoreServer(RunStore(root, create=create), (host, port), quiet=quiet)


class _StoreRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-store/1"
    protocol_version = "HTTP/1.1"
    server: StoreServer  # narrowed from BaseHTTPRequestHandler

    # plumbing ----------------------------------------------------------- #
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002 - stdlib signature
        if not self.server.quiet:
            super().log_message(format, *args)

    def _reply(self, status: int, body: bytes = b"", content_type: str = "application/json") -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            if self.command != "HEAD" and body:
                self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover - client went away
            self.close_connection = True

    def _reply_json(self, status: int, payload: dict[str, Any]) -> None:
        self._reply(status, json.dumps(payload).encode("utf8"))

    def _error(self, status: int, message: str) -> None:
        self.close_connection = True  # keep a poisoned keep-alive stream from lingering
        self._reply_json(status, {"error": message})

    def _read_body(self) -> bytes | None:
        """The request body, or None when it is shorter than Content-Length.

        A None return is the fault-injection path: the client died (or lied)
        mid-upload, and the handler must answer 400 without touching the
        store — a partial artifact must never be committed.
        """
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            return None
        if length < 0:
            return None
        body = b""
        try:
            while len(body) < length:
                chunk = self.rfile.read(length - len(body))
                if not chunk:
                    return None  # connection dropped mid-body
                body += chunk
        except (ConnectionError, OSError):
            return None
        return body

    def _json_body(self) -> dict[str, Any] | None:
        body = self._read_body()
        if body is None:
            return None
        try:
            payload = json.loads(body.decode("utf8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    # GET / HEAD --------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parts = urlsplit(self.path)
        store = self.server.store
        if parts.path == "/":
            marker = dict(RunStore.FORMAT)
            marker["units"] = len(store.keys())
            self._reply_json(200, marker)
            return
        if parts.path == "/units":
            self._reply_json(200, {"keys": store.keys()})
            return
        if parts.path == "/orphans":
            query = parse_qs(parts.query)
            try:
                min_age = float(query.get("min_age", [ORPHAN_MIN_AGE_SECONDS])[0])
            except ValueError:
                self._error(400, "min_age must be a number")
                return
            orphans = [path.name for path in store.orphaned_files(min_age)]
            self._reply_json(200, {"orphans": orphans})
            return
        match = _UNIT_PATH.match(parts.path)
        if match is None:
            self._error(404, f"unknown path {parts.path}")
            return
        artifact = store.units_dir / f"{match.group(1)}.{match.group(2)}"
        try:
            data = artifact.read_bytes()
        except FileNotFoundError:
            self._error(404, f"no such artifact {artifact.name}")
            return
        content_type = "application/json" if match.group(2) == "json" else "application/octet-stream"
        self._reply(200, data, content_type)

    do_HEAD = do_GET  # noqa: N815 - same routing; _reply suppresses the body

    # PUT ---------------------------------------------------------------- #
    def do_PUT(self) -> None:  # noqa: N802 - stdlib naming
        parts = urlsplit(self.path)
        match = _UNIT_PATH.match(parts.path)
        if match is None:
            self._error(404, f"unknown path {parts.path}")
            return
        content_hash, kind = match.group(1), match.group(2)
        overwrite = parse_qs(parts.query).get("overwrite", ["0"])[0] == "1"
        body = self._read_body()
        if body is None:
            self._error(400, "request body shorter than Content-Length")
            return
        store = self.server.store
        target = store.units_dir / f"{content_hash}.{kind}"
        if not overwrite and target.is_file():
            # Content-hash conditional commit: deterministic artifacts make
            # the existing bytes equivalent, so refusing is the safe answer
            # and the client counts it as success.
            self._reply_json(412, {"error": f"{target.name} already committed"})
            return
        if kind == "json":
            try:
                document = json.loads(body.decode("utf8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                self._error(400, f"document is not valid JSON: {exc}")
                return
            stated = document.get("unit", {}).get("content_hash") if isinstance(document, dict) else None
            if stated != content_hash:
                self._error(400, f"document unit.content_hash {stated!r} does not match URL hash")
                return
        committed = _atomic_write(target, body, exclusive=not overwrite)
        # An exclusive commit lost to a concurrent writer is still success:
        # the committed bytes are the same document either way.
        self._reply_json(200, {"committed": bool(committed), "name": target.name})

    # POST --------------------------------------------------------------- #
    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        parts = urlsplit(self.path)
        store = self.server.store
        if parts.path == "/orphans/sweep":
            payload = self._json_body()
            if payload is None:
                self._error(400, "malformed request body")
                return
            try:
                min_age = float(payload.get("min_age_seconds", ORPHAN_MIN_AGE_SECONDS))
            except (TypeError, ValueError):
                self._error(400, "min_age_seconds must be a number")
                return
            removed = [path.name for path in store.sweep_orphans(min_age)]
            self._reply_json(200, {"removed": removed})
            return
        match = _LEASE_PATH.match(parts.path)
        if match is None:
            self._error(404, f"unknown path {parts.path}")
            return
        content_hash, action = match.group(1), match.group(2)
        payload = self._json_body()
        owner = payload.get("owner") if payload else None
        if not isinstance(owner, str) or not owner:
            self._error(400, "lease requests need a non-empty string 'owner'")
            return
        try:
            ttl = float(payload.get("ttl_seconds", DEFAULT_LEASE_TTL_SECONDS))
        except (TypeError, ValueError):
            self._error(400, "ttl_seconds must be a number")
            return
        # One mutex for every lease transition: the filesystem backend's
        # read-back steal arbitration is best-effort between processes, but
        # serialized here it is exact — remote workers' races end at this
        # lock, never on the disk.
        with self.server.lease_mutex:
            if action == "acquire":
                granted = store.try_acquire_lease(content_hash, owner, ttl)
                self._reply_json(200 if granted else 409, {"acquired": granted})
            elif action == "renew":
                renewed = store.renew_lease(content_hash, owner, ttl)
                self._reply_json(200 if renewed else 409, {"renewed": renewed})
            else:
                store.release_lease(content_hash, owner)
                self._reply_json(200, {"released": True})
