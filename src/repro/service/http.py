"""The daemon's stdlib HTTP endpoint.

``repro serve --http PORT`` exposes the serving system's state over
:class:`http.server.ThreadingHTTPServer` — no third-party dependency,
read-only, bound to localhost:

* ``/``              tiny index page linking everything below
* ``/status``        JSON: daemon heartbeat + queue state counts
* ``/queue``         JSON: every journal entry (spec, label, state, ...)
* ``/dashboard``     the obs HTML dashboard (scorecards, phase charts,
                     BENCH trajectories) built from the newest event
                     logs under ``<cache_dir>/obs`` plus the checked-in
                     ``BENCH_*.json`` trajectory files
* ``/report``        the incrementally regenerated EXPERIMENTS.md
* ``/report/raw``    its raw report text
* ``/tables``        JSON: every stored section's structured cell model
                     (per-seed samples, confidence intervals,
                     significance verdicts — `repro.stats.tables`)
* ``/bench/schemes`` and ``/bench/scaling`` — the trajectory JSONs

Handlers only read files and replay the journal; they never mutate
service state, so a request can race the daemon loop freely.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro.runtime.cache import OBS_SUBDIR
from repro.service.queue import JobQueue, read_daemon_meta

#: How many of the newest obs run logs feed the dashboard.
DASHBOARD_LOGS = 3

REPO_ROOT = Path(__file__).resolve().parents[3]

_INDEX = """<!DOCTYPE html>
<html><head><meta charset='utf-8'><title>repro service</title></head>
<body><h1>repro experiment service</h1><ul>
<li><a href="/status">/status</a> — daemon + queue state (JSON)</li>
<li><a href="/queue">/queue</a> — journal entries (JSON)</li>
<li><a href="/dashboard">/dashboard</a> — obs dashboard (HTML)</li>
<li><a href="/report">/report</a> — EXPERIMENTS.md (markdown)</li>
<li><a href="/report/raw">/report/raw</a> — raw report text</li>
<li><a href="/tables">/tables</a> — structured cell models (JSON)</li>
<li><a href="/bench/schemes">/bench/schemes</a> — BENCH_schemes.json</li>
<li><a href="/bench/scaling">/bench/scaling</a> — BENCH_scaling.json</li>
</ul></body></html>
"""


def _json_bytes(payload: Any) -> bytes:
    return json.dumps(payload, indent=1, sort_keys=True).encode("utf-8")


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes one GET; all state comes from the server object."""

    server: "ServiceHTTPServer"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # stay quiet: the daemon's stderr is its own log

    # ------------------------------------------------------------------
    def _send(self, body: bytes, content_type: str,
              status: int = 200) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: Any, status: int = 200) -> None:
        self._send(_json_bytes(payload), "application/json", status)

    def _not_found(self) -> None:
        self._send_json({"error": f"no such route: {self.path}"}, 404)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        try:
            route = self.path.split("?", 1)[0].rstrip("/") or "/"
            if route == "/":
                self._send(_INDEX.encode("utf-8"), "text/html")
            elif route == "/status":
                self._send_json(self.server.status())
            elif route == "/queue":
                self._send_json(self.server.queue_entries())
            elif route == "/dashboard":
                self._send(self.server.dashboard().encode("utf-8"),
                           "text/html")
            elif route == "/report":
                self._send(self.server.report_markdown().encode("utf-8"),
                           "text/markdown; charset=utf-8")
            elif route == "/report/raw":
                self._send(self.server.report_raw().encode("utf-8"),
                           "text/plain; charset=utf-8")
            elif route == "/tables":
                self._send_json(self.server.tables_model())
            elif route == "/bench/schemes":
                self._send_json(self.server.bench("schemes"))
            elif route == "/bench/scaling":
                self._send_json(self.server.bench("scaling"))
            else:
                self._not_found()
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as error:  # surface, don't kill the thread
            try:
                self._send_json({"error": f"{error.__class__.__name__}: "
                                          f"{error}"}, 500)
            except OSError:
                pass


class ServiceHTTPServer(ThreadingHTTPServer):
    """The endpoint plus the read-only state accessors behind it."""

    daemon_threads = True

    def __init__(self, port: int, cache_dir: str, queue: JobQueue,
                 bench_schemes: str | Path | None = None,
                 bench_scaling: str | Path | None = None) -> None:
        super().__init__(("127.0.0.1", port), ServiceRequestHandler)
        self.cache_dir = Path(cache_dir)
        self.queue = queue
        self.bench_paths = {
            "schemes": Path(bench_schemes) if bench_schemes
            else REPO_ROOT / "BENCH_schemes.json",
            "scaling": Path(bench_scaling) if bench_scaling
            else REPO_ROOT / "BENCH_scaling.json",
        }

    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        return {
            "daemon": read_daemon_meta(self.queue.dir),
            "queue": self.queue.counts(),
            "cache_dir": str(self.cache_dir),
        }

    def queue_entries(self) -> list[dict[str, Any]]:
        entries = sorted(self.queue.load().values(),
                         key=lambda entry: entry.seq)
        return [{
            "spec": entry.spec,
            "label": entry.label,
            "state": entry.state,
            "priority": entry.priority,
            "seq": entry.seq,
            "pid": entry.pid,
            "seconds": entry.seconds,
            "error": entry.error,
        } for entry in entries]

    def dashboard(self) -> str:
        from repro.obs.dashboard import build_dashboard
        from repro.obs.reader import ObsLogError, read_log

        obs_dir = self.cache_dir / OBS_SUBDIR
        logs: list[tuple[dict[str, Any], list[dict[str, Any]]]] = []
        try:
            newest = sorted(obs_dir.glob("*.jsonl"),
                            key=lambda path: path.stat().st_mtime)
        except OSError:
            newest = []
        for path in newest[-DASHBOARD_LOGS:]:
            try:
                logs.append(read_log(path))
            except (ObsLogError, OSError):
                continue  # a log being written right now — skip it
        return build_dashboard(logs,
                               bench_schemes=self._bench_or_none("schemes"),
                               bench_scaling=self._bench_or_none("scaling"),
                               title="repro service dashboard")

    # ------------------------------------------------------------------
    def _report_file(self, name: str) -> str:
        from repro.service.reporter import REPORT_SUBDIR
        from repro.service.queue import service_dir

        path = service_dir(self.cache_dir) / REPORT_SUBDIR / name
        if not path.exists() and name == "EXPERIMENTS.md":
            path = REPO_ROOT / name  # fall back to the checked-in copy
        try:
            return path.read_text()
        except OSError:
            return (f"{name} not generated yet; run "
                    f"`repro report` or submit a sweep.\n")

    def report_markdown(self) -> str:
        return self._report_file("EXPERIMENTS.md")

    def report_raw(self) -> str:
        return self._report_file("experiments_raw.txt")

    def tables_model(self) -> dict[str, Any]:
        """Every stored section's cell model, keyed by section slug."""
        from repro.service.queue import service_dir
        from repro.service.reporter import MANIFEST_NAME, REPORT_SUBDIR

        root = service_dir(self.cache_dir) / REPORT_SUBDIR
        try:
            manifest = json.loads((root / MANIFEST_NAME).read_text())
        except (OSError, ValueError):
            manifest = {}
        sections: dict[str, Any] = {}
        for path in sorted((root / "sections").glob("*.json")):
            try:
                payloads = json.loads(path.read_text())
            except (OSError, ValueError):
                continue  # being rewritten right now — skip it
            slug = path.stem
            entry = manifest.get(slug, {})
            sections[slug] = {
                "title": entry.get("title", slug),
                "model_digest": entry.get("model_digest"),
                "tables": payloads,
            }
        return sections

    def _bench_or_none(self, which: str) -> dict[str, Any] | None:
        try:
            return json.loads(self.bench_paths[which].read_text())
        except (OSError, ValueError):
            return None

    def bench(self, which: str) -> dict[str, Any]:
        data = self._bench_or_none(which)
        if data is None:
            return {"error": f"no {self.bench_paths[which].name} found"}
        return data


def start_http_server(port: int, cache_dir: str, queue: JobQueue,
                      **kwargs: Any) -> ServiceHTTPServer:
    """Start the endpoint on a daemon thread; returns the server."""
    server = ServiceHTTPServer(port, cache_dir, queue, **kwargs)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve-http", daemon=True)
    thread.start()
    return server
