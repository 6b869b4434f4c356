"""The ``repro serve`` daemon: a stdlib-only asyncio HTTP front end.

One :class:`Service` composes the scheduler (worker processes + DAG
state, on its own scheduling thread), the content-addressed result
store, and the telemetry buffer behind a small hand-rolled HTTP/1.1
server on asyncio streams — no third-party web framework, matching the
repo's standard-library-only dependency floor.

Endpoints (all JSON except ``/metrics/prom``):

* ``POST /submit`` — accept a run/compare/sweep request document;
  returns ``202 {"request_id": ...}`` (400 on a malformed document).
* ``GET /status`` — overview of every request; ``GET /status/<id>`` —
  full detail of one request, including per-node states and the root
  synthesis results once done.
* ``GET /jobs`` — every DAG node of every request plus executor/store
  counters.
* ``GET /result/<key>`` — the content-addressed payload at ``key``
  (a leaf's cache entry or a synthesis document).
* ``GET /metrics[?kind=...&since=<seq>]`` — buffered service metric
  records (the JSONL schema, see :mod:`repro.service.telemetry`);
  an unknown ``kind`` is a 400 naming the allowed kinds.
* ``GET /metrics/prom`` — one Prometheus text-exposition scrape
  (version 0.0.4): event counters, scheduler gauges, latency
  histograms (see :mod:`repro.service.tracing`).
* ``GET /spans/<request_id>`` — the request's trace spans, live
  (provisional in-progress root) or finished (verbatim).
* ``GET /healthz`` — liveness plus summary counters.

Handlers only read shared state under the scheduler's lock or enqueue
work (``/submit``), so the event loop never blocks on a simulation.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
import time
from pathlib import Path
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs.metrics import METRIC_KINDS
from repro.service.journal import (RequestJournal, archive_journal,
                                   default_journal_path, replay_journal)
from repro.service.requests import RequestError
from repro.service.scheduler import ServiceScheduler
from repro.service.store import ResultStore
from repro.service.telemetry import ServiceTelemetry
from repro.service.tracing import render_prometheus

__all__ = ["Service", "build_service"]

_MAX_BODY = 4 * 1024 * 1024
_KEY_RE = re.compile(r"^[A-Za-z0-9._=,-]+$")

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large", 500: "Internal Server Error"}

#: the standard Prometheus text exposition content type
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _TextBody:
    """A route payload served verbatim as text instead of JSON
    (``/metrics/prom`` — Prometheus scrapers expect the 0.0.4 text
    content type, not a JSON wrapper)."""

    __slots__ = ("text", "content_type")

    def __init__(self, text: str,
                 content_type: str = "text/plain; charset=utf-8") -> None:
        self.text = text
        self.content_type = content_type


class Service:
    """Scheduler + store + telemetry + asyncio HTTP server, as one unit.

    Run blocking in the foreground with :meth:`run_forever` (the CLI) or
    on a background thread with :meth:`start`/:meth:`stop` (tests,
    embeddings); ``port=0`` binds an ephemeral port, re-read from
    :attr:`port` once started.
    """

    def __init__(self, scheduler: ServiceScheduler,
                 host: str = "127.0.0.1", port: int = 8023) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        #: recovery stats from a startup journal replay (None when the
        #: daemon started without one); surfaced on /healthz
        self.recovery: Optional[dict] = None
        self._started = time.monotonic()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_future: Optional[asyncio.Future] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle --------------------------------------------------------

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            server = await asyncio.start_server(self._handle_client,
                                                self.host, self.port)
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            raise
        self.port = server.sockets[0].getsockname()[1]
        self._stop_future = self._loop.create_future()
        self._ready.set()
        async with server:
            await self._stop_future

    def run_forever(self) -> None:
        """Run scheduler and HTTP server until interrupted (CLI mode)."""
        self.scheduler.start()
        try:
            asyncio.run(self._amain())
        except KeyboardInterrupt:
            pass
        finally:
            self.scheduler.stop()

    def start(self) -> str:
        """Start in the background; returns the service URL."""
        self.scheduler.start()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._amain()),
            name="repro-serve", daemon=True)
        self._thread.start()
        self._ready.wait(10)
        if self._startup_error is not None:
            self.scheduler.stop()
            raise RuntimeError(
                f"service failed to bind {self.host}:{self.port}: "
                f"{self._startup_error}")
        return self.url

    def stop(self) -> None:
        if self._loop is not None and self._stop_future is not None:
            def _finish() -> None:
                if not self._stop_future.done():
                    self._stop_future.set_result(None)
            self._loop.call_soon_threadsafe(_finish)
        if self._thread is not None:
            self._thread.join(10)
            self._thread = None
        self.scheduler.stop()

    # -- HTTP plumbing ----------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            status, payload = await self._handle_request(reader)
        except Exception as exc:   # defensive: a handler bug must not
            status, payload = 500, {"error": f"{type(exc).__name__}: "
                                             f"{exc}"}
        if isinstance(payload, _TextBody):
            body = payload.text.encode("utf-8")
            content_type = payload.content_type
        else:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode()
            content_type = "application/json"
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    async def _handle_request(self, reader: asyncio.StreamReader
                              ) -> Tuple[int, dict]:
        # Content-Length is attacker-controlled input: reject negative
        # and oversized values *before* reading, and turn a short or
        # stalled body (client lied about the length, or hung up
        # mid-send) into a clean 400 instead of a wedged connection or
        # a traceback through the handler.
        try:
            request_line = await asyncio.wait_for(reader.readline(), 30)
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return 400, {"error": "malformed request line"}
            method, target = parts[0].upper(), parts[1]
            length = 0
            while True:
                line = await asyncio.wait_for(reader.readline(), 30)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    try:
                        length = int(value.strip())
                    except ValueError:
                        return 400, {"error": "bad Content-Length"}
            if length < 0:
                return 400, {"error": "negative Content-Length"}
            if length > _MAX_BODY:
                return 413, {"error": f"body exceeds {_MAX_BODY} bytes"}
            body = b""
            if length:
                try:
                    body = await asyncio.wait_for(
                        reader.readexactly(length), 30)
                except asyncio.IncompleteReadError as exc:
                    return 400, {"error":
                                 f"request body ended after "
                                 f"{len(exc.partial)} of {length} bytes"}
        except asyncio.TimeoutError:
            return 400, {"error": "timed out reading request"}
        return self._route(method, target, body)

    # -- routing ----------------------------------------------------------

    def _route(self, method: str, target: str,
               body: bytes) -> Tuple[int, dict]:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = {name: values[-1]
                 for name, values in parse_qs(split.query).items()}

        if path == "/submit":
            if method != "POST":
                return 405, {"error": "POST only"}
            try:
                doc = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return 400, {"error": f"request body is not JSON: {exc}"}
            try:
                return 202, self.scheduler.submit_request(doc)
            except RequestError as exc:
                return 400, {"error": str(exc)}

        if method != "GET":
            return 405, {"error": "GET only"}

        if path == "/healthz":
            overview = self.scheduler.overview()
            health = {"status": "ok",
                      "uptime_s": round(time.monotonic()
                                        - self._started, 3),
                      "requests": len(overview["requests"]),
                      "executor": overview["executor"],
                      "store": overview["store"]}
            if self.recovery is not None:
                health["recovery"] = self.recovery
            return 200, health
        if path == "/status":
            return 200, self.scheduler.overview()
        if path.startswith("/status/"):
            request_id = path[len("/status/"):]
            detail = self.scheduler.request_status(request_id)
            if detail is None:
                return 404, {"error": f"unknown request {request_id!r}"}
            return 200, detail
        if path == "/jobs":
            return 200, self.scheduler.snapshot_jobs()
        if path.startswith("/result/"):
            key = path[len("/result/"):]
            if not _KEY_RE.match(key):
                return 400, {"error": "malformed result key"}
            payload = self.scheduler.store.get(key)
            if payload is None:
                return 404, {"error": f"no result stored for {key!r}"}
            return 200, {"key": key, "payload": payload}
        if path == "/metrics/prom":
            return 200, _TextBody(render_prometheus(self.scheduler),
                                  PROM_CONTENT_TYPE)
        if path.startswith("/spans/"):
            request_id = path[len("/spans/"):]
            spans = self.scheduler.tracer.spans(request_id)
            if spans is None:
                return 404, {"error": f"unknown request {request_id!r}"}
            return 200, {"request_id": request_id, "spans": spans,
                         "epoch_unix": self.scheduler.tracer.epoch_unix}
        if path == "/metrics":
            since = 0
            if "since" in query:
                try:
                    since = int(query["since"])
                except ValueError:
                    return 400, {"error": "since must be an integer"}
            kind = query.get("kind") or None
            if kind is not None and kind not in METRIC_KINDS:
                # an unknown kind silently matching nothing looks
                # exactly like "no records yet" to a poller — reject
                # it loudly with the allowed vocabulary instead
                return 400, {"error": f"unknown metric kind {kind!r}",
                             "allowed_kinds": sorted(METRIC_KINDS)}
            telemetry = self.scheduler.telemetry
            records = telemetry.records(kind=kind, since=since)
            oldest = telemetry.oldest_seq
            # "gap": records in (since, oldest) evicted from the bounded
            # ring — the poller's stream has a hole it must not paper
            # over (the JSONL mirror, when enabled, still has them)
            return 200, {"records": records,
                         "counts": telemetry.counts(),
                         "seq": telemetry.seq,
                         "oldest_seq": oldest,
                         "gap": max(0, oldest - since - 1)}
        return 404, {"error": f"no route for {path!r}"}


def build_service(jobs: Optional[int] = None,
                  timeout: Optional[float] = None, retries: int = 1,
                  use_cache: bool = True, host: str = "127.0.0.1",
                  port: int = 8023,
                  telemetry: Optional[ServiceTelemetry] = None,
                  store: Optional[ResultStore] = None,
                  journal_path: Optional[object] = None,
                  resume: bool = True,
                  use_journal: bool = True) -> Service:
    """Wire a full service: journal + store + telemetry + scheduler + HTTP.

    Durability is on by default: a fsync'd request journal lives under
    the cache root (or at ``journal_path``) and any journal left by a
    previous process is replayed before the daemon starts — completed
    leaves re-hydrated from the content-addressed store, unfinished ones
    re-enqueued (``resume=True``), or archived unreplayed
    (``resume=False``, the ``--fresh`` CLI switch). Either way the old
    file is rotated to a ``.bak`` and a fresh journal is started, so
    replay only ever sees one process generation. Raises
    :class:`~repro.service.journal.JournalError` when the existing
    journal is unreadable — archive it with ``--fresh`` to start clean.
    """
    journal = None
    replay = None
    if use_journal:
        path = Path(journal_path) if journal_path is not None \
            else default_journal_path()
        if resume:
            replay = replay_journal(path)     # JournalError propagates
        archive_journal(path)
        journal = RequestJournal(path)
    scheduler = ServiceScheduler(slots=jobs, timeout=timeout,
                                 retries=retries, use_cache=use_cache,
                                 store=store, telemetry=telemetry,
                                 journal=journal)
    service = Service(scheduler, host=host, port=port)
    if replay is not None and replay.requests:
        service.recovery = scheduler.recover(replay)
        if replay.truncated:
            service.recovery["journal_truncated"] = True
    elif journal is not None and not resume:
        scheduler.telemetry.recovery_event("fresh")
    return service
