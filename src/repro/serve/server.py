"""The stdlib-asyncio HTTP/JSON front end for :class:`SweepService`.

A deliberately small HTTP/1.1 server over ``asyncio.start_server`` - no
frameworks, no dependencies - speaking JSON everywhere except the event
stream, which is NDJSON (one event object per line) so clients can
long-poll deltas with ``?since=<i>&wait=<s>`` and never miss or repeat
one.

Routes::

    GET    /healthz                     liveness + drain flag
    GET    /metrics                     Prometheus text exposition
    GET    /v1/stats[?format=prom]      counters, queue depths, job states
    POST   /v1/jobs                     submit {tenant?, target|tasks, ...}
    GET    /v1/jobs[?tenant=t]          list jobs
    GET    /v1/jobs/<id>                job status
    GET    /v1/jobs/<id>/events         NDJSON deltas (?since=N&wait=S)
    GET    /v1/jobs/<id>/result         per-key result values
    DELETE /v1/jobs/<id>                cancel

Shutdown: SIGTERM/SIGINT flips the service into drain mode - new
submissions get ``503 {"error": "service is draining..."}`` with a
``Retry-After`` header while the pump checkpoints in-flight chunks; once
drained every unfinished job is marked ``interrupted``/resumable and the
process exits 0.  Blocking waits (the long-poll) run in the default
thread-pool executor so the event loop never stalls.
"""

from __future__ import annotations

import asyncio
import json
import signal
from pathlib import Path
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..obs.export import PROM_CONTENT_TYPE
from .service import ServiceDraining, SweepService

#: Cap on request body size; sweep submissions are tiny.
MAX_BODY = 4 << 20

#: Cap on one long-poll parking interval, seconds.
MAX_WAIT_S = 60.0

_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one HTTP/1.1 request; None on clean EOF before a request."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _HttpError(400, "malformed request line")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        if b":" not in line:
            raise _HttpError(400, "malformed header line")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY:
        raise _HttpError(413, f"body too large ({length} > {MAX_BODY})")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, headers, body


def _response(status: int, body: bytes, content_type: str,
              extra: Optional[Dict[str, str]] = None) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _json_response(status: int, payload: Any,
                   extra: Optional[Dict[str, str]] = None) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return _response(status, body, "application/json", extra)


def _decode_json(body: bytes) -> Dict[str, Any]:
    if not body:
        raise _HttpError(400, "empty body; expected a JSON object")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise _HttpError(400, f"invalid JSON body: {error}")
    if not isinstance(payload, dict):
        raise _HttpError(400, "body must be a JSON object")
    return payload


def _query_int(query: Dict[str, list], name: str, default: int) -> int:
    raw = query.get(name, [None])[0]
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise _HttpError(400, f"query parameter {name!r} must be an integer")


def _query_float(query: Dict[str, list], name: str, default: float) -> float:
    raw = query.get(name, [None])[0]
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise _HttpError(400, f"query parameter {name!r} must be a number")


class ServeApp:
    """Routes one parsed request to the service; owns no sockets itself."""

    def __init__(self, service: SweepService) -> None:
        self.service = service

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await _read_request(reader)
                if request is None:
                    return
                method, target, headers, body = request
                response = await self._dispatch(method, target, headers, body)
            except _HttpError as error:
                response = _json_response(
                    error.status, {"error": error.message}, error.headers
                )
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            except Exception as error:  # noqa: BLE001 - never kill the loop
                response = _json_response(
                    500, {"error": f"{type(error).__name__}: {error}"}
                )
            writer.write(response)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _dispatch(self, method: str, target: str,
                        headers: Dict[str, str], body: bytes) -> bytes:
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = parse_qs(url.query)

        if path == "/healthz" and method == "GET":
            return _json_response(
                200, {"ok": True, "draining": self.service.draining}
            )
        if path == "/metrics" and method == "GET":
            return self._metrics()
        if path == "/v1/stats" and method == "GET":
            if query.get("format", [None])[0] == "prom":
                return self._metrics()
            return _json_response(200, self.service.stats())
        if path == "/v1/jobs":
            if method == "POST":
                return self._submit(headers, body)
            if method == "GET":
                tenant = query.get("tenant", [None])[0]
                with self.service.store.lock:
                    jobs = [j.to_dict()
                            for j in self.service.store.jobs(tenant)]
                return _json_response(200, {"jobs": jobs})
            raise _HttpError(405, f"{method} not allowed on {path}")

        parts = path.split("/")
        # /v1/jobs/<id>[/events|/result]
        if len(parts) >= 4 and parts[1] == "v1" and parts[2] == "jobs":
            job_id = parts[3]
            tail = parts[4] if len(parts) == 5 else ""
            if len(parts) > 5 or tail not in ("", "events", "result"):
                raise _HttpError(404, f"no such route: {path}")
            if tail == "" and method == "DELETE":
                return self._cancel(job_id)
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {path}")
            if tail == "":
                return self._job(job_id)
            if tail == "result":
                return self._result(job_id)
            return await self._events(job_id, query)
        raise _HttpError(404, f"no such route: {path}")

    # -- handlers ----------------------------------------------------------

    def _metrics(self) -> bytes:
        body = self.service.prometheus().encode("utf-8")
        return _response(200, body, PROM_CONTENT_TYPE)

    def _submit(self, headers: Dict[str, str], body: bytes) -> bytes:
        payload = _decode_json(body)
        tenant = payload.pop("tenant", None) \
            or headers.get("x-repro-tenant") or "default"
        try:
            job = self.service.submit(payload, tenant=tenant)
        except ServiceDraining as error:
            raise _HttpError(503, str(error), {"Retry-After": "5"})
        except ValueError as error:
            raise _HttpError(400, str(error))
        return _json_response(201, self.service.job_dict(job.id))

    def _job(self, job_id: str) -> bytes:
        try:
            return _json_response(200, self.service.job_dict(job_id))
        except KeyError:
            raise _HttpError(404, f"no such job: {job_id}")

    def _result(self, job_id: str) -> bytes:
        try:
            job = self.service.job_dict(job_id)
            records = self.service.job_records(job_id)
        except KeyError:
            raise _HttpError(404, f"no such job: {job_id}")
        return _json_response(
            200, {"job": job, "results": records}
        )

    def _cancel(self, job_id: str) -> bytes:
        try:
            job = self.service.cancel(job_id)
        except KeyError:
            raise _HttpError(404, f"no such job: {job_id}")
        return _json_response(200, job.to_dict())

    async def _events(self, job_id: str, query: Dict[str, list]) -> bytes:
        since = _query_int(query, "since", 0)
        wait = min(MAX_WAIT_S, max(0.0, _query_float(query, "wait", 0.0)))
        store = self.service.store
        loop = asyncio.get_running_loop()
        try:
            if wait > 0.0:
                # Blocking condition-wait, parked off the event loop.
                events = await loop.run_in_executor(
                    None, store.wait_events, job_id, since, wait
                )
            else:
                events = store.events_since(job_id, since)
        except KeyError:
            raise _HttpError(404, f"no such job: {job_id}")
        body = "".join(
            json.dumps(event, sort_keys=True) + "\n" for event in events
        ).encode("utf-8")
        return _response(200, body, "application/x-ndjson")


async def _serve(service: SweepService, host: str, port: int,
                 port_file: Optional[Path], echo=print) -> None:
    app = ServeApp(service)
    server = await asyncio.start_server(app.handle, host, port)
    bound_port = server.sockets[0].getsockname()[1]
    if port_file is not None:
        port_file.parent.mkdir(parents=True, exist_ok=True)
        port_file.write_text(f"{bound_port}\n", encoding="utf-8")
    echo(f"repro serve: listening on http://{host}:{bound_port} "
         f"(jobs={service.jobs})")

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-POSIX loop, or running off the main thread (tests)

    service.start()
    try:
        await stop.wait()
        echo("repro serve: drain requested; rejecting new submissions "
             "and checkpointing in-flight jobs")
        # Keep answering (503s, status polls) while the pump drains.
        drained = loop.run_in_executor(None, service.drain)
        await drained
        echo("repro serve: drained; all unfinished jobs checkpointed "
             "as resumable")
    finally:
        server.close()
        await server.wait_closed()


def serve_forever(
    service: SweepService,
    host: str = "127.0.0.1",
    port: int = 0,
    port_file: Optional[Path] = None,
    echo=print,
) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns the exit code (0)."""
    try:
        asyncio.run(_serve(service, host, port, port_file, echo))
    except KeyboardInterrupt:
        # Windows / loops without signal handlers: drain synchronously.
        service.drain()
    return 0
