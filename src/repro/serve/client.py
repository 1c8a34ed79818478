"""Stdlib HTTP client for the sweep service.

Backs ``repro submit`` / ``repro jobs``, ``repro top --url`` and the
tests.  One ``http.client`` connection per request (the server
closes connections after each response anyway), JSON in/out, NDJSON
event streaming via repeated long-polls - :meth:`ServeClient.stream`
resumes from the last seen index so no delta is lost or duplicated
across reconnects.

Transport failures (connection refused/reset, timeouts) and 5xx
responses are retried with the campaign's own
:class:`~repro.campaign.scheduler.BackoffPolicy` - exponential spacing
with deterministic per-(path, attempt) jitter.  4xx responses fail
fast: the daemon answered, and asking again will not change its mind.
A retried ``submit`` that actually landed twice is benign - the
daemon's subscriber dedupe computes the points once either way.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, Iterator, List, Optional
from urllib.parse import urlencode, urlsplit

from ..campaign import BackoffPolicy

#: Transport-level failures worth retrying (the daemon never answered).
RETRYABLE_ERRORS = (OSError, http.client.HTTPException)


class ServeError(RuntimeError):
    """Non-2xx response from the daemon."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServeClient:
    """Talk to one ``repro serve`` daemon as one tenant.

    ``retries`` bounds *extra* attempts per request.
    """

    def __init__(self, url: str, tenant: str = "default",
                 timeout: float = 30.0, retries: int = 2,
                 backoff: Optional[BackoffPolicy] = None) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(f"unsupported scheme {parts.scheme!r} (http only)")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.tenant = tenant
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff = backoff if backoff is not None \
            else BackoffPolicy(base_s=0.1, cap_s=2.0)

    # -- transport ---------------------------------------------------------

    def _request_once(self, method: str, path: str,
                      payload: Optional[Dict[str, Any]] = None,
                      timeout: Optional[float] = None) -> Any:
        body, headers = None, {"X-Repro-Tenant": self.tenant}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout,
        )
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        content_type = response.getheader("Content-Type", "")
        if response.status >= 400:
            message = raw.decode("utf-8", "replace").strip()
            try:
                message = json.loads(message).get("error", message)
            except (json.JSONDecodeError, AttributeError):
                pass
            raise ServeError(response.status, message)
        if "ndjson" in content_type:
            return [
                json.loads(line)
                for line in raw.decode("utf-8").splitlines() if line.strip()
            ]
        if content_type.startswith("text/plain"):
            return raw.decode("utf-8")  # /metrics exposition text
        return json.loads(raw.decode("utf-8")) if raw else None

    def _request(self, method: str, path: str,
                 payload: Optional[Dict[str, Any]] = None,
                 timeout: Optional[float] = None) -> Any:
        for attempt in range(self.retries + 1):
            try:
                return self._request_once(method, path, payload, timeout)
            except ServeError as error:
                if error.status < 500 or attempt >= self.retries:
                    raise
            except RETRYABLE_ERRORS:
                if attempt >= self.retries:
                    raise
            time.sleep(self.backoff.delay(path, attempt + 1))
        raise AssertionError("unreachable")  # pragma: no cover

    # -- API ---------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/stats")

    def metrics(self) -> str:
        """The Prometheus text-exposition body of ``GET /metrics``."""
        return self._request("GET", "/metrics")

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a sweep; returns the created job's status dict."""
        return self._request("POST", "/v1/jobs", payload=payload)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self, tenant: Optional[str] = None) -> List[Dict[str, Any]]:
        query = f"?{urlencode({'tenant': tenant})}" if tenant else ""
        return self._request("GET", f"/v1/jobs{query}")["jobs"]

    def result(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def events(self, job_id: str, since: int = 0,
               wait: float = 0.0) -> List[Dict[str, Any]]:
        """One batch of events past ``since`` (long-polls up to ``wait``)."""
        query = urlencode({"since": since, "wait": wait})
        return self._request(
            "GET", f"/v1/jobs/{job_id}/events?{query}",
            timeout=self.timeout + wait,
        )

    def stream(self, job_id: str, since: int = 0,
               wait: float = 10.0) -> Iterator[Dict[str, Any]]:
        """Yield events as they happen until the job reaches a terminal state.

        Resumable: pass the last seen ``event["i"] + 1`` as ``since`` to
        continue after a disconnect without loss or duplication.
        """
        terminal = {"done", "interrupted", "cancelled"}
        while True:
            batch = self.events(job_id, since=since, wait=wait)
            for event in batch:
                since = event["i"] + 1
                yield event
                if event.get("event") == "state" \
                        and event.get("state") in terminal:
                    return
            if not batch and self.job(job_id)["state"] in terminal:
                return

    def wait(self, job_id: str, timeout: float = 120.0,
             poll: float = 5.0) -> Dict[str, Any]:
        """Block until the job is terminal; returns its final status dict."""
        deadline = time.monotonic() + timeout
        since = 0
        terminal = {"done", "interrupted", "cancelled"}
        while True:
            job = self.job(job_id)
            if job["state"] in terminal:
                return job
            left = deadline - time.monotonic()
            if left <= 0.0:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after {timeout}s"
                )
            for event in self.events(job_id, since=since,
                                     wait=min(poll, left)):
                since = event["i"] + 1
