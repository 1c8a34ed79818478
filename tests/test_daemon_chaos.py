"""Kill the daemon and check the books still balance.

The durability contract of ``repro serve``, exercised with a real
process and a real signal: ``kill -9`` the daemon mid-job, and the
fsync'd submission log replays the unfinished job on the next start,
points already checkpointed come back as cache hits, and the results
ledger shows every point computed exactly once.

The test asserts the zero-duplicate-compute invariant through the
content-addressed cache: one ``(key, fingerprint)`` line per point, no
matter how many processes died along the way.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve import JobState, SweepService
from repro.serve.client import ServeClient

from .test_serve import wait_terminal

#: Generous: these tests spawn interpreters.
DEADLINE = 45.0

REPO = Path(__file__).resolve().parent.parent


def probe_payload(xs, name="chaos-probe", sleep_ms=150):
    """A probe sweep as a raw HTTP submission."""
    return {"name": name, "tasks": [
        {"kind": "probe", "params": {"x": x, "sleep_ms": sleep_ms}}
        for x in xs
    ]}


def spawn_daemon(cache_dir, port_file, port=0, extra=()):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--cache-dir", str(cache_dir), "--port", str(port),
         "--port-file", str(port_file), *extra],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")), cwd=str(REPO),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def wait_for_port(port_file, deadline=DEADLINE):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            text = port_file.read_text().strip()
        except FileNotFoundError:
            text = ""
        if text:
            return int(text)
        time.sleep(0.05)
    raise AssertionError("daemon never wrote its port file")


def reap(*procs, sig=signal.SIGKILL):
    for proc in procs:
        if proc is not None and proc.poll() is None:
            proc.send_signal(sig)
            proc.wait(10)


def ledger(cache_dir):
    """Parsed ``(key, fingerprint)`` pairs from the results checkpoint."""
    path = Path(cache_dir) / "results.jsonl"
    pairs = []
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a kill mid-append
            pairs.append((entry["key"], entry["fingerprint"]))
    return pairs


class TestDaemonKill9:
    def test_restart_replays_the_log_with_zero_duplicates(self, tmp_path):
        cache = tmp_path / "cache"
        port_file = tmp_path / "port"
        daemon = spawn_daemon(cache, port_file, extra=("--jobs", "1"))
        try:
            port = wait_for_port(port_file)
            client = ServeClient(f"http://127.0.0.1:{port}")
            job = client.submit(probe_payload(range(8)))
            # Let a couple of points reach the durable checkpoint, then
            # pull the plug with no warning whatsoever.
            deadline = time.monotonic() + DEADLINE
            while len(ledger(cache)) < 2:
                assert time.monotonic() < deadline, "no points checkpointed"
                time.sleep(0.05)
            os.kill(daemon.pid, signal.SIGKILL)
            daemon.wait(DEADLINE)
        finally:
            reap(daemon)
        executed_before = len(ledger(cache))
        assert executed_before < 8, "daemon finished before the kill"

        svc = SweepService(jobs=1, cache_dir=cache).start()
        try:
            revived = svc.store.get(job["id"])
            assert revived is not None, "WAL did not replay the job"
            wait_terminal(svc, revived, deadline=DEADLINE)
            assert svc.store.get(job["id"]).state is JobState.DONE
            assert len(svc.job_records(job["id"])) == 8
            counters = svc.stats()["counters"]
            assert counters["serve.jobs.recovered"] == 1
            # The restart computed only what the crash interrupted...
            assert counters["serve.points.executed"] == 8 - executed_before
            assert counters["serve.points.cache_hits"] == executed_before
        finally:
            svc.stop(timeout=DEADLINE)
        # ...and the ledger shows each point exactly once.
        pairs = ledger(cache)
        assert len(pairs) == len(set(pairs)) == 8

