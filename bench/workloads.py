"""The benchmark's workloads; each measured repetition is one child process.

``bench/run.py`` starts this file once per repetition::

    python bench/workloads.py WORKLOAD --seed N --spawned T [--seconds S]
                              [--trace] [--setup-only]

so every repetition starts with cold memos, exactly like a CLI run.  The
child sets the workload up (imports, inputs built from ``--seed``, goldens
loaded, for the service: started and warmed), reports ``setup_s`` as the
time since ``--spawned`` (the parent's ``time.monotonic()`` just before the
spawn; CLOCK_MONOTONIC is system-wide), runs the workload, checks its
outputs and prints one JSON line.  ``--trace`` wraps the layers listed in
:data:`SITES` (see ``trace.py``) and records the program's own
``repro.obs`` counters around the measured region only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import multiprocessing
import os
import random
import resource
import shutil
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from trace import Site, Tracer  # noqa: E402  (bench/trace.py)

#: Every wrapped layer boundary, named ``<repro module>.<function>``.  The
#: module/attribute pair is where the *caller* looks the function up.
SITES: Tuple[Site, ...] = (
    ("spice.solve_dc", "repro.regulator.netlist", "solve_dc", None),
    ("regulator.session.build", "repro.regulator.netlist",
     "RegulatorSession.__init__", None),
    ("regulator.session.solve", "repro.regulator.netlist",
     "RegulatorSession.solve", None),
    ("regulator.min_resistance", "repro.regulator.characterize",
     "min_resistance_for_drf", None),
    ("cell.retains", "repro.regulator.characterize", "retains", None),
    ("cell.snm_session.build", "repro.cell.snm", "SnmSession.__init__", None),
    ("cell.snm", "repro.cell.snm", "SnmSession.snm", None),
    ("cell.snm_batch", "repro.cell.snm", "SnmSession.snm_batch", None),
    ("cell.drv_pair", "repro.cell.drv", "drv_ds_pair", None),
    ("sram.bank_escape", "repro.sram.macro", "bank_escape_summary", None),
    ("sram.macro_retention", "repro.sram.macro", "macro_retention", None),
    ("sram.drv_map", "repro.sram.macro", "drv_ds_pair_map", None),
    ("sram.flip_mask", "repro.sram.retention_engine",
     "ArrayRetentionEngine.flip_mask", None),
    ("march.vectorized", "repro.march.runner", "run_march_vectorized",
     ("failures", lambda result: len(result.failures))),
    ("march.scalar", "repro.march.coverage", "run_march", None),
    ("march.failing_cells", "repro.march.runner",
     "MarchResult.failing_cells", None),
    ("campaign.run", "repro.campaign.executor", "Executor.run", None),
    ("campaign.task", "repro.campaign.runtime", "run_one",
     ("failed", lambda record: record.status != "ok")),
    ("campaign.cache.lookup", "repro.campaign.cache", "ResultCache.lookup",
     None),
    ("campaign.cache.append", "repro.campaign.cache", "ResultCache.append",
     None),
    ("serve.submit", "repro.serve.service", "SweepService.submit", None),
    ("serve.job_log.submit", "repro.serve.state", "JobLog.log_submit", None),
    ("serve.job_log.terminal", "repro.serve.state", "JobLog.log_terminal",
     None),
)

#: The benchmark's own span around each measured operation.
OP_SPAN = "bench.op"


class Measured:
    """What one child measured: per-operation seconds and failures."""

    def __init__(self) -> None:
        self.ops: List[float] = []
        self.failed = 0
        self.errors: List[str] = []
        self.extra: Dict[str, Any] = {}


# --------------------------------------------------------------- paper


class PaperWorkload:
    """One ``repro verify --tier tiny`` pass over some artifacts.

    Each artifact is built at the tiny tier and diffed against
    ``goldens/tiny/<artifact>.json`` through its own tolerance policy.  The
    seed shuffles the artifact order and every grid of the tier scope, so
    the points are evaluated in another order; the results must not move.
    """

    #: Scope grids the seed shuffles.
    SHUFFLED = ("table1_grid", "table2_defects", "table2_families",
                "table2_grid", "fig4_sigmas", "fig4_transistors", "fig4_grid")

    def __init__(self, artifacts: Tuple[str, ...], imports: Tuple[str, ...],
                 must_fire: Tuple[str, ...]) -> None:
        self.artifacts = artifacts
        self.imports = imports
        self.must_fire = must_fire

    def setup(self, seed: int) -> None:
        from repro.verify.artifacts import scope_for
        from repro.verify.goldens import default_goldens_dir, load_golden

        for module in self.imports:
            importlib.import_module(module)
        rng = random.Random(seed)
        scope = scope_for("tiny")
        self.scope = replace(scope, **{
            field: tuple(rng.sample(getattr(scope, field),
                                    len(getattr(scope, field))))
            for field in self.SHUFFLED
        })
        self.plan = [
            (name, load_golden(default_goldens_dir(), "tiny", name)["payload"])
            for name in rng.sample(self.artifacts, len(self.artifacts))
        ]

    def run(self, tracer: Tracer, seconds: float) -> Measured:
        from repro.verify.artifacts import ARTIFACTS, build_payload
        from repro.verify.compare import compare_payloads

        measured = Measured()
        mismatches: List[str] = []
        start = time.perf_counter()
        with tracer.span(OP_SPAN):
            for name, golden in self.plan:
                with tracer.span(f"analysis.{name}"):
                    payload = build_payload(name, self.scope)
                with tracer.span("verify.compare"):
                    found, _ = compare_payloads(
                        golden, payload, ARTIFACTS[name].policy)
                mismatches += [f"{name}: {m.render()}" for m in found]
        measured.ops.append(time.perf_counter() - start)
        if mismatches:
            measured.failed = 1
            measured.errors = mismatches
        return measured

    def close(self) -> None:
        pass


# --------------------------------------------------------------- macro

#: 1M-cell single-bank macro, 4 DRV buckets (the paper's 4K x 64 DUT has a
#: quarter of the cells; 4M cells would not fit a run's time budget).
MACRO_WORDS = 16384
MACRO_BITS = 64
MACRO_BUCKETS = 4

#: Mismatch seeds whose census is identical: every bucket weak, exactly one
#: of the four detected, with flip times >= 5% away from the 1 ms test
#: sleep.  A free seed moves the detected share in quarter steps (0-50%)
#: and the run time by up to 40%; drawing from this pool changes which
#: cells fail but not how many.
MACRO_REALISATIONS = (17, 20, 21, 36, 41)
MACRO_CENSUS = {"cells": 1048576, "weak": 1048576, "detected": 262144,
                "escaped": 786432}


class MacroWorkload:
    """One ``repro macro`` campaign over a seeded 1M-cell realisation."""

    must_fire = (
        "analysis.macro", "campaign.run", "campaign.task", "sram.bank_escape",
        "sram.macro_retention", "sram.drv_map", "sram.flip_mask",
        "cell.drv_pair", "cell.snm_batch", "march.vectorized",
        "march.failing_cells",
    )

    def setup(self, seed: int) -> None:
        from repro.analysis import macro  # noqa: F401  (set-up cost)
        from repro.march import runner  # noqa: F401
        from repro.sram.macro import MacroSpec

        self.spec = MacroSpec(
            MACRO_WORDS, MACRO_BITS, 1,
            MACRO_REALISATIONS[seed % len(MACRO_REALISATIONS)],
        )

    def run(self, tracer: Tracer, seconds: float) -> Measured:
        from repro.analysis.macro import run_macro_campaign

        measured = Measured()
        start = time.perf_counter()
        with tracer.span(OP_SPAN), tracer.span("analysis.macro"):
            summary, result = run_macro_campaign(
                self.spec, buckets=MACRO_BUCKETS)
        measured.ops.append(time.perf_counter() - start)
        measured.errors = self.check(summary, result)
        measured.failed = int(bool(measured.errors))
        return measured

    def check(self, summary, result) -> List[str]:
        errors = []
        census = {key: getattr(summary, key) for key in MACRO_CENSUS}
        if census != MACRO_CENSUS:
            errors.append(f"census {census} != pinned {MACRO_CENSUS}")
        if not (summary.detected + summary.escaped <= summary.weak
                <= summary.cells):
            errors.append(f"census out of order: {census}")
        for record in result.records.values():
            operations = record.value["operations"]
            expected = 5 * self.spec.words_per_bank + 4  # March m-LZ: 5N+4
            if operations != expected:
                errors.append(f"bank {record.value['bank']}: {operations} "
                              f"March operations, expected {expected}")
        return errors

    def close(self) -> None:
        pass


# --------------------------------------------------------------- serve


def probe_value(x: int, spin: int) -> Dict[str, Any]:
    """Independent recomputation of the ``probe`` task's result."""
    digest = hashlib.sha256(repr(x).encode("utf-8")).hexdigest()
    for _ in range(spin):
        digest = hashlib.sha256(digest.encode("ascii")).hexdigest()
    return {"y": x, "digest": digest[:16]}


class ServeWorkload:
    """Closed loop of ``CLIENTS`` callers on an in-process ``SweepService``.

    Each caller submits a job and waits for it to finish before the next,
    as ``repro submit`` does.  A job is ``POINTS`` probe points; each point
    reuses, with probability ``REUSE``, an ``x`` from the ``RECENT`` jobs
    before it (a cache hit, or a dedupe if that job is still running), else
    takes a fresh ``x`` (an execute plus a cache append).
    """

    JOBS = 2  #: pool workers
    CLIENTS = 2  #: = nproc on the reference host
    POINTS = 16
    SPIN = 2000  #: ~1.5 ms of hashing per point
    REUSE = 0.5
    RECENT = 8
    CHECKED = 64  #: distinct x recomputed after the window
    JOB_TIMEOUT_S = 60.0

    must_fire = (
        "serve.submit", "serve.job_log.submit", "serve.job_log.terminal",
        "campaign.cache.lookup", "campaign.cache.append",
    )

    def setup(self, seed: int) -> None:
        from repro.serve import SweepService

        self.seed = seed
        self._jobs: List[List[int]] = []
        self._lock = threading.Lock()
        self.work = ROOT / ".bench_work" / f"serve-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)  # a dead run's job log
        self.work.mkdir(parents=True)
        self.service = SweepService(jobs=self.JOBS, cache_dir=self.work)
        self.service.start()
        warm = self.service.submit(self._payload(
            [-(i + 1) for i in range(self.POINTS)]), tenant="warmup")
        self._wait(warm)

    def _payload(self, xs: List[int]) -> Dict[str, Any]:
        return {"name": "probe", "tasks": [
            {"kind": "probe", "params": {"x": x, "spin": self.SPIN}}
            for x in xs
        ]}

    def _next_job(self) -> List[int]:
        """The next job's x values, a pure function of (seed, job index)."""
        with self._lock:
            j = len(self._jobs)
            rng = random.Random(f"{self.seed}:{j}")
            recent = [x for xs in self._jobs[-self.RECENT:] for x in xs]
            xs = [
                rng.choice(recent) if recent and rng.random() < self.REUSE
                else j * self.POINTS + i
                for i in range(self.POINTS)
            ]
            self._jobs.append(xs)
            return xs

    def _wait(self, job) -> None:
        deadline = time.monotonic() + self.JOB_TIMEOUT_S
        since = 0
        while not job.state.terminal:
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job.id} still {job.state.value}")
            since += len(self.service.store.wait_events(job.id, since, 1.0))

    def run(self, tracer: Tracer, seconds: float) -> Measured:
        measured = Measured()
        done: List[Tuple[float, Any]] = []
        counters0 = dict(self.service.recorder.counters)
        start = time.perf_counter()
        end = start + seconds

        crashed: List[BaseException] = []

        def client(index: int) -> None:
            try:
                while time.perf_counter() < end:
                    payload = self._payload(self._next_job())
                    t0 = time.perf_counter()
                    with tracer.span(OP_SPAN):
                        job = self.service.submit(payload, tenant=f"c{index}")
                        self._wait(job)
                    elapsed = time.perf_counter() - t0
                    with self._lock:
                        done.append((elapsed, job))
            except BaseException as error:  # re-raised by the main thread
                crashed.append(error)

        threads = [threading.Thread(target=client, args=(i,), daemon=True)
                   for i in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + 2 * self.JOB_TIMEOUT_S)
            if thread.is_alive():
                raise RuntimeError("serve client never finished")
        if crashed:
            raise crashed[0]
        wall = time.perf_counter() - start
        counters = {
            key: value - counters0.get(key, 0)
            for key, value in self.service.recorder.counters.items()
            if key.startswith("serve.points.")
        }
        measured.ops = [elapsed for elapsed, _ in done]
        measured.extra = {"wall_s": wall, "counters": counters}
        measured.failed, measured.errors = self.check([job for _, job in done])
        served = sum(counters.get(f"serve.points.{key}", 0)
                     for key in ("executed", "cache_hits", "deduped"))
        if served != counters.get("serve.points.total", 0):
            measured.errors.append(
                f"service executed + cache hits + deduped = {served} != "
                f"total {counters.get('serve.points.total', 0)}")
        return measured

    def check(self, jobs) -> Tuple[int, List[str]]:
        failed = 0
        errors: List[str] = []
        values: Dict[int, Dict[str, Any]] = {}
        for job in jobs:
            state = job.to_dict()
            problems = []
            if state["state"] != "done" or state["failures"]:
                problems.append(f"ended {state['state']} with "
                                f"{state['failures']} failures")
            # A job's deduped points arrive through the shared execution,
            # so they are counted in its ``executed`` as well.
            if (state["executed"] + state["cache_hits"] != state["total"]
                    or state["deduped"] > state["executed"]):
                problems.append(
                    f"executed {state['executed']} (deduped "
                    f"{state['deduped']}) + cache hits {state['cache_hits']}"
                    f" != total {state['total']}")
            for record in self.service.job_records(job.id).values():
                x = record["params"]["x"]
                if values.setdefault(x, record["value"]) != record["value"]:
                    problems.append(f"x={x} delivered two different values")
            if problems:
                failed += 1
                errors += [f"{job.id}: {p}" for p in problems]
        rng = random.Random(self.seed)
        for x in rng.sample(sorted(values), min(self.CHECKED, len(values))):
            if values[x] != probe_value(x, self.SPIN):
                errors.append(f"x={x}: got {values[x]}, "
                              f"expected {probe_value(x, self.SPIN)}")
        return failed, errors

    def close(self) -> None:
        if hasattr(self, "service"):
            self.service.drain(timeout=self.JOB_TIMEOUT_S)
        for child in multiprocessing.active_children():
            child.join(self.JOB_TIMEOUT_S)
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


WORKLOADS = {
    "regulator-tiny": lambda: PaperWorkload(
        ("table2",),
        ("repro.analysis.table2",),
        ("analysis.table2", "verify.compare", "campaign.run", "campaign.task",
         "regulator.min_resistance", "regulator.session.build",
         "regulator.session.solve", "spice.solve_dc", "cell.retains"),
    ),
    "drv-tiny": lambda: PaperWorkload(
        ("table1", "fig4", "march"),
        ("repro.analysis.case_studies", "repro.analysis.figure4",
         "repro.march"),
        ("analysis.table1", "analysis.fig4", "analysis.march",
         "verify.compare", "campaign.run", "campaign.task",
         "cell.snm_session.build", "cell.snm", "cell.snm_batch",
         "cell.drv_pair", "march.scalar"),
    ),
    "macro-1m": MacroWorkload,
    "serve-probe": ServeWorkload,
}


def _obs_totals(recorder) -> Dict[str, float]:
    """Flatten a recorder: counters as-is, histograms as their sums."""
    totals: Dict[str, float] = dict(recorder.counters)
    for name, hist in recorder.histograms.items():
        totals[name] = hist.total
    return totals


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro import obs
    from repro.spice import default_backend

    workload = WORKLOADS[args.workload]()
    try:
        workload.setup(args.seed)
        out: Dict[str, Any] = {"setup_s": time.monotonic() - args.spawned,
                               "backend": default_backend()}
        if not args.setup_only:
            # Entered after set-up: the service's pool workers fork before
            # any wrapper (or a held tracer lock) exists to be inherited.
            tracer = Tracer(SITES if args.trace else ())
            recorder = obs.Recorder()
            with tracer, (obs.recording(recorder) if args.trace
                          else nullcontext()):
                measured = workload.run(tracer, args.seconds)
            errors = list(measured.errors)
            if args.trace:
                missed = tracer.unfired(workload.must_fire)
                if missed:
                    errors.append(f"wrappers never fired: {missed}")
            out.update(
                ops=measured.ops, failed=measured.failed, errors=errors,
                stats=tracer.stats, counts=tracer.counts,
                obs=_obs_totals(recorder), **measured.extra,
            )
    finally:
        workload.close()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
