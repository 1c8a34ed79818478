"""Benchmark entry point: one or all workloads, timed or traced.

    python bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                        [--trace 0|1] [--out FILE]

Each measured repetition runs in a fresh child (``bench/workloads.py``),
one child at a time, so memos start cold as in a CLI run and ``setup_s``
and ``peak_rss_mb`` belong to that workload alone.  The serial workloads
repeat one operation per child until ``--seconds`` have passed; the
service workload measures one ``--seconds`` window in one child, after two
set-up-only children that give ``setup_s`` its median.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced children and prints the per-layer metrics plus the
tracing overhead between the two.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; any failed check exits 1
and names the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Schema of the ``--out`` row (the committed-ledger row format).
ROW_SCHEMA = "repro.bench.row/1"

#: Kill a child that runs longer than this (the run must end in 180 s).
CHILD_TIMEOUT_S = 150.0

#: Workloads measured as one window in one child, not as repeated children.
WINDOWED = ("serve-probe",)

#: Set-up-only children spawned before a windowed workload's measured child.
EXTRA_SETUPS = 2


class BenchError(RuntimeError):
    """A child failed or the checkout cannot run the benchmark."""


def _child(workload: str, seed: int, seconds: float = 0.0,
           trace: bool = False, setup_only: bool = False) -> Dict[str, Any]:
    """Run one child to completion and return its JSON line."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    cmd = [sys.executable, str(BENCH / "workloads.py"), workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:  # timed out or interrupted: take its pool too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload}: child exited {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: child printed nothing")
    return json.loads(lines[-1])


def _children(workload: str, seed: int, seconds: float,
              trace: bool) -> Dict[str, List[Dict[str, Any]]]:
    """Every child of one run, sorted into untraced/traced/setup-only."""
    runs: Dict[str, List[Dict[str, Any]]] = {
        "untraced": [], "traced": [], "setup": []}
    if workload in WINDOWED:
        if trace:
            runs["untraced"].append(_child(workload, seed, seconds / 2))
            runs["traced"].append(_child(workload, seed, seconds / 2, True))
        else:
            runs["setup"] = [_child(workload, seed, setup_only=True)
                             for _ in range(EXTRA_SETUPS)]
            runs["untraced"].append(_child(workload, seed, seconds))
        return runs
    start = time.monotonic()
    traced = False
    while (time.monotonic() - start < seconds or not runs["untraced"]
           or (trace and not runs["traced"])):
        runs["traced" if traced else "untraced"].append(
            _child(workload, seed, trace=traced))
        traced = trace and not traced
    return runs


def _ops(children: List[Dict[str, Any]]) -> List[float]:
    return [op for child in children for op in child["ops"]]


def end_to_end(runs: Dict[str, List[Dict[str, Any]]]) -> Dict[str, float]:
    measured = runs["untraced"]
    setups = [child["setup_s"] for child in runs["setup"] + measured]
    return {
        "op_ms": statistics.median(_ops(measured)) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in measured),
    }


def _sum(children: List[Dict[str, Any]], key: str) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for child in children:
        for name, value in child[key].items():
            if isinstance(value, list):  # tracer stats: [calls, self, total]
                acc = total.setdefault(name, [0.0] * len(value))
                for i, v in enumerate(value):
                    acc[i] += v
            else:
                total[name] = total.get(name, 0.0) + value
    return total


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def per_layer(runs: Dict[str, List[Dict[str, Any]]],
              spans: List[str]) -> Dict[str, float]:
    """Per-layer metrics of the traced children.

    Counts are per operation; ``*_pct`` are shares of the traced operations'
    summed wall time (for the service: summed job latencies, while the
    clients wait on the pump thread and the pool).
    """
    traced = runs["traced"]
    ops = _ops(traced)
    n, wall = len(ops), sum(ops)
    stats = _sum(traced, "stats")
    counts = _sum(traced, "counts")
    obs = _sum(traced, "obs")
    serve = _sum(traced, "counters") if "counters" in traced[0] else {}
    metrics: Dict[str, float] = {}
    for name in spans:
        calls, self_s, total_s = stats.get(name, (0.0, 0.0, 0.0))
        metrics[f"{name}.calls"] = calls / n
        metrics[f"{name}.self_pct"] = _pct(self_s, wall)
        if name.startswith("analysis."):
            metrics[f"{name}.total_pct"] = _pct(total_s, wall)
    unattributed = sum(stat[1] for name, stat in stats.items()
                       if name == "bench.op" or name.startswith("analysis."))
    rescues = sum(v for k, v in obs.items() if k.startswith("dc.converged.")
                  and k not in ("dc.converged.newton",
                                "dc.converged.newton-warm"))
    memo = {k: v for k, v in obs.items() if k.startswith("memo.")}
    memo_hits = sum(v for k, v in memo.items() if k.endswith(".hits"))
    memo_all = memo_hits + sum(v for k, v in memo.items()
                               if k.endswith(".misses"))
    reused = serve.get("serve.points.cache_hits", 0) + serve.get(
        "serve.points.deduped", 0)
    untraced_op = statistics.median(_ops(runs["untraced"]))
    metrics.update({
        "spice.solves": obs.get("dc.solves", 0) / n,
        "spice.newton_iters": obs.get("dc.newton_iters", 0) / n,
        "spice.rescue_solves": rescues / n,
        "spice.failures": obs.get("dc.failures", 0) / n,
        "spice.assemble_pct": _pct(obs.get("dc.assemble.seconds", 0.0), wall),
        "spice.factor_pct": _pct(obs.get("dc.factor.seconds", 0.0), wall),
        "cell.snm.evaluations": obs.get("snm.evaluations", 0) / n,
        "cell.drv.solves": obs.get("drv.solves", 0) / n,
        "cell.memo.hit_pct": _pct(memo_hits, memo_all),
        "march.vectorized.failures":
            counts.get("march.vectorized.failures", 0) / n,
        "march.vectorized.fallbacks":
            obs.get("march.vectorized.fallbacks", 0) / n,
        "campaign.task.failed": counts.get("campaign.task.failed", 0) / n,
        "serve.points.executed": serve.get("serve.points.executed", 0) / n,
        "serve.points.reused_pct": _pct(
            reused, serve.get("serve.points.total", 0)),
        "serve.points.failed": serve.get("serve.points.failed", 0) / n,
        "trace.unattributed_pct": _pct(unattributed, wall),
        "trace.overhead_pct": _pct(
            statistics.median(ops) - untraced_op, untraced_op),
    })
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool,
            spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one workload; returns the contract's result object."""
    runs = _children(workload, seed, seconds, trace)
    measured = runs["untraced"] + runs["traced"]
    e2e = end_to_end(runs)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        spans = sorted({m["name"].rsplit(".", 1)[0] for m in wanted
                        if m["name"].endswith(".self_pct")})
        values = per_layer(runs, spans)
    else:
        values = e2e
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        raise BenchError(f"metrics out of step with BENCHMARK.json: "
                         f"{sorted(missing)}")
    errors = [e for child in measured for e in child["errors"]]
    for line in errors[:20]:
        print(f"{workload}: FAILED {line}", file=sys.stderr)
    ops = _ops(measured)
    print(f"{workload}: {len(ops)} operations in {len(measured)} children, "
          f"seed {seed}")
    for name, value in e2e.items():
        unit = next(m["unit"] for m in spec["end_to_end"]
                    if m["name"] == name)
        print(f"{workload}: {name} {value:.6g} {unit}")
    if workload in WINDOWED:
        latencies = sorted(_ops(runs["untraced"]))
        window = runs["untraced"][0]["wall_s"]
        p90 = statistics.quantiles(latencies, n=10)[-1] * 1e3
        print(f"{workload}: jobs_per_s {len(latencies) / window:.6g} 1/s, "
              f"job_p90_ms {p90:.6g} ms "
              f"(n={len(latencies)}, {len(latencies) // 10} beyond p90)")
    units = {m["name"]: m["unit"] for m in wanted}
    if trace:
        for name in sorted(values):
            print(f"{workload}: {name} {values[name]:.6g} {units[name]}")
    return {
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(child["failed"] for child in measured),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
        "backend": measured[0]["backend"],
    }


def _host() -> Dict[str, Any]:
    """Host fingerprint of an ``--out`` row."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {"python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu_model": cpu,
            **versions}


def main(argv: List[str] = None) -> int:
    for required in (ROOT / "src" / "repro", ROOT / "goldens", SPEC_PATH):
        if not required.exists():
            print(f"bench: {required} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="append one schema-versioned JSON row here")
    args = parser.parse_args(argv)

    results: Dict[str, Dict[str, Any]] = {}
    for name in names if args.workload == "all" else [args.workload]:
        try:
            results[name] = measure(name, args.seed, args.seconds,
                                    bool(args.trace), spec)
        except BenchError as error:
            print(f"bench: {error}", file=sys.stderr)
            return 1
    if args.out is not None:
        row = {"schema": ROW_SCHEMA, "time": time.time(), **_host(),
               "spice_backend": results[next(iter(results))]["backend"],
               "seed": args.seed, "seconds": args.seconds,
               "trace": bool(args.trace),
               "workloads": {name: {k: v for k, v in r.items()
                                    if k != "backend"}
                             for name, r in results.items()}}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    correct = all(result["correct"] for result in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:  # every workload's metrics, namespaced by workload
        metrics = {f"{name}.{metric}": value
                   for name, result in results.items()
                   for metric, value in result["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    if not correct:
        print("bench: correctness checks failed in "
              + ", ".join(n for n, r in results.items() if not r["correct"]),
              file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
