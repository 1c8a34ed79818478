"""The machine-readable run report: ``report.json``.

A report is the end-of-run crystallisation of everything the recorder and
the executor learned: campaign accounting, every counter and histogram,
span aggregates, the convergence-strategy breakdown (derived from the
``dc.converged.*`` counter family), a failure-cause breakdown, and the
top-N slowest task points.  It is written next to the result cache, one
file per run (last run wins), and is the before/after artifact perf PRs
diff against.

The schema is versioned (`SCHEMA`); :func:`validate` rejects anything a
future reader should not silently misinterpret, and :func:`load_report`
round-trips what :func:`write_report` produced.

This module deliberately imports nothing from :mod:`repro.campaign` - the
campaign layer calls *into* obs, never the reverse - so the builder takes
duck-typed inputs: any summary with the `CampaignSummary` attributes and
any iterable of records with ``key/kind/params/status/elapsed/attempts/
error`` attributes will do.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

from .recorder import Recorder

#: Schema identifier embedded in (and required of) every report.
SCHEMA = "repro.obs.report/1"

REPORT_FILENAME = "report.json"

#: Counter-name prefix of the per-strategy convergence tallies.
STRATEGY_PREFIX = "dc.converged."

#: How many slowest task points a report keeps.
DEFAULT_TOP_N = 10


def _failure_cause(error: Optional[str]) -> str:
    """Collapse an error string to its leading "ExcType: detail" type."""
    if not error:
        return "unknown"
    return error.split(":", 1)[0].strip() or "unknown"


def build_report(
    summary: Any,
    recorder: Recorder,
    records: Iterable[Any] = (),
    fingerprint: str = "",
    top_n: int = DEFAULT_TOP_N,
) -> Dict[str, Any]:
    """Assemble the report dict from a finished run's artifacts."""
    records = list(records)
    executed = [r for r in records if getattr(r, "elapsed", 0.0) > 0.0]
    slowest = sorted(executed, key=lambda r: r.elapsed, reverse=True)[:top_n]
    failures: Dict[str, int] = {}
    for record in records:
        if not record.ok:
            cause = _failure_cause(record.error)
            failures[cause] = failures.get(cause, 0) + 1
    strategies = {
        name[len(STRATEGY_PREFIX):]: value
        for name, value in sorted(recorder.counters.items())
        if name.startswith(STRATEGY_PREFIX)
    }
    return {
        "schema": SCHEMA,
        "campaign": {
            "name": summary.name,
            "fingerprint": fingerprint,
            "total": summary.total,
            "executed": summary.executed,
            "cache_hits": summary.cache_hits,
            "failures": summary.failures,
            "wall_time": summary.wall_time,
            "tasks_per_sec": summary.tasks_per_sec,
            "quarantined": summary.quarantined,
            "timeouts": summary.timeouts,
            "interrupted": summary.interrupted,
        },
        "convergence": {
            "strategies": strategies,
            "solves": recorder.counters.get("dc.solves", 0),
            "failed_solves": recorder.counters.get("dc.failures", 0),
            "failure_causes": failures,
        },
        "counters": dict(sorted(recorder.counters.items())),
        "histograms": {
            name: hist.to_dict()
            for name, hist in sorted(recorder.histograms.items())
        },
        "spans": {
            path: stat.to_dict()
            for path, stat in sorted(recorder.spans.items())
        },
        "slowest": [
            {
                "key": r.key,
                "kind": r.kind,
                "params": dict(r.params),
                "status": r.status,
                "elapsed": r.elapsed,
                "attempts": r.attempts,
                "error": r.error,
            }
            for r in slowest
        ],
    }


def validate(report: Dict[str, Any]) -> Dict[str, Any]:
    """Check a loaded report against the schema; returns it on success."""
    if not isinstance(report, dict):
        raise ValueError("report is not a JSON object")
    schema = report.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"unsupported report schema {schema!r} (expected {SCHEMA!r})"
        )
    for section in ("campaign", "convergence", "counters", "histograms",
                    "spans", "slowest"):
        if section not in report:
            raise ValueError(f"report is missing the {section!r} section")
    campaign = report["campaign"]
    for field in ("name", "total", "executed", "cache_hits", "failures",
                  "wall_time"):
        if field not in campaign:
            raise ValueError(f"report campaign block lacks {field!r}")
    return report


def write_report(report: Dict[str, Any], directory) -> Path:
    """Write ``report.json`` into ``directory``; returns the path."""
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / REPORT_FILENAME
    path.write_text(
        json.dumps(report, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    return path


def load_report(path) -> Dict[str, Any]:
    """Load and validate a report from a file (or a directory holding one)."""
    report_path = Path(path)
    if report_path.is_dir():
        report_path = report_path / REPORT_FILENAME
    with report_path.open("r", encoding="utf-8") as fh:
        return validate(json.load(fh))
