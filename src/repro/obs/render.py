"""Human rendering of a run report: the ``repro stats`` output.

Sections, in reading order: the campaign header line, the convergence
breakdown (which solver strategy finally converged, and what killed the
failures), the top-N slowest task points, histogram summaries, and the
span/counter tails.  Everything renders from the ``report.json`` dict
alone - no live recorder needed - so stats can be read long after (or on a
different machine than) the run that produced them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.reporting import render_table


def _fmt_seconds(value: float) -> str:
    if value >= 100.0:
        return f"{value:.0f}s"
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.0f}us"


def _fmt_value(name: str, value: float) -> str:
    """Histogram values: seconds get engineering units, counts stay plain."""
    if name.endswith(".seconds"):
        return _fmt_seconds(value)
    return f"{value:g}"


def _params_label(params: Dict[str, Any], limit: int = 4) -> str:
    parts = [f"{k}={v!r}" for k, v in list(params.items())[:limit]]
    suffix = ", ..." if len(params) > limit else ""
    return ", ".join(parts) + suffix


def render_header(report: Dict[str, Any]) -> str:
    c = report["campaign"]
    hit_rate = c["cache_hits"] / c["total"] if c["total"] else 0.0
    text = (
        f"campaign[{c['name']}] {c['total']} tasks: {c['executed']} executed, "
        f"{c['cache_hits']} cache hits ({hit_rate:.0%}), "
        f"{c['failures']} failed, {c['wall_time']:.1f}s wall, "
        f"{c.get('tasks_per_sec', 0.0):.2f} tasks/s"
    )
    if c.get("quarantined"):
        text += f", {c['quarantined']} quarantined"
    if c.get("timeouts"):
        text += f", {c['timeouts']} timed out"
    if c.get("interrupted"):
        text += " [interrupted]"
    return text


def render_convergence(report: Dict[str, Any]) -> str:
    conv = report["convergence"]
    rows: List[List[str]] = []
    solves = conv.get("solves", 0)
    for strategy, count in conv.get("strategies", {}).items():
        share = count / solves if solves else 0.0
        rows.append([strategy, str(count), f"{share:.1%}"])
    if conv.get("failed_solves"):
        share = conv["failed_solves"] / solves if solves else 0.0
        rows.append(["(no convergence)", str(conv["failed_solves"]),
                     f"{share:.1%}"])
    if not rows:
        return "convergence: no DC solves recorded"
    table = render_table(
        ["strategy", "solves", "share"], rows,
        title=f"Convergence fallback breakdown ({solves} DC solves)",
    )
    causes = conv.get("failure_causes", {})
    if causes:
        cause_rows = [[cause, str(n)] for cause, n in sorted(causes.items())]
        table += "\n\n" + render_table(
            ["failure cause", "tasks"], cause_rows,
            title="Recorded task failures by cause",
        )
    return table


def render_slowest(report: Dict[str, Any], top_n: int = 10) -> str:
    slowest = report.get("slowest", [])[:top_n]
    if not slowest:
        return "slowest points: none recorded (fully cached run?)"
    rows = [
        [
            _fmt_seconds(entry["elapsed"]),
            entry["kind"],
            entry["status"],
            _params_label(entry.get("params", {})),
        ]
        for entry in slowest
    ]
    return render_table(
        ["elapsed", "kind", "status", "point"], rows,
        title=f"Top {len(rows)} slowest task points",
    )


def render_histograms(report: Dict[str, Any]) -> str:
    histograms = report.get("histograms", {})
    if not histograms:
        return "histograms: none recorded"
    rows = []
    for name, data in histograms.items():
        count = data["count"]
        mean = data["sum"] / count if count else 0.0
        # p50/p95/p99 from the buckets (bucket upper bound, clamped to
        # max; exact for the small-count cases _bucket_quantile handles).
        rows.append([
            name,
            str(count),
            _fmt_value(name, mean),
            _fmt_value(name, _bucket_quantile(data, 0.5)),
            _fmt_value(name, _bucket_quantile(data, 0.95)),
            _fmt_value(name, _bucket_quantile(data, 0.99)),
            _fmt_value(name, data["max"] if data["max"] is not None else 0.0),
        ])
    return render_table(
        ["histogram", "count", "mean", "p50", "p95", "p99", "max"], rows,
        title="Histogram summaries",
    )


def _bucket_quantile(data: Dict[str, Any], q: float) -> float:
    """Quantile estimate from bucket counts, exact when recoverable.

    Small-count fallbacks avoid reporting a bucket *upper bound* when
    the observation itself is still recoverable from the recorded
    min/max/sum: a single observation is its own every-quantile, two
    observations split exactly at min/max, and any quantile that lands
    on the first or last observation is exactly min or max.
    """
    count = data["count"]
    if not count:
        return 0.0
    lo, hi = data.get("min"), data.get("max")
    if count == 1:
        return data["sum"]
    if lo is not None and hi is not None and lo == hi:
        return lo
    target = q * count
    if lo is not None and target <= 1.0:
        return lo
    if hi is not None and target >= count:
        return hi
    if count == 2 and lo is not None and hi is not None:
        return lo if target <= 1.0 else hi
    seen = 0
    bounds = data["bounds"]
    for i, c in enumerate(data["counts"]):
        seen += c
        if seen >= target:
            if i >= len(bounds):
                return data["max"]
            upper = bounds[i]
            return min(upper, data["max"]) if data["max"] is not None else upper
    return data["max"] if data["max"] is not None else 0.0


def render_dc_split(report: Dict[str, Any]) -> str:
    """One-line assembly-vs-factorisation wall-time split of the DC solver.

    Summarises the ``dc.assemble.seconds`` / ``dc.factor.seconds``
    histograms the solver records per solve, with the per-backend solve
    counts from the ``dc.backend.*`` counters appended when two or more
    backends ran (mixed-backend runs happen during verification); empty
    when neither histogram was observed (obs off, or a run with no DC
    solves).
    """
    histograms = report.get("histograms", {})
    assemble = histograms.get("dc.assemble.seconds")
    factor = histograms.get("dc.factor.seconds")
    if not assemble and not factor:
        return ""
    a = assemble["sum"] if assemble else 0.0
    f = factor["sum"] if factor else 0.0
    total = a + f
    a_share = a / total if total else 0.0
    solves = (assemble or factor)["count"]
    line = (
        f"dc solver split: assembly {_fmt_seconds(a)} ({a_share:.0%}), "
        f"factorization {_fmt_seconds(f)} ({1.0 - a_share if total else 0.0:.0%}) "
        f"over {solves} solves"
    )
    prefix = "dc.backend."
    by_backend = {
        key[len(prefix):]: count
        for key, count in report.get("counters", {}).items()
        if key.startswith(prefix)
    }
    if len(by_backend) >= 2:
        split = ", ".join(
            f"{name} {count}" for name, count in sorted(by_backend.items())
        )
        line += f" [{split}]"
    return line


def render_spans(report: Dict[str, Any]) -> str:
    spans = report.get("spans", {})
    if not spans:
        return ""
    rows = []
    for path, stat in sorted(
        spans.items(), key=lambda kv: kv[1]["total"], reverse=True
    ):
        mean = stat["total"] / stat["calls"] if stat["calls"] else 0.0
        rows.append([
            path, str(stat["calls"]), _fmt_seconds(stat["total"]),
            _fmt_seconds(mean), _fmt_seconds(stat["max"]),
        ])
    return render_table(
        ["span", "calls", "total", "mean", "max"], rows,
        title="Timed spans (by total wall time)",
    )


def render_serve(report: Dict[str, Any]) -> str:
    """Per-tenant traffic table for reports written by ``repro serve``.

    Derived entirely from the ``serve.tenant.<name>.*`` counters the
    service records, so a daemon report renders its multi-tenant
    accounting (jobs, executed vs cached vs deduped points) without any
    schema change; empty for ordinary one-shot campaign reports.
    """
    counters = report.get("counters", {})
    tenants: Dict[str, Dict[str, int]] = {}
    prefix = "serve.tenant."
    for name, value in counters.items():
        if not name.startswith(prefix):
            continue
        tenant, _, metric = name[len(prefix):].partition(".")
        tenants.setdefault(tenant, {})[metric] = value
    if not tenants:
        return ""
    rows = []
    for tenant in sorted(tenants):
        m = tenants[tenant]
        rows.append([
            tenant,
            str(m.get("jobs.submitted", 0)),
            str(m.get("jobs.completed", 0)),
            str(m.get("jobs.interrupted", 0)),
            str(m.get("points.total", 0)),
            str(m.get("points.executed", 0)),
            str(m.get("points.cache_hits", 0)),
            str(m.get("points.deduped", 0)),
            str(m.get("points.failed", 0)),
        ])
    return render_table(
        ["tenant", "jobs", "done", "intr", "points", "executed", "cached",
         "deduped", "failed"],
        rows,
        title="Service traffic by tenant",
    )


def render_macro(report: Dict[str, Any]) -> str:
    """Per-bank escape map for reports produced by ``repro macro``.

    Rebuilt purely from the ``macro.bank.<bank>.*`` counters the
    macro-bank task records inside the workers (merged cross-process into
    the run report), so ``repro stats`` renders the escape map of any
    macro campaign after the fact; empty for non-macro reports.
    """
    counters = report.get("counters", {})
    banks: Dict[int, Dict[str, int]] = {}
    prefix = "macro.bank."
    for name, value in counters.items():
        if not name.startswith(prefix):
            continue
        bank_text, _, metric = name[len(prefix):].partition(".")
        try:
            bank = int(bank_text)
        except ValueError:
            continue
        banks.setdefault(bank, {})[metric] = value
    if not banks:
        return ""
    rows = []
    for bank in sorted(banks):
        m = banks[bank]
        cells = m.get("cells", 0)
        escaped = m.get("escaped", 0)
        rows.append([
            str(bank),
            str(cells),
            str(m.get("weak", 0)),
            str(m.get("detected", 0)),
            str(escaped),
            f"{escaped / cells * 100:.2f}%" if cells else "-",
        ])
    return render_table(
        ["bank", "cells", "weak", "detected", "escaped", "escape rate"],
        rows,
        title="Macro escape map by bank (March m-LZ)",
    )


def render_counters(report: Dict[str, Any]) -> str:
    counters = report.get("counters", {})
    interesting = {
        name: value for name, value in counters.items()
        # campaign.* feeds the header; serve.tenant.* and macro.bank.*
        # feed their own tables.
        if not name.startswith(("campaign.", "serve.tenant.", "macro.bank."))
    }
    if not interesting:
        return ""
    rows = [[name, str(value)] for name, value in sorted(interesting.items())]
    return render_table(["counter", "value"], rows, title="Counters")


def render_top(
    stats: Dict[str, Any],
    prev: Optional[Dict[str, Any]] = None,
    dt: Optional[float] = None,
) -> str:
    """One ``repro top`` frame from a live ``/v1/stats`` payload.

    ``prev``/``dt`` (the previous poll's payload and the seconds between
    polls) turn the monotone counters into per-tenant rates; the first
    frame renders totals only.  Pure function of its inputs, so the live
    view is testable without a daemon.
    """
    counters = stats.get("counters", {})
    prev_counters = (prev or {}).get("counters", {})

    def rate(name: str) -> Optional[float]:
        if prev is None or not dt or dt <= 0.0:
            return None
        return max(0, counters.get(name, 0)
                   - prev_counters.get(name, 0)) / dt

    def fmt_rate(value: Optional[float]) -> str:
        return f"{value:.1f}/s" if value is not None else "-"

    workers = stats.get("workers", {})
    mode = workers.get("mode", "?")
    pump = "alive" if workers.get("pump_alive") else "STOPPED"
    worker_text = (
        f"workers {workers.get('jobs', '?')} ({mode}, pump {pump})"
    )
    header = (
        f"repro top | uptime {stats.get('uptime_s', 0.0):.0f}s | "
        + worker_text
        + (" | DRAINING" if stats.get("draining") else "")
    )

    jobs = stats.get("jobs", {})
    job_line = "jobs: " + (", ".join(
        f"{n} {state}" for state, n in sorted(jobs.items())
    ) if jobs else "none")

    total = counters.get("serve.points.total", 0)
    cached = (counters.get("serve.points.cache_hits", 0)
              + counters.get("serve.points.deduped", 0))
    hit_ratio = cached / total if total else 0.0
    point_line = (
        f"points: {total} total, "
        f"{counters.get('serve.points.executed', 0)} executed, "
        f"{cached} cached/deduped ({hit_ratio:.0%} hit), "
        f"{counters.get('serve.points.failed', 0)} failed | "
        f"queued {stats.get('queued_points', 0)}"
    )

    queued_by_tenant = stats.get("queued_by_tenant", {})
    tenants = sorted(set(stats.get("tenants", ()))
                     | set(queued_by_tenant))
    rows = []
    for tenant in tenants:
        prefix = f"serve.tenant.{tenant}."
        rows.append([
            tenant,
            str(queued_by_tenant.get(tenant, 0)),
            str(counters.get(prefix + "points.executed", 0)),
            fmt_rate(rate(prefix + "points.executed")),
            str(counters.get(prefix + "jobs.submitted", 0)),
            str(counters.get(prefix + "jobs.completed", 0)),
            str(counters.get(prefix + "points.failed", 0)),
        ])
    tenant_table = render_table(
        ["tenant", "queued", "executed", "rate", "jobs", "done", "failed"],
        rows, title="Tenants",
    ) if rows else "tenants: none yet"

    sections = [header, job_line, point_line, "", tenant_table]
    return "\n".join(sections)


def render_report(report: Dict[str, Any], top_n: int = 10) -> str:
    """The full ``repro stats`` page for one report."""
    sections = [
        render_header(report),
        render_serve(report),
        render_macro(report),
        render_convergence(report),
        render_slowest(report, top_n),
        render_histograms(report),
        render_dc_split(report),
        render_spans(report),
        render_counters(report),
    ]
    return "\n\n".join(s for s in sections if s)
