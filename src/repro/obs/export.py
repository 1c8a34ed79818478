"""Prometheus text-exposition of a live recorder: the ``/metrics`` body.

Renders counters, histograms and caller-supplied gauges in Prometheus
text format 0.0.4 (the ``# HELP`` / ``# TYPE`` + samples format every
scraper speaks).  Naming conventions:

* ``serve.tenant.<t>.<metric>`` counters/histograms collapse into one
  family per metric with a ``tenant`` label:
  ``serve.tenant.alice.jobs.submitted`` becomes
  ``serve_jobs_submitted_total{tenant="alice"}`` and the per-tenant SLO
  series ``serve.tenant.alice.queue_wait.seconds`` becomes the
  ``serve_queue_wait_seconds`` histogram family labelled by tenant.
* Every other metric keeps its dotted name with dots mapped to
  underscores under the ``repro_`` namespace (``dc.newton.iterations``
  -> ``repro_dc_newton_iterations``); counters gain the conventional
  ``_total`` suffix.
* Histograms emit cumulative ``_bucket{le=...}`` samples (the recorder
  stores per-bucket counts, so this module accumulates), ``_sum`` and
  ``_count``, with the mandatory ``+Inf`` bucket.

:func:`parse_metrics` is the inverse used by the tests and the CI
smoke: a strict line-level parser that rejects malformed exposition.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "PROM_CONTENT_TYPE",
    "render_metrics",
    "parse_metrics",
]

#: The Content-Type a Prometheus scraper expects from /metrics.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Prefix of per-tenant recorder metrics (collapsed into tenant labels).
TENANT_PREFIX = "serve.tenant."

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str) -> str:
    name = _SANITIZE.sub("_", name)
    if not name or not _NAME_OK.match(name):
        name = "_" + name
    return name


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')
    )


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.10g}"


class _Family:
    """One metric family: a # TYPE line plus its samples, in order."""

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        #: (suffix, labels, value) triples, rendered in insertion order.
        self.samples: List[Tuple[str, Sequence[Tuple[str, str]], float]] = []

    def add(self, value: float, labels: Sequence[Tuple[str, str]] = (),
            suffix: str = "") -> None:
        self.samples.append((suffix, tuple(labels), value))

    def render(self) -> str:
        lines = [f"# TYPE {self.name} {self.kind}"]
        for suffix, labels, value in self.samples:
            label_text = ""
            if labels:
                pairs = ",".join(
                    f'{k}="{_escape_label(str(v))}"' for k, v in labels
                )
                label_text = "{" + pairs + "}"
            lines.append(f"{self.name}{suffix}{label_text} {_fmt(value)}")
        return "\n".join(lines)


def _split_tenant(name: str) -> Tuple[Optional[str], str]:
    """(tenant, metric) for serve.tenant.* names, (None, name) otherwise."""
    if not name.startswith(TENANT_PREFIX):
        return None, name
    tenant, _, metric = name[len(TENANT_PREFIX):].partition(".")
    if not tenant or not metric:
        return None, name
    return tenant, metric


def _family_name(name: str) -> Tuple[str, Sequence[Tuple[str, str]]]:
    tenant, metric = _split_tenant(name)
    if tenant is not None:
        return f"serve_{_sanitize(metric)}", (("tenant", tenant),)
    return f"repro_{_sanitize(name)}", ()


def _add_histogram(family: _Family, data: Dict[str, Any],
                   labels: Sequence[Tuple[str, str]]) -> None:
    """Emit cumulative buckets + _sum/_count for one histogram series."""
    cumulative = 0
    bounds = list(data["bounds"])
    counts = list(data["counts"])
    for bound, count in zip(bounds, counts):
        cumulative += count
        family.add(cumulative, tuple(labels) + (("le", _fmt(bound)),),
                   suffix="_bucket")
    family.add(data["count"], tuple(labels) + (("le", "+Inf"),),
               suffix="_bucket")
    family.add(data["sum"], labels, suffix="_sum")
    family.add(data["count"], labels, suffix="_count")


def render_metrics(
    counters: Dict[str, int],
    histograms: Dict[str, Dict[str, Any]],
    gauges: Iterable[Tuple[str, Sequence[Tuple[str, str]], float]] = (),
) -> str:
    """Render one scrape body from plain recorder data.

    ``counters``/``histograms`` are a recorder snapshot's maps (histogram
    values in :meth:`Histogram.to_dict` form); ``gauges`` are
    ``(family_name, labels, value)`` triples the caller computes live
    (queue depths, job states, uptime) - their names are used verbatim.
    """
    families: Dict[str, _Family] = {}

    def family(name: str, kind: str) -> _Family:
        existing = families.get(name)
        if existing is None:
            existing = families[name] = _Family(name, kind)
        elif existing.kind != kind:
            raise ValueError(
                f"metric family {name!r} declared both "
                f"{existing.kind} and {kind}"
            )
        return existing

    for name, labels, value in gauges:
        family(_sanitize(name), "gauge").add(value, tuple(labels))
    for name in sorted(counters):
        base, labels = _family_name(name)
        family(base + "_total", "counter").add(counters[name], labels)
    for name in sorted(histograms):
        base, labels = _family_name(name)
        _add_histogram(family(base, "histogram"), histograms[name], labels)

    return "\n".join(f.render() for f in families.values()) + "\n"


# -- validation / parsing (tests and CI smoke) -----------------------------

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL = re.compile(r'^\s*([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"\s*$')


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)  # raises ValueError on garbage


def parse_metrics(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse exposition text back into ``{(name, labels): value}``.

    Strict: malformed sample lines, undeclared histogram/counter
    families and bad label syntax raise ``ValueError`` - this is the
    validity check the CI scrape asserts with.
    """
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    typed: set = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 3 and parts[1] == "TYPE":
                typed.add(parts[2])
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"malformed sample on line {lineno}: {line!r}")
        name = match.group("name")
        labels: List[Tuple[str, str]] = []
        raw_labels = match.group("labels")
        if raw_labels:
            for part in raw_labels.split(","):
                label_match = _LABEL.match(part)
                if label_match is None:
                    raise ValueError(
                        f"malformed label on line {lineno}: {part!r}"
                    )
                labels.append((label_match.group(1), label_match.group(2)))
        try:
            value = _parse_value(match.group("value"))
        except ValueError:
            raise ValueError(
                f"malformed value on line {lineno}: "
                f"{match.group('value')!r}"
            )
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and base not in typed:
            raise ValueError(
                f"sample {name!r} on line {lineno} has no # TYPE declaration"
            )
        samples[(name, tuple(labels))] = value
    return samples
