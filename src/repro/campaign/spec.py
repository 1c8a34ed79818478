"""Declarative sweep specifications: the unit of campaign work.

A campaign is a flat list of :class:`TaskPoint` objects - picklable,
content-hashable descriptions of one grid point (one defect at one PVT, one
Fig. 4 sample, one Monte Carlo shard).  The point's *key* is a SHA-256
digest of its kind and parameters, so identical work always maps to the
same cache slot regardless of who enumerated it.

A :class:`SweepSpec` bundles the points with the shared evaluation context
(regulator/cell designs, DS time) and an optional RNG seed, and derives the
campaign *fingerprint*: a digest of the package version, the registered
task implementations' source, the context and the seed.  Cached results are
only reused when the fingerprint matches, so editing a task function or
changing a design parameter transparently invalidates stale entries.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-serialisable canonical form.

    Handles the vocabulary the sweeps actually use: primitives, sequences,
    mappings, enums and (frozen) dataclasses.  The encoding is injective on
    that vocabulary, which is all content-addressing needs.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return ["__enum__", type(value).__name__, value.name]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = [
            [f.name, canonical(getattr(value, f.name))]
            for f in dataclasses.fields(value)
        ]
        return ["__dataclass__", type(value).__name__, fields]
    if isinstance(value, Mapping):
        return ["__mapping__", sorted(
            [str(k), canonical(v)] for k, v in value.items()
        )]
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"cannot canonicalise {type(value).__name__}: {value!r}")


def digest(value: Any) -> str:
    """Stable SHA-256 hex digest of a canonicalisable value."""
    blob = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _freeze(value: Any) -> Any:
    """Recursively convert lists to tuples so params stay hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


@dataclass(frozen=True)
class TaskPoint:
    """One unit of campaign work: a task kind plus its parameters.

    ``params`` is a name-sorted tuple of ``(name, value)`` pairs; values
    are restricted to the canonicalisable vocabulary above, which keeps the
    point picklable (it crosses the process-pool boundary) and hashable
    (its key addresses the persistent cache).
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...]

    @classmethod
    def make(cls, kind: str, **params: Any) -> "TaskPoint":
        frozen = tuple(sorted((k, _freeze(v)) for k, v in params.items()))
        return cls(kind, frozen)

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def param(self, name: str) -> Any:
        return self.as_dict()[name]

    @property
    def key(self) -> str:
        """Content hash identifying this point in the result cache."""
        return digest([self.kind, [list(p) for p in self.params]])

    def label(self) -> str:
        parts = ", ".join(f"{k}={v!r}" for k, v in self.params[:4])
        return f"{self.kind}({parts}{', ...' if len(self.params) > 4 else ''})"


@dataclass(frozen=True)
class SweepSpec:
    """A named campaign: task points + shared context + seed.

    ``context`` holds the evaluation inputs that are common to every point
    and too heavy (or too non-primitive) to repeat per task - the regulator
    and cell designs, typically.  It ships to the workers once per chunk
    and participates in the fingerprint, not in the per-task keys.
    """

    name: str
    tasks: Tuple[TaskPoint, ...]
    context: Tuple[Tuple[str, Any], ...] = ()
    seed: Optional[int] = None

    @classmethod
    def build(
        cls,
        name: str,
        tasks: Sequence[TaskPoint],
        context: Optional[Mapping[str, Any]] = None,
        seed: Optional[int] = None,
    ) -> "SweepSpec":
        ctx = tuple(sorted((context or {}).items()))
        return cls(name, tuple(tasks), ctx, seed)

    def context_dict(self) -> Dict[str, Any]:
        return dict(self.context)

    @property
    def kinds(self) -> Tuple[str, ...]:
        seen = []
        for tp in self.tasks:
            if tp.kind not in seen:
                seen.append(tp.kind)
        return tuple(seen)

    def fingerprint(self) -> str:
        """Code + config digest guarding cached results.

        Combines the package version, the active solver backend, the source
        of every task implementation the spec uses, the shared context and
        the seed; any change to one of them retires previously cached
        values.  Naming the backend matters because the compiled and
        reference assembly paths can differ at the ulp level, which a
        bisection can amplify to an observable (if tiny) result change.
        """
        from .. import __version__
        from ..spice import default_backend
        from .tasks import code_digest

        return digest([
            "repro-campaign-v1",
            __version__,
            ["solver-backend", default_backend()],
            [[kind, code_digest(kind)] for kind in self.kinds],
            [[k, canonical(v)] for k, v in self.context],
            self.seed,
        ])

    def chaos_seed(self) -> str:
        """Seed for deterministic fault injection, tied to the campaign.

        Derived from (not equal to) the fingerprint so fault decisions
        are stable across reruns of the same campaign but cannot collide
        with cache keys or the fingerprint itself.
        """
        return digest(["chaos", self.fingerprint()])
