"""What callers of the DC solver need without loading it.

The assembly-backend registry and selection, and the solver's failure
type.  Campaign set-up fingerprints the active backend and the task
runtime catches :class:`ConvergenceError`; neither loads the solver
(:mod:`repro.spice.dc`), so a run that never solves a netlist never
imports it.  :mod:`repro.spice.dc` re-exports every name here.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Dict, Iterator, Optional

#: Registered assembly backends: ``compiled`` (production) and
#: ``reference`` (the oracle ``repro verify --fuzz`` checks it against).
BACKENDS = ("compiled", "reference")

_default_backend: Optional[str] = None


def _validate_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown spice backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def default_backend() -> str:
    """The process-wide assembly backend.

    Resolution order: :func:`set_default_backend` / :func:`using_backend`,
    then the ``REPRO_SPICE_BACKEND`` environment variable, then
    ``"compiled"``.
    """
    if _default_backend is not None:
        return _default_backend
    env = os.environ.get("REPRO_SPICE_BACKEND", "").strip()
    if env:
        return _validate_backend(env)
    return "compiled"


def set_default_backend(backend: Optional[str]) -> None:
    """Set (or with ``None`` reset) the process-wide assembly backend."""
    global _default_backend
    _default_backend = None if backend is None else _validate_backend(backend)


@contextlib.contextmanager
def using_backend(backend: str) -> Iterator[None]:
    """Run a block under a specific assembly backend."""
    global _default_backend
    previous = _default_backend
    _default_backend = _validate_backend(backend)
    try:
        yield
    finally:
        _default_backend = previous


def _resolve_backend(backend: Optional[str]) -> str:
    return default_backend() if backend is None else _validate_backend(backend)


class ConvergenceError(RuntimeError):
    """Raised when all Newton continuation strategies fail.

    ``context`` carries the machine-readable failure trail (strategy names,
    gmin level, iteration counts at failure); the message embeds the same
    information so a recorded campaign failure is diagnosable from the
    cache/trace JSONL alone.
    """

    def __init__(self, message: str, context: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.context: Dict[str, Any] = dict(context or {})
