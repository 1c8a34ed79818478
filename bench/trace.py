"""Outside-in layer tracer: time public functions by wrapping them.

Nothing under ``src/`` knows it is being traced.  A :class:`Tracer` swaps
each listed function for a timing wrapper *at the attribute its caller looks
up* - ``from x import y`` binds ``y`` into the importing module at import
time, so wrapping ``repro.cell.drv.drv_ds_pair_map`` would miss the call
``repro.sram.macro`` makes through its own ``drv_ds_pair_map`` name; the
site to patch is ``repro.sram.macro.drv_ds_pair_map``.  Leaving the
``with`` block restores every attribute exactly as it was.

Spans nest per thread (the sweep service appends to its cache on the pump
thread while client threads submit), and a span's *self* time is its
duration minus the time its child spans on the same thread cover.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

#: One wrapped function: (layer span name, module, attribute path inside the
#: module, optional (label, fn) hook counting something about the result).
Site = Tuple[str, str, str, Optional[Tuple[str, Callable[[Any], int]]]]


class Tracer:
    """Patch ``sites`` on ``__enter__``, restore them on ``__exit__``.

    ``stats[name] = [calls, self_s, total_s]``; ``total_s`` counts only the
    outermost activation of a name on its thread, so recursion never counts
    twice.  ``counts`` holds what the sites' result hooks reported.  With
    no sites it only times the benchmark's own spans (the untraced run).
    """

    def __init__(self, sites: Iterable[Site]) -> None:
        self.sites = tuple(sites)
        self.stats: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any, bool]] = []

    # -- patching ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for site in self.sites:
                self._patch(*site)
        except BaseException:
            self._unpatch()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._unpatch()

    def _patch(self, name: str, module: str, path: str,
               hook: Optional[Tuple[str, Callable[[Any], int]]]) -> None:
        owner: Any = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        own = attr in vars(owner)  # False: inherited, so restore by deleting
        original = vars(owner)[attr] if own else getattr(owner, attr)
        fn = getattr(owner, attr)
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if hook is not None:
                self.count(f"{name}.{hook[0]}", hook[1](result))
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original, own))

    def _unpatch(self) -> None:
        while self._restore:
            owner, attr, original, own = self._restore.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- spans -------------------------------------------------------------

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> None:
        self._stack().append([name, time.perf_counter(), 0.0])

    def _leave(self) -> None:
        end = time.perf_counter()
        stack = self._stack()
        name, start, covered = stack.pop()
        elapsed = end - start
        if stack:
            stack[-1][2] += elapsed
        outermost = all(frame[0] != name for frame in stack)
        with self._lock:
            stat = self.stats.setdefault(name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += elapsed - covered
            if outermost:
                stat[2] += elapsed

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span from the benchmark's own code, around a call into a layer."""
        self._enter(name)
        try:
            yield
        finally:
            self._leave()

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + int(n)

    def unfired(self, names: Iterable[str]) -> List[str]:
        """The ``names`` that never ran (otherwise a silent miss)."""
        return [name for name in names if not self.stats.get(name, [0])[0]]
