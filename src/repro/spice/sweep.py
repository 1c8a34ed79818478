"""Batched sweeps and warm-started bisection sessions.

Sweeping a source sequentially re-enters Newton once per point, and on the
tiny circuits here (4-14 unknowns) every iteration is dominated by fixed
NumPy per-op overhead, not by arithmetic.  :func:`solve_dc_batch` removes
that overhead by iterating damped Newton on **all sweep points in
lock-step**: stacked ``(P, n)`` residuals and ``(P, n, n)`` Jacobians from
:meth:`CompiledCircuit.assemble_batch`, one vectorised EKV call covering
``points x devices``, one stacked ``np.linalg.solve``, and per-point masks
for step clipping, line search and convergence.  Points converge (and
freeze) individually; stragglers that the lock-step iteration cannot crack
fall back to the full :func:`solve_dc` strategy chain, warm-started from
their nearest converged neighbour, so batch solves are exactly as robust
as sequential ones.

:class:`SweepSession` wraps a circuit plus solver settings with a warm-start
state for the repeated solve/sweep/bisect loops the cell and regulator
layers run (VTC extraction, DRV bisection, defect-resistance searches).

The warm-start contract: a session's next solve starts Newton from the last
converged state unless the caller overrides ``x0``.  For bistable circuits
that keeps a monotone parameter walk on one branch of the characteristic -
the same guarantee the sequential ``dc_sweep`` gives - but it also means a
session must not be shared across logically independent searches that need
different branches.
"""

from __future__ import annotations

import math
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .circuit import Circuit
from .contract import _resolve_backend
from .dc import Solution, _assign_branch_indices, solve_dc
from .elements import VoltageSource
from .. import obs, watchdog

__all__ = ["SweepSession", "solve_dc_batch", "log_bisect"]


def _newton_batch(
    plan,
    X0: np.ndarray,
    n_nodes: int,
    gmin: float,
    source_scale: float,
    max_iter: int,
    vstep_limit: float,
    tol_i: float,
    source_override: Optional[Tuple[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Damped Newton on ``P`` stacked operating points simultaneously.

    Mirrors the scalar ``_newton`` loop semantics per point (same clipping,
    same backtracking acceptance rule, same residual-only convergence test)
    but runs them in lock-step.  Returns ``(X, converged_mask, iterations)``;
    unconverged points keep their last iterate for use as fallback guesses.
    """
    X = X0.copy()
    P = X.shape[0]
    residual, jacobian = plan.assemble_batch(X, gmin, source_scale, source_override)
    norms = np.linalg.norm(residual, axis=1)
    converged = np.max(np.abs(residual), axis=1) < tol_i
    failed = np.zeros(P, dtype=bool)
    iterations = 0
    for iteration in range(max_iter):
        # Same campaign deadline hook as the scalar _newton loop: a free
        # None check normally, DeadlineExceeded once the budget is burnt.
        watchdog.check()
        active = ~(converged | failed)
        if not active.any():
            break
        iterations = iteration + 1
        dx = np.zeros_like(X)
        try:
            dx[active] = np.linalg.solve(
                jacobian[active], -residual[active][..., None]
            )[..., 0]
        except np.linalg.LinAlgError:
            # Some point's Jacobian is singular; fail points individually so
            # the rest of the batch keeps iterating.
            for p in np.flatnonzero(active):
                try:
                    dx[p] = np.linalg.solve(jacobian[p], -residual[p])
                except np.linalg.LinAlgError:
                    failed[p] = True
                    dx[p] = 0.0
        bad = active & ~np.isfinite(dx).all(axis=1)
        if bad.any():
            failed |= bad
            dx[bad] = 0.0
            active = active & ~bad
            if not active.any():
                break
        # Per-point voltage-step clipping (branch currents stay free).
        if n_nodes:
            vmax = np.max(np.abs(dx[:, :n_nodes]), axis=1)
            over = vmax > vstep_limit
            if over.any():
                dx[over] *= (vstep_limit / vmax[over])[:, None]
        # Per-point backtracking line search; frozen points get alpha = 0 so
        # their state and stored residual stay untouched.
        alpha = np.where(active, 1.0, 0.0)
        accepted = ~active
        for backtrack in range(12):
            X_try = X + alpha[:, None] * dx
            residual, jacobian = plan.assemble_batch(
                X_try, gmin, source_scale, source_override
            )
            norm_try = np.linalg.norm(residual, axis=1)
            ok = (norm_try <= norms * (1.0 - 1e-4 * alpha)) | (norm_try < tol_i)
            accepted |= ok
            if accepted.all() or backtrack == 11:
                break
            alpha = np.where(accepted, alpha, alpha * 0.5)
        # Like the scalar loop, accept the last tried step even when the
        # backtracking budget ran out.
        X = X_try
        norms = norm_try
        converged = (np.max(np.abs(residual), axis=1) < tol_i) & ~failed
    return X, converged & ~failed, iterations


def solve_dc_batch(
    circuit: Circuit,
    source_name: str,
    values: Sequence[float],
    x0: Optional[np.ndarray] = None,
    gmin: float = 1e-12,
    max_iter: int = 150,
    vstep_limit: float = 0.4,
    tol_i: float = 5e-12,
    backend: Optional[str] = None,
) -> List[Solution]:
    """Solve the operating point at every value of ``source_name`` at once.

    Drop-in replacement for :func:`repro.spice.dc.dc_sweep` on compiled
    circuits: the first point is solved with the full strategy chain (warm-
    started from ``x0``), its solution seeds a lock-step batched Newton over
    the remaining points, and any stragglers fall back to sequential
    :func:`solve_dc` warm-started from their nearest converged neighbour.
    Like ``dc_sweep``, the source's original value is restored afterwards.

    With ``backend="reference"`` (or when the swept element is not a plain
    ``VoltageSource`` the compiler recognises) this degrades to exactly the
    sequential warm-started sweep.
    """
    element = circuit.element(source_name)
    if not isinstance(element, VoltageSource):
        raise TypeError(f"{source_name!r} is not a VoltageSource")
    values = [float(v) for v in values]
    if not values:
        return []
    backend = _resolve_backend(backend)
    start = time.perf_counter()

    if backend == "compiled":
        _assign_branch_indices(circuit)
        from .compiled import compiled_plan

        plan = compiled_plan(circuit)
        branch_row = plan.vsource_branch_row(source_name)
    else:
        plan = None
        branch_row = None
    if branch_row is None:
        # Timed/controlled subclasses (or the reference backend) do not have
        # a compiled rhs row to override per point: sweep sequentially.
        from .dc import dc_sweep

        return dc_sweep(
            circuit, source_name, values, x0=x0,
            gmin=gmin, max_iter=max_iter, vstep_limit=vstep_limit,
            tol_i=tol_i, backend=backend,
        )

    original = element.voltage
    recording = obs.enabled()
    try:
        element.voltage = values[0]
        seed = solve_dc(
            circuit, x0=x0, gmin=gmin, max_iter=max_iter,
            vstep_limit=vstep_limit, tol_i=tol_i, backend=backend,
        )
        solutions: List[Optional[Solution]] = [seed]
        rest = values[1:]
        fallbacks = 0
        if rest:
            n_nodes = circuit.node_count - 1
            X0 = np.tile(seed.x, (len(rest), 1))
            override = (branch_row, np.asarray(rest))
            X, converged_mask, iters = _newton_batch(
                plan, X0, n_nodes, gmin, 1.0, max_iter, vstep_limit,
                tol_i, override,
            )
            if recording:
                obs.observe("dc.batch.newton_iters", iters)
            solutions += [
                Solution(circuit, X[k].copy()) if converged_mask[k] else None
                for k in range(len(rest))
            ]
            # Stragglers: full strategy chain, warm from the nearest
            # converged neighbour (preferring the previous point, as a
            # sequential sweep would).
            for k, value in enumerate(rest, start=1):
                if solutions[k] is not None:
                    continue
                fallbacks += 1
                guess = None
                for j in range(k - 1, -1, -1):
                    if solutions[j] is not None:
                        guess = solutions[j].x.copy()
                        break
                if guess is None:
                    guess = X[k - 1].copy()
                element.voltage = value
                solutions[k] = solve_dc(
                    circuit, x0=guess, gmin=gmin, max_iter=max_iter,
                    vstep_limit=vstep_limit, tol_i=tol_i, backend=backend,
                )
        if recording:
            obs.count("dc.batch.sweeps")
            obs.count("dc.batch.points", len(values))
            if fallbacks:
                obs.count("dc.batch.fallbacks", fallbacks)
            obs.observe("dc.batch.seconds", time.perf_counter() - start)
        return solutions  # type: ignore[return-value]
    finally:
        element.voltage = original


def log_bisect(
    predicate: Callable[[float], bool],
    lo: float,
    hi: float,
    steps: int = 40,
) -> float:
    """Geometric bisection: smallest bracketed value where ``predicate`` holds.

    Assumes ``predicate`` is monotone over ``[lo, hi]`` with
    ``predicate(lo) == False`` and ``predicate(hi) == True`` (the callers
    establish the bracket first).  Midpoints are geometric means, which is
    the right refinement for the decades-spanning resistance searches in the
    regulator layer.  Returns the ``True`` edge of the final bracket.
    """
    if lo <= 0.0 or hi <= lo:
        raise ValueError("log_bisect needs 0 < lo < hi")
    for _ in range(steps):
        mid = math.sqrt(lo * hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi


class SweepSession:
    """A circuit plus solver settings with warm-start state across solves.

    Built for the repeated solve/sweep/bisect loops in the cell and
    regulator layers: the compiled plan is built once, every solve
    warm-starts from the previous converged state (see the module docstring
    for the contract), and sweeps go through :func:`solve_dc_batch`.
    """

    def __init__(
        self,
        circuit: Circuit,
        backend: Optional[str] = None,
        gmin: float = 1e-12,
        max_iter: int = 150,
        vstep_limit: float = 0.4,
        tol_i: float = 5e-12,
    ) -> None:
        self.circuit = circuit
        self.backend = _resolve_backend(backend)
        self.gmin = gmin
        self.max_iter = max_iter
        self.vstep_limit = vstep_limit
        self.tol_i = tol_i
        self._warm: Optional[np.ndarray] = None
        self.solves = 0
        if self.backend == "compiled":
            _assign_branch_indices(circuit)
            from .compiled import compiled_plan

            compiled_plan(circuit)

    def _kwargs(self) -> dict:
        return dict(
            gmin=self.gmin, max_iter=self.max_iter,
            vstep_limit=self.vstep_limit, tol_i=self.tol_i,
            backend=self.backend,
        )

    def reset(self) -> None:
        """Drop the warm-start state (e.g. before jumping branches)."""
        self._warm = None

    def solve(self, x0: Optional[np.ndarray] = None) -> Solution:
        """Solve at the current element values, warm-started when possible."""
        guess = x0 if x0 is not None else self._warm
        solution = solve_dc(self.circuit, x0=guess, **self._kwargs())
        self._warm = solution.x.copy()
        self.solves += 1
        return solution

    def sweep(self, source_name: str, values: Sequence[float]) -> List[Solution]:
        """Batched sweep of a voltage source (see :func:`solve_dc_batch`)."""
        solutions = solve_dc_batch(
            self.circuit, source_name, values, x0=self._warm, **self._kwargs()
        )
        if solutions:
            self._warm = solutions[-1].x.copy()
            self.solves += len(solutions)
        return solutions

    def bisect(
        self,
        source_name: str,
        lo: float,
        hi: float,
        predicate: Callable[[Solution], bool],
        steps: int = 24,
    ) -> float:
        """Bisect a source value on a predicate of the solved operating point.

        Assumes ``predicate`` is monotone in the source value, ``False`` at
        ``lo`` and ``True`` at ``hi``; each midpoint solve warm-starts from
        the previous one.  Returns the midpoint of the final bracket.  The
        source's original value is restored afterwards.
        """
        element = self.circuit.element(source_name)
        if not isinstance(element, VoltageSource):
            raise TypeError(f"{source_name!r} is not a VoltageSource")
        original = element.voltage
        try:
            for _ in range(steps):
                mid = 0.5 * (lo + hi)
                element.voltage = mid
                if predicate(self.solve()):
                    hi = mid
                else:
                    lo = mid
        finally:
            element.voltage = original
        return 0.5 * (lo + hi)
