"""DC operating-point analysis: damped Newton with gmin and source stepping.

The circuits in this project are small (a 6T cell, a ~10-transistor voltage
regulator) but strongly nonlinear and sometimes bistable, so robustness
matters more than asymptotic speed:

* **Damped Newton** - voltage updates are clipped per iteration so the EKV
  exponentials cannot overflow and oscillating iterates settle.  The
  backtracking line search assembles the residual only; the accepted point
  gets the one full assembly the next step factors.  A run that stops
  making progress (best residual norm down by less than 5% in 10
  iterations) exits early as ``stalled`` and hands over to the next
  strategy, as a run that reaches ``max_iter`` does (DESIGN.md §26).
* **gmin stepping** - a shunt conductance from every node to ground is ramped
  down decade by decade when plain Newton fails.
* **Source stepping** - all independent sources are ramped from 0 to 100%
  when gmin stepping also fails (continuation from the trivial solution).
* **Warm starts** - callers may pass ``x0`` (e.g. the previous point of a
  sweep, or a chosen state of a bistable cell).

Assembly backends
-----------------
Two interchangeable residual/Jacobian assemblers drive the same Newton
loop:

* ``"compiled"`` (default) - :class:`repro.spice.compiled.CompiledCircuit`:
  flat index plans, one vectorised EKV call for all MOSFETs, preallocated
  buffers.  This is the production path.
* ``"reference"`` - the original per-element ``Element.stamp`` walk
  (:func:`_assemble`).  It remains the semantic oracle: the property tests
  assert the compiled path matches it to machine precision, and it is the
  fallback for experiments with element types the compiler cannot see.

Select per call (``solve_dc(..., backend="reference")``), per process
(:func:`set_default_backend` or ``REPRO_SPICE_BACKEND``), or lexically
(:func:`using_backend`).  The campaign cache fingerprints the active
default so resumed sweeps never mix results from different assemblers.

Both take ``jacobian=False`` for a residual-only assembly whose residual
has the same bits as the full one's.  Both produce a dense Jacobian and
share one linear step, :func:`_dense_solve`: ``np.linalg.solve`` (LAPACK
``gesv``) on the 4-16 unknown systems here.

The backend registry and :class:`ConvergenceError` live in
:mod:`repro.spice.contract`, which loads no solver; this module re-exports
them.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .circuit import Circuit
from .compiled import compiled_plan
from .contract import (
    BACKENDS,
    ConvergenceError,
    _resolve_backend,
    default_backend,
    set_default_backend,
    using_backend,
)
from .elements import StampContext, VoltageSource
from .. import obs, watchdog

__all__ = [
    "BACKENDS",
    "ConvergenceError",
    "Solution",
    "dc_sweep",
    "default_backend",
    "set_default_backend",
    "solve_dc",
    "using_backend",
]


def _dense_solve(jacobian: np.ndarray, neg_residual: np.ndarray) -> Optional[np.ndarray]:
    """Solve ``J dx = -r``; ``None`` on a singular matrix."""
    try:
        return np.linalg.solve(jacobian, neg_residual)
    except np.linalg.LinAlgError:
        return None


class Solution:
    """A solved operating point with named accessors."""

    def __init__(self, circuit: Circuit, x: np.ndarray) -> None:
        self.circuit = circuit
        self.x = x
        self._branch_offsets = circuit.branch_offsets()

    def voltage(self, node_name: str) -> float:
        """Node voltage in volts (ground reads 0)."""
        index = self.circuit.node(node_name)
        return 0.0 if index == 0 else float(self.x[index - 1])

    def branch_current(self, element_name: str) -> float:
        """Branch current of a voltage source (plus -> minus through source)."""
        return float(self.x[self._branch_offsets[element_name]])

    def voltages(self) -> Dict[str, float]:
        """All node voltages keyed by node name."""
        return {name: self.voltage(name) for name in self.circuit.node_names}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = ", ".join(f"{k}={v:.4f}" for k, v in sorted(self.voltages().items()))
        return f"Solution({pairs})"


def _assign_branch_indices(circuit: Circuit) -> None:
    for name, index in circuit.branch_offsets().items():
        circuit.element(name).set_branch_index(index)


def _assemble(
    circuit: Circuit,
    x: np.ndarray,
    gmin: float,
    source_scale: float,
    dt: Optional[float] = None,
    x_prev: Optional[np.ndarray] = None,
    jacobian: bool = True,
):
    """Reference assembly: per-element ``Element.stamp`` dispatch.

    Kept as the semantic oracle for the compiled backend (see module
    docstring); allocates fresh buffers on every call.  ``jacobian=False``
    stamps through a residual-only context and returns ``(residual, None)``.
    """
    n = circuit.unknown_count()
    residual = np.zeros(n)
    jac = np.zeros((n, n)) if jacobian else None
    ctx = StampContext(x, residual, jac, source_scale=source_scale, dt=dt, x_prev=x_prev)
    for element in circuit.elements:
        element.stamp(ctx)
    # gmin shunt from every non-ground node to ground.
    n_nodes = circuit.node_count - 1
    for row in range(n_nodes):
        residual[row] += gmin * x[row]
        if jacobian:
            jac[row, row] += gmin
    return residual, jac


#: An assembler maps ``(x, gmin, source_scale, dt, x_prev, jacobian=True)``
#: to ``(residual, jacobian)``; with ``jacobian=False`` it skips every
#: Jacobian term and returns ``(residual, None)`` with the same residual
#: bits.  The compiled variant returns views into reused buffers;
#: ``_newton`` consumes them before the next assembly, so that is safe.
Assembler = Callable[..., Tuple[np.ndarray, Optional[np.ndarray]]]


def _make_assembler(
    circuit: Circuit, backend: str
) -> Tuple[Assembler, Callable[[], None]]:
    """Build ``(assemble, refresh)`` for ``circuit`` under ``backend``.

    ``refresh`` re-gathers mutable element values into the compiled plan;
    it is a no-op for the reference path, which reads elements directly.
    Solvers call it once per solve (and per transient step) so that value
    mutations between solves are picked up without recompiling.
    """
    if backend == "reference":
        def assemble(x, gmin, source_scale, dt=None, x_prev=None, jacobian=True):
            return _assemble(circuit, x, gmin, source_scale, dt, x_prev, jacobian)

        return assemble, lambda: None
    plan = compiled_plan(circuit)
    plan.refresh()
    return plan.assemble, plan.refresh


class _SolveTimer:
    """Accumulates the assembly/factorisation time split of one solve.

    Only instantiated when an obs recorder is installed, so the disabled
    path pays nothing beyond a ``None`` check.
    """

    __slots__ = ("assemble_s", "factor_s")

    def __init__(self) -> None:
        self.assemble_s = 0.0
        self.factor_s = 0.0

    def wrap(self, assemble: Assembler) -> Assembler:
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = assemble(*args, **kwargs)
            self.assemble_s += time.perf_counter() - t0
            return result

        return timed

    def flush(self) -> None:
        obs.observe("dc.assemble.seconds", self.assemble_s)
        obs.observe("dc.factor.seconds", self.factor_s)


#: Stall exit: a run stops once its best residual norm has not fallen
#: below ``_STALL_RATIO`` times the best norm of ``_STALL_WINDOW``
#: iterations earlier (less than 5% progress in 10 iterations).  Measured
#: on the fast Table II/III solves (DESIGN.md §26), not a tuning knob.
_STALL_WINDOW = 10
_STALL_RATIO = 0.95


def _newton(
    assembler: Assembler,
    n_nodes: int,
    x0: np.ndarray,
    gmin: float,
    source_scale: float,
    max_iter: int,
    vstep_limit: float,
    tol_i: float,
    dt: Optional[float] = None,
    x_prev: Optional[np.ndarray] = None,
    timer: Optional[_SolveTimer] = None,
) -> Tuple[Optional[np.ndarray], int, bool]:
    """One damped-Newton run: ``(solution or None, iterations, stalled)``.

    Each backtracking trial assembles the residual only; the accepted
    point, unless it has converged, gets one full assembly for the next
    Newton step.  Both assemblies compute the residual with the same
    operations, so the accepted residual keeps the trial's bits and the
    trajectory is that of a loop assembling the Jacobian at every trial.

    A run whose best residual norm improves by less than 5% over 10
    iterations stops early (``stalled=True``, counted as
    ``dc.newton.stalled``) and returns ``None`` like one that reaches
    ``max_iter``.  The iteration count feeds the telemetry histograms and
    the failure trail attached to :class:`ConvergenceError`.
    """
    x = x0.copy()
    if timer is not None:
        assembler = timer.wrap(assembler)
    residual, jacobian = assembler(x, gmin, source_scale, dt, x_prev)
    norm = float(np.sqrt(np.dot(residual, residual)))
    best = [norm]  # best[k]: lowest norm after k iterations
    for iteration in range(max_iter):
        # Campaign deadline enforcement: a single None comparison when no
        # deadline is armed, a DeadlineExceeded (which is NOT a
        # ConvergenceError, so no fallback strategy can swallow it) when
        # the task has outlived its budget mid-solve.
        watchdog.check()
        if timer is not None:
            t0 = time.perf_counter()
            dx = _dense_solve(jacobian, -residual)
            timer.factor_s += time.perf_counter() - t0
        else:
            dx = _dense_solve(jacobian, -residual)
        if dx is None or not np.isfinite(dx).all():
            return None, iteration, False
        # Clip voltage updates (branch-current updates are left free).
        max_step = float(np.abs(dx[:n_nodes]).max()) if n_nodes else 0.0
        if max_step > vstep_limit:
            dx = dx * (vstep_limit / max_step)
            max_step = vstep_limit
        # Backtracking line search: high-gain feedback loops (the regulator)
        # limit-cycle under full Newton steps; damp until the residual norm
        # stops growing.  Trials need the residual norm only.
        alpha = 1.0
        for _ in range(12):
            x_try = x + alpha * dx
            residual, _ = assembler(
                x_try, gmin, source_scale, dt, x_prev, jacobian=False
            )
            norm_try = float(np.sqrt(np.dot(residual, residual)))
            if norm_try <= norm * (1.0 - 1e-4 * alpha) or norm_try < tol_i:
                break
            alpha *= 0.5
        x = x_try
        norm = norm_try
        done = iteration + 1
        # Residual-only convergence: near weakly-conducting (subthreshold)
        # nodes the Newton step |dx| = |J^-1 r| can stay large even when the
        # KCL residual is at numerical noise, so a step-size criterion would
        # never fire there.
        if float(np.abs(residual).max()) < tol_i:
            return x, done, False
        best.append(min(best[-1], norm))
        if done >= _STALL_WINDOW and (
            best[done] > _STALL_RATIO * best[done - _STALL_WINDOW]
        ):
            obs.count("dc.newton.stalled")
            return None, done, True
        residual, jacobian = assembler(x, gmin, source_scale, dt, x_prev)
    return None, max_iter, False


def solve_dc(
    circuit: Circuit,
    x0: Optional[np.ndarray] = None,
    gmin: float = 1e-12,
    max_iter: int = 150,
    vstep_limit: float = 0.4,
    tol_i: float = 5e-12,
    backend: Optional[str] = None,
) -> Solution:
    """Solve the DC operating point of ``circuit``.

    ``x0`` warm-starts Newton; for bistable circuits (an SRAM cell) it
    selects which stable state the solver converges to.  When the full
    strategy chain fails at the requested ``vstep_limit``, it is retried
    with progressively tighter step clipping (steep table-driven loads can
    make Newton hop across their transition region at large steps): the
    distinct limits of ``(vstep_limit, 0.1, 0.04)`` not above
    ``vstep_limit``, largest first.
    ``backend`` picks the assembly path (``None`` follows
    :func:`default_backend`).
    Raises :class:`ConvergenceError` only after every combination fails;
    the error message carries the full strategy trail (strategy name, gmin
    level, iteration count at each failure) so recorded campaign failures
    stay diagnosable from the cache JSONL alone.

    When a :mod:`repro.obs` recorder is installed, every solve records its
    winning strategy (``dc.converged.<strategy>``), Newton iteration count
    (``dc.newton_iters``), stall exits of its Newton runs
    (``dc.newton.stalled``), latency (``dc.solve.seconds``) and the
    assembly-vs-factorisation time split (``dc.assemble.seconds`` /
    ``dc.factor.seconds``); disabled recorders cost one predicate per
    solve.
    """
    start = time.perf_counter()
    backend = _resolve_backend(backend)
    recording = obs.enabled()
    timer = _SolveTimer() if recording else None
    last_error: Optional[ConvergenceError] = None
    limits_tried: List[float] = []
    ladder = sorted({v for v in (vstep_limit, 0.1, 0.04) if v <= vstep_limit},
                    reverse=True)
    for limit in ladder:
        limits_tried.append(limit)
        try:
            solution, strategy, iters = _solve_dc_once(
                circuit, x0, gmin, max_iter, limit, tol_i, backend, timer
            )
        except ConvergenceError as error:
            last_error = error
            continue
        if recording:
            obs.count("dc.solves")
            obs.count(f"dc.backend.{backend}")
            obs.count(f"dc.converged.{strategy}")
            if len(limits_tried) > 1:
                obs.count("dc.step_retries")
            obs.observe("dc.newton_iters", iters)
            obs.observe("dc.solve.seconds", time.perf_counter() - start)
            timer.flush()
        return solution
    if recording:
        obs.count("dc.solves")
        obs.count(f"dc.backend.{backend}")
        obs.count("dc.failures")
        obs.observe("dc.solve.seconds", time.perf_counter() - start)
        timer.flush()
    assert last_error is not None
    if len(limits_tried) > 1:
        raise ConvergenceError(
            f"{last_error} [vstep limits tried: "
            + ", ".join(f"{v:g}" for v in limits_tried) + "]",
            context={**last_error.context, "vstep_limits": limits_tried},
        ) from last_error
    raise last_error


def _solve_dc_once(
    circuit: Circuit,
    x0: Optional[np.ndarray],
    gmin: float,
    max_iter: int,
    vstep_limit: float,
    tol_i: float,
    backend: str,
    timer: Optional[_SolveTimer] = None,
) -> Tuple[Solution, str, int]:
    """One pass of the full strategy chain at a fixed step limit.

    Returns ``(solution, winning strategy name, total Newton iterations)``.
    On failure the raised :class:`ConvergenceError` carries the attempt
    trail of every strategy tried.
    """
    _assign_branch_indices(circuit)
    assemble, _refresh = _make_assembler(circuit, backend)
    n = circuit.unknown_count()
    n_nodes = circuit.node_count - 1
    warm = x0 is not None and bool(np.any(x0))
    if x0 is None:
        x0 = np.zeros(n)
    elif len(x0) != n:
        raise ValueError(f"x0 has length {len(x0)}, circuit has {n} unknowns")

    trail: List[str] = []
    total_iters = 0

    def newton(guess, step_gmin, scale):
        return _newton(
            assemble, n_nodes, guess, step_gmin, scale,
            max_iter, vstep_limit, tol_i, timer=timer,
        )

    first_strategy = "newton-warm" if warm else "newton"
    x, iters, stalled = newton(x0, gmin, 1.0)
    total_iters += iters
    if x is not None:
        return Solution(circuit, x), first_strategy, total_iters
    trail.append(f"{first_strategy}({_run_note(iters, stalled)})")
    if warm:
        # A bad warm start can be worse than none: retry cold.
        x, iters, stalled = newton(np.zeros(n), gmin, 1.0)
        total_iters += iters
        if x is not None:
            return Solution(circuit, x), "newton-cold-retry", total_iters
        trail.append(f"newton-cold-retry({_run_note(iters, stalled)})")

    # gmin stepping: solve with a large shunt, then relax it decade by decade.
    for label, start in (("gmin-step", x0.copy()), ("gmin-step-cold", np.zeros(n))):
        guess = start
        converged_chain = True
        for exponent in range(3, 13):
            step_gmin = 10.0 ** (-exponent)
            x, iters, stalled = newton(guess, step_gmin, 1.0)
            total_iters += iters
            obs.count("dc.gmin_decades")
            if x is None:
                converged_chain = False
                trail.append(
                    f"{label}(failed at gmin={step_gmin:g}, "
                    f"{_run_note(iters, stalled)})"
                )
                break
            guess = x
        if converged_chain:
            x, iters, stalled = newton(guess, gmin, 1.0)
            total_iters += iters
            if x is not None:
                return Solution(circuit, x), label, total_iters
            trail.append(
                f"{label}(failed at final gmin={gmin:g}, "
                f"{_run_note(iters, stalled)})"
            )

    # Source stepping: continuation from the all-off circuit, with a softer
    # shunt held during the ramp and relaxed decade by decade at the end.
    ramp_gmin = max(gmin, 1e-9)
    guess = np.zeros(n)
    for scale in np.linspace(0.05, 1.0, 20):
        x, iters, stalled = newton(guess, ramp_gmin, float(scale))
        total_iters += iters
        if x is None:
            trail.append(
                f"source-step(failed at source scale {scale:.2f}, "
                f"gmin={ramp_gmin:g}, {_run_note(iters, stalled)})"
            )
            raise _trail_error(circuit, trail, vstep_limit, total_iters)
        guess = x
    shunt = ramp_gmin
    while shunt > gmin * 1.0001:
        shunt = max(shunt / 10.0, gmin)
        x, iters, stalled = newton(guess, shunt, 1.0)
        total_iters += iters
        if x is None:
            trail.append(
                f"source-step(failed releasing the ramp shunt at "
                f"gmin={shunt:g}, {_run_note(iters, stalled)})"
            )
            raise _trail_error(circuit, trail, vstep_limit, total_iters)
        guess = x
    return Solution(circuit, guess), "source-step", total_iters


def _run_note(iters: int, stalled: bool) -> str:
    """The iteration part of a trail entry; stall exits say so."""
    return f"stalled after {iters} iters" if stalled else f"{iters} iters"


def _trail_error(
    circuit: Circuit,
    trail: List[str],
    vstep_limit: float,
    total_iters: int,
) -> ConvergenceError:
    """Build the diagnosable failure: full strategy trail in the message."""
    return ConvergenceError(
        f"DC analysis failed for circuit {circuit.title!r}: tried "
        + ", ".join(trail)
        + f"; vstep_limit={vstep_limit:g}, {total_iters} Newton iterations total",
        context={
            "strategies": list(trail),
            "vstep_limit": vstep_limit,
            "total_iterations": total_iters,
        },
    )


def dc_sweep(
    circuit: Circuit,
    source_name: str,
    values: Sequence[float],
    x0: Optional[np.ndarray] = None,
    **solver_kwargs,
) -> List[Solution]:
    """Sweep the value of voltage source ``source_name`` over ``values``.

    Each point warm-starts from the previous solution, which keeps the sweep
    on one branch of a bistable characteristic.  For long sweeps on compiled
    circuits prefer :func:`repro.spice.sweep.solve_dc_batch`, which iterates
    Newton on all points in lock-step.
    """
    element = circuit.element(source_name)
    if not isinstance(element, VoltageSource):
        raise TypeError(f"{source_name!r} is not a VoltageSource")
    solutions: List[Solution] = []
    guess = x0
    original = element.voltage
    try:
        for value in values:
            element.voltage = float(value)
            solution = solve_dc(circuit, x0=guess, **solver_kwargs)
            solutions.append(solution)
            guess = solution.x.copy()
    finally:
        element.voltage = original
    return solutions
