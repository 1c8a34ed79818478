"""Backward-Euler transient analysis.

Used for the timing-sensitive regulator defects: *Df8* (activation delay of
the bias transistor through an RC-loaded gate line) and *Df11* (undershoot on
the reference input).  Backward Euler is L-stable, which suits the stiff
RC-plus-exponential-device systems here; accuracy at the fraction-of-a-time-
constant level is all the retention analysis needs.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from .circuit import Circuit
from .contract import ConvergenceError, _resolve_backend
from .dc import (
    Solution,
    _assign_branch_indices,
    _make_assembler,
    _newton,
    _SolveTimer,
    solve_dc,
)
from .. import obs


class TransientResult:
    """Time series of solutions from :func:`solve_transient`."""

    def __init__(self, circuit: Circuit, times: List[float], states: List[np.ndarray]) -> None:
        self.circuit = circuit
        self.times = np.asarray(times)
        self._states = states

    def voltage(self, node_name: str) -> np.ndarray:
        """Waveform of ``node_name`` across all saved timepoints."""
        index = self.circuit.node(node_name)
        if index == 0:
            return np.zeros(len(self._states))
        return np.array([state[index - 1] for state in self._states])

    def at(self, i: int) -> Solution:
        """Solution object at timepoint ``i``."""
        return Solution(self.circuit, self._states[i])

    def final(self) -> Solution:
        return self.at(len(self._states) - 1)

    def settling_time(self, node_name: str, target: float, tolerance: float) -> Optional[float]:
        """First time after which the node stays within ``tolerance`` of ``target``.

        Returns ``None`` if the waveform never settles inside the band.
        """
        wave = self.voltage(node_name)
        inside = np.abs(wave - target) <= tolerance
        for i in range(len(inside)):
            if inside[i:].all():
                return float(self.times[i])
        return None


def solve_transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    x0: Optional[np.ndarray] = None,
    pre_step: Optional[Callable[[float], None]] = None,
    gmin: float = 1e-12,
    max_iter: int = 120,
    vstep_limit: float = 0.4,
    tol_i: float = 1e-10,
    backend: Optional[str] = None,
) -> TransientResult:
    """Integrate the circuit from 0 to ``t_stop`` with fixed step ``dt``.

    ``x0`` is the initial state (defaults to the DC operating point).
    ``pre_step(t)`` is invoked before each step and may mutate element values
    (e.g. toggle a control voltage source) to realise piecewise-constant
    stimuli; the compiled assembly plan is refreshed every step so those
    mutations are picked up.  Capacitor backward-Euler companions go through
    the same compiled plan as the DC stamps.  ``backend`` picks the assembly
    path (``None`` follows :func:`repro.spice.dc.default_backend`).
    """
    if dt <= 0 or t_stop <= 0:
        raise ValueError("t_stop and dt must be positive")
    backend = _resolve_backend(backend)
    _assign_branch_indices(circuit)
    if x0 is None:
        x0 = solve_dc(circuit, gmin=gmin, backend=backend).x
    assemble, refresh = _make_assembler(circuit, backend)
    n_nodes = circuit.node_count - 1
    timer = _SolveTimer() if obs.enabled() else None
    times = [0.0]
    states = [x0.copy()]
    x_prev = x0.copy()
    t = 0.0

    def newton(guess, step_dt, prev):
        return _newton(
            assemble, n_nodes, guess, gmin, 1.0, max_iter, vstep_limit,
            tol_i, dt=step_dt, x_prev=prev, timer=timer,
        )

    while t < t_stop - 1e-15:
        step = min(dt, t_stop - t)
        t_next = t + step
        if pre_step is not None:
            pre_step(t_next)
        for element in circuit.elements:
            advance = getattr(element, "advance_to", None)
            if advance is not None:
                advance(t_next)
        # Element values (stimuli, loads) may change every step.
        refresh()
        x = newton(x_prev, step, x_prev)[0]
        if x is None:
            # One retry with a halved step before giving up.
            half = step / 2.0
            x_half = newton(x_prev, half, x_prev)[0]
            if x_half is None:
                raise ConvergenceError(
                    f"transient step failed at t={t_next:g}s for {circuit.title!r}"
                )
            x = newton(x_half, step - half, x_half)[0]
            if x is None:
                raise ConvergenceError(
                    f"transient step failed at t={t_next:g}s for {circuit.title!r}"
                )
        times.append(t_next)
        states.append(x.copy())
        x_prev = x
        t = t_next
    if timer is not None:
        timer.flush()
    return TransientResult(circuit, times, states)
