"""Vectorised voltage-transfer curves of the cell's cross-coupled inverters.

During deep sleep the peripheral circuitry is off: WL = BL = BLB = 0 V, and
the cell supply is ``Vreg``.  Each internal node is then driven by three
devices - pull-up PMOS, pull-down NMOS and the (off but leaking) pass NMOS
to a grounded bit line.  At retention-level supplies the pass-gate leakage is
comparable to the inverter drive and is what ultimately closes the butterfly
eye, so it is part of the VTC by construction.

The output voltage for a whole array of input voltages is found with a
vectorised bisection on the node's KCL residual, which is strictly monotone
in the output voltage.  Only the output (every device's drain) moves during
the bisection, so each device's drain-independent half of the EKV current is
computed once per solve (:meth:`MosfetModel.drain_sweep`); the residual is
bit-identical to summing three ``ids_value`` calls.

The bisection's whole state is its bracket ``(lo, hi)``: :func:`bisect_output`
advances a bracket by any number of steps, so a solve stopped after ``s``
steps and resumed for ``44 - s`` more ends on the same bits as 44 steps in
one go.  :class:`~repro.cell.snm.SnmSession` uses that to stop most of the
DRV search's VTCs early (DESIGN §24).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from ..devices.mosfet import MosfetModel

#: Bisection iterations; the final bracket is vdd * 2^-44 (~6e-14 V at
#: 1.1 V), far below solver noise.
_BISECTION_STEPS = 44

#: Steps of the tied-input bisection in :func:`metastable_bracket`: a
#: ``vdd * 2^-12`` bracket (~0.07 mV at 0.3 V) moves a leakage bound by
#: well under 1%.
_METASTABLE_STEPS = 12


def supply_bracket(v_in, vdd_cell) -> Tuple[np.ndarray, np.ndarray]:
    """The starting bracket ``[0, vdd]`` at the broadcast shape of the inputs.

    Raises ``ValueError`` for a negative or NaN supply: the bracket would be
    inverted, or the curve NaN.
    """
    vdd_cell = np.asarray(vdd_cell, dtype=float)
    if not np.all(vdd_cell >= 0.0):
        bad = vdd_cell[~(vdd_cell >= 0.0)].flat[0]
        raise ValueError(f"inverter_vtc: negative cell supply or NaN: {bad:g} V")
    shape = np.broadcast_shapes(np.shape(v_in), vdd_cell.shape)
    return np.zeros(shape), np.broadcast_to(vdd_cell, shape).astype(float, copy=True)


def output_residual(
    v_in, vdd_cell, pullup: MosfetModel, pulldown: MosfetModel, pass_gate: MosfetModel
) -> Callable[[np.ndarray], np.ndarray]:
    """``v_out -> `` KCL residual at a half-cell's output, gate halves computed once.

    Valid for ``0 <= v_out <= vdd``, the drain side of all three devices.
    """
    i_down = pulldown.drain_sweep(v_in, 0.0)
    i_pass = pass_gate.drain_sweep(0.0, 0.0)
    i_up = pullup.drain_sweep(v_in, vdd_cell)
    return lambda v_out: i_down(v_out) + i_pass(v_out) + i_up(v_out)


def bisect_output(
    residual: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, steps: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``steps`` more bisection steps on the bracket ``(lo, hi)``; returns the new one.

    The root stays inside every bracket, and each step halves it.
    """
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        too_high = residual(mid) > 0.0
        hi = np.where(too_high, mid, hi)
        lo = np.where(too_high, lo, mid)
    return lo, hi


def inverter_vtc(
    v_in: np.ndarray,
    vdd_cell,
    pullup: MosfetModel,
    pulldown: MosfetModel,
    pass_gate: MosfetModel,
) -> np.ndarray:
    """Output voltage of one half-cell inverter for an array of inputs.

    All three device models must already be instantiated at the desired
    (corner, temperature, Vth offset).  ``vdd_cell`` may be a scalar or an
    array broadcastable against ``v_in`` (e.g. a ``(V, 1)`` supply column
    against a ``(V, G)`` input grid for batched-supply butterfly curves).
    Returns an array of the broadcast shape: the midpoint of the bracket
    after :data:`_BISECTION_STEPS` steps.  Raises ``ValueError`` for a
    negative or NaN supply (see :func:`supply_bracket`).
    """
    v_in = np.asarray(v_in, dtype=float)
    lo, hi = supply_bracket(v_in, vdd_cell)
    residual = output_residual(v_in, vdd_cell, pullup, pulldown, pass_gate)
    lo, hi = bisect_output(residual, lo, hi, _BISECTION_STEPS)
    return 0.5 * (lo + hi)


def metastable_bracket(
    vdd_cell,
    pullup: MosfetModel,
    pulldown: MosfetModel,
    pass_gate: MosfetModel,
) -> Tuple[np.ndarray, np.ndarray]:
    """Bracket ``(lo, hi)`` on the fixed point ``v_m = g(v_m)`` of one half-cell VTC g.

    A tied-input bisection: the residual at ``v_in = v_out = x`` is positive
    exactly when ``x > g(x)`` (the KCL residual rises with the output), and
    ``x - g(x)`` rises strictly because g never does, so the sign changes
    once, at ``v_m``.  For a symmetric cell ``v_m`` is the metastable point
    ``S = SB``, which bounds the hold-state iterates that
    :func:`repro.cell.retention.retains` certifies from (DESIGN §25).
    :data:`_METASTABLE_STEPS` steps from ``[0, vdd]`` leave a bracket
    ``vdd * 2^-12`` wide; every step re-forms the gate halves, since the
    gate moves with the drain.
    """
    lo, hi = supply_bracket(0.0, vdd_cell)

    def tied(x):
        return output_residual(x, vdd_cell, pullup, pulldown, pass_gate)(x)

    return bisect_output(tied, lo, hi, _METASTABLE_STEPS)


def vtc_pair(
    grid: np.ndarray,
    vdd_cell,
    models: Dict[str, MosfetModel],
):
    """Both half-cell VTCs on a common input grid.

    ``vdd_cell`` may be a scalar or broadcastable against ``grid`` (see
    :func:`inverter_vtc`).

    Returns ``(s_of_sb, sb_of_s)``:

    * ``s_of_sb[i]``  - node S driven by inverter 1 (MPcc1/MNCC1, pass MNcc3)
      when node SB is held at ``grid[i]``;
    * ``sb_of_s[i]``  - node SB driven by inverter 2 (MPcc2/MNcc2, pass
      MNcc4) when node S is held at ``grid[i]``.
    """
    s_of_sb = inverter_vtc(grid, vdd_cell, models["mpcc1"], models["mncc1"], models["mncc3"])
    sb_of_s = inverter_vtc(grid, vdd_cell, models["mpcc2"], models["mncc2"], models["mncc4"])
    return s_of_sb, sb_of_s
