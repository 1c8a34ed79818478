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
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..devices.mosfet import MosfetModel

#: Bisection iterations; the final bracket is vdd * 2^-44 (~6e-14 V at
#: 1.1 V), far below solver noise.
_BISECTION_STEPS = 44


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
    Returns an array of the broadcast shape.  Raises ``ValueError`` for a
    negative supply: the bracket ``[0, vdd]`` would be inverted.
    """
    v_in = np.asarray(v_in, dtype=float)
    vdd_cell = np.asarray(vdd_cell, dtype=float)
    if np.any(vdd_cell < 0.0):
        raise ValueError(f"inverter_vtc: negative cell supply {vdd_cell.min():g} V")
    shape = np.broadcast_shapes(v_in.shape, vdd_cell.shape)
    lo = np.zeros(shape)
    hi = np.broadcast_to(vdd_cell, shape).astype(float, copy=True)
    # Every mid stays in [0, vdd]: the drain side of all three devices.
    i_down = pulldown.drain_sweep(v_in, 0.0)
    i_pass = pass_gate.drain_sweep(0.0, 0.0)
    i_up = pullup.drain_sweep(v_in, vdd_cell)
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        too_high = i_down(mid) + i_pass(mid) + i_up(mid) > 0.0
        hi = np.where(too_high, mid, hi)
        lo = np.where(too_high, lo, mid)
    return 0.5 * (lo + hi)


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
