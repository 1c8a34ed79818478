"""Hold-state leakage of a core-cell and of the whole array.

The array leakage is the DC load the voltage regulator drives in deep-sleep
mode; it also sets the static-power numbers of the Section IV.B power
discussion.  Leakage rises steeply with temperature (through the thermal
voltage and the Vth temperature coefficient baked into
:class:`repro.devices.MosfetModel`), which is why Table II's arg-min PVT
conditions for error-amplifier defects sit at 125 C.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..devices.variation import CellVariation
from .design import DEFAULT_CELL, CellDesign
from .vtc import inverter_vtc

#: Cap on the fixed-point rounds locating the stable hold state on the VTCs.
#: The loop exits at the first exact repeat of SB or S; below ~0.1 V the
#: iterate can still be moving after the last round (counted as
#: ``leakage.hold.capped``).
_STATE_ITERATIONS = 24


def _hold_state(v, models, on_round=None):
    """Internal node voltages (S, SB) of the cell holding '1' at supply ``v``.

    Found by iterating the composed VTC map from the S-high corner; the map
    is a contraction onto the stable point on that side of the butterfly.
    Both VTCs are deterministic and elementwise, so once either half-round
    returns exactly what it returned a round earlier (every element, for an
    array ``v``), every later half-round repeats too: stopping there gives
    the bits of the full ``_STATE_ITERATIONS`` loop.  Below ~0.1 V the
    iterate may not repeat within the cap; the last round is returned, as
    before, and the call counts once as ``leakage.hold.capped``.

    ``on_round(s, sb)``, when given, sees the state after every full round
    that did not repeat; a true return abandons the solve and the call
    returns ``None``.  :func:`repro.cell.retention.retains` uses it to
    settle a decision from a bound on every later state (DESIGN §25).
    """
    v = np.asarray(v, dtype=float)
    s, sb = v.copy(), None
    for _ in range(_STATE_ITERATIONS):
        sb_next = inverter_vtc(s, v, models["mpcc2"], models["mncc2"], models["mncc4"])
        if np.array_equal(sb_next, sb):
            return s, sb_next  # s = V1(sb) = V1(sb_next): the round repeats
        sb = sb_next
        s_next = inverter_vtc(sb, v, models["mpcc1"], models["mncc1"], models["mncc3"])
        if np.array_equal(s_next, s):
            return s_next, sb
        s = s_next
        if on_round is not None and on_round(s, sb):
            return None
    obs.count("leakage.hold.capped")
    return s, sb


def supply_current(models, s, sb, v):
    """Current the cell draws from its supply ``v`` with internal nodes at (S, SB).

    Every leakage path inside the cell (cross inverter and pass-gate) is fed
    through one of the two pull-up PMOS devices, so this is their negated
    drain->source sum (negative when sourcing the node).  Each term falls as
    its PMOS's gate or drain rises, so the sum falls in both ``s`` and
    ``sb``.
    """
    i_up1 = models["mpcc1"].ids_value(sb, s, v)
    i_up2 = models["mpcc2"].ids_value(s, sb, v)
    return -(i_up1 + i_up2)


def hold_leakage(v, models, on_round=None):
    """Supply current at the hold state for instantiated ``models`` (A).

    The body of :func:`cell_leakage_current`; returns ``None`` when
    ``on_round`` abandons the hold-state solve (see :func:`_hold_state`).
    """
    v = np.asarray(v, dtype=float)
    state = _hold_state(v, models, on_round)
    if state is None:
        return None
    total = np.asarray(supply_current(models, *state, v))
    if total.ndim == 0:
        return float(total)
    return total


def cell_leakage_current(
    v,
    variation: CellVariation = CellVariation.symmetric(),
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
):
    """Supply current of one cell holding '1' at supply ``v`` (A).

    ``v`` may be a scalar or an array (the regulator load curve evaluates a
    whole voltage grid at once).  The supply current is the sum of the two
    pull-up source currents (:func:`supply_current`) at the hold state.
    """
    return hold_leakage(v, cell.models(variation, corner, temp_c))


def array_leakage_current(
    v,
    n_cells: int,
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
):
    """Leakage of an ``n_cells`` array of symmetric cells at supply ``v`` (A).

    The paper's reference block is 4K x 64 = 256K cells; asymmetric cells are
    few enough (1 or 64) that their contribution to the *bulk* leakage is
    negligible - their extra near-flip current is modelled separately by
    :class:`repro.regulator.load.ArrayLoad`.
    """
    return n_cells * cell_leakage_current(v, CellVariation.symmetric(), corner, temp_c, cell)
