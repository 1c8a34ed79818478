"""Time-to-flip model: how long below-DRV supply must persist to lose data.

Section V of the paper stresses that a DRF_DS is only observable if the SRAM
*stays* in deep-sleep long enough for the weak cell's high node to discharge
through leakage ("the internal nodes of less stable core-cells discharge
slowly due to leakage currents"), and fixes the test's DS time at 1 ms.

We model the flip as a leakage-driven discharge of the high storage node:

    t_flip(v) = C_node * v / ( I_leak(v) * (1 - v / DRV) )        for v < DRV

The ``(1 - v/DRV)`` factor captures the vanishing net imbalance as the
supply approaches the retention limit: exactly at DRV the flip time diverges,
far below DRV it collapses to the raw RC discharge time.  At or above DRV the
cell retains indefinitely (``inf``).
"""

from __future__ import annotations

import math

from .. import obs
from ..devices.variation import CellVariation
from .design import DEFAULT_CELL, CellDesign
from .leakage import cell_leakage_current

#: Storage-node capacitance estimate (F): gate of the opposite inverter plus
#: drain junctions; a fraction of a femtofarad at 40 nm.
C_NODE = 0.25e-15

#: Floor on the symmetric-cell leakage: never divide by zero at cryogenic
#: corners.
_LEAK_FLOOR = 1e-18

#: Process-local memo for :func:`symmetric_leakage`.  Every flip time at one
#: sleep condition shares the same symmetric-cell leakage, and below ~0.1 V
#: that is a full capped hold-state solve; same discipline as
#: :func:`repro.cell.drv.drv_ds_pair_cached` (plain dict, hit/miss counters).
_SYM_LEAK_MEMO: dict = {}


def symmetric_leakage(
    v: float,
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
) -> float:
    """Floored symmetric-cell leakage at supply ``v`` (A), solved once per key.

    Bit-identical to ``max(cell_leakage_current(v, symmetric, ...), 1e-18)``.
    """
    key = (float(v), corner, float(temp_c), cell)
    hit = _SYM_LEAK_MEMO.get(key)
    if hit is not None:
        obs.count("memo.sym_leak.hits")
        return hit
    obs.count("memo.sym_leak.misses")
    leak = max(
        cell_leakage_current(v, CellVariation.symmetric(), corner, temp_c, cell),
        _LEAK_FLOOR,
    )
    _SYM_LEAK_MEMO[key] = leak
    return leak


def clear_sym_leak_memo() -> None:
    """Drop the :func:`symmetric_leakage` memo (test isolation)."""
    _SYM_LEAK_MEMO.clear()


def flip_time(
    v: float,
    drv: float,
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
) -> float:
    """Seconds until a cell with retention voltage ``drv`` flips at supply ``v``.

    Returns ``math.inf`` when ``v >= drv`` (data is retained indefinitely).
    """
    if v >= drv:
        return math.inf
    if v <= 0.0:
        return 0.0
    leak = symmetric_leakage(v, corner, temp_c, cell)
    deficit = 1.0 - v / drv
    return C_NODE * v / (leak * deficit)


def retains(
    v: float,
    drv: float,
    ds_time: float,
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
) -> bool:
    """True if data survives ``ds_time`` seconds of deep sleep at supply ``v``."""
    return ds_time < flip_time(v, drv, corner, temp_c, cell)
