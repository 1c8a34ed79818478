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
from .leakage import cell_leakage_current, hold_leakage, supply_current
from .vtc import metastable_bracket

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

#: Leakage bounds that settled a :func:`retains` decision, per memo key.
#: Bounds do not depend on the DRV or the deep-sleep time, so a later
#: decision at the same key (every weak cell of one sleep) tries them before
#: any solve.
_SYM_LEAK_BOUNDS: dict = {}

#: How far a certified flip-time bound must clear ``ds_time`` (a factor) for
#: :func:`retains` to answer without the exact hold state (DESIGN §25).
_CERTIFY_MARGIN = 2.0


def _memo_key(v, corner, temp_c, cell):
    return (float(v), corner, float(temp_c), cell)


def _check_drv(drv: float) -> None:
    if math.isnan(drv):
        raise ValueError("retention: DRV is NaN")


def _time_to_flip(v: float, leak: float, deficit: float) -> float:
    return C_NODE * v / (leak * deficit)


def _leak_bounds(models, v, s, sb, vm_lo, vm_hi):
    """Floored symmetric-cell leakage bounds over the box S in [v_m, s], SB in [sb, v_m].

    ``(vm_lo, vm_hi)`` brackets the metastable point v_m.  The supply
    current falls in both node voltages, so the box's high corner gives the
    lower bound and its low corner the upper one.
    """
    return (
        max(supply_current(models, s, vm_hi, v), _LEAK_FLOOR),
        max(supply_current(models, vm_lo, sb, v), _LEAK_FLOOR),
    )


def symmetric_leakage(
    v: float,
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
) -> float:
    """Floored symmetric-cell leakage at supply ``v`` (A), solved once per key.

    Bit-identical to ``max(cell_leakage_current(v, symmetric, ...), 1e-18)``.
    """
    key = _memo_key(v, corner, temp_c, cell)
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
    """Drop the :func:`symmetric_leakage` memo and the certified bounds (test isolation)."""
    _SYM_LEAK_MEMO.clear()
    _SYM_LEAK_BOUNDS.clear()


def flip_time(
    v: float,
    drv: float,
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
) -> float:
    """Seconds until a cell with retention voltage ``drv`` flips at supply ``v``.

    Returns ``math.inf`` when ``v >= drv`` (data is retained indefinitely).
    Raises ``ValueError`` for a NaN ``drv``.
    """
    _check_drv(drv)
    if v >= drv:
        return math.inf
    if v <= 0.0:
        return 0.0
    leak = symmetric_leakage(v, corner, temp_c, cell)
    return _time_to_flip(v, leak, 1.0 - v / drv)


def retains(
    v: float,
    drv: float,
    ds_time: float,
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
) -> bool:
    """True if data survives ``ds_time`` seconds of deep sleep at supply ``v``.

    Always ``ds_time < flip_time(v, drv, ...)``, without always solving the
    hold state to the last bit.  For a supply strictly between 0 and ``drv``
    whose leakage is not memoised yet, the hold-state solve reports every
    round.  The symmetric cell's iterates stay on either side of its
    metastable point and only move toward it, so every later state - the
    exact hold state included - lies in a box whose corners bound the
    leakage, and hence the flip time, from both sides (DESIGN §25).  Once
    the bounds clear ``ds_time`` by :data:`_CERTIFY_MARGIN` the answer is
    settled (``retention.certified``) and the bounds are kept for later
    decisions at the same key; a close call finishes the same solve,
    memoises the exact leakage for :func:`symmetric_leakage` and decides
    exactly (``retention.exact``).
    Raises ``ValueError`` for a NaN ``drv`` or a NaN or negative
    ``ds_time``.
    """
    _check_drv(drv)
    if not ds_time >= 0.0:
        raise ValueError(f"retention: deep-sleep time must be >= 0 s, got {ds_time!r}")
    key = _memo_key(v, corner, temp_c, cell)
    if v >= drv or v <= 0.0 or key in _SYM_LEAK_MEMO:
        return ds_time < flip_time(v, drv, corner, temp_c, cell)
    obs.count("memo.sym_leak.misses")
    deficit = 1.0 - v / drv
    decided = []

    def settle(bounds):
        leak_lo, leak_hi = bounds
        if _time_to_flip(v, leak_hi, deficit) > _CERTIFY_MARGIN * ds_time:
            decided.append(True)
        elif _time_to_flip(v, leak_lo, deficit) * _CERTIFY_MARGIN < ds_time:
            decided.append(False)
        else:
            return False
        _SYM_LEAK_BOUNDS[key] = bounds
        return True

    if not (key in _SYM_LEAK_BOUNDS and settle(_SYM_LEAK_BOUNDS[key])):
        models = cell.models(CellVariation.symmetric(), corner, temp_c)
        vm_lo, vm_hi = metastable_bracket(v, models["mpcc1"], models["mncc1"], models["mncc3"])
        leak = hold_leakage(
            v, models, lambda s, sb: settle(_leak_bounds(models, v, s, sb, vm_lo, vm_hi))
        )
        if leak is not None:
            obs.count("retention.exact")
            leak = _SYM_LEAK_MEMO[key] = max(leak, _LEAK_FLOOR)
            return ds_time < _time_to_flip(v, leak, deficit)
    obs.count("retention.certified")
    return decided[0]
