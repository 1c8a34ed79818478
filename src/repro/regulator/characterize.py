"""Defect characterisation: minimal resistance causing a retention fault.

This is the computational core behind Table II.  For a given defect, PVT
condition and retention scenario (a DRV plus a weak-cell population):

* **DC defects** - sweep the defect resistance on a log grid with
  warm-started solves of the full regulator; find where the array supply
  VDD_CC first fails the retention predicate (supply below the scenario DRV
  for longer than the cell flip time within the DS window), then refine by
  log-bisection.
* **Timing defects** (Df8 / Df11) - delegate to the semi-analytic race in
  :mod:`repro.regulator.timing`.

Resistances above 500 MOhm count as actual open lines, mirroring the
paper's "> 500M" notation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..cell.design import DEFAULT_CELL, CellDesign
from ..cell.retention import retains
from ..devices.pvt import PVT
from ..spice import ConvergenceError
from ..units import OPEN_LINE_OHMS
from .defects import DefectCategory, DefectSite
from .design import DEFAULT_REGULATOR, RegulatorDesign, VrefSelect
from .load import WeakCellGroup
from .netlist import RegulatorSession, solve_regulator
from .timing import min_resistance_timing

#: Log-spaced resistance grid for the coarse failure bracketing.
_R_GRID = np.logspace(1.0, math.log10(OPEN_LINE_OHMS), 18)

_REFINE_STEPS = 10


def vreg_curve(
    defect: DefectSite,
    resistances: Sequence[float],
    pvt: PVT,
    vrefsel: VrefSelect,
    weak_groups: Sequence[WeakCellGroup] = (),
    design: RegulatorDesign = DEFAULT_REGULATOR,
    cell: CellDesign = DEFAULT_CELL,
) -> List[float]:
    """VDD_CC versus defect resistance, with warm-started solves.

    One :class:`RegulatorSession` carries the whole sweep: the netlist and
    its compiled assembly plan are built once, and each point warm-starts
    from the previous converged state.
    """
    session = RegulatorSession(
        pvt, vrefsel, defect, weak_groups=weak_groups, design=design, cell=cell
    )
    values = []
    for resistance in resistances:
        op, _ = session.solve(float(resistance))
        values.append(op.vddcc)
    return values


def _fails(
    vddcc: float,
    drv: float,
    ds_time: float,
    pvt: PVT,
    cell: CellDesign,
) -> bool:
    """Retention predicate: does this array supply lose the weak cell?"""
    return not retains(vddcc, drv, ds_time, pvt.corner, pvt.temp_c, cell)


def min_resistance_for_drf(
    defect: DefectSite,
    drv: float,
    pvt: PVT,
    vrefsel: VrefSelect,
    ds_time: float = 1e-3,
    weak_groups: Sequence[WeakCellGroup] = (),
    design: RegulatorDesign = DEFAULT_REGULATOR,
    cell: CellDesign = DEFAULT_CELL,
) -> Optional[float]:
    """Minimal defect resistance that causes a DRF_DS, or ``None`` (> 500M).

    ``drv`` is the scenario's array retention voltage (its least stable
    cell); ``weak_groups`` adds the near-flip crowbar load of the affected
    cells (essential for CS5's 64-cell scenario).
    """
    if defect.timing is not None:
        return min_resistance_timing(defect, drv, pvt, ds_time, design, cell)

    # Fault-free sanity: if the scenario already fails with no defect, the
    # configuration itself is invalid for testing; treat as failing at ~0.
    baseline, _ = solve_regulator(
        pvt, vrefsel, weak_groups=weak_groups, design=design, cell=cell
    )
    if _fails(baseline.vddcc, drv, ds_time, pvt, cell):
        return 0.0

    session = RegulatorSession(
        pvt, vrefsel, defect, weak_groups=weak_groups, design=design, cell=cell
    )
    previous_r = None
    for resistance in _R_GRID:
        try:
            op, _ = session.solve(float(resistance))
        except ConvergenceError:
            # A single intractable grid point (typically when the operating
            # point sits exactly on the weak-cell crowbar transition) only
            # coarsens the bracketing; monotonicity lets the scan continue.
            obs.count("characterize.scan.skipped")
            session.reset()
            continue
        if _fails(op.vddcc, drv, ds_time, pvt, cell):
            if previous_r is None:
                return float(resistance)
            return _refine(
                session, previous_r, float(resistance), drv, pvt, ds_time, cell
            )
        previous_r = float(resistance)
    return None


def _refine(
    session: RegulatorSession,
    r_pass: float,
    r_fail: float,
    drv: float,
    pvt: PVT,
    ds_time: float,
    cell: CellDesign,
) -> float:
    """Log-scale bisection between the last passing and first failing R.

    An intractable midpoint solve ends the refinement early: ``r_fail`` is
    already a proven failing resistance, so returning it only loses
    precision, never correctness.
    """
    # The grid scan left the session warm at the first failing point; the
    # refinement jumps back below it, so restart from the heuristic guess.
    session.reset()
    for _ in range(_REFINE_STEPS):
        mid = math.sqrt(r_pass * r_fail)
        try:
            op, _ = session.solve(mid)
        except ConvergenceError:
            obs.count("characterize.refine.truncated")
            break
        if _fails(op.vddcc, drv, ds_time, pvt, cell):
            r_fail = mid
        else:
            r_pass = mid
    return r_fail


@dataclass(frozen=True)
class CharacterizationResult:
    """Minimal resistance for one (defect, scenario) over a PVT grid."""

    defect: DefectSite
    min_resistance: Optional[float]  #: None = "> 500M" (open line needed)
    pvt: Optional[PVT]  #: arg-min condition, None when nothing fails

    @property
    def detectable(self) -> bool:
        return self.min_resistance is not None


def characterize_over_grid(
    defect: DefectSite,
    drv_by_pvt,
    pvt_grid: Sequence[PVT],
    vrefsel_for,
    ds_time: float = 1e-3,
    weak_groups_by_pvt=None,
    design: RegulatorDesign = DEFAULT_REGULATOR,
    cell: CellDesign = DEFAULT_CELL,
) -> CharacterizationResult:
    """Scan a PVT grid and keep the minimal resistance + its condition.

    ``drv_by_pvt(pvt)`` supplies the scenario DRV at each condition (DRV is
    corner/temperature dependent); ``vrefsel_for(pvt)`` supplies the tap
    selection (the paper ties it to VDD so Vreg targets the worst-case DRV);
    ``weak_groups_by_pvt(pvt)`` optionally supplies the weak-cell load.
    """
    best_r: Optional[float] = None
    best_pvt: Optional[PVT] = None
    for pvt in pvt_grid:
        weak = weak_groups_by_pvt(pvt) if weak_groups_by_pvt else ()
        r = min_resistance_for_drf(
            defect, drv_by_pvt(pvt), pvt, vrefsel_for(pvt),
            ds_time=ds_time, weak_groups=weak, design=design, cell=cell,
        )
        if r is not None and (best_r is None or r < best_r):
            best_r, best_pvt = r, pvt
    return CharacterizationResult(defect, best_r, best_pvt)


def classify_defect(
    defect: DefectSite,
    pvt: PVT = PVT("typical", 1.1, 25.0),
    vrefsel: VrefSelect = VrefSelect.VREF70,
    probe_resistances: Sequence[float] = (100e3, 3e6, 100e6),
    threshold: float = 5e-3,
    design: RegulatorDesign = DEFAULT_REGULATOR,
    cell: CellDesign = DEFAULT_CELL,
) -> DefectCategory:
    """Empirical Section IV.B category of a defect, from its Vreg signature.

    Probes a resistance ladder across all four Vref selections: any
    (selection, resistance) pushing Vreg *down* makes the defect
    DRF-capable, any pushing it *up* makes it power-increasing; both
    signatures together give the paper's "green" category (the divider
    defects Df2..Df5 raise Vreg at moderate resistance and starve the amp
    bias at high resistance).  Timing defects are classified by their
    registered mechanism (their DC signature is by construction negligible).
    """
    from .defects import TimingMode

    if defect.timing is TimingMode.ACTIVATION_DELAY or defect.timing is TimingMode.UNDERSHOOT:
        return DefectCategory.DRF
    if defect.timing is TimingMode.DEACTIVATION_DELAY:
        return DefectCategory.POWER

    lowers = False
    raises = False
    for sel in VrefSelect:
        clean, _ = solve_regulator(pvt, sel, design=design, cell=cell)
        session = RegulatorSession(pvt, sel, defect, design=design, cell=cell)
        for probe in probe_resistances:
            faulty, _ = session.solve(probe)
            delta = faulty.vddcc - clean.vddcc
            if delta < -threshold:
                lowers = True
            elif delta > threshold:
                raises = True
    if lowers and raises:
        return DefectCategory.BOTH
    if lowers:
        return DefectCategory.DRF
    if raises:
        return DefectCategory.POWER
    # DC-flat in DS mode: probe the regulator-off state.  Defects on the
    # disable pull-up path (MPreg2) keep the output stage partially on when
    # the regulator should be off, holding Vreg up - a power signature the
    # DS-mode probe cannot see.
    clean_off, _ = solve_regulator(
        pvt, VrefSelect.VREF70, regon=False, design=design, cell=cell
    )
    faulty_off, _ = solve_regulator(
        pvt, VrefSelect.VREF70, defect, probe_resistances[-1],
        regon=False, design=design, cell=cell,
    )
    if faulty_off.vddcc - clean_off.vddcc > threshold:
        return DefectCategory.POWER
    return DefectCategory.NEGLIGIBLE
