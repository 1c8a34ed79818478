"""Table I: the five case studies of Vth variation inside core-cells.

Each case study CSx comes in two mirrored flavours: CSx-1 degrades SNM_DS1
(the affected cells lose stored 1s first), CSx-0 degrades SNM_DS0.  CS1 is
the 6-sigma worst case of Section III.B, CS2/CS3 are intermediate 3-sigma
scenarios, CS4 is a barely-asymmetric cell, and CS5 repeats CS2's variation
in 64 cells (one per 8 bit-line pairs) to expose the load effect on the
regulator.

The paper's DRV columns are the maxima over PVT; ours are computed the same
way from the electrical layer.  The array-level DRV of the *unaffected*
state is the symmetric-cell floor (the paper's "~60 mV" entries): the
asymmetry that weakens one state strengthens the other, so the array
minimum is set by the symmetric majority.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..cell.design import DEFAULT_CELL, CellDesign
from ..cell.drv import drv_ds0, drv_ds1, drv_lanes, worst_over_grid
from ..devices.pvt import PVT, corner_temp_grid
from ..devices.variation import CellVariation
from ..core.reporting import drv_cell, render_table


@dataclass(frozen=True)
class CaseStudy:
    """One Table I row: a named variation scenario."""

    name: str  #: e.g. "CS2-1"
    n_cells: int  #: affected cell count (1, or 64 for CS5)
    variation: CellVariation
    degrades: int  #: which stored value the variation degrades (1 or 0)

    @property
    def family(self) -> str:
        """The CSx group name, e.g. ``'CS2'``."""
        return self.name.split("-")[0]

    def drv_affected(
        self,
        corner: str,
        temp_c: float,
        cell: CellDesign = DEFAULT_CELL,
    ) -> float:
        """DRV of the degraded state of the affected cell at one PVT."""
        if self.degrades == 1:
            return drv_ds1(self.variation, corner, temp_c, cell)
        return drv_ds0(self.variation, corner, temp_c, cell)

    def worst_drv(
        self,
        pvt_grid: Optional[Sequence[PVT]] = None,
        cell: CellDesign = DEFAULT_CELL,
    ) -> Tuple[float, PVT]:
        """Maximum degraded-state DRV over the (corner, temp) grid."""
        grid = list(pvt_grid) if pvt_grid is not None else corner_temp_grid()
        rows = [(self.variation, pvt.corner, pvt.temp_c) for pvt in grid]
        return worst_over_grid(drv_lanes(rows, self.lobe, cell), grid)

    @property
    def lobe(self) -> int:
        """Kernel lobe of the degraded state (0 -> DRV_DS1, 1 -> DRV_DS0)."""
        return 1 - self.degrades


def _cs(name: str, n_cells: int, degrades: int, **sigmas) -> CaseStudy:
    return CaseStudy(name, n_cells, CellVariation(**sigmas), degrades)


#: The ten Table I scenarios (CS1-1 .. CS5-0), paper sign conventions.
CASE_STUDIES: Tuple[CaseStudy, ...] = (
    _cs("CS1-1", 1, 1, mpcc1=-6, mncc1=-6, mpcc2=+6, mncc2=+6, mncc3=-6, mncc4=+6),
    _cs("CS1-0", 1, 0, mpcc1=+6, mncc1=+6, mpcc2=-6, mncc2=-6, mncc3=+6, mncc4=-6),
    _cs("CS2-1", 1, 1, mpcc1=-3, mncc1=-3),
    _cs("CS2-0", 1, 0, mpcc2=-3, mncc2=-3),
    _cs("CS3-1", 1, 1, mpcc2=+3, mncc2=+3),
    _cs("CS3-0", 1, 0, mpcc1=+3, mncc1=+3),
    _cs("CS4-1", 1, 1, mpcc2=+0.1, mncc2=+0.1),
    _cs("CS4-0", 1, 0, mpcc1=+0.1, mncc1=+0.1),
    _cs("CS5-1", 64, 1, mpcc1=-3, mncc1=-3),
    _cs("CS5-0", 64, 0, mpcc2=-3, mncc2=-3),
)


def case_study(name: str) -> CaseStudy:
    for cs in CASE_STUDIES:
        if cs.name == name:
            return cs
    raise KeyError(f"unknown case study {name!r}")


@dataclass(frozen=True)
class Table1Row:
    """Rendered Table I line: case study + the three DRV columns (volts)."""

    case: CaseStudy
    drv_ds0: float
    drv_ds1: float
    drv_ds: float
    worst_pvt: PVT


def table1_rows(
    pvt_grid: Optional[Sequence[PVT]] = None,
    cell: CellDesign = DEFAULT_CELL,
) -> List[Table1Row]:
    """All Table I rows (max DRV over the PVT grid), plus the symmetric
    floor at every grid point, from one kernel call."""
    grid = list(pvt_grid) if pvt_grid is not None else corner_temp_grid()
    cases = [(cs.variation, cs.lobe) for cs in CASE_STUDIES]
    cases.append((CellVariation.symmetric(), 0))
    rows = [(variation, pvt.corner, pvt.temp_c) for variation, _ in cases for pvt in grid]
    lobes = np.repeat([lobe for _, lobe in cases], len(grid))
    *worst_drvs, floors = drv_lanes(rows, lobes, cell).reshape(len(cases), len(grid))
    table = []
    for cs, drvs in zip(CASE_STUDIES, worst_drvs):
        worst, pvt = worst_over_grid(drvs, grid)
        floor = float(floors[grid.index(pvt)])
        if cs.degrades == 1:
            drv1, drv0 = worst, floor
        else:
            drv1, drv0 = floor, worst
        table.append(Table1Row(cs, drv0, drv1, max(drv0, drv1), pvt))
    return table


def render_table1(rows: Sequence[Table1Row]) -> str:
    """Paper-style Table I text rendering."""
    def sig(v: float) -> str:
        return f"{v:+g}s" if v else "0"

    body = []
    for row in rows:
        var = row.case.variation
        body.append([
            row.case.name,
            row.case.n_cells,
            sig(var.mpcc1), sig(var.mncc1), sig(var.mpcc2),
            sig(var.mncc2), sig(var.mncc3), sig(var.mncc4),
            drv_cell(row.drv_ds0),
            drv_cell(row.drv_ds1),
            drv_cell(row.drv_ds),
        ])
    headers = [
        "Case", "#cells", "MPcc1", "MNcc1", "MPcc2", "MNcc2", "MNcc3",
        "MNcc4", "DRV_DS0", "DRV_DS1", "DRV_DS",
    ]
    return render_table(headers, body, title="Table I - case studies of Vth variation")
