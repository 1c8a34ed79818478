"""Table II: minimal defect resistance causing a DRF, per case study.

For every DRF-capable defect and every case-study family CS1..CS5, the
driver scans a PVT grid; at each condition it uses the case study's
degraded-state DRV (corner/temperature dependent) as the retention
threshold and the case study's affected-cell population as extra regulator
load, then reports the *minimum* resistance over the grid together with its
arg-min condition - the paper's "Min. Res." and "PVT" columns.

The mirrored -1/-0 flavours of a family produce the same numbers by
symmetry (the paper prints one column per family pair); we characterise the
-1 flavour.

The grid sweep is a :mod:`repro.campaign`: every (defect, family, PVT)
point is one cached task, so ``jobs>1`` fans the sweep over worker
processes and a ``cache_dir`` makes reruns (and interrupted runs)
incremental.  ``jobs=1`` without a cache executes the exact serial loop
this module always had.  The historical default grid keeps the corners and
temperatures that host every arg-min in the paper's Table II (fs / sf at
-30 C / 125 C, all three supplies); with the campaign engine the full
45-condition sweep is a ``pvt_grid=paper_pvt_grid()`` away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..cell.design import DEFAULT_CELL, CellDesign
from ..devices.pvt import PVT
from ..regulator.characterize import min_resistance_for_drf
from ..regulator.defects import DEFECTS, DRF_IDS
from ..regulator.design import DEFAULT_REGULATOR, RegulatorDesign, VrefSelect
from ..regulator.load import WeakCellGroup
from ..core.reporting import render_table, resistance_cell
from ..campaign import CampaignResult, SweepSpec, TaskPoint, run_campaign
from ..campaign.memo import case_drv
from .case_studies import CaseStudy, case_study
from .table2_grid import DEFAULT_TABLE2_GRID, FAMILIES


def vrefsel_for_vdd(vdd: float) -> VrefSelect:
    """Section IV.A's configuration rule: Vreg targets the worst-case DRV.

    For VDD = 1.2 / 1.1 / 1.0 V the regulator generates 0.64 / 0.70 /
    0.74 * VDD respectively.
    """
    if vdd >= 1.15:
        return VrefSelect.VREF64
    if vdd >= 1.05:
        return VrefSelect.VREF70
    return VrefSelect.VREF74


@dataclass(frozen=True)
class Table2Cell:
    """One (defect, case study) entry: min resistance + arg-min PVT."""

    min_resistance: Optional[float]
    pvt: Optional[PVT]

    def render(self) -> str:
        r = resistance_cell(self.min_resistance)
        if self.pvt is None or self.min_resistance in (None, 0.0):
            return r
        return f"{r} ({self.pvt.label()})"


@dataclass(frozen=True)
class Table2Row:
    """One defect's row across the five case-study families."""

    defect_id: int
    cells: dict  # family name -> Table2Cell

    @property
    def description(self) -> str:
        return DEFECTS[self.defect_id].description


def characterize_case(
    defect_id: int,
    family: str,
    pvt_grid: Sequence[PVT] = DEFAULT_TABLE2_GRID,
    ds_time: float = 1e-3,
    design: RegulatorDesign = DEFAULT_REGULATOR,
    cell: CellDesign = DEFAULT_CELL,
) -> Table2Cell:
    """Min resistance of one defect under one case study, over the grid."""
    cs: CaseStudy = case_study(family)
    defect = DEFECTS[defect_id]
    best_r: Optional[float] = None
    best_pvt: Optional[PVT] = None
    for pvt in pvt_grid:
        drv = case_drv(cs.name, pvt.corner, pvt.temp_c, cell)
        weak = (WeakCellGroup(count=cs.n_cells, drv=drv),)
        r = min_resistance_for_drf(
            defect, drv, pvt, vrefsel_for_vdd(pvt.vdd),
            ds_time=ds_time, weak_groups=weak, design=design, cell=cell,
        )
        if r is not None and r > 0.0 and (best_r is None or r < best_r):
            best_r, best_pvt = r, pvt
    return Table2Cell(best_r, best_pvt)


def _cell_point(
    defect_id: int, family: str, pvt: PVT, ds_time: float
) -> TaskPoint:
    return TaskPoint.make(
        "table2-cell",
        defect_id=int(defect_id), family=family, corner=pvt.corner,
        vdd=pvt.vdd, temp_c=pvt.temp_c, ds_time=ds_time,
    )


def table2_spec(
    defect_ids: Sequence[int] = DRF_IDS,
    families: Sequence[str] = FAMILIES,
    pvt_grid: Sequence[PVT] = DEFAULT_TABLE2_GRID,
    ds_time: float = 1e-3,
    design: RegulatorDesign = DEFAULT_REGULATOR,
    cell: CellDesign = DEFAULT_CELL,
) -> SweepSpec:
    """Declarative Table II sweep: one task per (defect, family, PVT)."""
    tasks = [
        _cell_point(defect_id, family, pvt, ds_time)
        for defect_id in defect_ids
        for family in families
        for pvt in pvt_grid
    ]
    return SweepSpec.build(
        "table2", tasks, context={"design": design, "cell": cell}
    )


def run_table2_campaign(
    defect_ids: Sequence[int] = DRF_IDS,
    families: Sequence[str] = FAMILIES,
    pvt_grid: Sequence[PVT] = DEFAULT_TABLE2_GRID,
    ds_time: float = 1e-3,
    design: RegulatorDesign = DEFAULT_REGULATOR,
    cell: CellDesign = DEFAULT_CELL,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    retries: int = 1,
    verbose: bool = False,
    observe: bool = False,
    obs_dir: Optional[str] = None,
    deadline_s: Optional[float] = None,
    chaos=None,
) -> Tuple[List[Table2Row], CampaignResult]:
    """Compute Table II as a campaign; returns (rows, campaign result).

    A failed grid point (recorded ConvergenceError) contributes nothing to
    its cell's minimum, mirroring the serial scan's behaviour of skipping
    intractable resistances.  ``observe=True`` instruments the run (see
    :mod:`repro.obs`) and writes ``report.json``/``trace.jsonl`` into
    ``obs_dir`` (default: next to the result cache).
    """
    spec = table2_spec(defect_ids, families, pvt_grid, ds_time, design, cell)
    result = run_campaign(
        spec, jobs=jobs, cache_dir=cache_dir, retries=retries, verbose=verbose,
        observe=observe, obs_dir=obs_dir, deadline_s=deadline_s, chaos=chaos,
    )
    rows = []
    for defect_id in defect_ids:
        cells = {}
        for family in families:
            best_r: Optional[float] = None
            best_pvt: Optional[PVT] = None
            for pvt in pvt_grid:
                value = result.value_for(
                    _cell_point(defect_id, family, pvt, ds_time)
                )
                r = value.get("min_resistance") if value else None
                if r is not None and r > 0.0 and (best_r is None or r < best_r):
                    best_r, best_pvt = r, pvt
            cells[family] = Table2Cell(best_r, best_pvt)
        rows.append(Table2Row(defect_id, cells))
    return rows, result


def table2_rows(
    defect_ids: Sequence[int] = DRF_IDS,
    families: Sequence[str] = FAMILIES,
    pvt_grid: Sequence[PVT] = DEFAULT_TABLE2_GRID,
    ds_time: float = 1e-3,
    design: RegulatorDesign = DEFAULT_REGULATOR,
    cell: CellDesign = DEFAULT_CELL,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> List[Table2Row]:
    """Compute Table II (or a sub-grid of it)."""
    rows, _result = run_table2_campaign(
        defect_ids, families, pvt_grid, ds_time, design, cell,
        jobs=jobs, cache_dir=cache_dir,
    )
    return rows


def render_table2(rows: Sequence[Table2Row]) -> str:
    families = list(rows[0].cells) if rows else list(FAMILIES)
    body = []
    for row in rows:
        body.append(
            [f"Df{row.defect_id}"]
            + [row.cells[family].render() for family in families]
        )
    headers = ["Def."] + [f"{f[:-2]}-1/{f[:-2]}-0" for f in families]
    return render_table(
        headers, body,
        title="Table II - minimal defect resistance causing DRF_DS "
              "(min over PVT grid; arg-min condition in parentheses)",
    )
