"""The regulator's DC load: core-cell-array leakage on the VDD_CC line.

Solving a 256K-cell array inside the regulator's Newton loop is obviously
out of the question, so the load is precomputed once per (corner,
temperature) as a per-cell leakage table (a vectorised sweep of the full
cell model) and stamped into the MNA system as a table-driven nonlinear
current sink.

Two physical effects matter for Table II:

* bulk leakage grows steeply with temperature, which is why the minimum
  defect resistances for error-amplifier defects occur at 125 C;
* cells affected by Vth variation draw *extra* current when VDD_CC
  approaches their retention voltage (the onset of internal contention as
  the weak state collapses).  With 64 weak cells (case study CS5) this extra
  demand measurably degrades Vreg, which is the paper's explanation for
  CS5's lower minimum resistances versus CS2.  It is modelled as a smooth
  crowbar turn-on around the weak-cell DRV.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from ..cell.design import DEFAULT_CELL, CellDesign
from ..cell.leakage import cell_leakage_current
from ..spice.elements import Element, StampContext

#: Voltage grid upper bound for the leakage table (above max VDD).
_TABLE_VMAX = 1.4
_TABLE_POINTS = 71

#: Crowbar current of a near-flip cell, as a multiple of its leakage.
CROWBAR_FACTOR = 200.0

#: Smoothness (volts) of the crowbar turn-on around the weak-cell DRV.
CROWBAR_WIDTH = 0.02


class LeakageTable:
    """Per-cell leakage vs supply voltage at one (corner, temperature)."""

    def __init__(self, corner: str, temp_c: float, cell: CellDesign = DEFAULT_CELL) -> None:
        self.corner = corner
        self.temp_c = temp_c
        self.grid = np.linspace(0.0, _TABLE_VMAX, _TABLE_POINTS)
        self.current = np.asarray(
            cell_leakage_current(self.grid, corner=corner, temp_c=temp_c, cell=cell)
        )
        # Segment slopes of the piecewise-linear interpolant.  Returning the
        # *same* slope the interpolation uses keeps current and derivative
        # consistent, which Newton needs for quadratic convergence.
        self._seg_slope = np.diff(self.current) / np.diff(self.grid)

    def _segment(self, v: float) -> int:
        index = int(np.searchsorted(self.grid, v)) - 1
        return min(max(index, 0), len(self._seg_slope) - 1)

    def i(self, v: float) -> float:
        """Per-cell leakage current at supply ``v`` (A), clamped to the table."""
        if v <= self.grid[0]:
            return float(self.current[0])
        if v >= self.grid[-1]:
            return float(self.current[-1])
        k = self._segment(v)
        return float(self.current[k] + self._seg_slope[k] * (v - self.grid[k]))

    def di_dv(self, v: float) -> float:
        if v <= self.grid[0] or v >= self.grid[-1]:
            return 0.0
        return float(self._seg_slope[self._segment(v)])


@lru_cache(maxsize=256)
def leakage_table(corner: str, temp_c: float, cell: CellDesign = DEFAULT_CELL) -> LeakageTable:
    """Cached :class:`LeakageTable` (cell sweeps are the expensive part)."""
    return LeakageTable(corner, temp_c, cell)


@dataclass(frozen=True)
class WeakCellGroup:
    """A population of variation-affected cells sharing one DRV."""

    count: int
    drv: float


class ArrayLoad(Element):
    """MNA element: the array's leakage plus weak-cell crowbar current.

    Sinks current from ``node`` to ground:

        I(v) = n_cells * I_cell(v)
             + sum_g count_g * CROWBAR_FACTOR * I_cell(v) * s((drv_g - v)/w)

    where ``s`` is a logistic turn-on: a weak cell draws its crowbar current
    once the supply falls to its retention voltage.
    """

    def __init__(
        self,
        name: str,
        node: int,
        table: LeakageTable,
        n_cells: int,
        weak_groups: Sequence[WeakCellGroup] = (),
        crowbar_factor: float = CROWBAR_FACTOR,
        crowbar_width: float = CROWBAR_WIDTH,
    ) -> None:
        super().__init__(name)
        self.node = node
        self.table = table
        self.n_cells = int(n_cells)
        self.weak_groups = tuple(weak_groups)
        self.crowbar_factor = crowbar_factor
        self.crowbar_width = crowbar_width

    def _current(self, v: float, slope: bool = True) -> Tuple[float, Optional[float]]:
        """Load current out of the node and its dI/dv (``None`` unless ``slope``).

        The current is the same bits either way: the slope only adds a
        second table search and the crowbar's ``ds/dv`` beside it.
        """
        i_cell = self.table.i(v)
        di_cell = self.table.di_dv(v) if slope else 0.0
        total = self.n_cells * i_cell
        dtotal = self.n_cells * di_cell
        for group in self.weak_groups:
            x = (group.drv - v) / self.crowbar_width
            s = 0.5 * (1.0 + np.tanh(0.5 * x))
            scale = group.count * self.crowbar_factor
            total += scale * i_cell * s
            if slope:
                ds_dv = -0.25 * (1.0 - np.tanh(0.5 * x) ** 2) / self.crowbar_width
                dtotal += scale * (di_cell * s + i_cell * ds_dv)
        return float(total), (float(dtotal) if slope else None)

    def stamp(self, ctx: StampContext) -> None:
        v = ctx.v(self.node)
        current, slope = self._current(v, slope=ctx.jacobian is not None)
        ctx.add_current(self.node, current, {self.node: slope})

    def describe(self, node_names) -> str:
        weak = ", ".join(f"{g.count}x@{g.drv:.3f}V" for g in self.weak_groups) or "none"
        return (
            f"LOAD {self.name} node={node_names[self.node]} cells={self.n_cells} "
            f"weak=[{weak}]"
        )
