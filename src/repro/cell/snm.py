"""Hold-state static noise margin via the largest-embedded-square method.

The butterfly plot is formed by the two half-cell VTCs drawn in the (S, SB)
plane.  Following Seevinck's construction, the SNM of a lobe is the side of
the largest square that fits inside it.  Numerically we parameterise both
curves by the diagonal coordinate ``c = S - SB`` (constant along -45 degree
lines): along any such line each curve is crossed exactly once, and the
largest square side equals half the maximum anti-diagonal separation

    SNM = max_c [ v_top(c) - v_bottom(c) ] / 2,      v = S + SB.

The ``c > 0`` half-plane holds the lobe of stored '1' (S high) and gives
SNM_DS1; ``c < 0`` gives SNM_DS0.  When a lobe's eye has closed (the cell can
no longer hold that state) the maximum separation goes negative, which makes
the value directly usable as a root-finding objective for the DRV search.

Linear interpolation in ``(c, v)`` is exact across near-vertical VTC
segments because both coordinates are linear along a straight segment.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from .. import obs
from ..devices.mosfet import MosfetModel
from ..devices.variation import CellVariation
from .design import DEFAULT_CELL, CellDesign
from .vtc import inverter_vtc, vtc_pair

#: Input-grid resolution for the VTCs.
_GRID_POINTS = 256

#: Diagonal-coordinate resolution for the separation search.
_DIAG_POINTS = 320

#: Rows per stacked VTC solve.  Rows never mix, so blocking changes no
#: result; past ~32 rows (64 VTC rows, 128 KiB per (64, 256) array) a step's
#: working set outgrows a 2 MiB L2 and the cost per row rose ~40% on a
#: 2-vCPU Xeon.
_BLOCK_ROWS = 32

#: (pull-up, pull-down, pass gate) of the inverter driving S, then SB.
_INVERTERS = (("mpcc1", "mncc1", "mncc3"), ("mpcc2", "mncc2", "mncc4"))

#: One session row: a cell variation at a (corner, temperature).
Row = Tuple[CellVariation, str, float]


class SnmSession:
    """SNM evaluator over ``R`` rows of (variation, corner, temperature).

    Builds each row's six device models once.  Every evaluation of ``k``
    rows is **one** :func:`inverter_vtc` call on ``(2k, G)`` inputs: the
    S-driving inverters stacked over the SB-driving ones, device parameters
    as ``(2k, 1)`` columns (:meth:`MosfetModel.stack`).  Each row's result
    is bit-identical to a 1-row session's: every VTC step is elementwise,
    rows never mix, and ``np.linspace`` with an array endpoint matches its
    scalar output.
    """

    def __init__(
        self,
        rows: Sequence[Row],
        cell: CellDesign = DEFAULT_CELL,
        points: int = _GRID_POINTS,
    ) -> None:
        self.rows = [(variation, corner, float(temp)) for variation, corner, temp in rows]
        self.cell = cell
        self.points = points
        self._models = [cell.models(*row) for row in self.rows]

    def _separations(self, vdds: np.ndarray, rows: Sequence[int]) -> np.ndarray:
        """``(len(rows), 2)`` (SNM_DS1, SNM_DS0) of ``rows[i]`` at ``vdds[i]``."""
        out = np.empty((len(rows), 2))
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            k = len(block)
            vdd = vdds[start:start + k]
            grid = np.linspace(0.0, vdd, self.points, axis=-1)
            devices = [
                MosfetModel.stack([
                    self._models[r][inv[role]] for inv in _INVERTERS for r in block
                ])
                for role in range(3)
            ]
            vtcs = inverter_vtc(np.tile(grid, (2, 1)), np.tile(vdd, 2)[:, None], *devices)
            for i in range(k):
                out[start + i] = _lobe_separations(grid[i], vtcs[i], vtcs[k + i])
        return out

    def snm(self, vdd_cell: float) -> np.ndarray:
        """``(R, 2)`` array of every row's (SNM_DS1, SNM_DS0) at one supply."""
        obs.count("snm.evaluations", len(self.rows))
        return self._separations(np.full(len(self.rows), float(vdd_cell)), range(len(self.rows)))

    def snm_batch(self, vdds, rows: Sequence[int]) -> np.ndarray:
        """``(k, 2)`` array of (SNM_DS1, SNM_DS0): row ``rows[i]`` at ``vdds[i]``.

        ``rows`` holds session-row indices and may repeat one (two lobes of
        one cell bisecting at different supplies).
        """
        vdds = np.atleast_1d(np.asarray(vdds, dtype=float))
        obs.count("snm.evaluations", vdds.size)
        return self._separations(vdds, rows)


def butterfly_curves(
    variation: CellVariation,
    vdd_cell: float,
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
    points: int = _GRID_POINTS,
) -> Dict[str, np.ndarray]:
    """Sampled butterfly curves in the (S, SB) plane.

    Returns a dict with arrays ``s_a``/``sb_a`` (curve A: SB driven by
    inverter 2 as a function of S) and ``s_b``/``sb_b`` (curve B: S driven by
    inverter 1 as a function of SB) - ready for plotting or SNM extraction.
    """
    grid = np.linspace(0.0, vdd_cell, points)
    s_of_sb, sb_of_s = vtc_pair(grid, vdd_cell, cell.models(variation, corner, temp_c))
    return {"s_a": grid, "sb_a": sb_of_s, "s_b": s_of_sb, "sb_b": grid}


def _lobe_separations(
    grid: np.ndarray, s_of_sb: np.ndarray, sb_of_s: np.ndarray
) -> Tuple[float, float]:
    """Return (snm1, snm0): max anti-diagonal separation per lobe, halved."""
    # Curve A: (s, g(s)) - diagonal coordinate increases with s.
    c_a = grid - sb_of_s
    v_a = grid + sb_of_s
    # Curve B: (f(sb), sb) - diagonal coordinate decreases with sb; reverse
    # so np.interp sees increasing x.
    c_b = (s_of_sb - grid)[::-1]
    v_b = (s_of_sb + grid)[::-1]

    c_min = max(float(c_a[0]), float(c_b[0]))
    c_max = min(float(c_a[-1]), float(c_b[-1]))

    def lobe(limit_lo: float, limit_hi: float, top_first: bool) -> float:
        if limit_hi <= limit_lo:
            return -1.0  # lobe entirely missing: strongly "closed"
        c = np.linspace(limit_lo, limit_hi, _DIAG_POINTS)
        va = np.interp(c, c_a, v_a)
        vb = np.interp(c, c_b, v_b)
        separation = (vb - va) if top_first else (va - vb)
        return float(np.max(separation)) / 2.0

    eps = 1e-6
    snm1 = lobe(eps, c_max, top_first=True)
    snm0 = lobe(c_min, -eps, top_first=False)
    return snm1, snm0


def snm_ds(
    variation: CellVariation,
    vdd_cell: float,
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
) -> Tuple[float, float]:
    """(SNM_DS1, SNM_DS0) of the cell at supply ``vdd_cell`` in DS mode.

    Negative values mean the corresponding lobe has closed: the cell cannot
    retain that logic value at this supply.  Repeated evaluations at the
    same (variation, corner, temperature) should go through a
    :class:`SnmSession` instead, which caches the device models.
    """
    snm1, snm0 = SnmSession([(variation, corner, temp_c)], cell).snm(vdd_cell)[0]
    return float(snm1), float(snm0)

