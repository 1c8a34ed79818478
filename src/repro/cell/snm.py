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

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..devices.mosfet import MosfetModel
from ..devices.variation import CellVariation
from .design import DEFAULT_CELL, CellDesign
from .vtc import _BISECTION_STEPS, bisect_output, output_residual, supply_bracket, vtc_pair

#: Input-grid resolution for the VTCs.
_GRID_POINTS = 256

#: Diagonal-coordinate resolution for the separation search.
_DIAG_POINTS = 320

#: Rows per stacked VTC solve.  Rows never mix, so blocking changes no
#: result; past ~32 rows (64 VTC rows, 128 KiB per (64, 256) array) a step's
#: working set outgrows a 2 MiB L2 and the cost per row rose ~40% on a
#: 2-vCPU Xeon.
_BLOCK_ROWS = 32

#: VTC bisection steps of the sign mode's coarse pass.  Its brackets are
#: ``vdd * 2^-22`` wide (~3e-7 V at 1.2 V).
_COARSE_STEPS = 22

#: A coarse SNM sign is certified when both |SNM| and the lobe's c-width
#: exceed this many coarse bracket widths.  The coarse SNM lies within ~1.5
#: widths of the exact one (DESIGN §24).
_CERTIFY_MARGIN = 16

#: (pull-up, pull-down, pass gate) of the inverter driving S, then SB.
_INVERTERS = (("mpcc1", "mncc1", "mncc3"), ("mpcc2", "mncc2", "mncc4"))

#: One session row: a cell variation at a (corner, temperature).
Row = Tuple[CellVariation, str, float]


class SnmSession:
    """SNM evaluator over ``R`` rows of (variation, corner, temperature).

    Builds each row's six device models once.  Every evaluation of ``k``
    rows stacks both half-cell VTCs into :func:`~repro.cell.vtc.bisect_output`
    on ``(2k, G)`` inputs: the S-driving inverters over the SB-driving ones,
    device parameters as ``(2k, 1)`` columns (:meth:`MosfetModel.stack`).
    Each row's result is bit-identical to a 1-row session's: every VTC step
    is elementwise, rows never mix, and ``np.linspace`` with an array
    endpoint matches its scalar output.

    :meth:`snm_batch` with ``lobes`` is the DRV search's sign mode: it stops
    each VTC after :data:`_COARSE_STEPS` steps, keeps the lanes whose SNM
    sign the coarse curves already settle, and resumes only the rest to the
    full :data:`~repro.cell.vtc._BISECTION_STEPS` (DESIGN §24).  Without
    ``lobes`` every row resumes, so :meth:`snm` and :meth:`snm_batch` are
    exact.
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

    def _stacked(self, block: Sequence[int]) -> List[MosfetModel]:
        """(pull-up, pull-down, pass gate) of ``block``'s S-driving over SB-driving inverters."""
        return [
            MosfetModel.stack([self._models[r][inv[role]] for inv in _INVERTERS for r in block])
            for role in range(3)
        ]

    def _block(
        self, vdd: np.ndarray, block: Sequence[int], lobes: Optional[np.ndarray]
    ) -> np.ndarray:
        """One row block: ``(k, 2)`` exact SNMs, or ``(k,)`` sign-certified lobe SNMs."""
        k = len(block)
        grid = np.linspace(0.0, vdd, self.points, axis=-1)
        inputs = np.tile(grid, (2, 1))
        supplies = np.tile(vdd, 2)[:, None]
        lo, hi = supply_bracket(inputs, supplies)
        residual = output_residual(inputs, supplies, *self._stacked(block))
        lo, hi = bisect_output(residual, lo, hi, _COARSE_STEPS)
        if lobes is None:
            out = np.empty((k, 2))
            refine = np.arange(k)
        else:
            # The exact curves lie inside the coarse brackets, so the coarse
            # SNM is within ~1.5 bracket widths of the exact one.
            out = np.empty(k)
            widths = np.empty(k)
            coarse = 0.5 * (lo + hi)
            for i in range(k):
                curves = _diagonal_curves(grid[i], coarse[i], coarse[k + i])
                out[i], widths[i] = _lobe(curves, lobes[i])
            margin = _CERTIFY_MARGIN * vdd * 2.0 ** -_COARSE_STEPS
            refine = np.flatnonzero(~((np.abs(out) > margin) & (widths > margin)))
            obs.count("snm.certified", k - len(refine))
            obs.count("snm.refined", len(refine))
            if not len(refine):
                return out
        m = len(refine)
        if m < k:
            take = np.concatenate([refine, k + refine])
            residual = output_residual(
                inputs[take], supplies[take], *self._stacked([block[i] for i in refine])
            )
            lo, hi = lo[take], hi[take]
        lo, hi = bisect_output(residual, lo, hi, _BISECTION_STEPS - _COARSE_STEPS)
        vtcs = 0.5 * (lo + hi)
        for j, i in enumerate(refine):
            if lobes is None:
                out[i] = _lobe_separations(grid[i], vtcs[j], vtcs[m + j])
            else:
                out[i] = _lobe(_diagonal_curves(grid[i], vtcs[j], vtcs[m + j]), lobes[i])[0]
        return out

    def _separations(
        self, vdds: np.ndarray, rows: Sequence[int], lobes: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """:meth:`_block` over blocks of at most :data:`_BLOCK_ROWS` rows."""
        out = np.empty((len(rows), 2) if lobes is None else len(rows))
        for start in range(0, len(rows), _BLOCK_ROWS):
            end = start + _BLOCK_ROWS
            out[start:end] = self._block(
                vdds[start:end], rows[start:end], None if lobes is None else lobes[start:end]
            )
        return out

    def snm(self, vdd_cell: float) -> np.ndarray:
        """``(R, 2)`` array of every row's exact (SNM_DS1, SNM_DS0) at one supply."""
        obs.count("snm.evaluations", len(self.rows))
        return self._separations(np.full(len(self.rows), float(vdd_cell)), range(len(self.rows)))

    def snm_batch(self, vdds, rows: Sequence[int], lobes=None) -> np.ndarray:
        """SNMs of row ``rows[i]`` at supply ``vdds[i]``.

        ``rows`` holds session-row indices and may repeat one (two lobes of
        one cell bisecting at different supplies).  Without ``lobes``,
        returns the ``(k, 2)`` exact (SNM_DS1, SNM_DS0).  With ``lobes``
        (``lobes[i]`` 0 -> SNM_DS1, 1 -> SNM_DS0), returns a ``(k,)`` array
        whose signs are exact but whose values are exact only where the
        coarse pass could not settle the sign: the DRV search reads nothing
        else.  Counts ``snm.certified`` and ``snm.refined`` per lane then.

        Raises ``ValueError`` unless ``vdds`` (and ``lobes``) hold one entry
        per row and every lobe is 0 or 1.
        """
        vdds = np.atleast_1d(np.asarray(vdds, dtype=float))
        if vdds.shape != (len(rows),):
            raise ValueError(f"snm_batch: {vdds.size} supplies for {len(rows)} rows")
        if lobes is not None:
            lobes = np.asarray(lobes)
            if lobes.shape != (len(rows),):
                raise ValueError(f"snm_batch: {lobes.size} lobes for {len(rows)} rows")
            if not ((lobes == 0) | (lobes == 1)).all():
                raise ValueError("snm_batch: every lobe must be 0 (DS1) or 1 (DS0)")
            lobes = lobes.astype(int)
        obs.count("snm.evaluations", vdds.size)
        return self._separations(vdds, rows, lobes)


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


def _diagonal_curves(
    grid: np.ndarray, s_of_sb: np.ndarray, sb_of_s: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both butterfly curves as ``(c_a, v_a, c_b, v_b)``, ``c`` increasing."""
    # Curve A: (s, g(s)) - diagonal coordinate increases with s.
    c_a = grid - sb_of_s
    v_a = grid + sb_of_s
    # Curve B: (f(sb), sb) - diagonal coordinate decreases with sb; reverse
    # so np.interp sees increasing x.
    c_b = (s_of_sb - grid)[::-1]
    v_b = (s_of_sb + grid)[::-1]
    return c_a, v_a, c_b, v_b


def _lobe(curves, lobe: int) -> Tuple[float, float]:
    """(SNM, c-width) of lobe 0 (stored '1', ``c > 0``) or 1 (stored '0', ``c < 0``).

    The SNM is the lobe's max anti-diagonal separation, halved, or ``-1.0``
    when the lobe is missing (c-width ``<= 0``).
    """
    c_a, v_a, c_b, v_b = curves
    eps = 1e-6
    if lobe == 0:
        limit_lo, limit_hi = eps, min(float(c_a[-1]), float(c_b[-1]))
    else:
        limit_lo, limit_hi = max(float(c_a[0]), float(c_b[0])), -eps
    width = limit_hi - limit_lo
    if limit_hi <= limit_lo:
        return -1.0, width  # lobe entirely missing: strongly "closed"
    c = np.linspace(limit_lo, limit_hi, _DIAG_POINTS)
    va = np.interp(c, c_a, v_a)
    vb = np.interp(c, c_b, v_b)
    separation = (vb - va) if lobe == 0 else (va - vb)
    return float(np.max(separation)) / 2.0, width


def _lobe_separations(
    grid: np.ndarray, s_of_sb: np.ndarray, sb_of_s: np.ndarray
) -> Tuple[float, float]:
    """Return (snm1, snm0): max anti-diagonal separation per lobe, halved."""
    curves = _diagonal_curves(grid, s_of_sb, sb_of_s)
    return _lobe(curves, 0)[0], _lobe(curves, 1)[0]


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

