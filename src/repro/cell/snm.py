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

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..devices.mosfet import MosfetModel
from ..devices.variation import CellVariation
from .design import DEFAULT_CELL, CellDesign
from .vtc import (
    _BISECTION_STEPS,
    HalfCellKernel,
    bisect_output,
    half_cell_roles,
    supply_bracket,
    vtc_pair,
)

#: Input-grid resolution for the VTCs.
_GRID_POINTS = 256

#: Diagonal-coordinate resolution for the separation search.
_DIAG_POINTS = 320

#: Rows per stacked VTC solve.  Rows never mix, so blocking changes no
#: result; past ~32 rows (64 VTC rows, 128 KiB per (64, 256) array) a step's
#: working set outgrows a 2 MiB L2 and the cost per row rose ~40% on a
#: 2-vCPU Xeon.
_BLOCK_ROWS = 32

#: Rungs of the sign mode's certification ladder: at each depth the
#: undecided lanes' VTC brackets are ``vdd * 2^-depth`` wide, and every lane
#: whose SNM sign the bracket settles drops out; the rest go on to the next
#: rung and at last to the full :data:`~repro.cell.vtc._BISECTION_STEPS`.
#: Over tiny Table I + Fig. 4 the rungs settle 72, 96 and 118 of 310 sign
#: evaluations, and 24 go on to the full depth (DESIGN §28, §29).
_CERTIFY_DEPTHS = (8, 14, 22)

#: Steps of the sign mode's pre-pass over every grid point, after which each
#: VTC row is cut to the points its lane's lobe can read (DESIGN §27).  The
#: kept share falls from 48% at 2 steps to 42% at 3 and barely moves up to 8,
#: while every pre-pass step runs on the whole grid.  A value above the
#: first rung of :data:`_CERTIFY_DEPTHS` acts as that.
_CUT_STEPS = 3

#: Half-width of the gap around ``c = 0`` that :func:`_lobe` leaves out:
#: lobe 0 spans ``c >= _LOBE_EPS``, lobe 1 ``c <= -_LOBE_EPS``.
_LOBE_EPS = 1e-6

#: A coarse SNM sign is certified when both |SNM| and the lobe's c-width
#: exceed this many bracket widths of its rung, or when the c-width is below
#: minus this many (the lobe is missing).  The coarse SNM lies within ~1.5
#: widths of the exact one, the c-width within one (DESIGN §24).
_CERTIFY_MARGIN = 16

#: (pull-up, pull-down, pass gate) of the inverter driving S, then SB.
_INVERTERS = (("mpcc1", "mncc1", "mncc3"), ("mpcc2", "mncc2", "mncc4"))

#: One session row: a cell variation at a (corner, temperature).
Row = Tuple[CellVariation, str, float]


class SnmSession:
    """SNM evaluator over ``R`` rows of (variation, corner, temperature).

    Builds each row's six device models once.  Every evaluation of ``k``
    rows stacks both half-cell VTCs into one
    :class:`~repro.cell.vtc.HalfCellKernel` on ``(2k, G)`` inputs: the
    S-driving inverters over the SB-driving ones, device parameters as
    ``(3, 2k, 1)`` columns (:meth:`MosfetModel.stack`, then
    :meth:`MosfetModel.stack_roles`).  Each row's result is bit-identical to
    a 1-row session's: every VTC step is elementwise, rows never mix, and
    ``np.linspace`` with an array endpoint matches its scalar output.

    :meth:`snm_batch` with ``lobes`` is the DRV search's sign mode.  After a
    :data:`_CUT_STEPS` pre-pass it keeps, per VTC row, only the grid points
    that can reach the lane's lobe (:func:`_lobe_spans`).  It then climbs the
    :data:`_CERTIFY_DEPTHS` ladder: at each rung the lanes whose SNM sign
    the coarse curves already settle stop, and only the rest bisect on, to
    the next rung and at last to the full
    :data:`~repro.cell.vtc._BISECTION_STEPS` (DESIGN §24, §27, §28).
    :meth:`snm` with ``lobes`` is the same mode at one supply.  Without
    ``lobes`` every point runs all the steps, so :meth:`snm` and
    :meth:`snm_batch` are exact.
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
        self._stacks: Dict[Tuple[int, ...], MosfetModel] = {}

    def _stacked(self, block: Sequence[int]) -> MosfetModel:
        """(pull-down, pass gate, pull-up) of ``block``'s S-driving over SB-driving inverters.

        Built once per row tuple: the DRV search's bisection steps evaluate
        the same blocks at new supplies, and the stack holds no supply.
        """
        key = tuple(block)
        stack = self._stacks.get(key)
        if stack is None:
            pullup, pulldown, pass_gate = (
                MosfetModel.stack([self._models[r][inv[role]] for inv in _INVERTERS for r in key])
                for role in range(3)
            )
            stack = self._stacks[key] = half_cell_roles(pullup, pulldown, pass_gate, 2)
        return stack

    def _block(
        self, vdd: np.ndarray, block: Sequence[int], lobes: Optional[np.ndarray]
    ) -> np.ndarray:
        """One row block: ``(k, 2)`` exact SNMs, or ``(k,)`` sign-certified lobe SNMs."""
        k = len(block)
        grid = np.linspace(0.0, vdd, self.points, axis=-1)
        inputs = np.tile(grid, (2, 1))
        supplies = np.tile(vdd, 2)[:, None]
        lo, hi = supply_bracket(inputs, supplies, "SnmSession")
        kernel = HalfCellKernel(self._stacked(block), inputs, supplies)
        if lobes is None:
            lo, hi = bisect_output(kernel.residual, lo, hi, _BISECTION_STEPS)
            vtcs = 0.5 * (lo + hi)
            return np.array([_lobe_separations(grid[i], vtcs[i], vtcs[k + i]) for i in range(k)])
        steps = min(_CUT_STEPS, _CERTIFY_DEPTHS[0])
        lo, hi = bisect_output(kernel.residual, lo, hi, steps)
        starts, stops = _lobe_spans(inputs, lo, hi, lobes)
        rows = np.arange(2 * k)
        kept = _ranges(rows * self.points + starts, rows * self.points + stops)
        obs.count("snm.points.kept", len(kept))
        obs.count("snm.points.total", lo.size)
        kernel = kernel.take(kept)
        lo, hi = lo.ravel()[kept], hi.ravel()[kept]
        lengths = stops - starts

        def lane(i, s_of_sb, sb_of_s):
            b, a = i, k + i
            curves = _curve_a(grid[i, starts[a]:stops[a]], sb_of_s)
            curves += _curve_b(grid[i, starts[b]:stops[b]], s_of_sb)
            return _lobe(curves, lobes[i])

        # ``lanes`` are the undecided lanes; their VTC rows, S-driving over
        # SB-driving, are all the kernel still holds.  The exact curves lie
        # inside every rung's brackets, so a rung's SNM is within ~1.5
        # bracket widths of the exact one.
        out = np.empty(k)
        lanes = np.arange(k)
        rungs = [(depth, True) for depth in _CERTIFY_DEPTHS] + [(_BISECTION_STEPS, False)]
        for depth, certify in rungs:
            lo, hi = bisect_output(kernel.residual, lo, hi, depth - steps)
            steps = depth
            n = len(lanes)
            offsets = np.cumsum(np.concatenate([[0], lengths[lanes], lengths[k + lanes]]))
            vtcs = 0.5 * (lo + hi)
            out[lanes], widths = np.array([
                lane(i, vtcs[offsets[j]:offsets[j + 1]], vtcs[offsets[n + j]:offsets[n + j + 1]])
                for j, i in enumerate(lanes)
            ]).T
            if not certify:
                break
            # A lobe wider than the margin has the sign of its SNM; one whose
            # c-width is below -margin is missing at the exact depth too, so
            # its coarse -1.0 is the exact SNM.
            margin = _CERTIFY_MARGIN * vdd[lanes] * 2.0 ** -depth
            settled = ((np.abs(out[lanes]) > margin) & (widths > margin)) | (widths < -margin)
            undecided = np.flatnonzero(~settled)
            if len(undecided) == n:
                continue
            lanes = lanes[undecided]
            if not len(lanes):
                break
            vtc_rows = np.concatenate([undecided, n + undecided])
            take = _ranges(offsets[vtc_rows], offsets[vtc_rows + 1])
            kernel, lo, hi = kernel.take(take), lo[take], hi[take]
        obs.count("snm.certified", k - len(lanes))
        obs.count("snm.refined", len(lanes))
        return out

    def _separations(
        self, vdds: np.ndarray, rows: Sequence[int], lobes, source: str
    ) -> np.ndarray:
        """:meth:`_block` over blocks of at most :data:`_BLOCK_ROWS` rows.

        Raises ``ValueError``, naming ``source``, unless ``lobes`` (if given)
        holds one entry per row and every lobe is 0 or 1.
        """
        if lobes is not None:
            lobes = np.asarray(lobes)
            if lobes.shape != (len(rows),):
                raise ValueError(f"{source}: {lobes.size} lobes for {len(rows)} rows")
            if not ((lobes == 0) | (lobes == 1)).all():
                raise ValueError(f"{source}: every lobe must be 0 (DS1) or 1 (DS0)")
            lobes = lobes.astype(int)
        obs.count("snm.evaluations", len(rows))
        out = np.empty((len(rows), 2) if lobes is None else len(rows))
        for start in range(0, len(rows), _BLOCK_ROWS):
            end = start + _BLOCK_ROWS
            out[start:end] = self._block(
                vdds[start:end], rows[start:end], None if lobes is None else lobes[start:end]
            )
        return out

    def snm(self, vdd_cell: float, rows: Optional[Sequence[int]] = None, lobes=None) -> np.ndarray:
        """SNMs of ``rows`` (default: every row) at one supply.

        Without ``lobes``, the ``(len(rows), 2)`` exact (SNM_DS1, SNM_DS0).
        With ``lobes``, the sign mode: ``snm_batch(np.full(len(rows),
        vdd_cell), rows, lobes)``, whose values are exact only in sign.  The
        DRV search reads its two endpoints this way.
        """
        rows = range(len(self.rows)) if rows is None else rows
        return self._separations(np.full(len(rows), float(vdd_cell)), rows, lobes, "snm")

    def snm_batch(self, vdds, rows: Sequence[int], lobes=None) -> np.ndarray:
        """SNMs of row ``rows[i]`` at supply ``vdds[i]``.

        ``rows`` holds session-row indices and may repeat one (two lobes of
        one cell bisecting at different supplies).  Without ``lobes``,
        returns the ``(k, 2)`` exact (SNM_DS1, SNM_DS0).  With ``lobes``
        (``lobes[i]`` 0 -> SNM_DS1, 1 -> SNM_DS0), returns a ``(k,)`` array
        whose signs are exact but whose values are exact only where no rung
        of the certification ladder could settle the sign, or where the
        lobe is missing (``-1.0``): the DRV search reads nothing else.
        Counts ``snm.certified`` and ``snm.refined`` per lane then.

        Raises ``ValueError`` unless ``vdds`` (and ``lobes``) hold one entry
        per row and every lobe is 0 or 1.
        """
        vdds = np.atleast_1d(np.asarray(vdds, dtype=float))
        if vdds.shape != (len(rows),):
            raise ValueError(f"snm_batch: {vdds.size} supplies for {len(rows)} rows")
        return self._separations(vdds, rows, lobes, "snm_batch")


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


def _curve_a(grid: np.ndarray, sb_of_s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Curve A, ``(s, g(s))``, as ``(c_a, v_a)``: ``c`` increases with ``s``."""
    return grid - sb_of_s, grid + sb_of_s


def _curve_b(grid: np.ndarray, s_of_sb: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Curve B, ``(f(sb), sb)``, as ``(c_b, v_b)``, reversed so ``c`` increases."""
    return (s_of_sb - grid)[::-1], (s_of_sb + grid)[::-1]


def _diagonal_curves(
    grid: np.ndarray, s_of_sb: np.ndarray, sb_of_s: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both butterfly curves as ``(c_a, v_a, c_b, v_b)``, ``c`` increasing."""
    return _curve_a(grid, sb_of_s) + _curve_b(grid, s_of_sb)


def _lobe(curves, lobe: int) -> Tuple[float, float]:
    """(SNM, c-width) of lobe 0 (stored '1', ``c > 0``) or 1 (stored '0', ``c < 0``).

    The SNM is the lobe's max anti-diagonal separation, halved, or ``-1.0``
    when the lobe is missing (c-width ``<= 0``).
    """
    c_a, v_a, c_b, v_b = curves
    if lobe == 0:
        limit_lo, limit_hi = _LOBE_EPS, min(float(c_a[-1]), float(c_b[-1]))
    else:
        limit_lo, limit_hi = max(float(c_a[0]), float(c_b[0])), -_LOBE_EPS
    width = limit_hi - limit_lo
    if limit_hi <= limit_lo:
        return -1.0, width  # lobe entirely missing: strongly "closed"
    c = np.linspace(limit_lo, limit_hi, _DIAG_POINTS)
    va = np.interp(c, c_a, v_a)
    vb = np.interp(c, c_b, v_b)
    separation = (vb - va) if lobe == 0 else (va - vb)
    return float(np.max(separation)) / 2.0, width


def _lobe_spans(
    grid: np.ndarray, lo: np.ndarray, hi: np.ndarray, lobes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``[start, stop)`` of the points each VTC row can feed its lane's lobe with.

    ``grid``, ``lo`` and ``hi`` are ``(2k, G)``, stacked as in
    :meth:`SnmSession._block`: row ``i < k`` is lane ``i``'s S-driving VTC
    (curve B, ``c = s - grid``, falling along the row), row ``k + i`` its
    SB-driving one (curve A, ``c = grid - sb``, rising).  Any later VTC value
    lies in ``[lo, hi]``, and rounding is monotone, so each point's ``c``
    lies in ``[L, U]`` computed from the bracket.  :func:`_lobe` reads lobe
    0 only at ``c >= eps``: there ``np.interp`` never uses a point before the
    last one with ``U <= eps`` on the rising curve A (after the first on
    curve B).  Lobe 1 reads ``c <= -eps`` and never uses a point after the
    first with ``L > -eps`` on curve A (before the last on curve B); it
    must be strict, since at a tie ``np.interp`` takes the last of equal
    abscissae.  The kept ends hold each curve's own c-limits, so the lobe's
    limits and width keep their bits too (DESIGN §27).
    """
    k = len(lobes)
    curve_a = (np.arange(2 * k) >= k)[:, None]
    lobe0 = (np.tile(lobes, 2) == 0)[:, None]
    upper = np.where(curve_a, grid - lo, hi - grid)
    lower = np.where(curve_a, grid - hi, lo - grid)
    bound = np.where(lobe0, upper <= _LOBE_EPS, lower > -_LOBE_EPS)
    # Rising curve A on lobe 0 and falling curve B on lobe 1 keep a suffix
    # from the last bounding point; the other two a prefix to the first.
    suffix = (curve_a == lobe0)[:, 0]
    points = grid.shape[1]
    last = points - 1 - np.argmax(bound[:, ::-1], axis=1)
    first = np.argmax(bound, axis=1)
    return np.where(suffix, last, 0), np.where(suffix, points, first + 1)


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The concatenated ``np.arange(starts[r], stops[r])`` over every ``r``."""
    lengths = stops - starts
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)


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

