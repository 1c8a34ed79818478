"""Deep-sleep retention engine: who flips, given Vreg and the DS time.

This is where the electrical layers meet the functional memory.  A
:class:`WeakCell` carries the per-state retention voltages of one
variation-affected cell (DRV_DS1 applies when it stores '1', DRV_DS0 when it
stores '0').  On wake-up the engine compares the array supply that was
present during deep sleep - normally the regulator's VDD_CC, possibly
degraded by a defect - against each weak cell's DRV and the paper's
flip-time criterion: a cell only flips if the supply stayed below its DRV
for longer than its leakage-driven flip time (Section V's "DS time"
parameter; the paper keeps the SRAM in DS for 1 ms for this reason).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from ..cell.design import DEFAULT_CELL, CellDesign
from ..cell.retention import C_NODE, retains, symmetric_leakage


@dataclass(frozen=True)
class WeakCell:
    """A variation-affected cell at (addr, bit) with its two DRVs (volts)."""

    addr: int
    bit: int
    drv1: float  #: minimum supply retaining a stored '1'
    drv0: float  #: minimum supply retaining a stored '0'

    def drv_for(self, stored: int) -> float:
        return self.drv1 if stored else self.drv0


class RetentionEngine:
    """Evaluates deep-sleep retention for a population of weak cells.

    ``symmetric_drv`` is the retention voltage of every unlisted cell (the
    paper's ~60 mV symmetric-cell floor): if the supply drops below even
    that, the whole array loses data, not just the weak cells.
    """

    def __init__(
        self,
        weak_cells: Iterable[WeakCell] = (),
        symmetric_drv: float = 0.06,
        corner: str = "typical",
        temp_c: float = 25.0,
        cell: CellDesign = DEFAULT_CELL,
    ) -> None:
        self.weak_cells: List[WeakCell] = list(weak_cells)
        self.symmetric_drv = symmetric_drv
        self.corner = corner
        self.temp_c = temp_c
        self.cell = cell

    def flips(
        self,
        vddcc: float,
        ds_time: float,
        stored_bit_of,
    ) -> List[Tuple[int, int]]:
        """(addr, bit) list of weak cells that lose their data.

        ``stored_bit_of(addr, bit)`` supplies the value held when the SRAM
        entered deep sleep.
        """
        lost = []
        for weak in self.weak_cells:
            stored = stored_bit_of(weak.addr, weak.bit)
            drv = weak.drv_for(stored)
            if not retains(vddcc, drv, ds_time, self.corner, self.temp_c, self.cell):
                lost.append((weak.addr, weak.bit))
        return lost

    def bulk_data_loss(self, vddcc: float, ds_time: float) -> bool:
        """True when even symmetric cells cannot retain (supply near zero)."""
        return not retains(
            vddcc, self.symmetric_drv, ds_time, self.corner, self.temp_c, self.cell
        )


class ArrayRetentionEngine(RetentionEngine):
    """Array-backed retention engine: one DRV pair per cell of a macro.

    A macro bank has only a few distinct DRV pairs, so the engine holds a
    ``(n_words, word_bits)`` plane of small unsigned bucket ``codes`` plus
    a ``(2, B)`` :attr:`drv_table` (row 0 DRV_DS0, row 1 DRV_DS1, indexed
    by the stored bit) - the map :func:`repro.cell.drv.drv_ds_pair_map`
    produces for a macro's variation map (:meth:`from_codes`).  The plane
    constructor is the one-code-per-cell case.  :meth:`flip_times` and
    :meth:`flip_mask` evaluate the paper's flip-time criterion on the
    table and gather the result by (stored bit, code);
    :meth:`bucket_flips` is that table before the gather.

    Bit-for-bit equivalence with the scalar engine is a hard contract (the
    scalar path is the differential oracle): every table entry uses the
    *same* float64 expression structure as
    :func:`repro.cell.retention.flip_time` - one shared (memoised) leakage
    evaluation at the common supply, then ``C_NODE * v / (leak * (1 -
    v/drv))`` - so ``flip_mask(...)`` and a :class:`RetentionEngine` built
    from :meth:`weak_cell_list` flip exactly the same cells.
    """

    #: Marks the engine for the memory's vectorized wake-up path.
    vectorized = True

    def __init__(
        self,
        drv1: np.ndarray,
        drv0: np.ndarray,
        symmetric_drv: float = 0.06,
        corner: str = "typical",
        temp_c: float = 25.0,
        cell: CellDesign = DEFAULT_CELL,
    ) -> None:
        drv1 = np.asarray(drv1, dtype=float)
        drv0 = np.asarray(drv0, dtype=float)
        if drv1.shape != drv0.shape or drv1.ndim != 2:
            raise ValueError(
                f"drv1/drv0 must be matching (n_words, word_bits) planes, "
                f"got {drv1.shape} and {drv0.shape}"
            )
        super().__init__((), symmetric_drv, corner, temp_c, cell)
        dtype = np.min_scalar_type(max(drv1.size - 1, 0))
        self.codes = np.arange(drv1.size, dtype=dtype).reshape(drv1.shape)
        self.drv_table = np.stack([drv0.ravel(), drv1.ravel()])

    @classmethod
    def from_codes(
        cls,
        codes: np.ndarray,
        drv1: np.ndarray,
        drv0: np.ndarray,
        symmetric_drv: float = 0.06,
        corner: str = "typical",
        temp_c: float = 25.0,
        cell: CellDesign = DEFAULT_CELL,
    ) -> "ArrayRetentionEngine":
        """Engine over a bucket-code plane and per-bucket DRV tables.

        Cell ``(a, b)`` has DRV_DS1 ``drv1[codes[a, b]]`` and DRV_DS0
        ``drv0[codes[a, b]]``.
        """
        codes = np.asarray(codes)
        drv1 = np.asarray(drv1, dtype=float)
        drv0 = np.asarray(drv0, dtype=float)
        if codes.ndim != 2 or codes.dtype.kind != "u":
            raise ValueError(
                f"codes must be an unsigned (n_words, word_bits) plane, "
                f"got {codes.dtype} {codes.shape}"
            )
        if drv1.shape != drv0.shape or drv1.ndim != 1:
            raise ValueError(
                f"drv1/drv0 must be matching (B,) tables, "
                f"got {drv1.shape} and {drv0.shape}"
            )
        if codes.size and int(codes.max()) >= len(drv1):
            raise ValueError(
                f"codes reach {int(codes.max())} but the tables hold "
                f"{len(drv1)} buckets"
            )
        engine = cls.__new__(cls)
        RetentionEngine.__init__(engine, (), symmetric_drv, corner, temp_c, cell)
        engine.codes = codes
        engine.drv_table = np.stack([drv0, drv1])
        return engine

    @property
    def shape(self) -> Tuple[int, int]:
        return self.codes.shape

    @property
    def drv1(self) -> np.ndarray:
        """Read-only per-cell DRV_DS1 plane."""
        return self._plane(self.drv_table[1])

    @property
    def drv0(self) -> np.ndarray:
        """Read-only per-cell DRV_DS0 plane."""
        return self._plane(self.drv_table[0])

    def _plane(self, table: np.ndarray) -> np.ndarray:
        plane = table[self.codes]
        plane.flags.writeable = False
        return plane

    def _gather(self, table: np.ndarray, stored_bits: np.ndarray) -> np.ndarray:
        """``table[stored != 0, code]`` for every cell.

        The index is one key plane ``stored * B + code`` in the smallest
        unsigned dtype holding ``2B - 1``, built in place; fancy indexing
        casts it in buffered chunks, never as a whole int64 plane.
        """
        buckets = table.shape[1]
        key = np.empty(
            np.broadcast_shapes(np.shape(stored_bits), self.codes.shape),
            dtype=np.min_scalar_type(max(2 * buckets - 1, 0)),
        )
        np.not_equal(stored_bits, 0, out=key)
        key *= buckets
        key += self.codes
        return table.ravel()[key]

    def _table_times(self, vddcc: float) -> np.ndarray:
        """Flip time (s) of every (stored bit, bucket) entry of the table.

        Same precedence as :func:`~repro.cell.retention.flip_time`: ``inf``
        where ``vddcc >= drv``, else 0 where ``vddcc <= 0``.
        """
        v = float(vddcc)
        drv = self.drv_table
        below = v < drv
        if v <= 0.0:
            return np.where(below, 0.0, np.inf)
        leak = symmetric_leakage(v, self.corner, self.temp_c, self.cell)
        with np.errstate(divide="ignore", invalid="ignore"):
            deficit = 1.0 - v / drv
            return np.where(below, C_NODE * v / (leak * deficit), np.inf)

    def flip_times(self, vddcc: float, stored_bits: np.ndarray) -> np.ndarray:
        """Per-cell flip time (s) at supply ``vddcc`` for the stored plane."""
        return self._gather(self._table_times(vddcc), stored_bits)

    def bucket_flips(self, vddcc: float, duration: float) -> np.ndarray:
        """``(2, B)`` table: does a cell storing bit ``s`` in bucket ``b`` flip?

        Row ``s`` is the stored bit, as in :attr:`drv_table`; an entry is
        True when the flip time at ``vddcc`` is within ``duration``.  A
        count over cells needs only this table and the bucket populations.
        """
        return float(duration) >= self._table_times(vddcc)

    def flip_mask(
        self, vddcc: float, ds_time: float, stored_bits: np.ndarray
    ) -> np.ndarray:
        """Boolean plane of cells that lose their data during this sleep."""
        return self._gather(self.bucket_flips(vddcc, ds_time), stored_bits)

    def flips(self, vddcc, ds_time, stored_bit_of) -> List[Tuple[int, int]]:
        """Scalar-protocol compatibility: evaluate via the mask."""
        n_words, word_bits = self.shape
        stored = np.empty((n_words, word_bits), dtype=np.uint8)
        for addr in range(n_words):
            for bit in range(word_bits):
                stored[addr, bit] = stored_bit_of(addr, bit)
        rows, cols = np.nonzero(self.flip_mask(vddcc, ds_time, stored))
        return list(zip(rows.tolist(), cols.tolist()))

    def weak_cell_list(self) -> List[WeakCell]:
        """Every cell as a :class:`WeakCell`, for the scalar oracle engine."""
        n_words, word_bits = self.shape
        drv1, drv0 = self.drv1, self.drv0
        return [
            WeakCell(addr, bit, float(drv1[addr, bit]), float(drv0[addr, bit]))
            for addr in range(n_words)
            for bit in range(word_bits)
        ]

    def to_scalar(self) -> RetentionEngine:
        """The equivalent scalar engine (differential-oracle counterpart)."""
        return RetentionEngine(
            self.weak_cell_list(),
            self.symmetric_drv,
            self.corner,
            self.temp_c,
            self.cell,
        )
