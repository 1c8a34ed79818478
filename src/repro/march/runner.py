"""March test runner: executes a MarchTest against a LowPowerSRAM.

The runner drives the memory's functional interface only (reads, writes,
DSM/WUP mode switches) - exactly what external test equipment sees.  Reads
compare the observed word against the expected all-0s/all-1s background;
every mismatching bit is recorded as one row of a :class:`FailureTable`,
read back as :class:`MarchFailure` objects; the distinct failing cells come
back as a columnar :class:`CellTable`.

``vddcc_for_sleep`` lets a caller bind the sleeps to an electrical scenario
(e.g. the VDD_CC of a regulator with an injected defect); by default the
fault-free supply from the memory's configuration is used.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .. import obs
from ..sram.memory import LowPowerSRAM
from .dsl import DSM, WUP, AddressOrder, MarchElement, MarchTest


@dataclass(frozen=True)
class MarchFailure:
    """One mismatching bit observed by a read operation."""

    element_index: int
    op_index: int
    addr: int
    bit: int
    expected: int
    observed: int

    def __str__(self) -> str:
        return (
            f"ME{self.element_index + 1} op{self.op_index} "
            f"@({self.addr},{self.bit}): expected {self.expected}, "
            f"read {self.observed}"
        )


#: Cells of the mismatch stack :func:`_element_failures` hands to one
#: ``np.nonzero`` call, whose three intp index arrays stay chunk-sized.
_FAILURE_CHUNK = 1 << 16

#: Column dtypes of a :class:`FailureTable`, in :class:`MarchFailure` field
#: order: element, op, addr, bit, expected, observed.
_COLUMN_DTYPES = (np.int32, np.int32, np.intp, np.int32, np.uint8, np.uint8)


class FailureTable(Sequence[MarchFailure]):
    """Read-only, columnar list of :class:`MarchFailure` rows.

    Six integer columns (element, op, addr, bit, expected, observed) hold
    what would otherwise be one Python object per failing bit; a
    :class:`MarchFailure` is built only when a row is accessed.  Indexing,
    negative indexing, slicing (a table over views), iteration, ``len`` and
    ``bool`` behave as on the equivalent list.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: Optional[Sequence[np.ndarray]] = None) -> None:
        if columns is None:
            columns = [np.empty(0, dtype) for dtype in _COLUMN_DTYPES]
        self._columns: Tuple[np.ndarray, ...] = tuple(
            np.asarray(col, dtype) for col, dtype in zip(columns, _COLUMN_DTYPES)
        )

    @classmethod
    def from_rows(cls, rows: Sequence[Tuple[int, ...]]) -> "FailureTable":
        """A table from ``(element, op, addr, bit, expected, observed)`` rows."""
        if not rows:
            return cls()
        return cls(np.array(rows, dtype=np.int64).T)

    @classmethod
    def concat(cls, tables: Sequence["FailureTable"]) -> "FailureTable":
        """The rows of ``tables`` in order; a lone table comes back as it is."""
        if not tables:
            return cls()
        if len(tables) == 1:
            return tables[0]
        return cls([np.concatenate(cols) for cols in zip(*(t._columns for t in tables))])

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return FailureTable([col[index] for col in self._columns])
        return MarchFailure(*(int(col[index]) for col in self._columns))

    def __iter__(self) -> Iterator[MarchFailure]:
        for row in zip(*(col.tolist() for col in self._columns)):
            yield MarchFailure(*row)

    def __eq__(self, other) -> bool:
        if isinstance(other, FailureTable):
            return all(
                np.array_equal(a, b) for a, b in zip(self._columns, other._columns)
            )
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FailureTable({len(self)} failures)"

    def cells(self) -> CellTable:
        """Sorted distinct (addr, bit) pairs.

        Deduplicates packed ``addr << 32 | bit`` keys with a sort and an
        adjacent-difference mask, which keeps (addr, bit) lexicographic
        order and is far cheaper than a Python set at 10^5+ rows.  The keys
        are packed and sorted in one array, and its deduplicated copy
        becomes the bit column in place.
        """
        _element, _op, addr, bit, _exp, _obs = self._columns
        keys = addr.astype(np.int64)
        keys <<= 32
        keys |= bit
        keys.sort()
        if len(keys):
            distinct = np.empty(len(keys), dtype=bool)
            distinct[0] = True
            np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
            keys = keys[distinct]
        return CellTable(keys >> 32, np.bitwise_and(keys, 0xFFFFFFFF, out=keys))


class CellTable(Sequence[Tuple[int, int]]):
    """Read-only, columnar list of sorted distinct ``(addr, bit)`` pairs.

    :attr:`addr` and :attr:`bit` are read-only int64 columns, which an
    array caller indexes with directly; no tuple is built unless a row is
    read.  ``len``, indexing, negative indexing, slicing (a table over
    views), iteration, ``in`` and ``==`` against a list behave as on the
    equivalent ``sorted`` list of tuples.
    """

    __slots__ = ("addr", "bit")

    def __init__(self, addr: np.ndarray, bit: np.ndarray) -> None:
        self.addr = np.asarray(addr, np.int64)
        self.bit = np.asarray(bit, np.int64)
        self.addr.flags.writeable = False
        self.bit.flags.writeable = False

    def __len__(self) -> int:
        return len(self.addr)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return CellTable(self.addr[index], self.bit[index])
        return int(self.addr[index]), int(self.bit[index])

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return zip(self.addr.tolist(), self.bit.tolist())

    def __contains__(self, item) -> bool:
        """Binary search on the sorted ``addr`` column, then the word's bits."""
        if not (isinstance(item, tuple) and len(item) == 2
                and all(isinstance(x, Real) for x in item)):
            return False
        addr, bit = item
        lo = np.searchsorted(self.addr, addr, side="left")
        hi = np.searchsorted(self.addr, addr, side="right")
        return bool((self.bit[lo:hi] == bit).any())

    def __eq__(self, other) -> bool:
        if isinstance(other, CellTable):
            return np.array_equal(self.addr, other.addr) and np.array_equal(
                self.bit, other.bit
            )
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"CellTable({len(self)} cells)"


@dataclass
class MarchResult:
    """Outcome of one March test execution."""

    test_name: str
    failures: FailureTable = field(default_factory=FailureTable)
    operations: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def detected(self) -> bool:
        """True when the test flagged at least one fault."""
        return bool(self.failures)

    def failing_cells(self) -> CellTable:
        """Sorted distinct failing ``(addr, bit)`` cells (:meth:`FailureTable.cells`)."""
        return self.failures.cells()

    def __str__(self) -> str:
        state = "PASS" if self.passed else f"FAIL ({len(self.failures)} mismatches)"
        return f"{self.test_name}: {state} after {self.operations} operations"


def run_march(
    test: MarchTest,
    sram: LowPowerSRAM,
    vddcc_for_sleep: Optional[Callable[[int], float]] = None,
    max_failures: int = 10_000,
    background: Optional[int] = None,
) -> MarchResult:
    """Execute ``test`` on ``sram`` and collect read mismatches.

    ``vddcc_for_sleep(sleep_index)`` supplies the array voltage for each DSM
    operation (0-based); omit it for fault-free sleeps.  Collection stops
    after ``max_failures`` mismatches (a grossly failing device would
    otherwise log millions of identical rows).

    ``background`` is the word-oriented *data background*: ``wX``/``rX``
    use the background word for X=1 and its complement for X=0.  The
    default (all ones) gives the classic bit-oriented behaviour; a
    checkerboard background (e.g. ``0xAA..``) sensitises intra-word
    coupling faults that solid backgrounds cannot, because a word-wide
    write drives all bits of a word simultaneously.
    """
    result = MarchResult(test.name)
    rows: List[Tuple[int, ...]] = []
    n_words = sram.config.n_words
    word_bits = sram.config.word_bits
    all_ones = (
        sram.config.word_mask if background is None
        else background & sram.config.word_mask
    )
    all_zeros = (~all_ones) & sram.config.word_mask
    sleep_index = 0

    for element_index, el in enumerate(test.elements):
        if isinstance(el, DSM):
            vddcc = vddcc_for_sleep(sleep_index) if vddcc_for_sleep else None
            sram.enter_deep_sleep(ds_time=el.ds_time, vddcc=vddcc)
            sleep_index += 1
            result.operations += 1
            continue
        if isinstance(el, WUP):
            sram.wake_up()
            result.operations += 1
            continue
        assert isinstance(el, MarchElement)
        for addr in el.order.addresses(n_words):
            for op_index, op in enumerate(el.ops):
                if op.kind == "w":
                    sram.write(addr, all_ones if op.value else all_zeros)
                else:
                    observed = sram.read(addr)
                    expected = all_ones if op.value else all_zeros
                    if observed != expected and len(rows) < max_failures:
                        diff = observed ^ expected
                        for bit in range(word_bits):
                            if (diff >> bit) & 1:
                                rows.append((
                                    element_index, op_index, addr, bit,
                                    (expected >> bit) & 1,
                                    (observed >> bit) & 1,
                                ))
                                if len(rows) >= max_failures:
                                    break
                result.operations += 1
    result.failures = FailureTable.from_rows(rows)
    return result


def run_march_vectorized(
    test: MarchTest,
    sram: LowPowerSRAM,
    vddcc_for_sleep: Optional[Callable[[int], float]] = None,
    max_failures: int = 10_000,
    background: Optional[int] = None,
) -> MarchResult:
    """Whole-array March execution: each element op is one plane operation.

    Produces a :class:`MarchResult` identical to :func:`run_march` - same
    failures in the same order (element, address-in-traversal-order, op,
    bit ascending), same operation count, same ``max_failures`` truncation
    - but runs every ``rX``/``wX`` as a single numpy pass over the
    ``(n_words, word_bits)`` bit plane and emits each element's failures
    as table columns, which is what makes 10^6-10^7-cell macros
    tractable.

    Equivalence rests on the supported fault set being *cell-local*: a
    cell's observed value depends only on its own operation history, which
    is the same sequence whether addresses advance in the inner loop
    (scalar) or the outer loop (vectorized).  The peripheral power-gating
    fault's op-order window is preserved exactly through the element
    bracket (see :mod:`repro.sram.faults`).  Memories that break the
    assumption - coupling faults, faulty address decoders - fall back to
    the scalar runner (counted under ``march.vectorized.fallbacks``).
    """
    if not sram.plane_capable:
        obs.count("march.vectorized.fallbacks")
        return run_march(test, sram, vddcc_for_sleep, max_failures, background)
    obs.count("march.vectorized.runs")

    result = MarchResult(test.name)
    tables: List[FailureTable] = []
    collected = 0
    n_words = sram.config.n_words
    word_bits = sram.config.word_bits
    ones_word = (
        sram.config.word_mask if background is None
        else background & sram.config.word_mask
    )
    zeros_word = (~ones_word) & sram.config.word_mask
    ones_plane = np.array(
        [(ones_word >> b) & 1 for b in range(word_bits)], dtype=np.uint8
    )
    zeros_plane = 1 - ones_plane
    sleep_index = 0

    for element_index, el in enumerate(test.elements):
        if isinstance(el, DSM):
            vddcc = vddcc_for_sleep(sleep_index) if vddcc_for_sleep else None
            sram.enter_deep_sleep(ds_time=el.ds_time, vddcc=vddcc)
            sleep_index += 1
            result.operations += 1
            continue
        if isinstance(el, WUP):
            sram.wake_up()
            result.operations += 1
            continue
        assert isinstance(el, MarchElement)
        descending = el.order is AddressOrder.DOWN
        for fault in sram.faults:
            fault.begin_element(n_words, len(el.ops), descending)
        # (op_index, value, mismatch plane) for every read with a miss.
        mismatches = []
        for op_index, op in enumerate(el.ops):
            expected_plane = ones_plane if op.value else zeros_plane
            if op.kind == "w":
                sram.write_all(ones_word if op.value else zeros_word)
            else:
                observed = sram.read_all()
                miss = observed != expected_plane[None, :]
                if miss.any():
                    mismatches.append((op_index, op.value, miss))
        for fault in sram.faults:
            fault.end_element()
        result.operations += n_words * len(el.ops)

        # Like the scalar runner, hitting ``max_failures`` only stops
        # *collection* - subsequent elements still execute.
        if mismatches and collected < max_failures:
            table = _element_failures(
                element_index, mismatches, descending,
                ones_plane, zeros_plane, max_failures - collected,
            )
            tables.append(table)
            collected += len(table)
    result.failures = FailureTable.concat(tables)
    return result


def _element_failures(
    element_index: int,
    mismatches: List[Tuple[int, int, np.ndarray]],
    descending: bool,
    ones_plane: np.ndarray,
    zeros_plane: np.ndarray,
    limit: int,
) -> FailureTable:
    """One element's failures in scalar order, truncated to ``limit`` rows.

    Scalar order is address in traversal order, then op index, then bit
    ascending.  Stacking the mismatch planes as ``(address, op, bit)`` -
    the address axis reversed for a descending element - makes that the
    row-major order ``np.nonzero`` already emits, so no sort is needed.
    The rows are counted first; the stack and ``np.nonzero`` then run a
    few words at a time (``_FAILURE_CHUNK`` cells) into address and bit
    columns allocated once at their final length and dtype, beside a small
    read-position column.  The element column is broadcast.
    """
    planes = [miss[::-1] if descending else miss for _op, _value, miss in mismatches]
    total = min(limit, sum(int(np.count_nonzero(plane)) for plane in planes))
    n_words, word_bits = planes[0].shape
    addr = np.empty(total, dtype=np.intp)
    bit = np.empty(total, dtype=np.int32)
    pos = np.empty(total, np.min_scalar_type(len(planes) - 1))
    words = max(1, _FAILURE_CHUNK // (len(planes) * word_bits))
    filled = 0
    for lo in range(0, n_words, words):
        if filled == total:
            break
        word, read, column = np.nonzero(
            np.stack([plane[lo:lo + words] for plane in planes], axis=1))
        take = min(len(word), total - filled)
        addr[filled:filled + take] = word[:take] + lo
        pos[filled:filled + take] = read[:take]
        bit[filled:filled + take] = column[:take]
        filled += take
    if descending:
        np.subtract(n_words - 1, addr, out=addr)
    ops = np.array([op for op, _value, _miss in mismatches], dtype=np.int32)
    values = np.array([value for _op, value, _miss in mismatches], dtype=bool)
    expect = np.where(values[:, None], ones_plane, zeros_plane)
    op_index, expected = ops[pos], expect[pos, bit]
    element = np.broadcast_to(np.int32(element_index), (total,))
    return FailureTable((element, op_index, addr, bit, expected, expected ^ 1))
