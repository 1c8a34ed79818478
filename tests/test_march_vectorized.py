"""Vectorized March executor vs the scalar oracle.

``run_march_vectorized`` applies each march element as whole-array numpy
operations; ``run_march`` walks cells one at a time.  Because every
plane-capable fault is cell-local (its effect on a cell depends only on
that cell's own operation history), the two loop orders must produce the
*identical* failure list and operation count - bit for bit, in the same
order.  These tests enforce that equivalence across fault mixes, address
orders, backgrounds, truncation, and (via hypothesis) random fault maps
on random geometries.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.march.runner as runner_module
from repro.march import (
    CellTable,
    march_c_minus,
    march_lz,
    march_m_lz,
    mats_plus,
    run_march,
    run_march_vectorized,
)
from repro.march.dsl import AddressOrder, MarchTest, element, read, write
from repro.march.runner import FailureTable
from repro.sram import (
    ArrayRetentionEngine,
    CouplingFaultIdempotent,
    DataRetentionFault,
    LowPowerSRAM,
    PeripheralPowerGatingFault,
    SRAMConfig,
    StuckAtFault,
    TransitionFault,
)
from repro.sram.decoder import DecoderFault

CONFIG = SRAMConfig(n_words=16, word_bits=8)
COLD = 0.04  # deep-sleep VDD_CC under every weak cell's DRV


def _assert_equivalent(test, build_sram, **kwargs):
    """Run both executors on freshly-built, identical SRAMs and compare."""
    scalar = run_march(test, build_sram(), **kwargs)
    vectorized = run_march_vectorized(test, build_sram(), **kwargs)
    assert [dataclasses.astuple(f) for f in vectorized.failures] == [
        dataclasses.astuple(f) for f in scalar.failures
    ]
    assert vectorized.operations == scalar.operations
    return scalar, vectorized


def _drf_map():
    """An array-backed DRF covering several cells with mixed parameters."""
    return DataRetentionFault(
        word=[1, 1, 7, 12, 15],
        bit=[0, 5, 3, 7, 2],
        lost_value=[1, 0, 1, 1, 0],
        drv=[0.10, 0.08, 0.30, 0.12, 0.25],
        min_ds_time=[0.0, 0.0, 5e-4, 0.0, 2.0],
    )


class TestDeterministicDifferentials:
    def test_fault_free_memory_passes_both(self):
        scalar, vectorized = _assert_equivalent(
            march_m_lz(), lambda: LowPowerSRAM(CONFIG)
        )
        assert scalar.passed and vectorized.passed
        # March m-LZ is 5N+4 word operations.
        assert scalar.operations == 5 * CONFIG.n_words + 4

    @pytest.mark.parametrize(
        "make_test", [march_m_lz, march_lz, mats_plus, march_c_minus],
        ids=["m-lz", "lz", "mats+", "c-"],
    )
    def test_mixed_fault_population(self, make_test):
        """SAF + TF + PPG + a multi-cell DRF, across the test library
        (March C- exercises descending elements)."""

        def build():
            m = LowPowerSRAM(CONFIG)
            m.inject(StuckAtFault(3, 1, 1))
            m.inject(StuckAtFault(9, 6, 0))
            m.inject(TransitionFault(5, 2, rising=True))
            m.inject(TransitionFault(14, 0, rising=False))
            m.inject(PeripheralPowerGatingFault(recovery_ops=5))
            m.inject(_drf_map())
            return m

        _assert_equivalent(make_test(), build, vddcc_for_sleep=lambda i: COLD)

    @pytest.mark.parametrize("background", [None, 0xA5, 0x01, 0xFF])
    def test_data_backgrounds(self, background):
        def build():
            m = LowPowerSRAM(CONFIG)
            m.inject(StuckAtFault(0, 0, 1))
            m.inject(TransitionFault(2, 7, rising=True))
            m.inject(_drf_map())
            return m

        _assert_equivalent(
            march_m_lz(), build,
            vddcc_for_sleep=lambda i: COLD, background=background,
        )

    @pytest.mark.parametrize("recovery_ops", [0, 1, 7, 16, 40, 1000])
    def test_ppg_recovery_windows(self, recovery_ops):
        """The lost-write window can end mid-element, mid-word, or never."""

        def build():
            m = LowPowerSRAM(CONFIG)
            m.inject(PeripheralPowerGatingFault(recovery_ops=recovery_ops))
            return m

        _assert_equivalent(march_m_lz(), build, vddcc_for_sleep=lambda i: COLD)

    def test_max_failures_truncation(self):
        """Both executors cap the *collected* list at the same point while
        still executing the full test."""

        def build():
            m = LowPowerSRAM(CONFIG)
            # Every cell of four words stuck -> far more mismatches than cap.
            for addr in (2, 5, 8, 11):
                for bit in range(CONFIG.word_bits):
                    m.inject(StuckAtFault(addr, bit, 1))
            return m

        scalar, vectorized = _assert_equivalent(
            march_m_lz(), build, max_failures=7
        )
        assert len(scalar.failures) == len(vectorized.failures) == 7
        # Execution continued: full operation count despite the cap.
        assert scalar.operations == 5 * CONFIG.n_words + 4

    def test_full_stack_retention_differential(self):
        """ArrayRetentionEngine vs its own ``to_scalar()`` under March
        m-LZ: the complete vectorized stack against the complete scalar
        stack."""
        rng = np.random.default_rng(41)
        drv1 = rng.uniform(0.02, 0.20, size=(CONFIG.n_words, CONFIG.word_bits))
        drv0 = rng.uniform(0.02, 0.20, size=(CONFIG.n_words, CONFIG.word_bits))

        def engine():
            return ArrayRetentionEngine(
                drv1, drv0, corner="typical", temp_c=-40.0
            )

        scalar = run_march(
            march_m_lz(),
            LowPowerSRAM(CONFIG, retention=engine().to_scalar()),
            vddcc_for_sleep=lambda i: 0.05,
        )
        vectorized = run_march_vectorized(
            march_m_lz(),
            LowPowerSRAM(CONFIG, retention=engine()),
            vddcc_for_sleep=lambda i: 0.05,
        )
        assert [dataclasses.astuple(f) for f in vectorized.failures] == [
            dataclasses.astuple(f) for f in scalar.failures
        ]
        assert vectorized.operations == scalar.operations
        assert not vectorized.passed  # cold DRVs above 50 mV do flip


class TestFallback:
    def test_coupling_fault_falls_back_to_scalar(self):
        """Coupling faults are not plane-capable: the vectorized entry
        point must silently delegate and still match the scalar result."""

        def build():
            m = LowPowerSRAM(CONFIG)
            m.inject(CouplingFaultIdempotent(1, 0, 2, 0, victim_value=1))
            return m

        assert not build().plane_capable
        _assert_equivalent(march_c_minus(), build)

    def test_decoder_fault_falls_back_to_scalar(self):
        def build():
            m = LowPowerSRAM(CONFIG)
            m.decoder.inject(DecoderFault("wrong", addr=3, others=(4,)))
            return m

        assert not build().plane_capable
        _assert_equivalent(march_c_minus(), build)

    def test_plane_capable_memory_is_detected(self):
        m = LowPowerSRAM(CONFIG)
        m.inject(StuckAtFault(0, 0, 1))
        m.inject(_drf_map())
        m.inject(PeripheralPowerGatingFault())
        assert m.plane_capable


# --------------------------------------------------------------------------
# Satellite (b): property-based equivalence on random macro fault maps.
# --------------------------------------------------------------------------

@st.composite
def _fault_plan(draw):
    """Random geometry + random cell-local fault population + background."""
    n_words = draw(st.integers(2, 12))
    word_bits = draw(st.integers(1, 8))
    cell = st.tuples(
        st.integers(0, n_words - 1), st.integers(0, word_bits - 1)
    )

    safs = draw(st.lists(
        st.tuples(cell, st.integers(0, 1)), max_size=4, unique_by=lambda s: s[0],
    ))
    tfs = draw(st.lists(
        st.tuples(cell, st.booleans()), max_size=4, unique_by=lambda t: t[0],
    ))
    drf_cells = draw(st.lists(cell, max_size=6, unique=True))
    drf = None
    if drf_cells:
        n = len(drf_cells)
        drf = dict(
            word=[c[0] for c in drf_cells],
            bit=[c[1] for c in drf_cells],
            lost_value=draw(st.lists(
                st.integers(0, 1), min_size=n, max_size=n)),
            drv=draw(st.lists(
                st.sampled_from([0.03, 0.08, 0.15, 0.40]),
                min_size=n, max_size=n)),
            min_ds_time=draw(st.lists(
                st.sampled_from([0.0, 5e-4, 2e-3, 10.0]),
                min_size=n, max_size=n)),
        )
    ppg = draw(st.none() | st.integers(0, 3 * n_words))
    background = draw(st.none() | st.integers(0, (1 << word_bits) - 1))
    vddcc = draw(st.sampled_from([0.02, 0.06, 0.12]))
    return dict(
        n_words=n_words, word_bits=word_bits, safs=safs, tfs=tfs,
        drf=drf, ppg=ppg, background=background, vddcc=vddcc,
    )


def _build_plan_sram(plan):
    config = SRAMConfig(n_words=plan["n_words"], word_bits=plan["word_bits"])
    m = LowPowerSRAM(config)
    for (addr, bit), value in plan["safs"]:
        m.inject(StuckAtFault(addr, bit, value))
    for (addr, bit), rising in plan["tfs"]:
        m.inject(TransitionFault(addr, bit, rising=rising))
    if plan["drf"] is not None:
        m.inject(DataRetentionFault(**plan["drf"]))
    if plan["ppg"] is not None:
        m.inject(PeripheralPowerGatingFault(recovery_ops=plan["ppg"]))
    return m


class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(plan=_fault_plan())
    def test_vectorized_equals_scalar_cell_by_cell(self, plan):
        _assert_equivalent(
            march_m_lz(), lambda: _build_plan_sram(plan),
            vddcc_for_sleep=lambda i: plan["vddcc"],
            background=plan["background"],
        )


# --------------------------------------------------------------------------
# The columnar failure table behind ``MarchResult.failures``.
# --------------------------------------------------------------------------

def _assert_cells_are_list(cells, expected, data):
    """``cells`` (a :class:`CellTable`) behaves as the list ``expected``."""
    n = len(expected)
    assert isinstance(cells, CellTable)
    assert cells == expected and expected == cells
    assert not (cells != expected) and not (expected != cells)
    assert list(cells) == expected and len(cells) == n and bool(cells) == bool(n)
    assert list(zip(cells.addr.tolist(), cells.bit.tolist())) == expected
    assert not cells.addr.flags.writeable and not cells.bit.flags.writeable
    assert [cells[i] for i in range(n)] == expected
    assert [cells[-i] for i in range(1, n + 1)] == [expected[-i] for i in range(1, n + 1)]
    assert all(type(x) is int for cell in cells for x in cell)
    start = data.draw(st.integers(-n - 2, n + 2))
    stop = data.draw(st.none() | st.integers(-n - 2, n + 2))
    step = data.draw(st.sampled_from([None, 1, 2, -1, -3]))
    assert cells[start:stop:step] == expected[start:stop:step]
    assert list(cells[start:stop:step]) == expected[start:stop:step]
    with pytest.raises(IndexError):
        cells[n]
    with pytest.raises(IndexError):
        cells[-n - 1]
    present = set(expected)
    for cell in expected:
        assert cell in cells
    for probe in data.draw(st.lists(st.tuples(st.integers(-1, 40), st.integers(-1, 9)),
                                    max_size=8)):
        assert (probe in cells) == (probe in present)
    for other in ([(0, 0)], expected + [(10**6, 0)], expected[1:]):
        if other != expected:
            assert cells != other and other != cells
    assert [1, 2] not in cells and "x" not in cells and (1, 2, 3) not in cells


class TestFailureTable:
    @settings(max_examples=40, deadline=None)
    @given(plan=_fault_plan(), max_failures=st.integers(1, 60), data=st.data())
    def test_table_behaves_as_its_list(self, plan, max_failures, data):
        for runner in (run_march, run_march_vectorized):
            result = runner(
                march_c_minus(), _build_plan_sram(plan),
                vddcc_for_sleep=lambda i: plan["vddcc"],
                max_failures=max_failures, background=plan["background"],
            )
            table = result.failures
            rows = list(table)
            assert result.failing_cells() == sorted(
                {(f.addr, f.bit) for f in table}
            )
            assert len(table) == len(rows) <= max_failures
            assert bool(table) == bool(rows) == result.detected
            assert [table[i] for i in range(len(rows))] == rows
            assert [table[-i] for i in range(1, len(rows) + 1)] == [
                rows[-i] for i in range(1, len(rows) + 1)
            ]
            start = data.draw(st.integers(-len(rows) - 2, len(rows) + 2))
            stop = data.draw(st.none() | st.integers(-len(rows) - 2, len(rows) + 2))
            step = data.draw(st.sampled_from([None, 1, 2, -1, -3]))
            assert list(table[start:stop:step]) == rows[start:stop:step]
            with pytest.raises(IndexError):
                table[len(rows)]
            with pytest.raises(IndexError):
                table[-len(rows) - 1]

    @settings(max_examples=40, deadline=None)
    @given(plan=_fault_plan(), max_failures=st.integers(1, 60), data=st.data())
    def test_cells_behave_as_their_sorted_list(self, plan, max_failures, data):
        for runner in (run_march, run_march_vectorized):
            result = runner(
                march_c_minus(), _build_plan_sram(plan),
                vddcc_for_sleep=lambda i: plan["vddcc"],
                max_failures=max_failures, background=plan["background"],
            )
            _assert_cells_are_list(
                result.failing_cells(),
                sorted({(r.addr, r.bit) for r in result.failures}),
                data,
            )

    def test_empty_cells(self):
        cells = run_march_vectorized(march_m_lz(), LowPowerSRAM(CONFIG)).failing_cells()
        assert isinstance(cells, CellTable)
        assert len(cells) == 0 and not cells and list(cells) == [] == cells
        assert cells[:3] == [] and (0, 0) not in cells
        assert cells.addr.dtype == cells.bit.dtype == np.int64
        with pytest.raises(IndexError):
            cells[0]

    def test_empty_table(self):
        result = run_march_vectorized(march_m_lz(), LowPowerSRAM(CONFIG))
        assert len(result.failures) == 0 and not result.failures
        assert list(result.failures) == [] and list(result.failures[:5]) == []
        assert result.failing_cells() == []

    @pytest.mark.parametrize("max_failures", range(1, 15))
    def test_truncation_inside_a_descending_element(self, max_failures):
        """Caps that fall between words, between ops of one word and
        between bits of one op, all inside one ``⇓`` element."""
        test = MarchTest("down", (
            element(AddressOrder.ANY, write(0)),
            element(AddressOrder.DOWN, read(0), write(1), read(1)),
        ))

        def build():
            m = LowPowerSRAM(CONFIG)
            for addr, bit, value in [(3, 0, 1), (3, 2, 1), (3, 5, 0),
                                     (9, 1, 1), (9, 4, 1), (9, 6, 0),
                                     (12, 7, 0), (12, 3, 1)]:
                m.inject(StuckAtFault(addr, bit, value))
            m.inject(TransitionFault(9, 2, rising=True))
            return m

        scalar, vectorized = _assert_equivalent(
            test, build, max_failures=max_failures
        )
        assert len(vectorized.failures) == min(max_failures, 9)
        assert vectorized.failures[0].addr == 12  # descending traversal


# --------------------------------------------------------------------------
# Failure extraction a few words at a time (``runner._FAILURE_CHUNK``).
# --------------------------------------------------------------------------

def _stuck_words(words, value=1, config=CONFIG):
    """Every bit of ``words`` stuck at ``value``: one mismatch per bit."""

    def build():
        m = LowPowerSRAM(config)
        for addr in words:
            for bit in range(config.word_bits):
                m.inject(StuckAtFault(addr, bit, value))
        return m

    return build


def _assert_tables_equal(test, build, **kwargs):
    """The vectorized table equals the scalar one, row for row and in every
    column dtype."""
    scalar, vectorized = _assert_equivalent(test, build, **kwargs)
    assert vectorized.failures == scalar.failures
    for table in (scalar.failures, vectorized.failures):
        assert [col.dtype for col in table._columns] == [
            np.dtype(dtype) for dtype in runner_module._COLUMN_DTYPES
        ]
    return vectorized.failures


class TestChunkedFailureExtraction:
    """``_element_failures`` counts the rows, then fills its columns chunk
    by chunk; chunks of 1 to 3 words, and one chunk for the whole plane,
    must all give ``run_march``'s table."""

    @pytest.fixture(params=[8, 16, 24, 1 << 16], ids=lambda c: f"chunk{c}")
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(runner_module, "_FAILURE_CHUNK", request.param)
        return request.param

    @pytest.mark.parametrize("order", [AddressOrder.UP, AddressOrder.DOWN])
    def test_read_elements_in_both_orders(self, chunk, order):
        test = MarchTest("one read", (
            element(AddressOrder.ANY, write(0)),
            element(order, read(0), write(1)),
            element(order, read(1)),
        ))

        def build():
            m = LowPowerSRAM(CONFIG)
            for addr, bit, value in [(0, 3, 1), (2, 0, 0), (2, 7, 1), (5, 1, 0),
                                     (6, 4, 1), (13, 2, 0), (15, 6, 1)]:
                m.inject(StuckAtFault(addr, bit, value))
            return m

        table = _assert_tables_equal(test, build)
        assert len(table) == 7
        addrs = [row.addr for row in table if row.element_index == 1]
        assert addrs == sorted(addrs, reverse=order is AddressOrder.DOWN)

    @pytest.mark.parametrize("max_failures", [1, 12, 15, 16, 17, 32, 40, 48, 100])
    def test_max_failures_mid_chunk_and_at_chunk_edges(self, monkeypatch, max_failures):
        """Two-word chunks of 16 rows each: caps land mid-chunk (12, 15,
        17, 40), on a chunk edge (16, 32), at the element's last row (48)
        and beyond it."""
        monkeypatch.setattr(runner_module, "_FAILURE_CHUNK", 2 * CONFIG.word_bits)
        test = MarchTest("w0 r0", (
            element(AddressOrder.ANY, write(0)),
            element(AddressOrder.UP, read(0)),
        ))
        table = _assert_tables_equal(
            test, _stuck_words(range(6)), max_failures=max_failures
        )
        assert len(table) == min(max_failures, 48)

    @pytest.mark.parametrize("order", [AddressOrder.UP, AddressOrder.DOWN])
    @pytest.mark.parametrize("max_failures", [5, 9, 10_000])
    def test_two_mismatching_reads_stack(self, chunk, order, max_failures):
        """Two reads of one element both miss: the planes are stacked as
        ``(address, op, bit)``, and each row's op and expected value come
        from its read."""
        test = MarchTest("r0 r0 w1 r1", (
            element(AddressOrder.ANY, write(0)),
            element(order, read(0), read(0), write(1), read(1)),
        ))

        def build():
            m = LowPowerSRAM(CONFIG)
            for addr, bit, value in [(1, 2, 1), (4, 0, 1), (4, 5, 0), (11, 7, 0)]:
                m.inject(StuckAtFault(addr, bit, value))
            return m

        table = _assert_tables_equal(test, build, max_failures=max_failures)
        assert len(table) == min(max_failures, 6)
        if max_failures > 6:
            assert {row.op_index for row in table} == {0, 1, 3}
            assert {(row.expected, row.observed) for row in table} == {(0, 1), (1, 0)}

    def test_no_failures(self, chunk):
        table = _assert_tables_equal(march_m_lz(), lambda: LowPowerSRAM(CONFIG))
        assert len(table) == 0

    def test_concat_of_one_table_is_that_table(self):
        table = run_march_vectorized(
            march_m_lz(), _stuck_words([3, 9])(), max_failures=1000
        ).failures
        assert FailureTable.concat([table]) is table
        assert FailureTable.concat([table]) == table
        assert FailureTable.concat([table, table]) == list(table) + list(table)
        assert FailureTable.concat([]) == []
