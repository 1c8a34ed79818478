"""Hold-state leakage and the flip-time retention model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cell import array_leakage_current, cell_leakage_current, flip_time, retains
from repro.cell.retention import clear_sym_leak_memo, symmetric_leakage
from repro.devices import CellVariation


class TestLeakage:
    def test_positive_and_tiny(self):
        leak = cell_leakage_current(0.77)
        assert 0 < leak < 1e-9  # picoamp-scale per cell at room temp

    def test_grows_with_voltage(self):
        v = np.linspace(0.2, 1.2, 11)
        leak = cell_leakage_current(v)
        assert np.all(np.diff(leak) > 0)

    def test_grows_steeply_with_temperature(self):
        room = cell_leakage_current(0.77, temp_c=25.0)
        hot = cell_leakage_current(0.77, temp_c=125.0)
        assert hot / room > 50

    def test_array_scaling(self):
        one = cell_leakage_current(0.7)
        array = array_leakage_current(0.7, n_cells=4096 * 64)
        assert array == pytest.approx(one * 4096 * 64, rel=1e-9)

    def test_vector_and_scalar_agree(self):
        """Exactly, with a capped supply (0.05 V) beside converged ones."""
        supplies = [0.05, 0.5, 0.7]
        vec = cell_leakage_current(np.array(supplies))
        for k, v in enumerate(supplies):
            assert cell_leakage_current(v) == vec[k]

    @pytest.mark.parametrize("v, capped", [(0.05, 1), (0.4, 0)])
    def test_hold_state_cap_is_counted_once_per_call(self, v, capped):
        """At -40 C, 0.05 V does not repeat within 24 rounds; 0.4 V does."""
        with obs.recording() as rec:
            cell_leakage_current(v, temp_c=-40.0)
        assert rec.counters.get("leakage.hold.capped", 0) == capped

    def test_asymmetric_cell_leaks_differently(self):
        sym = cell_leakage_current(0.7)
        weak = cell_leakage_current(0.7, CellVariation(mncc1=-4, mncc3=-4))
        assert weak > sym  # lower-Vth pulldown/pass leak more


class TestFlipTime:
    def test_infinite_at_or_above_drv(self):
        assert flip_time(0.7, 0.7) == math.inf
        assert flip_time(0.75, 0.7) == math.inf

    def test_zero_at_zero_supply(self):
        assert flip_time(0.0, 0.7) == 0.0
        assert flip_time(-0.1, 0.7) == 0.0

    def test_diverges_near_drv(self):
        near = flip_time(0.699, 0.7)
        far = flip_time(0.4, 0.7)
        assert near > 100 * far

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.15, 0.65))
    def test_monotone_decreasing_below_drv(self, v):
        """Monotone within the model's validity band (see retention.py).

        Below ~0.1 V the leakage collapses faster than the stored charge,
        so the C*v/I estimate turns back up - outside the band where test
        decisions are ever made (Vreg failures land well above it or at
        bulk-loss levels where the flip is immediate either way).
        """
        drv = 0.7
        lower = flip_time(max(v - 0.04, 0.01), drv)
        here = flip_time(v, drv)
        assert lower <= here * 1.0001

    def test_hot_cells_flip_faster(self):
        room = flip_time(0.5, 0.7, temp_c=25.0)
        hot = flip_time(0.5, 0.7, temp_c=125.0)
        assert hot < room / 10

    def test_paper_ds_time_discrimination(self):
        """Near-DRV cells need >= 1 ms of deep sleep to be caught."""
        drv = 0.7
        t_deep = flip_time(0.45, drv)   # well below DRV
        t_near = flip_time(0.693, drv)  # 7 mV below DRV
        assert t_deep < 1e-3            # detected within the paper's DS time
        assert t_near > 1e-4            # near-DRV flips take much longer


class TestRetains:
    def test_retains_above_drv(self):
        assert retains(0.75, 0.7, ds_time=10.0)

    def test_loses_below_drv_given_time(self):
        assert not retains(0.45, 0.7, ds_time=1e-3)

    def test_short_sleep_may_retain(self):
        v, drv = 0.693, 0.7
        needed = flip_time(v, drv)
        assert retains(v, drv, ds_time=needed / 10)
        assert not retains(v, drv, ds_time=needed * 10)


class TestSymmetricLeakage:
    """The memoised symmetric-cell leakage behind every flip time."""

    @pytest.fixture(autouse=True)
    def _cold_memo(self):
        clear_sym_leak_memo()
        yield
        clear_sym_leak_memo()

    @pytest.mark.parametrize("corner", ["typical", "fs", "sf"])
    @pytest.mark.parametrize("temp_c", [-40.0, 25.0, 125.0])
    def test_bit_exact_against_floored_solve(self, corner, temp_c):
        # 0.05 V at -40 C is the capped hold-state point.
        for v in (0.05, 0.3, 0.77):
            expected = max(
                cell_leakage_current(v, CellVariation.symmetric(), corner, temp_c),
                1e-18,
            )
            assert symmetric_leakage(v, corner, temp_c) == expected
            assert symmetric_leakage(v, corner, temp_c) == expected  # memo hit

    def test_repeat_call_hits_without_resolving(self):
        with obs.recording() as rec:
            first = symmetric_leakage(0.05, "typical", -40.0)
        assert rec.counters.get("leakage.hold.capped", 0) == 1
        assert rec.counters["memo.sym_leak.misses"] == 1
        with obs.recording() as rec:
            again = symmetric_leakage(0.05, "typical", -40)
        assert again == first
        assert rec.counters["memo.sym_leak.hits"] == 1
        assert rec.counters.get("memo.sym_leak.misses", 0) == 0
        assert rec.counters.get("leakage.hold.capped", 0) == 0

    def test_flip_time_uses_the_memo(self):
        with obs.recording() as rec:
            flip_time(0.05, 0.1, temp_c=-40.0)
            flip_time(0.05, 0.2, temp_c=-40.0)
        assert rec.counters["memo.sym_leak.misses"] == 1
        assert rec.counters["memo.sym_leak.hits"] == 1

    def test_one_solve_per_bank_escape_summary(self, monkeypatch):
        from repro.cell import retention
        from repro.sram import MacroSpec, bank_escape_summary

        calls = []
        real = retention.cell_leakage_current

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(retention, "cell_leakage_current", counting)
        bank_escape_summary(
            MacroSpec(words=16, bits=4, banks=1, seed=3), 0, vddcc=0.05,
            temp_c=-40.0, buckets=2,
        )
        assert len(calls) == 1
