"""Hold-state leakage and the flip-time retention model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cell import (
    DEFAULT_CELL,
    array_leakage_current,
    cell_leakage_current,
    flip_time,
    retains,
    retention,
)
from repro.cell.leakage import _hold_state, supply_current
from repro.cell.retention import C_NODE, clear_sym_leak_memo, symmetric_leakage
from repro.cell.vtc import inverter_vtc, metastable_bracket
from repro.devices import CellVariation
from repro.verify.artifacts import build_payload, scope_for
from repro.verify.goldens import default_goldens_dir, load_golden


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


class TestRetentionInputs:
    """A NaN DRV or deep-sleep time raises instead of reading as a DRF."""

    def test_nan_drv_raises(self):
        with pytest.raises(ValueError, match="DRV"):
            retains(0.3, math.nan, 1e-3)
        with pytest.raises(ValueError, match="DRV"):
            flip_time(0.3, math.nan)

    @pytest.mark.parametrize("ds_time", [math.nan, -1e-3])
    def test_nan_or_negative_ds_time_raises(self, ds_time):
        with pytest.raises(ValueError, match="deep-sleep"):
            retains(0.3, 0.4, ds_time)

    def test_zero_ds_time_retains(self):
        clear_sym_leak_memo()
        with obs.recording() as rec:
            assert retains(0.3, 0.4, 0.0)  # settled by the box: no division by 0
        assert rec.counters["retention.certified"] == 1
        assert retains(0.3, 0.4, 0.0) == (0.0 < flip_time(0.3, 0.4))


#: (corner, temp_c) points for the certified-decision tests.
PVTS = (("fs", 125.0), ("typical", 25.0), ("sf", -40.0))


def _exact_retains(v, drv, ds_time, corner, temp_c):
    """The decision by definition: one full hold-state solve, no memo."""
    if v >= drv:
        return True
    leak = max(cell_leakage_current(v, CellVariation.symmetric(), corner, temp_c), 1e-18)
    return ds_time < C_NODE * v / (leak * (1.0 - v / drv))


def _rounds(v, models):
    """Every non-repeating round's state, then the state ``_hold_state`` returns."""
    seen = []
    final = _hold_state(v, models, lambda s, sb: seen.append((float(s), float(sb))))
    return seen, tuple(float(x) for x in final)


class TestCertifiedRetention:
    """``retains`` settled from the hold-state box gives the exact booleans."""

    @pytest.fixture(autouse=True)
    def _cold_memo(self):
        clear_sym_leak_memo()
        yield
        clear_sym_leak_memo()

    @pytest.mark.parametrize("corner, temp_c", PVTS + (("typical", -40.0),))
    def test_symmetric_halves_have_the_same_vtc(self, corner, temp_c):
        """The box needs one g for both halves: equal bits, not just values."""
        m = DEFAULT_CELL.models(CellVariation.symmetric(), corner, temp_c)
        grid = np.linspace(0.0, 1.1, 221)
        supplies = np.array([[0.05], [0.16], [0.3], [0.7], [1.1]])
        for vdd in (0.12, 0.4, supplies):
            v_in = np.minimum(grid, vdd)
            one = inverter_vtc(v_in, vdd, m["mpcc1"], m["mncc1"], m["mncc3"])
            two = inverter_vtc(v_in, vdd, m["mpcc2"], m["mncc2"], m["mncc4"])
            assert one.tobytes() == two.tobytes()

    def test_every_later_state_lies_in_the_box(self):
        """fs/125 C: capped supplies beside fast-converging ones."""
        m = DEFAULT_CELL.models(CellVariation.symmetric(), "fs", 125.0)
        capped = 0
        for v in (0.12, 0.14, 0.16, 0.18, 0.3, 0.4, 0.5, 0.6, 0.7):
            with obs.recording() as rec:
                seen, final = _rounds(v, m)
            capped += rec.counters.get("leakage.hold.capped", 0)
            vm_lo, vm_hi = (float(x) for x in metastable_bracket(v, m["mpcc1"], m["mncc1"], m["mncc3"]))
            exact = max(cell_leakage_current(v, CellVariation.symmetric(), "fs", 125.0), 1e-18)
            assert exact == max(float(supply_current(m, *final, v)), 1e-18)
            assert seen, v
            for k, (s_k, sb_k) in enumerate(seen):
                for s, sb in seen[k:] + [final]:
                    assert vm_lo <= s <= s_k and sb_k <= sb <= vm_hi, (v, k)
                leak_lo, leak_hi = retention._leak_bounds(m, v, s_k, sb_k, vm_lo, vm_hi)
                assert leak_lo <= exact <= leak_hi, (v, k)
        assert capped >= 2  # 0.16 and 0.18 V run into the round cap

    @staticmethod
    def _triples(corner, temp_c, rng):
        """Seeded random (v, drv, ds) plus pairs straddling the exact boundary."""
        out = []
        for _ in range(16):
            v = float(rng.uniform(0.02, 0.6))
            drv = v + float(rng.uniform(-0.05, 0.4))
            out.append((v, drv, float(10.0 ** rng.uniform(-12.0, 1.0))))
        for _ in range(2):
            drv = float(rng.uniform(0.3, 0.7))
            ds_time = float(10.0 ** rng.uniform(-5.0, -2.0))
            lo, hi = 0.1 * drv, drv  # flips at lo, retains just under drv
            if _exact_retains(lo, drv, ds_time, corner, temp_c):
                continue
            for _ in range(20):
                mid = 0.5 * (lo + hi)
                if _exact_retains(mid, drv, ds_time, corner, temp_c):
                    hi = mid
                else:
                    lo = mid
            out += [(lo, drv, ds_time), (hi, drv, ds_time)]
        return out

    @pytest.mark.parametrize("margin", [2.0, 1e9, 1.0001])
    @pytest.mark.parametrize("corner, temp_c", PVTS)
    def test_matches_the_exact_predicate(self, monkeypatch, corner, temp_c, margin):
        monkeypatch.setattr(retention, "_CERTIFY_MARGIN", margin)
        rng = np.random.default_rng(20 + PVTS.index((corner, temp_c)))
        cases = self._triples(corner, temp_c, rng)
        with obs.recording() as rec:
            for v, drv, ds_time in cases:
                clear_sym_leak_memo()
                expected = _exact_retains(v, drv, ds_time, corner, temp_c)
                assert retains(v, drv, ds_time, corner, temp_c) == expected, (v, drv, ds_time)
        certified = rec.counters.get("retention.certified", 0)
        exact = rec.counters.get("retention.exact", 0)
        assert certified + exact == sum(v < drv for v, drv, _ in cases)
        assert exact >= 2  # the boundary pairs are close calls at any margin
        if margin == 1e9:
            assert certified == 0
        else:
            assert certified >= 5

    @pytest.mark.parametrize("corner, temp_c", PVTS)
    def test_decisions_at_one_supply_reuse_the_bounds(self, monkeypatch, corner, temp_c):
        """Many weak cells at one sleep: settled bounds answer later calls
        without a solve, and a call they cannot settle still decides exactly."""
        rng = np.random.default_rng(40 + PVTS.index((corner, temp_c)))
        solves = []
        real = retention.hold_leakage

        def counting(*args, **kwargs):
            solves.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(retention, "hold_leakage", counting)
        decisions = 0
        for v in (0.16, 0.3):
            for _ in range(12):
                drv = v + float(rng.uniform(0.001, 0.4))
                ds_time = float(10.0 ** rng.uniform(-9.0, 0.0))
                expected = _exact_retains(v, drv, ds_time, corner, temp_c)
                assert retains(v, drv, ds_time, corner, temp_c) == expected, (v, drv, ds_time)
                decisions += 1
        assert len(solves) < decisions / 2

    def test_fallback_memoises_the_symmetric_leakage_bits(self):
        v, drv = 0.16, 0.3
        leak = max(cell_leakage_current(v, CellVariation.symmetric(), "fs", 125.0), 1e-18)
        ds_time = C_NODE * v / (leak * (1.0 - v / drv))  # exactly at the boundary
        with obs.recording() as rec:
            assert not retains(v, drv, ds_time, "fs", 125.0)
        assert rec.counters["retention.exact"] == 1
        memo = retention._SYM_LEAK_MEMO[(v, "fs", 125.0, DEFAULT_CELL)]
        clear_sym_leak_memo()
        assert np.float64(memo).tobytes() == np.float64(symmetric_leakage(v, "fs", 125.0)).tobytes()
        assert memo == leak

    def test_memo_hit_counts_as_neither(self):
        symmetric_leakage(0.3)
        with obs.recording() as rec:
            retains(0.3, 0.4, 1e-3)
        assert "retention.certified" not in rec.counters
        assert "retention.exact" not in rec.counters


def test_tiny_table2_counts_each_leakage_decision_once(monkeypatch):
    """Every memo-miss decision below DRV is certified or exact, and few solves cap."""
    from repro.regulator import characterize

    clear_sym_leak_memo()
    needing = []
    real = characterize.retains

    def spying(v, drv, ds_time, corner, temp_c, cell):
        if 0.0 < v < drv and (float(v), corner, float(temp_c), cell) not in retention._SYM_LEAK_MEMO:
            needing.append(v)
        return real(v, drv, ds_time, corner, temp_c, cell)

    monkeypatch.setattr(characterize, "retains", spying)
    with obs.recording() as rec:
        payload = build_payload("table2", scope_for("tiny"))
    clear_sym_leak_memo()
    assert payload == load_golden(default_goldens_dir(), "tiny", "table2")["payload"]
    certified = rec.counters.get("retention.certified", 0)
    exact = rec.counters.get("retention.exact", 0)
    assert certified + exact == len(needing)
    assert certified > 0 and exact > 0
    assert rec.counters.get("leakage.hold.capped", 0) <= 1
