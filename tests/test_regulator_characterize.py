"""Defect characterisation: min-resistance search and classification."""

import pytest

from repro import obs
from repro.devices.pvt import PVT
from repro.regulator import (
    DEFECTS,
    VrefSelect,
    classify_defect,
    min_resistance_for_drf,
    vreg_curve,
)
from repro.regulator.characterize import _R_GRID, characterize_over_grid
from repro.regulator.defects import DefectCategory
from repro.regulator.netlist import RegulatorSession
from repro.spice import ConvergenceError

HOT = PVT("fs", 1.0, 125.0)
SEL = VrefSelect.VREF74


class TestVregCurve:
    def test_monotone_degradation_for_drf_defect(self):
        values = vreg_curve(DEFECTS[1], [1e3, 1e4, 1e5, 1e6], HOT, SEL)
        assert all(a >= b - 1e-6 for a, b in zip(values, values[1:]))
        assert values[0] > 0.70
        assert values[-1] < 0.60


class TestMinResistance:
    def test_finite_for_critical_defect(self, drv_cs2):
        r = min_resistance_for_drf(DEFECTS[16], drv_cs2, HOT, SEL)
        assert r is not None and 0 < r < 1e5

    def test_threshold_brackets_failure(self, drv_cs2):
        from repro.cell.retention import retains
        from repro.regulator import solve_regulator

        r = min_resistance_for_drf(DEFECTS[1], drv_cs2, HOT, SEL)
        fail_op, _ = solve_regulator(HOT, SEL, DEFECTS[1], r * 1.1)
        pass_op, _ = solve_regulator(HOT, SEL, DEFECTS[1], r * 0.9)
        assert not retains(fail_op.vddcc, drv_cs2, 1e-3, HOT.corner, HOT.temp_c)
        assert retains(pass_op.vddcc, drv_cs2, 1e-3, HOT.corner, HOT.temp_c)

    def test_negligible_defect_returns_none(self, drv_cs2):
        assert min_resistance_for_drf(DEFECTS[14], drv_cs2, HOT, SEL) is None

    def test_power_defect_returns_none(self, drv_cs2):
        assert min_resistance_for_drf(DEFECTS[6], drv_cs2, HOT, SEL) is None

    def test_harder_scenario_needs_more_resistance(self, drv_cs2):
        """Lower DRV (CS4-like) -> larger minimal resistance (Table II)."""
        r_easy = min_resistance_for_drf(DEFECTS[1], drv_cs2, HOT, SEL)
        r_hard = min_resistance_for_drf(DEFECTS[1], 0.20, HOT, SEL)
        assert r_easy < r_hard

    def test_invalid_config_flagged_as_zero(self):
        """DRV above the tap target: the fault-free SRAM already fails."""
        r = min_resistance_for_drf(DEFECTS[1], 0.78, HOT, SEL)
        assert r == 0.0

    def test_timing_defect_routed(self, drv_cs2):
        r = min_resistance_for_drf(DEFECTS[8], drv_cs2, HOT, SEL)
        # RC thresholds land far above the DC defects' ohm-to-kiloohm range.
        assert r is not None and 1e4 < r < 5e8


def _failing_solve(monkeypatch, fails_at):
    """Make ``RegulatorSession.solve`` raise where ``fails_at(R)`` holds."""
    exact = RegulatorSession.solve

    def solve(self, resistance=0.0, *args, **kwargs):
        if fails_at(resistance):
            raise ConvergenceError(f"injected at R={resistance:g}")
        return exact(self, resistance, *args, **kwargs)

    monkeypatch.setattr(RegulatorSession, "solve", solve)


class TestSwallowedFailuresAreCounted:
    """A ConvergenceError the search absorbs still leaves a counter."""

    def test_skipped_scan_point_is_counted(self, drv_cs2, monkeypatch):
        clean = min_resistance_for_drf(DEFECTS[1], drv_cs2, HOT, SEL)
        _failing_solve(monkeypatch, lambda r: r == float(_R_GRID[0]))
        with obs.recording() as rec:
            r = min_resistance_for_drf(DEFECTS[1], drv_cs2, HOT, SEL)
        assert rec.counters["characterize.scan.skipped"] == 1
        assert "characterize.refine.truncated" not in rec.counters
        assert r == clean  # the first grid point passes; the bracket holds

    def test_truncated_refinement_is_counted(self, drv_cs2, monkeypatch):
        clean = min_resistance_for_drf(DEFECTS[1], drv_cs2, HOT, SEL)
        grid = {float(r) for r in _R_GRID}
        # Bisection midpoints are the only defect resistances off the grid
        # (R = 0 is the fault-free baseline): the first one raises.
        _failing_solve(monkeypatch, lambda r: r > 0 and r not in grid)
        with obs.recording() as rec:
            r = min_resistance_for_drf(DEFECTS[1], drv_cs2, HOT, SEL)
        assert rec.counters["characterize.refine.truncated"] == 1
        assert "characterize.scan.skipped" not in rec.counters
        assert r in grid and r >= clean  # the unrefined failing grid point


class TestCharacterizeOverGrid:
    def test_argmin_reported(self, drv_cs2):
        grid = [PVT("fs", 1.0, 25.0), PVT("fs", 1.0, 125.0)]
        result = characterize_over_grid(
            DEFECTS[16],
            drv_by_pvt=lambda pvt: drv_cs2,
            pvt_grid=grid,
            vrefsel_for=lambda pvt: SEL,
        )
        assert result.detectable
        # Hot condition needs less resistance (leakage degrades Vreg).
        assert result.pvt.temp_c == 125.0

    def test_undetectable_over_grid(self):
        result = characterize_over_grid(
            DEFECTS[14],
            drv_by_pvt=lambda pvt: 0.4,
            pvt_grid=[HOT],
            vrefsel_for=lambda pvt: SEL,
        )
        assert not result.detectable
        assert result.min_resistance is None and result.pvt is None


class TestClassification:
    """Empirical Vreg signatures against the paper's category lists.

    The full 32-defect sweep runs in the benchmarks; here a representative
    defect of each category keeps the suite fast.
    """

    @pytest.mark.parametrize(
        "defect_id, expected",
        [
            (1, DefectCategory.DRF),
            (3, DefectCategory.BOTH),
            (6, DefectCategory.POWER),
            (14, DefectCategory.NEGLIGIBLE),
            (8, DefectCategory.DRF),       # timing mechanism
            (28, DefectCategory.POWER),    # deactivation delay
            (20, DefectCategory.POWER),    # off-mode pull-up path
        ],
    )
    def test_representative_defects(self, defect_id, expected):
        assert classify_defect(DEFECTS[defect_id]) is expected
