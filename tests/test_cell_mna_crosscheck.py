"""Cross-check: vectorised cell analysis vs the general MNA solver.

The SNM/DRV machinery uses a dedicated vectorised bisection; the hold
circuit built by :meth:`CellDesign.build_hold_circuit` runs through the
generic Newton solver.  Both must describe the same cell.
"""

import numpy as np
import pytest

from repro.cell import DEFAULT_CELL, cell_leakage_current
from repro.cell.leakage import _hold_state
from repro.cell.vtc import inverter_vtc
from repro.devices import CellVariation
from repro.spice import solve_dc
from repro.verify.tolerances import (
    COLLAPSE_SYMMETRY_ABS_V,
    LEAKAGE_REL,
    NODE_VOLTAGE_ABS_V,
)

SYM = CellVariation.symmetric()

#: Hold-state supplies: <= 0.1 V can reach the round cap, the rest repeat early.
HOLD_GRID = (0.05, 0.1, 0.2, 0.4, 0.6, 1.1)


def _hold_state_full_loop(v, models):
    """The hold-state fixed point without the early exit: always 24 rounds."""
    v = np.asarray(v, dtype=float)
    s = v.copy()
    for _ in range(24):
        sb = inverter_vtc(s, v, models["mpcc2"], models["mncc2"], models["mncc4"])
        s = inverter_vtc(sb, v, models["mpcc1"], models["mncc1"], models["mncc3"])
    return s, sb


def _solve_hold(vdd, variation=SYM, corner="typical", temp=25.0, state_high=True):
    circuit = DEFAULT_CELL.build_hold_circuit(vdd, variation, corner, temp)
    x0 = np.zeros(circuit.unknown_count())
    node = circuit.node("s" if state_high else "sb")
    x0[node - 1] = vdd
    # Default gmin (1e-12 S) injects picoamp-scale shunt currents - the same
    # order as the cell leakage under test - so tighten it here.
    return circuit, solve_dc(circuit, x0=x0, gmin=1e-16)


class TestHoldStateAgreement:
    @pytest.mark.parametrize("vdd", [1.1, 0.6, 0.3])
    def test_internal_nodes_match(self, vdd):
        models = DEFAULT_CELL.models(SYM, "typical", 25.0)
        s_vec, sb_vec = _hold_state(np.array(vdd), models)
        _c, sol = _solve_hold(vdd)
        assert sol.voltage("s") == pytest.approx(
            float(s_vec), abs=NODE_VOLTAGE_ABS_V
        )
        assert sol.voltage("sb") == pytest.approx(
            float(sb_vec), abs=NODE_VOLTAGE_ABS_V
        )

    def test_supply_current_matches_leakage_model(self):
        vdd = 0.8
        _c, sol = _solve_hold(vdd)
        mna_current = -sol.branch_current("vddc")
        model_current = cell_leakage_current(vdd)
        assert mna_current == pytest.approx(model_current, rel=LEAKAGE_REL)

    def test_bistability_in_hold(self):
        _c1, sol1 = _solve_hold(0.9, state_high=True)
        _c0, sol0 = _solve_hold(0.9, state_high=False)
        assert sol1.voltage("s") > 0.8 and sol1.voltage("sb") < 0.1
        assert sol0.voltage("sb") > 0.8 and sol0.voltage("s") < 0.1

    @pytest.mark.parametrize("temp", [-40.0, 25.0, 125.0])
    @pytest.mark.parametrize("corner", ["typical", "fs", "sf"])
    def test_early_exit_matches_the_full_round_loop(self, corner, temp):
        """Stopping at the first exact repeat returns the 24-round bits.

        The grid spans supplies where the iterate repeats within a few
        rounds and ones (<= 0.1 V) where it can run into the cap; the array
        call exits only once every element has repeated.
        """
        models = DEFAULT_CELL.models(SYM, corner, temp)
        grid = np.array(HOLD_GRID)
        ref_s, ref_sb = _hold_state_full_loop(grid, models)
        s, sb = _hold_state(grid, models)
        assert s.tobytes() == ref_s.tobytes()
        assert sb.tobytes() == ref_sb.tobytes()
        for k, vdd in enumerate(HOLD_GRID):
            s_k, sb_k = _hold_state(vdd, models)
            assert s_k.tobytes() == ref_s[k].tobytes(), vdd
            assert sb_k.tobytes() == ref_sb[k].tobytes(), vdd

    def test_monostable_below_drv(self):
        """Far below DRV for a skewed cell, both seeds land in one state."""
        variation = CellVariation.worst_case_drv1(6.0)
        vdd = 0.3  # well under this cell's DRV_DS1 (~0.6+)
        _c1, sol1 = _solve_hold(vdd, variation, state_high=True)
        _c0, sol0 = _solve_hold(vdd, variation, state_high=False)
        # Stored '1' is untenable: node S collapses regardless of the seed.
        assert sol1.voltage("s") - sol1.voltage("sb") == pytest.approx(
            sol0.voltage("s") - sol0.voltage("sb"), abs=COLLAPSE_SYMMETRY_ABS_V
        )
