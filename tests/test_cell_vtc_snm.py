"""VTC and butterfly/SNM analysis of the 6T cell."""

import numpy as np
import pytest

from repro.cell import DEFAULT_CELL, butterfly_curves, inverter_vtc, snm_ds
from repro.cell.snm import SnmSession
from repro.cell.vtc import HalfCellKernel, half_cell_roles, metastable_bracket, vtc_pair
from repro.devices import CORNERS, CellVariation, MosfetModel
from repro.devices.variation import CELL_TRANSISTORS

SYM = CellVariation.symmetric()


def _models(variation=SYM, corner="typical", temp=25.0):
    return DEFAULT_CELL.models(variation, corner, temp)


class TestInverterVTC:
    def test_monotone_decreasing(self):
        m = _models()
        grid = np.linspace(0, 1.1, 80)
        out = inverter_vtc(grid, 1.1, m["mpcc1"], m["mncc1"], m["mncc3"])
        assert np.all(np.diff(out) <= 1e-9)

    def test_rails(self):
        m = _models()
        out = inverter_vtc(np.array([0.0, 1.1]), 1.1, m["mpcc1"], m["mncc1"], m["mncc3"])
        assert out[0] > 1.05  # input low -> output near VDD
        assert out[1] < 0.02  # input high -> output near ground

    def test_pass_gate_leak_lowers_high_output(self):
        """At retention-level supply the grounded-BL leak drags node S down."""
        m = _models()
        vdd = 0.15
        with_pass = inverter_vtc(np.array([0.0]), vdd, m["mpcc1"], m["mncc1"], m["mncc3"])[0]
        # Replace the pass gate with a negligible-width one.
        weak_pass = DEFAULT_CELL.models(SYM)["mncc3"]
        import dataclasses
        narrow = dataclasses.replace(weak_pass.params, w=1e-12)
        from repro.devices.mosfet import MosfetModel
        no_pass = MosfetModel(narrow, weak_pass.corner, 25.0)
        without = inverter_vtc(np.array([0.0]), vdd, m["mpcc1"], m["mncc1"], no_pass)[0]
        assert with_pass < without

    def test_vtc_pair_shapes(self):
        grid = np.linspace(0, 1.1, 40)
        s_of_sb, sb_of_s = vtc_pair(grid, 1.1, _models())
        assert s_of_sb.shape == sb_of_s.shape == (40,)
        # Symmetric cell: the two curves coincide.
        assert np.allclose(s_of_sb, sb_of_s, atol=1e-6)


def _reference_vtc(v_in, vdd_cell, pullup, pulldown, pass_gate):
    """The 44-step bisection with three ``ids_value`` calls per step."""
    v_in = np.asarray(v_in, dtype=float)
    vdd_cell = np.asarray(vdd_cell, dtype=float)
    shape = np.broadcast_shapes(v_in.shape, vdd_cell.shape)
    lo = np.zeros(shape)
    hi = np.broadcast_to(vdd_cell, shape).astype(float, copy=True)
    for _ in range(44):
        mid = 0.5 * (lo + hi)
        residual = (
            pulldown.ids_value(v_in, mid, 0.0)
            + pass_gate.ids_value(0.0, mid, 0.0)
            + pullup.ids_value(v_in, mid, vdd_cell)
        )
        too_high = residual > 0.0
        hi = np.where(too_high, mid, hi)
        lo = np.where(too_high, lo, mid)
    return 0.5 * (lo + hi)


class TestInverterVTCExactness:
    """``inverter_vtc`` is the three-``ids_value`` bisection, bit for bit."""

    @pytest.mark.parametrize("corner", ["typical", "fs", "sf"])
    @pytest.mark.parametrize("temp", [-40.0, 25.0, 125.0])
    @pytest.mark.parametrize(
        "variation", [SYM, CellVariation(mpcc1=-3, mncc1=-3)], ids=["sym", "cs2"]
    )
    def test_matches_reference_bisection(self, corner, temp, variation):
        m = _models(variation, corner, temp)
        grid = np.linspace(0.0, 1.1, 23)
        supplies = np.array([0.0, 0.05, 0.3, 1.1])[:, None]
        for half in (("mpcc1", "mncc1", "mncc3"), ("mpcc2", "mncc2", "mncc4")):
            devices = [m[name] for name in half]
            for v_in, vdd in ((0.2, 0.4), (grid, 0.6), (grid, supplies)):
                got = inverter_vtc(v_in, vdd, *devices)
                assert np.array_equal(got, _reference_vtc(v_in, vdd, *devices))
            # Dense inputs across the switching point, one row per supply:
            # there the residual is flattest, so a last-bit change in its
            # sum is most likely to flip a bisection decision.
            rails = np.array([0.3, 1.1])[:, None]
            coarse = np.linspace(0.0, 1.0, 101) * rails
            out = _reference_vtc(coarse, rails, *devices)
            i = np.argmax(out < 0.5 * rails, axis=1)
            rows = np.arange(len(rails))
            band = np.linspace(coarse[rows, i - 1], coarse[rows, i], 1001, axis=1)
            got = inverter_vtc(band, rails, *devices)
            assert np.array_equal(got, _reference_vtc(band, rails, *devices))

    def test_negative_supply_rejected(self):
        m = _models()
        devices = (m["mpcc1"], m["mncc1"], m["mncc3"])
        with pytest.raises(ValueError, match="negative cell supply"):
            inverter_vtc(np.array([0.0, -0.1]), -0.2, *devices)
        with pytest.raises(ValueError, match="negative cell supply"):
            inverter_vtc(np.array([0.0, 0.1]), np.array([[0.5], [-1e-12]]), *devices)


def _reference_residual(v_in, v_out, vdd_cell, pullup, pulldown, pass_gate):
    """The KCL residual as three ``ids_value`` calls, summed down + pass + up."""
    return (
        pulldown.ids_value(v_in, v_out, 0.0)
        + pass_gate.ids_value(0.0, v_out, 0.0)
        + pullup.ids_value(v_in, v_out, vdd_cell)
    )


def _same_bytes(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


HALVES = (("mpcc1", "mncc1", "mncc3"), ("mpcc2", "mncc2", "mncc4"))


class TestHalfCellKernel:
    """The stacked ``(3, ...)`` residual is the three-``ids_value`` sum, byte for byte."""

    @pytest.mark.parametrize("corner", sorted(CORNERS))
    @pytest.mark.parametrize("temp", [-40.0, 25.0, 125.0])
    def test_residual_matches_three_ids_value(self, corner, temp):
        rng = np.random.default_rng([sorted(CORNERS).index(corner), int(temp) + 40])
        m = _models(CellVariation(*rng.normal(0.0, 2.0, len(CELL_TRANSISTORS))), corner, temp)
        for half in HALVES:
            devices = [m[name] for name in half]
            # 0-d, 1-D, and a (V, G) grid against (V, 1) supplies with a 0 V row.
            vdd = float(rng.uniform(0.0, 1.2))
            supplies = np.concatenate([[0.0], rng.uniform(0.0, 1.2, 4)])[:, None]
            cases = [
                (rng.uniform(0.0, vdd), rng.uniform(0.0, vdd), vdd),
                (rng.uniform(0.0, vdd, 9), rng.uniform(0.0, vdd, 9), vdd),
                (rng.uniform(0.0, 1.0, (5, 7)) * supplies,
                 rng.uniform(0.0, 1.0, (5, 7)) * supplies, supplies),
            ]
            # The bracket ends: v_out at 0 and at the supply exactly.
            cases.append((rng.uniform(0.0, vdd, 4), np.array([0.0, vdd, 0.0, vdd]), vdd))
            for v_in, v_out, supply in cases:
                ndim = np.broadcast(v_in, supply).ndim
                kernel = HalfCellKernel(half_cell_roles(*devices, ndim), v_in, supply)
                got = kernel.residual(np.asarray(v_out, dtype=float))
                assert _same_bytes(got, _reference_residual(v_in, v_out, supply, *devices))

    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_stacked_rows_and_flat_points(self, corner):
        """``(2k, G)`` rows with per-row parameters, then gathered flat points."""
        rng = np.random.default_rng(sorted(CORNERS).index(corner))
        temps = [-40.0, 25.0, 125.0]
        cells = [
            _models(CellVariation(*rng.normal(0.0, 2.0, len(CELL_TRANSISTORS))), corner, t)
            for t in temps
        ]
        rows = [(cell, half) for half in HALVES for cell in cells]
        vdd = rng.uniform(0.05, 1.2, len(rows))[:, None]
        v_in = rng.uniform(0.0, 1.0, (len(rows), 16)) * vdd
        v_out = rng.uniform(0.0, 1.0, v_in.shape) * vdd
        pullup, pulldown, pass_gate = (
            MosfetModel.stack([cell[half[role]] for cell, half in rows]) for role in range(3)
        )
        kernel = HalfCellKernel(half_cell_roles(pullup, pulldown, pass_gate, 2), v_in, vdd)
        full = kernel.residual(v_out).copy()
        for r, (cell, half) in enumerate(rows):
            reference = _reference_residual(v_in[r], v_out[r], vdd[r], *(cell[n] for n in half))
            assert _same_bytes(full[r], reference)
        flat = np.sort(rng.choice(v_in.size, v_in.size // 3, replace=False))
        taken = kernel.take(flat)
        assert _same_bytes(taken.residual(v_out.ravel()[flat]), full.ravel()[flat])
        # A take of a take, in another order: points never mix.
        again = rng.permutation(len(flat))[: len(flat) // 2]
        assert _same_bytes(
            taken.take(again).residual(v_out.ravel()[flat[again]]), full.ravel()[flat[again]]
        )


class TestSupplyErrors:
    """A negative supply is reported by the entry point that was given it."""

    def test_each_caller_names_itself(self):
        m = _models()
        with pytest.raises(ValueError, match="^SnmSession: negative cell supply"):
            SnmSession([(SYM, "typical", 25.0)]).snm(-0.1)
        with pytest.raises(ValueError, match="^metastable_bracket: negative cell supply"):
            metastable_bracket(-0.1, m["mpcc1"], m["mncc1"], m["mncc3"])
        with pytest.raises(ValueError, match="^inverter_vtc: negative cell supply"):
            inverter_vtc(0.1, -0.1, m["mpcc1"], m["mncc1"], m["mncc3"])


class TestSNM:
    def test_symmetric_cell_equal_lobes(self):
        snm1, snm0 = snm_ds(SYM, 1.1)
        assert snm1 == pytest.approx(snm0, abs=1e-9)
        assert 0.3 < snm1 < 0.55  # healthy hold SNM at full supply

    def test_snm_shrinks_with_supply(self):
        values = [snm_ds(SYM, v)[0] for v in (1.1, 0.6, 0.3, 0.1)]
        assert values == sorted(values, reverse=True)

    def test_snm_negative_below_retention(self):
        snm1, snm0 = snm_ds(SYM, 0.03)
        assert snm1 < 0 and snm0 < 0

    def test_mirrored_variation_swaps_lobes(self):
        v = CellVariation(mpcc1=-3, mncc1=-3)
        snm1, snm0 = snm_ds(v, 0.5)
        m1, m0 = snm_ds(v.mirrored(), 0.5)
        assert snm1 == pytest.approx(m0, abs=2e-3)
        assert snm0 == pytest.approx(m1, abs=2e-3)

    def test_degrading_variation_shrinks_one_lobe(self):
        """CS2-style variation weakens stored-1 far more than stored-0."""
        base1, base0 = snm_ds(SYM, 0.5)
        v1, v0 = snm_ds(CellVariation(mpcc1=-3, mncc1=-3), 0.5)
        assert v1 < base1 - 0.02
        assert v0 >= base0 - 0.01


class TestButterfly:
    def test_curve_bounds(self):
        curves = butterfly_curves(SYM, 0.8)
        for key in ("s_a", "sb_a", "s_b", "sb_b"):
            assert np.all(curves[key] >= -1e-9)
            assert np.all(curves[key] <= 0.8 + 1e-9)

    def test_three_crossings_when_bistable(self):
        """The two VTCs cross three times (two stable + metastable)."""
        curves = butterfly_curves(SYM, 1.1, points=400)
        # Interpolate curve B onto curve A's s-grid and count sign changes.
        s = curves["s_a"]
        sb_a = curves["sb_a"]
        sb_grid = curves["sb_b"]
        s_b = curves["s_b"]
        sb_b_on_a = np.interp(s, s_b[::-1], sb_grid[::-1])
        signs = np.sign(sb_a - sb_b_on_a)
        crossings = np.count_nonzero(np.diff(signs))
        assert crossings == 3
