"""EKV MOSFET model: regimes, derivatives, temperature, corners."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.devices import CORNERS, MosfetModel, nmos_params, pmos_params

TT = CORNERS["typical"]


def _nmos(temp_c=25.0, corner=TT, **over):
    return MosfetModel(nmos_params("mn", 200e-9, **over), corner, temp_c)


def _pmos(temp_c=25.0, corner=TT, **over):
    return MosfetModel(pmos_params("mp", 200e-9, **over), corner, temp_c)


class TestParamValidation:
    def test_polarity_checked(self):
        with pytest.raises(ValueError, match="polarity"):
            nmos_params("x", 1e-7).__class__(
                name="x", polarity="z", w=1e-7, l=4e-8
            )

    def test_geometry_checked(self):
        with pytest.raises(ValueError, match="positive"):
            nmos_params("x", -1e-7)

    def test_vth_offset(self):
        p = nmos_params("x", 1e-7)
        assert p.with_vth_offset(-0.1).vth == pytest.approx(p.vth - 0.1)

    def test_width_scaling(self):
        p = nmos_params("x", 1e-7)
        assert p.scaled(3.0).w == pytest.approx(3e-7)


class TestOperatingRegimes:
    def test_saturation_square_law(self):
        m = _nmos()
        i1 = m.ids_value(0.9, 1.1, 0.0)
        i2 = m.ids_value(1.1, 1.1, 0.0)
        # Stronger gate drive, more current; rough square-law growth.
        ratio = i2 / i1
        expected = ((1.1 - m.vth_eff) / (0.9 - m.vth_eff)) ** 2
        assert ratio == pytest.approx(expected, rel=0.25)

    def test_subthreshold_exponential(self):
        m = _nmos()
        i1 = m.ids_value(0.20, 1.1, 0.0)
        i2 = m.ids_value(0.30, 1.1, 0.0)
        # One subthreshold slope-factor decade step.
        expected = np.exp(0.1 / (m.n * m.phi_t))
        assert i2 / i1 == pytest.approx(expected, rel=0.12)

    def test_off_leakage_positive(self):
        m = _nmos()
        leak = m.ids_value(0.0, 1.1, 0.0)
        assert 0 < leak < 1e-9

    def test_zero_vds_zero_current(self):
        m = _nmos()
        assert m.ids_value(1.0, 0.5, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_drain_source_antisymmetry(self):
        m = _nmos()
        forward = m.ids_value(0.8, 0.6, 0.2)
        reverse = m.ids_value(0.8, 0.2, 0.6)
        # Swapping drain and source flips sign; CLM breaks exactness mildly.
        assert reverse == pytest.approx(-forward, rel=0.2)
        assert reverse < 0

    def test_pmos_mirrors_nmos(self):
        mn, mp = _nmos(), _pmos()
        i_n = mn.ids_value(1.1, 1.1, 0.0)
        # PMOS biased complementarily: gate 0, drain 0, source 1.1.
        i_p = mp.ids_value(0.0, 0.0, 1.1)
        assert i_p < 0  # conducts source -> drain
        # kp ratio ~2.5 between the default cards.
        assert abs(i_p) == pytest.approx(i_n * 120 / 300, rel=0.15)


class TestDerivatives:
    @settings(max_examples=60, deadline=None)
    @given(
        vg=st.floats(0.0, 1.2),
        vd=st.floats(0.0, 1.2),
        vs=st.floats(0.0, 1.2),
        polarity=st.sampled_from(["n", "p"]),
    )
    def test_analytic_matches_numeric(self, vg, vd, vs, polarity):
        m = _nmos() if polarity == "n" else _pmos()
        i, gg, gd, gs = m.ids(vg, vd, vs)
        h = 1e-7

        def num(f_plus, f_minus):
            return (f_plus - f_minus) / (2 * h)

        gg_n = num(m.ids(vg + h, vd, vs)[0], m.ids(vg - h, vd, vs)[0])
        gd_n = num(m.ids(vg, vd + h, vs)[0], m.ids(vg, vd - h, vs)[0])
        gs_n = num(m.ids(vg, vd, vs + h)[0], m.ids(vg, vd, vs - h)[0])
        scale = max(abs(gg_n), abs(gd_n), abs(gs_n), 1e-12)
        assert gg == pytest.approx(gg_n, abs=2e-4 * scale + 1e-13)
        assert gd == pytest.approx(gd_n, abs=2e-4 * scale + 1e-13)
        assert gs == pytest.approx(gs_n, abs=2e-4 * scale + 1e-13)

    @settings(max_examples=200, deadline=None)
    @given(
        vg=st.floats(-0.2, 1.4),
        vd=st.floats(-0.2, 1.4),
        vs=st.floats(-0.2, 1.4),
        polarity=st.sampled_from(["n", "p"]),
    )
    @example(vg=0.8, vd=0.2, vs=0.6, polarity="n")  # vd < vs: swapped terminals
    @example(vg=0.3, vd=0.2, vs=1.1, polarity="p")
    def test_value_is_the_ids_current_bit_for_bit(self, vg, vd, vs, polarity):
        """``ids_value`` stops at the current ``ids`` computes with partials."""
        m = _nmos() if polarity == "n" else _pmos()
        assert m.ids_value(vg, vd, vs) == m.ids(vg, vd, vs)[0]

    def test_terminal_derivative_sum_zero(self):
        """KCL: shifting all terminals together changes nothing."""
        m = _nmos()
        _i, gg, gd, gs = m.ids(0.7, 0.4, 0.1)
        assert gg + gd + gs == pytest.approx(0.0, abs=1e-9)


def _drain_side(vs, d, polarity):
    """A drain voltage ``d`` away from ``vs`` on the device's drain side."""
    return vs + d if polarity == "n" else vs - d


def _role_sweep(m, vg, vs, ndim):
    """``vd ->`` drain current as the VTC kernel forms it for one role.

    ``m`` is one role of a :meth:`MosfetModel.stack_roles` stack over
    ``ndim``-axis points; the gate half is formed once.  NMOS: ``vgs = vg -
    vs``, ``vds = vd - vs``; PMOS: ``vgs = vs - vg``, ``vds = vs - vd`` (the
    negated terminals) and the current negated.
    """
    pmos = m.params.polarity == "p"
    role = MosfetModel.stack_roles([m], ndim)
    vg = np.asarray(vg, dtype=float)
    vs = np.asarray(vs, dtype=float)
    a, _, _, f_f = role._gate_half(np.expand_dims(vs - vg if pmos else vg - vs, 0))

    def at(vd):
        vd = np.asarray(vd, dtype=float)
        vds = np.expand_dims(vs - vd if pmos else vd - vs, 0)
        *_, clm, base = role._drain_half(a, f_f, vds)
        current = (base * clm)[0]
        return -current if pmos else current

    return at


class TestDrainSweep:
    """The VTC kernel's per-role current is ``ids_value(vg, vd, vs)`` bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        vg=st.floats(-0.2, 1.4),
        vs=st.floats(-0.2, 1.4),
        d=st.floats(0.0, 1.4),
        polarity=st.sampled_from(["n", "p"]),
    )
    @example(vg=0.8, vs=0.3, d=0.0, polarity="n")  # vd == vs
    @example(vg=0.3, vs=1.1, d=0.0, polarity="p")
    def test_scalar(self, vg, vs, d, polarity):
        m = _nmos() if polarity == "n" else _pmos()
        vd = _drain_side(vs, d, polarity)
        got = _role_sweep(m, vg, vs, 0)(vd)
        assert got.shape == ()
        assert got == m.ids_value(vg, vd, vs)

    @settings(max_examples=100, deadline=None)
    @given(
        vg=st.floats(-0.2, 1.4),
        vs=st.floats(-0.2, 1.4),
        ds=st.lists(st.floats(0.0, 1.4), min_size=1, max_size=8),
        polarity=st.sampled_from(["n", "p"]),
    )
    def test_one_dimensional(self, vg, vs, ds, polarity):
        m = _nmos() if polarity == "n" else _pmos()
        vd = _drain_side(vs, np.array(ds + [0.0]), polarity)
        sweep = _role_sweep(m, vg, vs, 1)
        assert np.array_equal(sweep(vd), m.ids_value(vg, vd, vs))
        # The gate half is reused across calls: a second sweep step agrees too.
        assert np.array_equal(sweep(vd[::-1]), m.ids_value(vg, vd[::-1], vs))

    @settings(max_examples=100, deadline=None)
    @given(
        vgs=st.lists(st.floats(-0.2, 1.4), min_size=1, max_size=6),
        vss=st.lists(st.floats(0.0, 1.4), min_size=1, max_size=4),
        frac=st.floats(0.0, 1.0),
        polarity=st.sampled_from(["n", "p"]),
    )
    def test_column_against_row_broadcast(self, vgs, vss, frac, polarity):
        """A ``(V, 1)`` source column against a ``(G,)`` gate row."""
        m = _nmos() if polarity == "n" else _pmos()
        vg = np.array(vgs)
        vs = np.array(vss)[:, None]
        d = frac * np.linspace(0.0, 1.4, vg.size)
        vd = _drain_side(vs, d, polarity)
        got = _role_sweep(m, vg, vs, 2)(vd)
        assert got.shape == (vs.shape[0], vg.size)
        assert np.array_equal(got, m.ids_value(vg, vd, vs))


class TestStack:
    """Row ``r`` of a stacked model is ``models[r]`` bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        temps=st.lists(st.floats(-40.0, 125.0), min_size=1, max_size=4),
        corner=st.sampled_from(sorted(CORNERS)),
        vg=st.floats(-0.2, 1.4),
        vs=st.floats(0.0, 1.4),
        ds=st.lists(st.floats(0.0, 1.4), min_size=1, max_size=6),
        polarity=st.sampled_from(["n", "p"]),
    )
    def test_rows_match_their_models(self, temps, corner, vg, vs, ds, polarity):
        make = _nmos if polarity == "n" else _pmos
        models = [make(t, CORNERS[corner], vth=0.4 + 0.01 * k) for k, t in enumerate(temps)]
        stacked = MosfetModel.stack(models)
        vd = _drain_side(vs, np.array(ds), polarity)
        sweep = _role_sweep(stacked, vg, vs, 2)(np.broadcast_to(vd, (len(models), vd.size)))
        value = stacked.ids_value(vg, vd, vs)
        for r, m in enumerate(models):
            assert np.array_equal(sweep[r], _role_sweep(m, vg, vs, 1)(vd))
            assert np.array_equal(value[r], m.ids_value(vg, vd, vs))

    def test_mixed_polarity_rejected(self):
        with pytest.raises(ValueError):
            MosfetModel.stack([_nmos(), _pmos()])


class TestTemperatureAndCorners:
    def test_leakage_grows_with_temperature(self):
        cold = _nmos(-30.0).ids_value(0.0, 1.1, 0.0)
        room = _nmos(25.0).ids_value(0.0, 1.1, 0.0)
        hot = _nmos(125.0).ids_value(0.0, 1.1, 0.0)
        assert cold < room < hot
        assert hot / room > 50  # orders of magnitude, as in silicon

    def test_drive_degrades_with_temperature(self):
        room = _nmos(25.0).ids_value(1.1, 1.1, 0.0)
        hot = _nmos(125.0).ids_value(1.1, 1.1, 0.0)
        assert hot < room  # mobility loss dominates at high overdrive

    def test_fast_corner_lowers_vth(self):
        fast = MosfetModel(nmos_params("m", 1e-7), CORNERS["fast"], 25.0)
        slow = MosfetModel(nmos_params("m", 1e-7), CORNERS["slow"], 25.0)
        assert fast.vth_eff < slow.vth_eff

    def test_fs_corner_is_asymmetric(self):
        fs = CORNERS["fs"]
        n = MosfetModel(nmos_params("m", 1e-7), fs, 25.0)
        p = MosfetModel(pmos_params("m", 1e-7), fs, 25.0)
        tt_n = MosfetModel(nmos_params("m", 1e-7), TT, 25.0)
        tt_p = MosfetModel(pmos_params("m", 1e-7), TT, 25.0)
        assert n.vth_eff < tt_n.vth_eff  # fast NMOS
        assert p.vth_eff > tt_p.vth_eff  # slow PMOS

    def test_vectorised_evaluation(self):
        m = _nmos()
        vg = np.linspace(0, 1.1, 10)
        i = m.ids_value(vg, 1.1, 0.0)
        assert i.shape == (10,)
        assert np.all(np.diff(i) > 0)  # monotone in gate voltage

    def test_gate_capacitance_scales_with_area(self):
        small = _nmos().gate_capacitance()
        big = MosfetModel(nmos_params("m", 400e-9), TT, 25.0).gate_capacitance()
        assert big == pytest.approx(2 * small, rel=1e-9)
