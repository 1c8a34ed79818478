"""Data retention voltage analysis (Section III)."""

import numpy as np
import pytest

from repro import obs
from repro.cell import snm as snm_module
from repro.analysis.case_studies import case_study, table1_rows
from repro.cell import (
    DEFAULT_CELL,
    SnmSession,
    drv_ds,
    drv_ds0,
    drv_ds1,
    snm_ds,
    worst_case_drv,
)
from repro.cell.drv import (
    DRV_SEARCH_HI,
    DRV_SEARCH_LO,
    drv_ds_pair,
    drv_lanes,
    worst_over_grid,
)
from repro.cell.snm import (
    _BLOCK_ROWS,
    _CERTIFY_DEPTHS,
    _curve_a,
    _curve_b,
    _diagonal_curves,
    _lobe,
    _lobe_separations,
    _lobe_spans,
)
from repro.cell.vtc import bisect_output, inverter_vtc, vtc_pair
from repro.devices import CellVariation
from repro.devices.corners import CORNERS
from repro.devices.pvt import PVT
from repro.verify.artifacts import build_payload, scope_for
from repro.verify.goldens import default_goldens_dir, load_golden
from repro.devices.variation import CELL_TRANSISTORS

SYM = CellVariation.symmetric()


class TestSymmetricCell:
    def test_floor_region(self, drv_symmetric):
        """The paper's symmetric cells retain down to ~60 mV."""
        assert 0.04 < drv_symmetric < 0.12

    def test_both_states_equal(self):
        assert drv_ds1(SYM) == pytest.approx(drv_ds0(SYM), abs=2e-3)

    def test_drv_is_max_of_states(self):
        v = CellVariation(mpcc1=-3, mncc1=-3)
        assert drv_ds(v) == pytest.approx(max(drv_ds1(v), drv_ds0(v)))


class TestVariationImpact:
    def test_paper_ladder_ordering(self):
        """CS1 (6s) > CS2 (-3s strong side) > CS3 (+3s weak side) > CS4."""
        cs1 = drv_ds1(CellVariation.worst_case_drv1(6.0))
        cs2 = drv_ds1(CellVariation(mpcc1=-3, mncc1=-3))
        cs3 = drv_ds1(CellVariation(mpcc2=3, mncc2=3))
        cs4 = drv_ds1(CellVariation(mpcc2=0.1, mncc2=0.1))
        sym = drv_ds1(SYM)
        assert cs1 > cs2 > cs3 > cs4 > sym * 0.99

    def test_worst_case_combination_beats_single(self):
        combo = drv_ds1(CellVariation.worst_case_drv1(3.0))
        single = drv_ds1(CellVariation.single("mncc1", -3.0))
        assert combo > single

    def test_favoured_state_hits_search_floor(self):
        """Variation that degrades '1' makes '0' retain to the floor."""
        v = CellVariation.worst_case_drv1(6.0)
        assert drv_ds0(v) <= 0.03

    def test_mirror_symmetry(self):
        v = CellVariation(mpcc1=-3, mncc1=-3)
        assert drv_ds1(v) == pytest.approx(drv_ds0(v.mirrored()), abs=3e-3)

    def test_pass_transistor_matters_less_than_inverter(self):
        """Fig. 4: pass-gate variation is the weakest lever, but not zero."""
        pas = drv_ds1(CellVariation.single("mncc3", -4.0))
        inv = drv_ds1(CellVariation.single("mncc1", -4.0))
        sym = drv_ds1(SYM)
        assert inv > pas
        assert pas > sym  # "cannot be neglected, however"


class TestWorstCaseSearch:
    def test_returns_argmax_pvt(self):
        grid = [PVT("typical", 1.1, 25.0), PVT("fs", 1.1, 125.0)]
        value, pvt = worst_case_drv(
            CellVariation.worst_case_drv1(6.0), "ds1", pvt_grid=grid
        )
        assert pvt.corner == "fs" and pvt.temp_c == 125.0
        assert value > 0.6

    def test_invalid_selector(self):
        with pytest.raises(ValueError):
            worst_case_drv(SYM, "ds2")

    def test_6sigma_worst_case_near_paper_anchor(self, drv_worst_hot):
        """Calibration target: paper reports 730 mV; we land nearby."""
        assert 0.65 < drv_worst_hot < 0.74

    def test_search_floor_constant(self):
        assert DRV_SEARCH_LO == pytest.approx(0.02)


# ---------------------------------------------------------------- kernel
PVTS = [(c, t) for c in ("typical", "fs", "sf", "fast") for t in (-40.0, 25.0, 125.0)]
CS2_0 = CellVariation(mpcc2=-3, mncc2=-3)
DS1_SIGNS = dict(CellVariation.worst_case_drv1(1.0).items())

#: One mixed kernel call: (variation, corner, temp_c, lobe, exit path).
MIXED_LANES = (
    [(CellVariation.worst_case_drv1(6.0), c, t, 1, "floor") for c, t in PVTS]
    + [(CellVariation.worst_case_drv1(12.0), c, 125.0, 0, "ceiling") for c in ("fs", "fast")]
    + [(SYM, c, t, 0, "bisect") for c, t in PVTS]
    + [(CS2_0, c, t, 1, "bisect") for c, t in PVTS]
    # Each single-transistor cell on the lobe it degrades (the sign pattern
    # of worst_case_drv1 degrades DS1), one PVT each.
    + [
        (CellVariation.single(name, sigma), *PVTS[k], int(sigma * DS1_SIGNS[name] < 0),
         "bisect")
        for k, (name, sigma) in enumerate(
            (name, sigma) for name in CELL_TRANSISTORS for sigma in (-3.0, 3.0)
        )
    ]
)


def _scalar_snm(variation, corner, temp_c, vdd):
    """(SNM_DS1, SNM_DS0) from the unstacked path: scalar models, vtc_pair."""
    models = DEFAULT_CELL.models(variation, corner, temp_c)
    grid = np.linspace(0.0, vdd, 256)
    s_of_sb, sb_of_s = vtc_pair(grid, vdd, models)
    return _lobe_separations(grid, s_of_sb, sb_of_s)


def _reference_drv(variation, corner, temp_c, which):
    """The one-lane bisection the lock-step kernel replaced."""
    def snm(vdd):
        return _scalar_snm(variation, corner, temp_c, vdd)[which]

    lo, hi = DRV_SEARCH_LO, DRV_SEARCH_HI
    if snm(lo) > 0.0:
        return lo
    if snm(hi) < 0.0:
        return hi
    for _ in range(16):
        mid = 0.5 * (lo + hi)
        if snm(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def mixed_call():
    """The kernel's values and obs recorder for the mixed lanes."""
    rows = [(v, c, t) for v, c, t, _, _ in MIXED_LANES]
    lobes = [lobe for *_, lobe, _ in MIXED_LANES]
    assert len(set(rows)) > _BLOCK_ROWS  # the endpoint solves span two row blocks
    with obs.recording() as rec:
        values = drv_lanes(rows, lobes)
    return values, rec


class TestLockStepKernel:
    def test_bit_identical_to_scalar_reference(self, mixed_call):
        values, _ = mixed_call
        expected = np.array([_reference_drv(v, c, t, w) for v, c, t, w, _ in MIXED_LANES])
        assert np.array_equal(values, expected)

    def test_lanes_take_their_exit_path(self, mixed_call):
        values, _ = mixed_call
        paths = np.array([path for *_, path in MIXED_LANES])
        assert np.all(values[paths == "floor"] == DRV_SEARCH_LO)
        assert np.all(values[paths == "ceiling"] == DRV_SEARCH_HI)
        bisected = values[paths == "bisect"]
        assert np.all((bisected > DRV_SEARCH_LO) & (bisected < DRV_SEARCH_HI))

    def test_obs_counters_per_lane(self, mixed_call):
        _, rec = mixed_call
        paths = [path for *_, path in MIXED_LANES]
        assert rec.counters["drv.solves"] == len(MIXED_LANES)
        assert rec.counters["drv.floor_exits"] == paths.count("floor")
        assert rec.counters["drv.ceiling_exits"] == paths.count("ceiling")
        steps = rec.histograms["drv.bisection_steps"]
        assert steps.count == len(MIXED_LANES)
        assert steps.total == 16 * paths.count("bisect")
        assert (steps.min, steps.max) == (0, 16)

    def test_empty_call(self):
        assert drv_lanes([], 0).shape == (0,)

    def test_wrappers_are_kernel_lanes(self):
        for corner, temp_c in (("typical", 25.0), ("fs", 125.0), ("sf", -40.0)):
            pair = drv_ds_pair(CS2_0, corner, temp_c)
            assert pair == (drv_ds1(CS2_0, corner, temp_c), drv_ds0(CS2_0, corner, temp_c))
            assert drv_ds(CS2_0, corner, temp_c) == max(pair)


class TestSnmSessionRows:
    ROWS = [(SYM, "typical", 25.0), (CS2_0, "fs", 125.0), (SYM, "sf", -40.0)]

    def test_each_row_equals_a_one_row_session(self):
        stacked = SnmSession(self.ROWS).snm(0.3)
        for r, row in enumerate(self.ROWS):
            assert np.array_equal(stacked[r], SnmSession([row]).snm(0.3)[0])
            assert tuple(stacked[r]) == _scalar_snm(*row, 0.3)
        assert tuple(stacked[0]) == snm_ds(SYM, 0.3)

    def test_snm_batch_equals_snm(self):
        session = SnmSession(self.ROWS)
        rows = [2, 0, 1, 0]
        vdds = [0.25, 0.3, 0.6, 0.05]
        batch = session.snm_batch(vdds, rows)
        for i, (r, vdd) in enumerate(zip(rows, vdds)):
            assert np.array_equal(batch[i], session.snm(vdd)[r])


class TestWorstOverGrid:
    def test_empty_grid_raises_value_error(self):
        with pytest.raises(ValueError):
            worst_case_drv(SYM, "ds1", pvt_grid=[])
        with pytest.raises(ValueError):
            table1_rows(pvt_grid=[])

    def test_tie_goes_to_first_pvt_in_grid_order(self):
        first, duplicate = PVT("fs", 1.1, 125.0), PVT("fs", 1.1, 125.0)
        grid = [PVT("typical", 1.1, 25.0), first, duplicate]
        with obs.recording() as rec:
            _, pvt = worst_case_drv(CS2_0, "ds0", pvt_grid=grid)
        assert pvt is first
        # The duplicate lane shares its twin's search but counts as a lane.
        assert rec.counters["drv.solves"] == 3
        assert rec.histograms["drv.bisection_steps"].count == 3
        assert case_study("CS2-0").worst_drv(grid)[1] is first
        assert worst_over_grid([0.1, 0.3, 0.3], grid) == (0.3, first)


# ------------------------------------------------------------ sign mode
#: A few lanes of every exit path, for the per-setting reruns below.
SIGN_LANES = MIXED_LANES[::4]


def _lane_rows(lanes):
    return [(v, c, t) for v, c, t, _, _ in lanes], [lobe for *_, lobe, _ in lanes]


@pytest.fixture(scope="module")
def sign_reference():
    return np.array([_reference_drv(v, c, t, w) for v, c, t, w, _ in SIGN_LANES])


def _endpoint_lanes(lanes):
    """Sign evaluations the endpoints make: the floor for every search, the
    ceiling for each search still open there; and the ``(cell, lobe,
    supply)`` of those that read a missing lobe (exact SNM ``-1.0``), which
    a rung certifies once the coarse c-width is below minus its margin."""
    searches = sorted({lane[:4] for lane in lanes}, key=repr)
    cells = sorted({search[:3] for search in searches}, key=repr)
    rows = [cells.index(search[:3]) for search in searches]
    lobes = [search[3] for search in searches]
    session = SnmSession(cells)
    floor = session.snm(DRV_SEARCH_LO)[rows, lobes]
    ceiling = session.snm(DRV_SEARCH_HI)[rows, lobes]
    missing = [(search[:3], search[3], DRV_SEARCH_LO)
               for search, snm in zip(searches, floor) if snm == -1.0]
    missing += [(search[:3], search[3], DRV_SEARCH_HI)
                for search, lo, hi in zip(searches, floor, ceiling)
                if lo <= 0.0 and hi == -1.0]
    return len(floor) + int((floor <= 0.0).sum()), missing


def _sign_evaluations(lanes):
    """Every sign-mode lane evaluation one ``drv_lanes`` call makes."""
    bisected = len({lane[:4] for lane in lanes if lane[-1] == "bisect"})
    return 16 * bisected + _endpoint_lanes(lanes)[0]


#: Ladders run with ``_CERTIFY_DEPTHS`` patched: single rungs from 1 to 44
#: steps, the shipped ladder, and a ladder over all of those rungs.
LADDERS = [
    pytest.param((1,), id="1"),
    pytest.param((8,), id="8"),
    pytest.param((22,), id="22"),
    pytest.param((44,), id="44"),
    pytest.param(_CERTIFY_DEPTHS, id="shipped"),
    pytest.param((1, 8, 22, 44), id="1-8-22-44"),
]


class TestSignCertifiedSteps:
    """Sign-mode SNMs: a ladder of coarse VTC depths settles most signs, the rest go on."""

    @pytest.mark.parametrize("depths", LADDERS)
    def test_drv_bits_at_any_coarse_depth(self, monkeypatch, sign_reference, depths):
        monkeypatch.setattr(snm_module, "_CERTIFY_DEPTHS", depths)
        rows, lobes = _lane_rows(SIGN_LANES)
        with obs.recording() as rec:
            values = drv_lanes(rows, lobes)
        assert np.array_equal(values, sign_reference)
        certified = rec.counters["snm.certified"]
        refined = rec.counters["snm.refined"]
        assert certified + refined == _sign_evaluations(SIGN_LANES)
        if depths == (1,):  # a half-supply bracket certifies nothing
            assert certified == 0 and refined > 0
        if depths[-1] == 44:  # nothing left to resume
            assert refined == 0 and certified > 0

    def test_missing_lobe_is_certified_at_first_clearing_rung(self, monkeypatch):
        """An endpoint lane whose exact lobe is missing stops at the first rung
        whose coarse c-width is below minus the margin, with the exact -1.0."""
        _, missing = _endpoint_lanes(MIXED_LANES)
        assert len(missing) >= 5
        lanes = [lane for lane in MIXED_LANES if (lane[:3], lane[3]) in
                 {(cell, lobe) for cell, lobe, _ in missing}]
        rows, lobes = _lane_rows(lanes)
        expected = [_reference_drv(v, c, t, w) for v, c, t, w, _ in lanes]
        assert np.array_equal(drv_lanes(rows, lobes), expected)

        widths = []

        def recording_lobe(curves, lobe):
            snm, width = _lobe(curves, lobe)
            widths.append(width)
            return snm, width

        monkeypatch.setattr(snm_module, "_lobe", recording_lobe)
        rungs_used = set()
        for cell, lobe, vdd in missing:
            widths.clear()
            with obs.recording() as rec:
                value = SnmSession([cell]).snm(vdd, [0], [lobe])
            clears = [width < -snm_module._CERTIFY_MARGIN * vdd * 2.0 ** -depth
                      for depth, width in zip(_CERTIFY_DEPTHS, widths)]
            # One lobe evaluation per rung climbed; only the last one clears.
            assert clears == [False] * (len(widths) - 1) + [True]
            rungs_used.add(len(widths))
            assert (rec.counters["snm.certified"], rec.counters["snm.refined"]) == (1, 0)
            assert value[0] == -1.0 == _scalar_snm(*cell, vdd)[lobe]
        assert max(rungs_used) > 1  # some lane needs more than the first rung

    def test_every_sign_evaluation_is_certified_or_refined(self, mixed_call):
        _, rec = mixed_call
        # 16 sign steps per bisected search, plus the endpoint lanes.
        sign_evaluations = _sign_evaluations(MIXED_LANES)
        assert sign_evaluations > 16 * len(MIXED_LANES) // 2
        assert rec.counters["snm.certified"] + rec.counters["snm.refined"] == sign_evaluations
        assert rec.counters["snm.refined"] > 0  # the last rung ran

    def test_signs_match_exact_next_to_each_drv(self, mixed_call):
        values, _ = mixed_call
        bisected = [i for i, lane in enumerate(MIXED_LANES) if lane[-1] == "bisect"]
        cells = sorted({MIXED_LANES[i][:3] for i in bisected}, key=repr)
        session = SnmSession(cells)
        rows, lobes, vdds = [], [], []
        for i in bisected:
            for offset in (1, 4, 64, -1, -4, -64):
                rows.append(cells.index(MIXED_LANES[i][:3]))
                lobes.append(MIXED_LANES[i][3])
                vdds.append(values[i] + offset * 2.0 ** -30)
        signed = session.snm_batch(vdds, rows, lobes)
        exact = session.snm_batch(vdds, rows)[np.arange(len(rows)), lobes]
        assert np.array_equal(signed > 0.0, exact > 0.0)

    @pytest.mark.parametrize("depth", _CERTIFY_DEPTHS)
    def test_coarse_snm_within_one_bracket_width(self, monkeypatch, depth):
        """The certificate's premise at every shipped rung: coarse and exact SNMs differ by <= w."""
        rng = np.random.default_rng(19)
        n = 50
        cells = [
            (CellVariation(*rng.normal(0.0, 2.0, len(CELL_TRANSISTORS))),
             str(rng.choice(sorted(CORNERS))), float(rng.choice([-40.0, 25.0, 125.0])))
            for _ in range(n)
        ]
        vdds = rng.uniform(0.05, 1.2, n)
        lobes = rng.integers(0, 2, n)
        session = SnmSession(cells)
        exact = session.snm_batch(vdds, range(n))[np.arange(n), lobes]
        # With no margin and one rung, every lane whose coarse lobe is open
        # is certified there, so the call returns the rung's SNMs.
        monkeypatch.setattr(snm_module, "_CERTIFY_MARGIN", 0)
        monkeypatch.setattr(snm_module, "_CERTIFY_DEPTHS", (depth,))
        with obs.recording() as rec:
            coarse = session.snm_batch(vdds, range(n), lobes)
        present = exact != -1.0  # a missing lobe has no SNM to bound
        width = vdds * 2.0 ** -depth
        assert present.sum() > n // 2
        assert rec.counters["snm.certified"] >= present.sum() - 2
        assert np.all(np.abs(coarse - exact)[present] <= width[present])

    @pytest.mark.parametrize(
        "depths, cut_steps",
        [
            pytest.param((22,), 1, id="22-1"),
            pytest.param((22,), 3, id="22-3"),
            pytest.param((22,), 6, id="22-6"),
            pytest.param((22,), 22, id="22-22"),
            pytest.param((8,), 2, id="8-2"),
            pytest.param((8,), 30, id="8-30"),
            pytest.param((1,), 4, id="1-4"),
            pytest.param(_CERTIFY_DEPTHS, 1, id="shipped-1"),
            pytest.param(_CERTIFY_DEPTHS, 8, id="shipped-8"),
            pytest.param(_CERTIFY_DEPTHS, 30, id="shipped-30"),
            pytest.param((4, 6, 30), 5, id="4-6-30-5"),
        ],
    )
    def test_drv_bits_at_any_cut_depth(self, monkeypatch, sign_reference, depths, cut_steps):
        """Pre-passes shallower than, equal to and deeper than the first rung."""
        monkeypatch.setattr(snm_module, "_CERTIFY_DEPTHS", depths)
        monkeypatch.setattr(snm_module, "_CUT_STEPS", cut_steps)
        rows, lobes = _lane_rows(SIGN_LANES)
        with obs.recording() as rec:
            values = drv_lanes(rows, lobes)
        assert np.array_equal(values, sign_reference)
        assert 0 < rec.counters["snm.points.kept"] <= rec.counters["snm.points.total"]

    def test_cut_points_counted_per_sign_evaluation(self, mixed_call):
        _, rec = mixed_call
        total = _sign_evaluations(MIXED_LANES) * 2 * 256  # both VTC rows of every lane
        assert rec.counters["snm.points.total"] == total
        assert 0 < rec.counters["snm.points.kept"] < total // 2


class TestSignModeEndpoints:
    """``snm(vdd, rows, lobes)``: the DRV search's endpoints in the sign mode."""

    @pytest.fixture(scope="class")
    def cells(self):
        """A random cell and a strongly DS1-skewed one per corner and temperature.

        The skewed cells hold '0' at the floor and lose '1' at the ceiling,
        so both endpoints see open and closed lobes.
        """
        rng = np.random.default_rng(23)
        return [
            (variation, corner, temp_c)
            for corner in sorted(CORNERS)
            for temp_c in (-40.0, 25.0, 125.0)
            for variation in (
                CellVariation(*rng.normal(0.0, 3.0, len(CELL_TRANSISTORS))),
                CellVariation.worst_case_drv1(rng.uniform(6.0, 14.0)),
            )
        ]

    @pytest.mark.parametrize("vdd", [DRV_SEARCH_LO, DRV_SEARCH_HI])
    def test_signs_equal_exact_signs(self, cells, vdd):
        session = SnmSession(cells)
        exact = session.snm(vdd)
        rows = np.tile(np.arange(len(cells)), 2)  # both lobes of every cell
        lobes = np.repeat([0, 1], len(cells))
        assert len(rows) > _BLOCK_ROWS
        with obs.recording() as rec:
            signed = session.snm(vdd, rows, lobes)
        assert np.array_equal(signed > 0.0, exact[rows, lobes] > 0.0)
        assert (exact[rows, lobes] > 0.0).any() and (exact[rows, lobes] <= 0.0).any()
        assert rec.counters["snm.evaluations"] == len(rows)
        assert rec.counters["snm.certified"] + rec.counters["snm.refined"] == len(rows)

    def test_is_snm_batch_at_one_supply(self, cells):
        session = SnmSession(cells)
        rows = [3, 0, 3, 7]
        lobes = [1, 0, 0, 1]
        full = np.full(len(rows), 0.3)
        signed = session.snm_batch(full, rows, lobes)
        assert session.snm(0.3, rows, lobes).tobytes() == signed.tobytes()
        assert session.snm(0.3, rows).tobytes() == session.snm_batch(full, rows).tobytes()
        assert session.snm(0.3).tobytes() == session.snm(0.3, range(len(cells))).tobytes()

    def test_reused_session_equals_fresh_sessions(self, cells):
        """Role stacks are memoised per row tuple; no block reads another's."""
        reused = SnmSession(cells)
        calls = [
            ([0, 1, 2], [0, 1, 0], 0.4),
            ([2, 1], [1, 1], 0.2),
            ([0, 1, 2], [1, 0, 1], 0.7),
            (list(range(len(cells))) * 2, [0] * len(cells) + [1] * len(cells), 0.5),
            ([5], [0], 0.05),
            ([1, 2], None, 0.3),
            ([2, 1], None, 0.3),
        ]
        for rows, lobes, vdd in calls:
            vdds = np.full(len(rows), vdd) + 0.01 * np.arange(len(rows))
            got = reused.snm_batch(vdds, rows, lobes)
            fresh = SnmSession(cells).snm_batch(vdds, rows, lobes)
            assert got.tobytes() == fresh.tobytes()
        assert reused._stacked((0, 1, 2)) is reused._stacked(np.array([0, 1, 2]))
        assert reused._stacked((0, 1, 2)) is not reused._stacked((2, 1))


# ------------------------------------------------------------ lobe cut
@pytest.fixture(scope="module")
def synthetic_vtcs():
    """Seeded logistic VTC pairs whose lobes run from missing through thin to wide.

    Rows ``< k`` are S-driving (curve B), the rest SB-driving (curve A), as
    :func:`_lobe_spans` stacks them.  Curve B's switching point sweeps the
    supply and past both rails, so each lobe closes and then goes missing
    (c-width <= 0) at one end of the sweep.
    """
    rng = np.random.default_rng(27)
    k = 60
    vdd = rng.uniform(0.05, 1.2, k)
    grid = np.linspace(0.0, vdd, 256, axis=-1)
    t_a = vdd * rng.uniform(0.3, 0.7, k)
    t_b = vdd * np.linspace(-1.5, 2.5, k)
    gain = vdd * rng.uniform(0.01, 0.1, (2, k))
    s_of_sb = vdd[:, None] / (1.0 + np.exp((grid - t_b[:, None]) / gain[0][:, None]))
    sb_of_s = vdd[:, None] / (1.0 + np.exp((grid - t_a[:, None]) / gain[1][:, None]))
    return grid, np.concatenate([s_of_sb, sb_of_s]), np.tile(vdd, 2)[:, None]


def _brackets(targets, lo, hi, steps):
    """``steps`` bisection steps toward ``targets``, as a VTC row's brackets shrink."""
    return bisect_output(lambda mid: mid - targets, lo, hi, steps)


class TestLobeCut:
    """``_lobe`` on the cut curves equals ``_lobe`` on the full ones (DESIGN §27)."""

    @pytest.mark.parametrize("depth", range(1, 23))
    def test_cut_curves_read_the_same_lobe(self, synthetic_vtcs, depth):
        grid, targets, supplies = synthetic_vtcs
        k = len(grid)
        lo, hi = _brackets(targets, np.zeros(targets.shape), supplies + 0.0 * targets, depth)
        for lobe in (0, 1):
            starts, stops = _lobe_spans(np.tile(grid, (2, 1)), lo, hi, np.full(k, lobe))
            # Curves read after the cut: the cut bracket's midpoints, the
            # coarse pass's, and the exact ones.
            for later in sorted({depth, 22, 44}):
                vtcs = 0.5 * np.add(*_brackets(targets, lo, hi, later - depth))
                for i in range(k):
                    a, b = k + i, i
                    cut = _curve_a(grid[i, starts[a]:stops[a]], vtcs[a, starts[a]:stops[a]])
                    cut += _curve_b(grid[i, starts[b]:stops[b]], vtcs[b, starts[b]:stops[b]])
                    full = _diagonal_curves(grid[i], vtcs[b], vtcs[a])
                    assert _lobe(cut, lobe) == _lobe(full, lobe)

    def test_rows_cover_missing_thin_and_open_lobes(self, synthetic_vtcs):
        grid, targets, supplies = synthetic_vtcs
        k = len(grid)
        for lobe in (0, 1):
            snm, width = np.array([
                _lobe(_diagonal_curves(grid[i], targets[i], targets[k + i]), lobe)
                for i in range(k)
            ]).T
            assert (snm == -1.0).sum() >= 3
            assert ((width > 0.0) & (width < 0.02 * supplies[:k, 0])).sum() >= 1
            assert (snm > 0.01).sum() >= 10

    def test_cut_keeps_under_half_the_grid(self, synthetic_vtcs):
        grid, targets, supplies = synthetic_vtcs
        k = len(grid)
        lo, hi = _brackets(targets, np.zeros(targets.shape), supplies + 0.0 * targets, 4)
        for lobe in (0, 1):
            starts, stops = _lobe_spans(np.tile(grid, (2, 1)), lo, hi, np.full(k, lobe))
            assert np.all((0 <= starts) & (starts < stops) & (stops <= 256))
            assert (stops - starts).sum() < 0.6 * targets.size


class TestBatchInputs:
    ROWS = [(SYM, "typical", 25.0), (CS2_0, "fs", 125.0)]

    def test_supply_count_must_match_rows(self):
        session = SnmSession(self.ROWS)
        with obs.recording() as rec, pytest.raises(ValueError, match="3 supplies for 2 rows"):
            session.snm_batch([0.3, 0.4, 0.5], [0, 1])
        assert "snm.evaluations" not in rec.counters
        with pytest.raises(ValueError, match="1 supplies for 2 rows"):
            session.snm_batch([0.3], [0, 1])

    def test_lobes_must_match_rows_and_be_0_or_1(self):
        session = SnmSession(self.ROWS)
        with pytest.raises(ValueError, match="1 lobes for 2 rows"):
            session.snm_batch([0.3, 0.4], [0, 1], [0])
        for bad in ([0, 2], [-1, 0], [0.5, 1]):
            with pytest.raises(ValueError, match="lobe"):
                session.snm_batch([0.3, 0.4], [0, 1], bad)
            with pytest.raises(ValueError, match="snm: every lobe"):
                session.snm(0.3, [0, 1], bad)
        with pytest.raises(ValueError, match="snm: 1 lobes for 2 rows"):
            session.snm(0.3, None, [0])

    @pytest.mark.parametrize("which", [-1, 2, 0.5, [0, 2], [1.0, 0.0], [True, False]])
    def test_drv_lanes_lobe_must_be_integer_0_or_1(self, which):
        with obs.recording() as rec, pytest.raises(ValueError, match="lobe"):
            drv_lanes(self.ROWS, which)
        assert "snm.evaluations" not in rec.counters


class TestNonFiniteInputs:
    def test_nan_sigma_raises_instead_of_exiting(self):
        with pytest.raises(ValueError, match="finite"):
            drv_ds_pair(CellVariation(mncc1=float("nan")))
        with pytest.raises(ValueError, match="finite"):
            drv_lanes([(SYM, "typical", 25.0), (CellVariation(mpcc2=np.inf), "fs", 125.0)], 0)

    def test_nan_supply_raises_in_inverter_vtc(self):
        m = DEFAULT_CELL.models(SYM, "typical", 25.0)
        devices = (m["mpcc1"], m["mncc1"], m["mncc3"])
        with pytest.raises(ValueError, match="NaN"):
            inverter_vtc(np.array([0.0, 0.1]), float("nan"), *devices)
        with pytest.raises(ValueError, match="NaN"):
            inverter_vtc(np.array([0.0, 0.1]), np.array([[0.5], [np.nan]]), *devices)


class TestGoldenBits:
    """The DRV artifacts, and Table II (certified retention decisions, DESIGN
    §25), equal their goldens exactly, not within tolerance."""

    @pytest.mark.parametrize("artifact", ["table1", "fig4", "macro", "table2"])
    def test_tiny_payload_equals_golden(self, artifact):
        golden = load_golden(default_goldens_dir(), "tiny", artifact)
        assert build_payload(artifact, scope_for("tiny")) == golden["payload"]

    @pytest.mark.parametrize("artifact", ["table1", "fig4"])
    def test_fast_payload_equals_golden(self, artifact):
        golden = load_golden(default_goldens_dir(), "fast", artifact)
        assert build_payload(artifact, scope_for("fast")) == golden["payload"]
