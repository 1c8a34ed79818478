"""Array-scale macro layer: variation maps, bucketed DRVs, escape maps.

The macro stack has four determinism/equivalence contracts, all pinned
here:

* ``MacroSpec`` variation maps regenerate bit-identically from the seed -
  in this process, per bank, and in a fresh interpreter (the campaign
  regenerates maps inside workers, so cross-process identity is what makes
  the cache sound);
* the streamed map (``VariationStream``: chunked skew scores, rows redrawn
  from saved generator states) equals the whole map, score for score and
  row for row, and its scores do not depend on the host's BLAS kernel;
* the quantile-bucketed DRV map degenerates to exact per-cell solves when
  the population is no larger than the bucket count, and its rank
  selection equals a stable-argsort split index for index;
* ``ArrayRetentionEngine.flip_mask`` equals the scalar engine cell by cell
  (the vectorized March executor's oracle pairing).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.cell.drv as drv_module
import repro.sram.macro as macro_module
from repro import obs
from repro.analysis.macro import (
    MACRO_CORNER,
    MACRO_DS_TIME,
    MACRO_MISSION_TIME,
    MACRO_TEMP_C,
    MACRO_VDDCC,
)
from repro.cell.drv import (
    bucket_sizes,
    clear_pair_memo,
    drv_ds_pair,
    drv_ds_pair_cached,
    drv_ds_pair_map,
    rank_buckets,
    skew_scores,
)
from repro.cell.retention import flip_time
from repro.devices.variation import CELL_TRANSISTORS, CellVariation
from repro.march import march_m_lz, run_march_vectorized
from repro.sram import (
    ArrayRetentionEngine,
    LowPowerSRAM,
    MacroSpec,
    RetentionEngine,
    SRAMConfig,
    bank_escape_summary,
    macro_retention,
    macro_sram,
)
from repro.sram.macro import MACRO_STREAM, VariationStream
from repro.analysis.macro import macro_spec as build_macro_sweep


class TestMacroSpec:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            MacroSpec(words=0)
        with pytest.raises(ValueError):
            MacroSpec(words=64, bits=0)
        with pytest.raises(ValueError):
            MacroSpec(words=10, banks=3)  # words must divide into banks

    @pytest.mark.parametrize("field", ["words", "bits", "banks", "seed"])
    @pytest.mark.parametrize("bad", [True, False, 2.5, 4.0, "4", None])
    def test_non_integer_fields_rejected(self, field, bad):
        """``True`` used to pass as 1 and 2.5 words failed with a
        "must divide evenly" message."""
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            MacroSpec(**{"words": 64, "bits": 4, "banks": 1, field: bad})

    def test_numpy_integers_accepted(self):
        spec = MacroSpec(np.int64(64), np.uint8(4), np.int32(2), np.int64(3))
        assert spec == MacroSpec(64, 4, 2, 3)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            MacroSpec(64, 4, 1, -1)

    @pytest.mark.parametrize("word", [64, 65, -1, -64])
    def test_bank_of_rejects_out_of_range_words(self, word):
        """Used to return bank 4 for word 64 and bank -1 for word -1."""
        with pytest.raises(IndexError):
            MacroSpec(64, 4, 4).bank_of(word)

    def test_cell_and_bank_accounting(self):
        spec = MacroSpec(words=64, bits=8, banks=4, seed=1)
        assert spec.n_cells == 512
        assert spec.words_per_bank == 16
        assert spec.bank_words(1) == range(16, 32)
        assert spec.bank_of(0) == 0
        assert spec.bank_of(63) == 3
        with pytest.raises(IndexError):
            spec.bank_words(4)

    def test_bank_sigmas_shape_and_determinism(self):
        spec = MacroSpec(words=32, bits=4, banks=2, seed=9)
        sig = spec.bank_sigmas(0)
        assert sig.shape == (16, 4, 6)
        assert np.array_equal(sig, spec.bank_sigmas(0))
        # Banks draw from distinct streams.
        assert not np.array_equal(sig, spec.bank_sigmas(1))

    def test_full_map_is_bank_concatenation(self):
        spec = MacroSpec(words=32, bits=4, banks=2, seed=9)
        full = spec.variation_sigmas()
        assert full.shape == (32, 4, 6)
        assert np.array_equal(full[:16], spec.bank_sigmas(0))
        assert np.array_equal(full[16:], spec.bank_sigmas(1))

    def test_seed_selects_the_realisation(self):
        base = MacroSpec(words=16, bits=4, banks=2, seed=1)
        other = MacroSpec(words=16, bits=4, banks=2, seed=2)
        assert not np.array_equal(
            base.variation_sigmas(), other.variation_sigmas()
        )

    def test_map_is_bit_identical_across_processes(self):
        """Same seed -> the same bytes in a fresh interpreter."""
        spec = MacroSpec(words=24, bits=4, banks=3, seed=13)
        local = hashlib.sha256(spec.variation_sigmas().tobytes()).hexdigest()
        src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src_dir)
        script = (
            "import hashlib\n"
            "from repro.sram import MacroSpec\n"
            "spec = MacroSpec(words=24, bits=4, banks=3, seed=13)\n"
            "print(hashlib.sha256(spec.variation_sigmas().tobytes())"
            ".hexdigest())\n"
        )
        remote = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip()
        assert remote == local

    @pytest.mark.parametrize("chunk_words", [1, 7, 64, 1000])
    def test_chunked_draw_equals_one_draw(self, chunk_words):
        """Every chunking of a bank's stream gives the single draw's bits."""
        spec = MacroSpec(words=260, bits=3, banks=2, seed=13)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(macro_module, "_CHUNK_WORDS", chunk_words)
            for bank in range(spec.banks):
                rng = np.random.default_rng(
                    [MACRO_STREAM, 13, 260, 3, 2, bank]
                )
                assert np.array_equal(
                    spec.bank_sigmas(bank), rng.standard_normal((130, 3, 6))
                )


def _encode_pair(variation, *_):
    """Stand-in for the memoised pair solver: the pair encodes the row."""
    row = np.array([getattr(variation, t) for t in CELL_TRANSISTORS])
    weights = 4.0 ** np.arange(len(CELL_TRANSISTORS))
    return float(row @ weights), -float(row @ weights)


#: Streamed-map geometries: 130 words per bank is not a multiple of the
#: 64-word chunk, 8 is less than one chunk.
_STREAM_SPECS = [
    MacroSpec(words=130, bits=1, banks=1, seed=5),
    MacroSpec(words=390, bits=3, banks=3, seed=11),
    MacroSpec(words=140, bits=64, banks=2, seed=17),
    MacroSpec(words=24, bits=4, banks=3, seed=13),
]


class TestVariationStream:
    """The streamed map (skew scores + checkpoint redraws) against the
    whole ``(words, bits, 6)`` map it replaces, cell for cell."""

    @pytest.mark.parametrize("buckets", [1, 4, 16, "n_cells"])
    @pytest.mark.parametrize(
        "spec", _STREAM_SPECS,
        ids=lambda s: f"{s.words}x{s.bits}/{s.banks}",
    )
    def test_stream_equals_whole_map(self, spec, buckets):
        for bank in [None, *range(spec.banks)]:
            full = spec.variation_sigmas() if bank is None else spec.bank_sigmas(bank)
            rows = full.reshape(-1, 6)
            n_buckets = len(rows) if buckets == "n_cells" else buckets
            stream = VariationStream(spec, bank)
            assert stream.scores.tobytes() == skew_scores(rows).tobytes()
            codes, reps = rank_buckets(stream.scores, n_buckets)
            ref_codes, ref_reps = rank_buckets(skew_scores(rows), n_buckets)
            assert np.array_equal(codes, ref_codes)
            assert np.array_equal(reps, ref_reps)
            assert stream[reps].tobytes() == rows[reps].tobytes()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(drv_module, "drv_ds_pair_cached", _encode_pair)
                engine = macro_retention(spec, bank, buckets=n_buckets)
                codes, drv1, drv0 = drv_ds_pair_map(
                    skew_scores(rows), rows, buckets=n_buckets
                )
            assert np.array_equal(engine.codes, codes.reshape(full.shape[:2]))
            assert engine.drv_table.tobytes() == np.stack([drv0, drv1]).tobytes()

    @pytest.mark.parametrize("bank", [None, 1])
    def test_solved_tables_equal_whole_map(self, bank):
        """Real DRV solves of the representatives, not a stand-in."""
        spec = MacroSpec(words=260, bits=4, banks=2, seed=21)
        full = spec.variation_sigmas() if bank is None else spec.bank_sigmas(bank)
        rows = full.reshape(-1, 6)
        engine = macro_retention(spec, bank, "typical", -40.0, buckets=4)
        codes, drv1, drv0 = drv_ds_pair_map(
            skew_scores(rows), rows, "typical", -40.0, buckets=4
        )
        assert np.array_equal(engine.codes.ravel(), codes)
        assert np.array_equal(engine.drv_table, np.stack([drv0, drv1]))

    def test_rows_in_any_order(self):
        spec = MacroSpec(words=200, bits=2, banks=2, seed=3)
        rows = spec.variation_sigmas().reshape(-1, 6)
        cells = np.random.default_rng(7).permutation(len(rows))[:50]
        cells = np.concatenate([cells, cells[:5], [0, len(rows) - 1]])
        assert np.array_equal(VariationStream(spec)[cells], rows[cells])
        assert VariationStream(spec)[np.empty(0, np.intp)].shape == (0, 6)

    @pytest.mark.parametrize("cell", [-1, 800])
    def test_out_of_range_cells_rejected(self, cell):
        with pytest.raises(IndexError):
            VariationStream(MacroSpec(words=200, bits=2, banks=2, seed=3))[[0, cell]]

    def test_bad_bank_rejected(self):
        with pytest.raises(IndexError):
            VariationStream(MacroSpec(words=32, bits=2, banks=2), bank=2)

    def test_scores_do_not_depend_on_the_blas_kernel(self):
        """Skew scores are a fixed-order sum, so an OpenBLAS core type
        forced in a child process gives the same bytes.  A BLAS
        matrix-vector product differs in the last bits on this map between
        the Haswell and Prescott kernels."""
        spec = MacroSpec(words=256, bits=16, banks=2, seed=17)
        script = (
            "import hashlib\n"
            "from repro.cell.drv import skew_scores\n"
            "from repro.sram.macro import MacroSpec, VariationStream\n"
            "spec = MacroSpec(words=256, bits=16, banks=2, seed=17)\n"
            "rows = spec.variation_sigmas().reshape(-1, 6)\n"
            "for scores in (skew_scores(rows), VariationStream(spec).scores):\n"
            "    print(hashlib.sha256(scores.tobytes()).hexdigest())\n"
        )
        local = hashlib.sha256(
            skew_scores(spec.variation_sigmas().reshape(-1, 6)).tobytes()
        ).hexdigest()
        src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src_dir),
                   OPENBLAS_CORETYPE="Prescott")
        remote = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.split()
        assert remote == [local, local]

    @pytest.mark.parametrize("seed", [0, 17])
    def test_peak_memory_below_the_whole_map(self, seed):
        """A 4096 x 64 bank used to hold its whole 12.6 MB float64 map."""
        spec = MacroSpec(4096, 64, 1, seed)
        tracemalloc.start()
        try:
            macro_retention(spec, 0, buckets=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096 * 64 * 6 * 8

    @pytest.mark.parametrize("seed", [0, 17])
    def test_escape_summary_working_set(self, seed):
        """A whole ``bank_escape_summary`` of a 4096 x 64 bank (262144
        cells, 4 buckets) at the macro test conditions peaks at 12 bytes a
        cell or less: the 8-byte scores, the 1-byte codes and temporaries
        a chunk long.  It used to peak at 16.1 (seed 0) and 19.1 (seed 17,
        65536 cells detected): rank selection sorted a copy of the scores,
        and the failure columns came from one whole-bank ``np.nonzero``.
        The first call loads the March modules and fills the DRV and
        leakage memos; the bound is on the second."""
        spec = MacroSpec(4096, 64, 1, seed)
        conditions = dict(
            vddcc=MACRO_VDDCC, ds_time=MACRO_DS_TIME, mission_time=MACRO_MISSION_TIME,
            corner=MACRO_CORNER, temp_c=MACRO_TEMP_C, buckets=4,
        )
        bank_escape_summary(spec, 0, **conditions)
        tracemalloc.start()
        try:
            bank_escape_summary(spec, 0, **conditions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / spec.n_cells <= 12


class TestCampaignFingerprint:
    def test_macro_seed_feeds_the_fingerprint(self):
        """A reseeded macro must never replay another seed's cache."""
        seed1 = build_macro_sweep(MacroSpec(words=64, bits=8, banks=2, seed=1))
        seed2 = build_macro_sweep(MacroSpec(words=64, bits=8, banks=2, seed=2))
        again = build_macro_sweep(MacroSpec(words=64, bits=8, banks=2, seed=1))
        assert seed1.fingerprint() == again.fingerprint()
        assert seed1.fingerprint() != seed2.fingerprint()
        # The task points themselves differ too (seed is a task param).
        assert {t.key for t in seed1.tasks} != {t.key for t in seed2.tasks}


class TestSkewScores:
    def test_alignment_with_worst_case_directions(self):
        """The score is maximal along worst-case-DRV1, minimal along its
        mirror - the projection that lets one bucketing serve both lobes."""
        as_row = lambda v: np.array(  # noqa: E731
            [[getattr(v, t) for t in CELL_TRANSISTORS]]
        )
        up = skew_scores(as_row(CellVariation.worst_case_drv1(3.0)))[0]
        down = skew_scores(as_row(CellVariation.worst_case_drv0(3.0)))[0]
        assert up == pytest.approx(18.0)
        assert down == pytest.approx(-18.0)

    def test_mirror_negates_the_score(self):
        rng = np.random.default_rng(5)
        sig = rng.standard_normal((8, 6))
        mirrored = np.array([
            [getattr(
                CellVariation(**dict(zip(CELL_TRANSISTORS, row))).mirrored(), t
            ) for t in CELL_TRANSISTORS]
            for row in sig
        ])
        assert np.allclose(skew_scores(sig), -skew_scores(mirrored))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            skew_scores(np.zeros((4, 5)))

    def test_sum_is_added_left_to_right(self):
        """The documented order, ``-s0 - s1 + s2 + s3 - s4 + s5``, one
        rounded double operation at a time (Python floats round the same)."""
        sig = np.random.default_rng(53).standard_normal((500, 6)) * 10.0 ** (
            np.random.default_rng(59).integers(-8, 8, size=(500, 6))
        )
        expected = [-a - b + c + d - e + f for a, b, c, d, e, f in sig.tolist()]
        assert skew_scores(sig).tolist() == expected


class TestDrvPairMap:
    def test_small_population_is_exact(self):
        """n <= buckets degenerates to one solve per cell: the map must
        equal the direct per-cell pairs bit for bit."""
        rng = np.random.default_rng(17)
        sig = rng.standard_normal((3, 6)) * 2.0
        codes, drv1, drv0 = drv_ds_pair_map(skew_scores(sig), sig, buckets=8)
        for i, row in enumerate(sig):
            variation = CellVariation(**dict(zip(CELL_TRANSISTORS, map(float, row))))
            pair = drv_ds_pair(variation)
            assert (drv1[codes[i]], drv0[codes[i]]) == pair

    def test_bucketing_reuses_representatives(self):
        """More cells than buckets: every cell inherits its bucket
        representative's pair, so the distinct value count is bounded by
        the bucket count."""
        rng = np.random.default_rng(23)
        sig = rng.standard_normal((64, 6)) * 2.0
        codes, drv1, drv0 = drv_ds_pair_map(skew_scores(sig), sig, buckets=4)
        assert len(codes) == 64
        assert len(np.unique(drv1[codes])) <= 4
        assert len(np.unique(drv0[codes])) <= 4

    def test_map_is_deterministic(self):
        rng = np.random.default_rng(29)
        sig = rng.standard_normal((32, 6))
        a = drv_ds_pair_map(skew_scores(sig), sig, buckets=3)
        b = drv_ds_pair_map(skew_scores(sig), sig, buckets=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_empty_population(self):
        empty = np.empty((0, 6))
        codes, drv1, drv0 = drv_ds_pair_map(skew_scores(empty), empty, buckets=4)
        assert codes.shape == drv1.shape == drv0.shape == (0,)

    def test_pair_memo_hits(self):
        clear_pair_memo()
        try:
            variation = CellVariation(mncc1=1.5)
            first = drv_ds_pair_cached(variation)
            second = drv_ds_pair_cached(variation)
            assert first == second == drv_ds_pair(variation)
        finally:
            clear_pair_memo()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sigmas_rejected(self, bad):
        """A NaN used to sort last and silently get the 0.02 V / 1.2 V
        search endpoints as its DRV pair."""
        sig = np.zeros((5, 6))
        sig[2, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            drv_ds_pair_map(skew_scores(sig), sig, buckets=2)

    @pytest.mark.parametrize("buckets", [0, -4])
    def test_non_positive_buckets_rejected(self, buckets):
        """Used to be clamped to one bucket without a word."""
        with pytest.raises(ValueError, match="buckets"):
            drv_ds_pair_map(
                skew_scores(np.zeros((5, 6))), np.zeros((5, 6)), buckets=buckets
            )
        with pytest.raises(ValueError, match="buckets"):
            drv_ds_pair_map(
                skew_scores(np.empty((0, 6))), np.empty((0, 6)), buckets=buckets
            )


def _argsort_buckets(scores, buckets):
    """Reference: stable argsort split into ``array_split`` runs, each run's
    middle cell its representative (the bucketing before rank selection)."""
    order = np.argsort(scores, kind="stable")
    codes = np.empty(len(scores), dtype=np.intp)
    reps = []
    for code, run in enumerate(np.array_split(order, min(buckets, len(scores)))):
        codes[run] = code
        reps.append(run[len(run) // 2])
    return codes, np.array(reps, dtype=np.intp)


#: Heavily tied scores: four integer levels, with -0.0 and 0.0 as one tie.
_TIED = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0])


@pytest.fixture(scope="module", params=[17, 20, 21, 36, 41])
def macro_1m_scores(request):
    """Skew scores of one 16384 x 64 bank under a mismatch seed of the
    ``macro-1m`` benchmark workload."""
    spec = MacroSpec(words=16384, bits=64, banks=1, seed=request.param)
    return VariationStream(spec, 0).scores


class TestRankSelection:
    """``rank_buckets`` against the stable-argsort split it replaces.

    ``np.sort`` dispatches to SIMD kernels on AVX2/AVX-512 hosts, so CI
    reruns this class with every numpy SIMD target off.
    """

    @staticmethod
    def _check(scores, buckets):
        codes, reps = rank_buckets(scores, buckets)
        ref_codes, ref_reps = _argsort_buckets(scores, buckets)
        assert np.array_equal(codes, ref_codes)
        assert np.array_equal(reps, ref_reps)
        assert codes.dtype == np.min_scalar_type(len(ref_reps) - 1)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 300))
    def test_tied_scores_match_stable_argsort(self, data, n):
        scores = np.array(data.draw(st.lists(_TIED, min_size=n, max_size=n)))
        buckets = data.draw(st.integers(1, n + 3))
        self._check(scores, buckets)

    @pytest.mark.parametrize("buckets", [1, 2, 3, 4, 16, 255, 256, 4096])
    def test_normal_draw_matches_stable_argsort(self, buckets):
        scores = np.random.default_rng(43).standard_normal(4096)
        self._check(scores, buckets)

    @pytest.mark.parametrize("chunk", [1 << 16, 97])
    @pytest.mark.parametrize("buckets", [4, 64, 4095, 4096])
    def test_repeated_and_signed_zero_scores_up_to_one_bucket_per_cell(
            self, monkeypatch, buckets, chunk):
        """Tie groups of every size, normals between them, and -0.0 beside
        0.0, placed in one ``searchsorted`` chunk or in 43; one bucket per
        cell used to cost two passes over the scores per bucket."""
        rng = np.random.default_rng(44)
        scores = np.round(rng.standard_normal(4096), 2)  # small tie groups
        tied = rng.random(4096) < 0.3
        scores[tied] = rng.integers(-3, 4, tied.sum()) * 0.5  # large ones
        zeros = rng.random(4096) < 0.1
        scores[zeros] = rng.choice([-0.0, 0.0], zeros.sum())
        monkeypatch.setattr(drv_module, "_RANK_CHUNK", chunk)
        self._check(scores, buckets)

    @pytest.mark.parametrize("buckets", [1, 4, 16, 64])
    def test_macro_1m_realisations_match_stable_argsort(
            self, macro_1m_scores, buckets):
        """The benchmark's 1M-cell banks."""
        self._check(macro_1m_scores, buckets)

    @staticmethod
    def _refills(scores, buckets):
        """:meth:`_check`, and how often a rank fell outside every window."""
        with obs.recording() as recorder:
            TestRankSelection._check(scores, buckets)
        return recorder.counters.get("drv.rank.refills", 0)

    @pytest.fixture
    def small_sample(self, monkeypatch):
        """An 8192-score sample: 65536 cells get windows ~4% wide, each
        step of the sample 8 cells."""
        monkeypatch.setattr(drv_module, "_RANK_SAMPLE", 1 << 13)

    @staticmethod
    def _edges(scores, buckets):
        """The windows ``rank_buckets`` places for its bound ranks."""
        n = len(scores)
        sizes = bucket_sizes(n, buckets)
        starts = np.cumsum(sizes) - sizes
        ranks = np.sort(np.concatenate([starts + sizes // 2, starts[1:]]))
        return drv_module._windows(
            np.sort(scores[::-(-n // drv_module._RANK_SAMPLE)]), ranks, n)

    @pytest.mark.parametrize("buckets", [2, 3, 4])
    def test_ties_straddling_window_edges(self, small_sample, buckets):
        """Scores on a 0.1 grid: every window edge is a sampled score shared
        by many cells, all of them inside the window, and the run starts and
        representatives fall inside such tie groups."""
        scores = np.round(np.random.default_rng(45).standard_normal(1 << 16), 1)
        edges = self._edges(scores, buckets)
        assert edges is not None
        lows = edges[0::2][np.isfinite(edges[0::2])]
        assert len(lows) and all(np.count_nonzero(scores == low) > 1 for low in lows)
        assert self._refills(scores, buckets) == 0

    @pytest.mark.parametrize("n", [1 << 16, (1 << 16) + 1])
    @pytest.mark.parametrize("value", [0.75, -0.0])
    @pytest.mark.parametrize("buckets", [1, 3, 4, 64, 4096])
    def test_all_equal_scores(self, small_sample, n, value, buckets):
        """One tie group: every window holds every cell."""
        assert self._refills(np.full(n, value), buckets) == 0

    @pytest.mark.parametrize("buckets", [2, 3, 4])
    def test_signed_zeros_across_windows(self, small_sample, buckets):
        """A fifth of the cells are -0.0 or 0.0, in index order mixed: the
        tie group holds run starts and representatives, and windows open
        and close on it."""
        rng = np.random.default_rng(46)
        scores = rng.standard_normal(1 << 16)
        zeros = rng.random(1 << 16) < 0.2
        scores[zeros] = rng.choice([-0.0, 0.0], zeros.sum())
        assert self._edges(scores, buckets) is not None
        assert self._refills(scores, buckets) == 0

    @pytest.mark.parametrize("buckets", [1, 4])
    def test_one_cell(self, buckets):
        codes, reps = rank_buckets(np.array([-2.5]), buckets)
        assert codes.tolist() == [0] and reps.tolist() == [0]
        assert codes.dtype == np.uint8 and reps.dtype == np.intp

    @pytest.mark.parametrize("n", [4096, 1 << 16])
    def test_one_bucket_per_cell_sorts_every_score(self, small_sample, n):
        """Bound ranks at every cell: the windows would hold them all, so
        the selection is a sort of the scores."""
        scores = np.random.default_rng(47).standard_normal(n)
        assert self._edges(scores, n) is None
        assert self._refills(scores, n) == 0

    @pytest.mark.parametrize("buckets", [4, 5, 1293])
    def test_cells_not_a_multiple_of_the_chunk(self, small_sample, monkeypatch, buckets):
        """1293 = 20 chunks of 64 and a last chunk of 13 cells, in every
        pass."""
        monkeypatch.setattr(drv_module, "_RANK_CHUNK", 64)
        scores = np.round(np.random.default_rng(48).standard_normal(1293), 2)
        self._check(scores, buckets)

    @pytest.mark.parametrize("buckets", [2, 4, 16])
    def test_window_miss_sorts_every_score(self, small_sample, monkeypatch, buckets):
        """With no margin a window spans three sample scores, and the ranks
        fall outside them: the selection takes one more pass, a sort of
        every score, and the buckets stay the stable-argsort ones."""
        monkeypatch.setattr(drv_module, "_SAMPLE_MARGIN", 0.0)
        scores = np.random.default_rng(49).standard_normal(1 << 16)
        assert self._edges(scores, buckets) is not None
        assert self._refills(scores, buckets) == 1

    @pytest.mark.parametrize("buckets", [1, 4, 16, 1 << 16])
    def test_bank_within_the_sample_sorts_once(self, monkeypatch, buckets):
        """Up to ``_RANK_SAMPLE`` cells the sample would be every score: no
        windows are placed, the scores are sorted once."""
        def no_windows(*_):
            raise AssertionError("windows placed for a bank within the sample")

        monkeypatch.setattr(drv_module, "_windows", no_windows)
        scores = np.random.default_rng(51).standard_normal(1 << 16)
        assert self._refills(scores, buckets) == 0

    @pytest.mark.parametrize("high", [51.0, 52.0])
    def test_neighbour_just_past_a_window(self, monkeypatch, high):
        """A window over ranks 49 and 50 holds rank 50 but not its
        neighbour 51: the selection must sort every score.  One rank
        wider, it reads all three off the window."""
        scores = np.random.default_rng(50).permutation(100).astype(float)
        monkeypatch.setattr(drv_module, "_RANK_SAMPLE", 50)
        monkeypatch.setattr(drv_module, "_windows", lambda *_: np.array([49.0, high]))
        with obs.recording() as recorder:
            ranked = drv_module._select(scores, np.array([50]))
        assert recorder.counters.get("drv.rank.refills", 0) == (high == 51.0)
        assert ranked[np.array([49, 50, 51])].tolist() == [49.0, 50.0, 51.0]
        assert ranked.below(np.array([50.0])).tolist() == [50]

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.integers(1, 60))
    def test_map_solves_each_representative(self, data, n):
        """Every bucket's table entry is the pair of its stable-argsort
        representative, read through a stand-in for the memoised solver
        that encodes the cell's sigma row."""
        sig = np.array(data.draw(st.lists(
            st.lists(_TIED, min_size=6, max_size=6), min_size=n, max_size=n,
        )))
        buckets = data.draw(st.integers(1, n + 3))
        weights = 4.0 ** np.arange(len(CELL_TRANSISTORS))

        def encode(variation, *_):
            row = np.array([getattr(variation, t) for t in CELL_TRANSISTORS])
            return float(row @ weights), -float(row @ weights)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(drv_module, "drv_ds_pair_cached", encode)
            codes, drv1, drv0 = drv_ds_pair_map(skew_scores(sig), sig, buckets=buckets)
        ref_codes, ref_reps = _argsort_buckets(skew_scores(sig), buckets)
        assert np.array_equal(codes, ref_codes)
        assert np.array_equal(drv1, sig[ref_reps] @ weights)
        assert np.array_equal(drv0, -(sig[ref_reps] @ weights))


def _random_engine(rng, n_words=8, bits=4):
    drv1 = rng.uniform(0.02, 0.25, size=(n_words, bits))
    drv0 = rng.uniform(0.02, 0.25, size=(n_words, bits))
    return ArrayRetentionEngine(drv1, drv0, corner="typical", temp_c=-40.0)


def _coded_engine(rng, n_words=8, bits=4, buckets=3):
    """A bucket-code engine, as ``macro_retention`` builds them."""
    codes = rng.integers(0, buckets, size=(n_words, bits), dtype=np.uint8)
    drv1 = rng.uniform(0.02, 0.25, size=buckets)
    drv0 = rng.uniform(0.02, 0.25, size=buckets)
    return ArrayRetentionEngine.from_codes(
        codes, drv1, drv0, corner="typical", temp_c=-40.0
    )


class TestArrayRetentionEngine:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ArrayRetentionEngine(np.zeros((4, 2)), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            ArrayRetentionEngine(np.zeros(4), np.zeros(4))

    def test_flip_mask_matches_scalar_engine_bit_for_bit(self):
        """The oracle pairing: the array mask and a scalar engine built
        from ``weak_cell_list`` must flip exactly the same cells."""
        rng = np.random.default_rng(31)
        for build in (_random_engine, _coded_engine):
            engine = build(rng)
            scalar = engine.to_scalar()
            assert isinstance(scalar, RetentionEngine)
            stored = rng.integers(0, 2, size=engine.shape, dtype=np.uint8)
            for vddcc in (0.03, 0.08, 0.12, 0.3):
                for ds_time in (1e-6, 1e-3, 1.0):
                    mask = engine.flip_mask(vddcc, ds_time, stored)
                    flips = scalar.flips(
                        vddcc, ds_time, lambda a, b: int(stored[a, b])
                    )
                    expected = np.zeros(engine.shape, dtype=bool)
                    for addr, bit in flips:
                        expected[addr, bit] = True
                    assert np.array_equal(mask, expected), (build, vddcc, ds_time)

    def test_coded_engine_matches_its_planes(self):
        """Table lookups equal the per-cell plane expression bit for bit:
        a plane engine built from the coded engine's own ``drv1``/``drv0``
        planes gives the same flip times and masks for both stored planes,
        at v <= 0, at v equal to, between and above the table entries."""
        codes = np.array([[0, 1, 2, 3], [3, 2, 1, 0], [1, 1, 3, 0]], dtype=np.uint8)
        drv1 = np.array([0.0, 0.05, 0.12, 0.2])
        drv0 = np.array([0.08, 0.03, 0.2, 0.15])
        coded = ArrayRetentionEngine.from_codes(
            codes, drv1, drv0, corner="typical", temp_c=-40.0
        )
        plane = ArrayRetentionEngine(
            coded.drv1, coded.drv0, corner="typical", temp_c=-40.0
        )
        assert np.array_equal(coded.drv1, drv1[codes])
        assert np.array_equal(coded.drv0, drv0[codes])
        ones = np.ones(codes.shape, dtype=np.uint8)
        mixed = np.random.default_rng(47).integers(0, 2, codes.shape, dtype=np.uint8)
        for vddcc in (-0.05, 0.0, 0.02, 0.04, 0.05, 0.1, 0.12, 0.17, 0.3):
            for stored in (ones, 1 - ones, mixed):
                assert np.array_equal(
                    coded.flip_times(vddcc, stored), plane.flip_times(vddcc, stored)
                ), vddcc
                for ds_time in (0.0, 1e-6, 1e-3, 1.0):
                    assert np.array_equal(
                        coded.flip_mask(vddcc, ds_time, stored),
                        plane.flip_mask(vddcc, ds_time, stored),
                    ), (vddcc, ds_time)

    def test_from_codes_validation(self):
        tables = (np.full(2, 0.1), np.full(2, 0.2))
        with pytest.raises(ValueError):  # code 2 has no table entry
            ArrayRetentionEngine.from_codes(np.full((2, 2), 2, np.uint8), *tables)
        with pytest.raises(ValueError):  # signed codes
            ArrayRetentionEngine.from_codes(np.zeros((2, 2), np.int64), *tables)
        with pytest.raises(ValueError):  # tables of different lengths
            ArrayRetentionEngine.from_codes(
                np.zeros((2, 2), np.uint8), np.full(2, 0.1), np.full(3, 0.2)
            )

    def test_flip_times_structure(self):
        engine = ArrayRetentionEngine(
            np.full((2, 2), 0.10), np.full((2, 2), 0.20)
        )
        ones = np.ones((2, 2), dtype=np.uint8)
        assert np.all(np.isinf(engine.flip_times(0.15, ones)))  # above DRV1
        assert np.all(engine.flip_times(0.0, ones) == 0.0)
        finite = engine.flip_times(0.05, ones)
        assert np.all(np.isfinite(finite)) and np.all(finite > 0.0)

    @pytest.mark.parametrize("vddcc", [0.0, -0.05])
    def test_non_positive_supply_matches_scalar_flip_time(self, vddcc):
        """``inf`` where v >= DRV takes precedence over 0 where v <= 0,
        as in the scalar :func:`~repro.cell.retention.flip_time`."""
        drvs = np.array([[0.0, 0.1], [-0.1, 0.05]])
        engine = ArrayRetentionEngine(drvs, drvs)
        stored = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        times = engine.flip_times(vddcc, stored)
        expected = np.array(
            [[flip_time(vddcc, float(d)) for d in row] for row in drvs]
        )
        assert np.array_equal(times, expected)
        mask = engine.flip_mask(vddcc, 1e-3, stored)
        flips = engine.to_scalar().flips(
            vddcc, 1e-3, lambda a, b: int(stored[a, b])
        )
        assert sorted(flips) == [
            (int(a), int(b)) for a, b in zip(*np.nonzero(mask))
        ]
        assert mask[0, 0] == (vddcc < 0.0)  # a 0 V DRV retains at 0 V

    def test_flips_protocol_compat(self):
        """The scalar ``flips`` protocol works on the array engine (the
        memory's legacy wake-up path)."""
        rng = np.random.default_rng(37)
        engine = _random_engine(rng, n_words=4, bits=3)
        stored = np.zeros((4, 3), dtype=np.uint8)
        flips = engine.flips(0.05, 1.0, lambda a, b: int(stored[a, b]))
        mask = engine.flip_mask(0.05, 1.0, stored)
        assert sorted(flips) == [
            (int(a), int(b)) for a, b in zip(*np.nonzero(mask))
        ]

    def test_vectorized_wake_up_path(self):
        """A memory with an array engine wakes up through the flip mask."""
        engine = ArrayRetentionEngine(
            np.full((4, 2), 0.30), np.full((4, 2), 0.02),
            corner="typical", temp_c=-40.0,
        )
        sram = LowPowerSRAM(
            SRAMConfig(n_words=4, word_bits=2), retention=engine
        )
        sram.fill(0b11)  # stored 1s are at risk (DRV1 = 0.3 V)
        sram.enter_deep_sleep(ds_time=10.0, vddcc=0.1)
        flipped = sram.wake_up()
        assert [tuple(cell) for cell in np.argwhere(flipped)] == [
            (a, b) for a in range(4) for b in range(2)
        ]
        assert all(sram.read(a) == 0 for a in range(4))


class TestMacroRetention:
    def test_bank_engine_is_slice_of_full_engine(self):
        spec = MacroSpec(words=32, bits=4, banks=2, seed=5)
        # Same bucket count per call; bank engines re-bucket within the
        # bank, so compare against engines built from the bank's sigmas.
        bank0 = macro_retention(spec, bank=0, buckets=3)
        again = macro_retention(spec, bank=0, buckets=3)
        assert np.array_equal(bank0.drv1, again.drv1)
        assert bank0.shape == (16, 4)

    def test_macro_sram_scalar_flag(self):
        spec = MacroSpec(words=8, bits=2, banks=1, seed=5)
        vec = macro_sram(spec, buckets=2)
        sca = macro_sram(spec, buckets=2, scalar=True)
        assert getattr(vec.retention, "vectorized", False)
        assert not getattr(sca.retention, "vectorized", False)
        assert vec.config.n_words == 8 and vec.config.word_bits == 2


class TestEscapeSummary:
    @pytest.fixture(scope="class")
    def summary(self):
        spec = MacroSpec(words=64, bits=8, banks=2, seed=3)
        return bank_escape_summary(
            spec, 0, vddcc=0.05, ds_time=1e-3, mission_time=1.0,
            corner="typical", temp_c=-40.0, buckets=6,
        )

    def test_counts_are_consistent(self, summary):
        assert summary["cells"] == 256
        assert 0 <= summary["detected"] <= summary["cells"]
        assert 0 <= summary["escaped"] <= summary["cells"]
        # Escapes flip in the field but not during the test, so together
        # with the detected set they cannot exceed the mission flips.
        assert summary["detected"] + summary["escaped"] >= summary["mission_flips"]
        assert summary["test_flips"] <= summary["mission_flips"]

    def test_detection_equals_test_flips(self, summary):
        """With no injected functional faults, March m-LZ detects exactly
        the cells whose flip time fits inside the test's DS window."""
        assert summary["detected"] == summary["test_flips"]

    @pytest.mark.parametrize("vddcc", [0.05, 0.105])
    def test_table_statistics_match_plane_recomputation(self, vddcc):
        """``weak``/``drv_max``/``drv_min`` come from the bucket tables and
        code counts; they must equal the same statistics over the planes
        (at 0.105 V only some buckets are weak)."""
        spec = MacroSpec(words=64, bits=8, banks=2, seed=3)
        summary = bank_escape_summary(
            spec, 0, vddcc=vddcc, corner="typical", temp_c=-40.0, buckets=6
        )
        engine = macro_retention(
            spec, bank=0, corner="typical", temp_c=-40.0, buckets=6
        )
        high = np.maximum(engine.drv1, engine.drv0)
        low = np.minimum(engine.drv1, engine.drv0)
        assert summary["weak"] == int((high > vddcc).sum())
        assert summary["drv_max"] == float(np.max(high))
        assert summary["drv_min"] == float(np.min(low))

    def test_cold_corner_has_escapes(self, summary):
        """The defining population of the paper's DS-time argument."""
        assert summary["escaped"] > 0

    def test_bulk_collapse_is_rejected(self):
        spec = MacroSpec(words=16, bits=4, banks=1, seed=3)
        with pytest.raises(ValueError):
            bank_escape_summary(spec, 0, vddcc=0.0, buckets=2)

    @pytest.mark.parametrize("corner,temp_c", [("typical", -40.0), ("fs", 125.0)])
    @pytest.mark.parametrize("buckets", [1, 6, "n_cells"])
    @pytest.mark.parametrize("spec", [
        MacroSpec(words=16, bits=4, banks=2, seed=3),
        MacroSpec(words=12, bits=4, banks=3, seed=7),
    ], ids=["16x4/2", "12x4/3"])
    def test_counts_equal_plane_census(self, spec, buckets, corner, temp_c):
        """The census counts from bucket flip tables, bucket populations and
        the failing-cell columns; every count must equal the census over
        whole-bank planes: ``flip_mask`` on all-ones and all-zeros planes,
        and ``detected`` from a Python set of the March's failure rows."""
        ds_time, mission_time = 1e-3, 1.0
        if buckets == "n_cells":
            buckets = spec.words_per_bank * spec.bits
        compared = raised = 0
        for bank in range(spec.banks):
            engine = macro_retention(spec, bank, corner, temp_c, buckets=buckets)
            ones = np.ones(engine.shape, dtype=np.uint8)
            zeros = np.zeros(engine.shape, dtype=np.uint8)
            for vddcc in (0.05, 0.08, 0.105, 0.2):
                if engine.bulk_data_loss(vddcc, ds_time):
                    with pytest.raises(ValueError):
                        bank_escape_summary(
                            spec, bank, vddcc, ds_time, mission_time,
                            corner, temp_c, buckets=buckets,
                        )
                    raised += 1
                    continue
                summary = bank_escape_summary(
                    spec, bank, vddcc, ds_time, mission_time,
                    corner, temp_c, buckets=buckets,
                )
                sram = LowPowerSRAM(
                    SRAMConfig(n_words=spec.words_per_bank, word_bits=spec.bits),
                    retention=engine,
                )
                result = run_march_vectorized(
                    march_m_lz(ds_time=ds_time), sram,
                    vddcc_for_sleep=lambda _i: vddcc,
                    max_failures=spec.words_per_bank * spec.bits,
                )
                detected = np.zeros(engine.shape, dtype=bool)
                for addr, bit in {(row.addr, row.bit) for row in result.failures}:
                    detected[addr, bit] = True
                test_flip = (engine.flip_mask(vddcc, ds_time, ones)
                             | engine.flip_mask(vddcc, ds_time, zeros))
                mission_flip = (engine.flip_mask(vddcc, mission_time, ones)
                                | engine.flip_mask(vddcc, mission_time, zeros))
                plane = {
                    "detected": int(detected.sum()),
                    "escaped": int((mission_flip & ~detected).sum()),
                    "test_flips": int(test_flip.sum()),
                    "mission_flips": int(mission_flip.sum()),
                }
                assert {key: summary[key] for key in plane} == plane, (bank, vddcc)
                compared += 1
        # Both a census and, at the hot corner, the bulk-loss guard ran.
        assert compared > 0 and (raised > 0) == (corner == "fs")
