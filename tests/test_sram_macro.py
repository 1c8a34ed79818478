"""Array-scale macro layer: variation maps, bucketed DRVs, escape maps.

The macro stack has three determinism/equivalence contracts, all pinned
here:

* ``MacroSpec`` variation maps regenerate bit-identically from the seed -
  in this process, per bank, and in a fresh interpreter (the campaign
  regenerates maps inside workers, so cross-process identity is what makes
  the cache sound);
* the quantile-bucketed DRV map degenerates to exact per-cell solves when
  the population is no larger than the bucket count;
* ``ArrayRetentionEngine.flip_mask`` equals the scalar engine cell by cell
  (the vectorized March executor's oracle pairing).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cell.drv import (
    clear_pair_memo,
    drv_ds_pair,
    drv_ds_pair_cached,
    drv_ds_pair_map,
    skew_scores,
)
from repro.cell.retention import flip_time
from repro.devices.variation import CELL_TRANSISTORS, CellVariation
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
from repro.analysis.macro import macro_spec as build_macro_sweep


class TestMacroSpec:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            MacroSpec(words=0)
        with pytest.raises(ValueError):
            MacroSpec(words=64, bits=0)
        with pytest.raises(ValueError):
            MacroSpec(words=10, banks=3)  # words must divide into banks

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


class TestDrvPairMap:
    def test_small_population_is_exact(self):
        """n <= buckets degenerates to one solve per cell: the map must
        equal the direct per-cell pairs bit for bit."""
        rng = np.random.default_rng(17)
        sig = rng.standard_normal((3, 6)) * 2.0
        drv1, drv0 = drv_ds_pair_map(sig, buckets=8)
        for i, row in enumerate(sig):
            variation = CellVariation(**dict(zip(CELL_TRANSISTORS, map(float, row))))
            pair = drv_ds_pair(variation)
            assert (drv1[i], drv0[i]) == pair

    def test_bucketing_reuses_representatives(self):
        """More cells than buckets: every cell inherits its bucket
        representative's pair, so the distinct value count is bounded by
        the bucket count."""
        rng = np.random.default_rng(23)
        sig = rng.standard_normal((64, 6)) * 2.0
        drv1, drv0 = drv_ds_pair_map(sig, buckets=4)
        assert len(drv1) == len(drv0) == 64
        assert len(np.unique(drv1)) <= 4
        assert len(np.unique(drv0)) <= 4

    def test_map_is_deterministic(self):
        rng = np.random.default_rng(29)
        sig = rng.standard_normal((32, 6))
        a = drv_ds_pair_map(sig, buckets=3)
        b = drv_ds_pair_map(sig, buckets=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_empty_population(self):
        drv1, drv0 = drv_ds_pair_map(np.empty((0, 6)), buckets=4)
        assert drv1.shape == drv0.shape == (0,)

    def test_pair_memo_hits(self):
        clear_pair_memo()
        try:
            variation = CellVariation(mncc1=1.5)
            first = drv_ds_pair_cached(variation)
            second = drv_ds_pair_cached(variation)
            assert first == second == drv_ds_pair(variation)
        finally:
            clear_pair_memo()


def _random_engine(rng, n_words=8, bits=4):
    drv1 = rng.uniform(0.02, 0.25, size=(n_words, bits))
    drv0 = rng.uniform(0.02, 0.25, size=(n_words, bits))
    return ArrayRetentionEngine(drv1, drv0, corner="typical", temp_c=-40.0)


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
        engine = _random_engine(rng)
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
                assert np.array_equal(mask, expected), (vddcc, ds_time)

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
        assert flipped == [(a, b) for a in range(4) for b in range(2)]
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

    def test_cold_corner_has_escapes(self, summary):
        """The defining population of the paper's DS-time argument."""
        assert summary["escaped"] > 0

    def test_bulk_collapse_is_rejected(self):
        spec = MacroSpec(words=16, bits=4, banks=1, seed=3)
        with pytest.raises(ValueError):
            bank_escape_summary(spec, 0, vddcc=0.0, buckets=2)
