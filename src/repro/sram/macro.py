"""Array-scale SRAM macros: per-cell variation maps and escape summaries.

The paper's device under test is a real 4K x 64 low-power SRAM, not a
representative cell: retention-fault statistics only mean something when
every cell carries its own sigma.Vth mismatch draw.  :class:`MacroSpec`
describes such a macro (geometry, banking, seed) and deterministically
generates its per-cell variation map; :func:`macro_retention` turns the map
into an :class:`~repro.sram.retention_engine.ArrayRetentionEngine` via the
quantile-bucketed DRV solver; :func:`bank_escape_summary` runs March m-LZ
over one bank with the vectorized executor and classifies every cell.

Determinism contract
--------------------

Each bank draws its map from one ``numpy`` PCG64 stream seeded with the
entropy sequence ``(MACRO_STREAM, seed, words, bits, banks, bank)``, the
same in any process, so a campaign worker assigned one bank materialises
only its own slice.  :meth:`MacroSpec._chunks` is the only draw: it fills
one reused buffer ``_CHUNK_WORDS`` words at a time and saves the
generator state before each chunk.  Consecutive draws from a stream give
the same normals as one draw of their total size, so
:meth:`MacroSpec.bank_sigmas`, which copies every chunk into a whole
``(words, bits, 6)`` array, is bit for bit the single draw of that shape:
it stays the public map and the oracle of the stream.
:class:`VariationStream` keeps only one skew score per cell and the saved
states; a cell's sigma row is redrawn from its chunk's state, equal to the
whole map's row.  Skew scores are a fixed-order elementwise sum
(:func:`~repro.cell.drv.skew_scores`), so their bits depend neither on
the chunking nor on the host's BLAS kernel.  The macro seed feeds the
campaign ``SweepSpec`` seed, so it participates in the sweep fingerprint
and a reseeded macro can never replay another seed's cache.

Escape taxonomy (per bank, at the test conditions)
--------------------------------------------------

* ``weak``     - cells whose DRV_DS = max(DRV_DS1, DRV_DS0) exceeds the
  deep-sleep supply: retention is electrically compromised.
* ``detected`` - cells flagged by March m-LZ at the test's DS time.
* ``escaped``  - cells that flip within the *mission* sleep time but that
  March m-LZ did not flag: they pass the production test and fail in the
  field.  With no functional fault injected (the case here), March flags
  exactly the cells that flip within the test's DS time
  (``test_detection_equals_test_flips``), so these are the cells the
  flip-time criterion of Section V says the test sleep was too short
  for.  This is the population the paper's DS-time recommendation
  (~1 ms) is sized to empty.

Every count comes from the engine's per-bucket flip tables
(:meth:`~repro.sram.retention_engine.ArrayRetentionEngine.bucket_flips`),
the bucket populations (:func:`~repro.cell.drv.bucket_sizes`) and the
failing-cell columns: no census plane is built.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np
from numpy.random import default_rng

from ..cell.design import DEFAULT_CELL, CellDesign
from ..cell.drv import bucket_sizes, drv_ds_pair_map, skew_scores
from .memory import LowPowerSRAM, SRAMConfig
from .retention_engine import ArrayRetentionEngine

#: Entropy-stream tag separating macro variation maps from every other
#: seeded draw in the codebase (campaign shards, chaos, fuzzing).
MACRO_STREAM = 0x5AA3  # "SRAM array" stream

#: Number of sigma multipliers per cell (the six 6T core-cell transistors).
_SIGMAS_PER_CELL = 6

#: Words per chunk of a bank's variation stream: the reused draw buffer
#: holds ``_CHUNK_WORDS * bits * 6`` normals (196 KB at 64 bits).
_CHUNK_WORDS = 64


@dataclass(frozen=True)
class MacroSpec:
    """Geometry + seed of an array-scale SRAM macro.

    ``words`` is the total word count across ``banks`` equal banks (the
    paper's DUT is ``MacroSpec(4096, 64)``); ``seed`` selects the
    within-die mismatch realisation.
    """

    words: int = 4096
    bits: int = 64
    banks: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("words", "bits", "banks", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(
                    f"macro {name} must be an integer, got {value!r}"
                )
        if self.words < 1 or self.bits < 1 or self.banks < 1:
            raise ValueError(f"macro geometry must be positive, got {self}")
        if self.seed < 0:
            raise ValueError(f"macro seed must be non-negative, got {self.seed}")
        if self.words % self.banks:
            raise ValueError(
                f"words ({self.words}) must divide evenly into "
                f"banks ({self.banks})"
            )

    @property
    def n_cells(self) -> int:
        return self.words * self.bits

    @property
    def words_per_bank(self) -> int:
        return self.words // self.banks

    def bank_of(self, word: int) -> int:
        """The bank owning a (macro-global) word address."""
        if not 0 <= word < self.words:
            raise IndexError(f"word {word} out of range 0..{self.words - 1}")
        return word // self.words_per_bank

    def bank_words(self, bank: int) -> range:
        """The macro-global word addresses of one bank."""
        self._check_bank(bank)
        start = bank * self.words_per_bank
        return range(start, start + self.words_per_bank)

    def _check_bank(self, bank: int) -> None:
        if not 0 <= bank < self.banks:
            raise IndexError(f"bank {bank} out of range 0..{self.banks - 1}")

    def _chunks(
        self, bank: int, resume: Optional[Tuple[int, dict]] = None
    ) -> Iterator[Tuple[int, dict, np.ndarray]]:
        """Draw one bank's map ``_CHUNK_WORDS`` words at a time.

        Yields ``(word, state, chunk)`` per chunk: the bank-local first
        word, the generator state saved before the chunk was drawn, and
        the ``(k, bits, 6)`` chunk of ``k <= _CHUNK_WORDS`` words, a view
        of one buffer that the next chunk overwrites.
        ``resume=(word, state)`` starts at a saved chunk instead of word 0.
        """
        self._check_bank(bank)
        rng = default_rng(
            [MACRO_STREAM, self.seed, self.words, self.bits, self.banks, bank]
        )
        word = 0
        if resume is not None:
            word, state = resume
            rng.bit_generator.state = state
        buffer = np.empty(
            (min(_CHUNK_WORDS, self.words_per_bank), self.bits, _SIGMAS_PER_CELL)
        )
        while word < self.words_per_bank:
            state = rng.bit_generator.state
            chunk = buffer[: self.words_per_bank - word]
            rng.standard_normal(out=chunk)
            yield word, state, chunk
            word += len(chunk)

    def bank_sigmas(self, bank: int) -> np.ndarray:
        """Per-cell sigma multipliers of one bank.

        Shape ``(words_per_bank, bits, 6)``, transistor axis in
        :data:`~repro.devices.variation.CELL_TRANSISTORS` order.
        Deterministic per (spec, bank) across processes.
        """
        sigmas = np.empty((self.words_per_bank, self.bits, _SIGMAS_PER_CELL))
        for word, _, chunk in self._chunks(bank):
            sigmas[word : word + len(chunk)] = chunk
        return sigmas

    def variation_sigmas(self) -> np.ndarray:
        """The full ``(words, bits, 6)`` macro variation map."""
        return np.concatenate(
            [self.bank_sigmas(bank) for bank in range(self.banks)], axis=0
        )


class VariationStream:
    """A macro's (or one bank's) variation map, kept as skew scores.

    ``scores`` holds the :func:`~repro.cell.drv.skew_scores` of every cell
    in the order of ``variation_sigmas().reshape(-1, 6)`` (or
    ``bank_sigmas(bank)``'s): banks, then words, then bits.  The map is
    drawn once, chunk by chunk, and only the generator state at each chunk
    start is kept; indexing with an array of cell indices redraws those
    cells' ``(k, 6)`` sigma rows from their chunks' states, bit for bit
    the rows of the whole map.
    """

    def __init__(self, spec: MacroSpec, bank: Optional[int] = None) -> None:
        banks = range(spec.banks) if bank is None else [bank]
        self.spec = spec
        self.scores = np.empty(len(banks) * spec.words_per_bank * spec.bits)
        starts, self._resume = [], []
        cell = 0
        for b in banks:
            for word, state, chunk in spec._chunks(b):
                rows = chunk.reshape(-1, _SIGMAS_PER_CELL)
                starts.append(cell)
                self._resume.append((b, word, state))
                self.scores[cell : cell + len(rows)] = skew_scores(rows)
                cell += len(rows)
        self._starts = np.array(starts, dtype=np.intp)

    def __getitem__(self, cells) -> np.ndarray:
        cells = np.asarray(cells, dtype=np.intp)
        if cells.size and not (0 <= cells.min() and cells.max() < len(self.scores)):
            raise IndexError(f"cell indices out of range 0..{len(self.scores) - 1}")
        rows = np.empty((len(cells), _SIGMAS_PER_CELL))
        chunk_of = np.searchsorted(self._starts, cells, side="right") - 1
        for index in np.unique(chunk_of).tolist():
            bank, word, state = self._resume[index]
            _, _, chunk = next(self.spec._chunks(bank, (word, state)))
            hit = chunk_of == index
            rows[hit] = chunk.reshape(-1, _SIGMAS_PER_CELL)[
                cells[hit] - self._starts[index]
            ]
        return rows


def macro_retention(
    spec: MacroSpec,
    bank: Optional[int] = None,
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
    buckets: int = 16,
    symmetric_drv: float = 0.06,
) -> ArrayRetentionEngine:
    """Array retention engine for a macro (or one bank of it).

    Per-cell DRV pairs come from the quantile-bucketed solver: ``buckets``
    compiled-backend bisections cover the whole population.  The map is
    streamed (:class:`VariationStream`): only the ``(n,)`` skew scores
    and the representatives' redrawn rows reach the solver.
    """
    stream = VariationStream(spec, bank)
    codes, drv1, drv0 = drv_ds_pair_map(
        stream.scores, stream, corner, temp_c, cell, buckets
    )
    words = spec.words if bank is None else spec.words_per_bank
    return ArrayRetentionEngine.from_codes(
        codes.reshape(words, spec.bits),
        drv1,
        drv0,
        symmetric_drv,
        corner,
        temp_c,
        cell,
    )


def macro_sram(
    spec: MacroSpec,
    bank: Optional[int] = None,
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
    buckets: int = 16,
    scalar: bool = False,
) -> LowPowerSRAM:
    """A :class:`LowPowerSRAM` over the macro's (or one bank's) cells.

    ``scalar=True`` swaps in the equivalent scalar
    :class:`~repro.sram.retention_engine.RetentionEngine` - the
    differential-oracle configuration.
    """
    engine = macro_retention(spec, bank, corner, temp_c, cell, buckets)
    retention = engine.to_scalar() if scalar else engine
    n_words = spec.words_per_bank if bank is not None else spec.words
    return LowPowerSRAM(
        SRAMConfig(n_words=n_words, word_bits=spec.bits),
        retention=retention,
    )


def bank_escape_summary(
    spec: MacroSpec,
    bank: int,
    vddcc: float,
    ds_time: float = 1e-3,
    mission_time: float = 1.0,
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
    buckets: int = 16,
) -> Dict[str, object]:
    """Run March m-LZ over one bank and classify every cell.

    Returns a JSON-friendly dict with the cell counts of the escape
    taxonomy (module docstring), the March operation count, and the
    bank's DRV extremes.  ``vddcc`` is the deep-sleep array supply
    applied during the test's DSM phases *and* assumed for the mission
    sleep; ``mission_time`` is how long a field sleep may last.
    """
    # Imported lazily: repro.march.runner itself imports repro.sram, and a
    # module-level import here would close that cycle during package init.
    from ..march.library import march_m_lz
    from ..march.runner import run_march_vectorized

    engine = macro_retention(spec, bank, corner, temp_c, cell, buckets)
    if engine.bulk_data_loss(vddcc, ds_time):
        raise ValueError(
            f"vddcc={vddcc} collapses even symmetric cells over "
            f"ds_time={ds_time}; escape classification is meaningless there"
        )
    sram = LowPowerSRAM(
        SRAMConfig(n_words=spec.words_per_bank, word_bits=spec.bits),
        retention=engine,
    )
    result = run_march_vectorized(
        march_m_lz(ds_time=ds_time),
        sram,
        vddcc_for_sleep=lambda _i: vddcc,
        max_failures=spec.words_per_bank * spec.bits,
    )

    # A cell flips in some stored state iff its bucket's column of the
    # (stored bit, bucket) flip table holds a True.  The buckets are rank
    # runs, so their populations need no count over the code plane.
    codes = engine.codes
    counts = bucket_sizes(codes.size, engine.drv_table.shape[1])
    test_any = engine.bucket_flips(vddcc, ds_time).any(axis=0)
    mission_any = engine.bucket_flips(vddcc, mission_time).any(axis=0)
    cells = result.failing_cells()
    mission_flips = int(counts[mission_any].sum())
    drv_low, drv_high = engine.drv_table.min(axis=0), engine.drv_table.max(axis=0)

    return {
        "bank": bank,
        "cells": int(codes.size),
        "weak": int(counts[drv_high > vddcc].sum()),
        "detected": len(cells),
        "escaped": mission_flips - int(mission_any[codes[cells.addr, cells.bit]].sum()),
        "test_flips": int(counts[test_any].sum()),
        "mission_flips": mission_flips,
        "operations": result.operations,
        "drv_max": float(drv_high.max()),
        "drv_min": float(drv_low.min()),
    }
