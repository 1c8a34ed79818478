"""Data retention voltage in deep-sleep mode (Section III).

``DRV_DS1`` / ``DRV_DS0`` are the cell-supply levels at which the hold SNM of
the corresponding stored value reaches zero; below them the cross-coupled
inverters flip to the state dictated by the deteriorated VTCs.  ``DRV_DS``
of a cell is the larger of the two; the DRV_DS of a whole array is set by
its least stable cell.

Each DRV is found by bisection on the supply voltage of the signed SNM from
:mod:`repro.cell.snm`; every search runs in the lock-step kernel :func:`drv_lanes`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
# np.unique reads np.ma.is_masked: load numpy.ma with this module, not
# inside the first rank_buckets call.
import numpy.ma  # noqa: F401

from .. import obs
from ..devices.pvt import PVT, corner_temp_grid
from ..devices.variation import CELL_TRANSISTORS, CellVariation
from .design import DEFAULT_CELL, CellDesign
from .snm import Row, SnmSession

#: Search window for the DRV bisection, in volts.  The lower bound is the
#: floor reported for cells whose eye never closes above it (the paper's
#: "~60 mV" symmetric-cell entries are near this region).
DRV_SEARCH_LO = 0.02
DRV_SEARCH_HI = 1.2

_BISECTION_STEPS = 16

#: Cells :func:`rank_buckets` reads per step of each pass over the scores.
#: A step's slots, masks and gathered bounds are temporaries; taken a chunk
#: at a time they stay cache-sized instead of adding up to 8 MB each per
#: million cells to a macro bank's peak memory.
_RANK_CHUNK = 1 << 15

#: Most scores :func:`_select` sorts to place its windows: every
#: ``ceil(n / _RANK_SAMPLE)``-th score.  A bank of at most this many cells
#: has every score in its sample, so it is sorted whole instead.
_RANK_SAMPLE = 1 << 16

#: Half-width of each window of :func:`_select`, in standard deviations of
#: a sample quantile's position (its largest, at the median).  A rank that
#: falls outside its window costs one more pass, never a wrong result.
_SAMPLE_MARGIN = 4.0


def drv_lanes(rows: Sequence[Row], which, cell: CellDesign = DEFAULT_CELL) -> np.ndarray:
    """DRV of every lane, all lanes bisecting in lock-step.

    Lane ``i`` is the cell ``rows[i] = (variation, corner, temp_c)`` and the
    lobe ``which[i]`` (0 -> DRV_DS1, 1 -> DRV_DS0; a scalar applies to every
    lane).  Equal cells share a session row and equal lanes one search.
    Every SNM evaluation reads one sign per search and runs in the sign
    mode of :class:`~repro.cell.snm.SnmSession`: the floor is one
    :meth:`~repro.cell.snm.SnmSession.snm` call over every search, the
    ceiling one over the searches still open, and each bisection step one
    :meth:`~repro.cell.snm.SnmSession.snm_batch` call.  Those signs are
    exact, so each lane's value is bit for bit that of an exact bisection
    of that lane alone.

    Raises ``ValueError`` for a lobe other than the integer 0 or 1, and for
    a non-finite sigma in any lane: it would come back as a floor or
    ceiling exit that looks like a real DRV.
    """
    which = np.asarray(which)
    if which.size and (which.dtype.kind not in "iu" or not np.isin(which, (0, 1)).all()):
        raise ValueError(f"drv_lanes: every lobe must be the integer 0 (DS1) or 1 (DS0): {which}")
    keys = [(variation, corner, float(temp_c)) for variation, corner, temp_c in rows]
    if not keys:
        return np.empty(0)
    lobes = np.broadcast_to(which, (len(keys),))
    cells: dict = {}
    searches: dict = {}
    lane = np.array([
        searches.setdefault((cells.setdefault(key, len(cells)), int(lobe)), len(searches))
        for key, lobe in zip(keys, lobes)
    ])
    row, lobe = np.array(list(searches)).T
    if not np.isfinite([sigma for variation, *_ in cells for _, sigma in variation.items()]).all():
        raise ValueError("drv_lanes: every sigma must be finite")
    session = SnmSession(list(cells), cell)
    result = np.empty(len(searches))
    # Stable all the way down to the search floor.
    floor = session.snm(DRV_SEARCH_LO, row, lobe) > 0.0
    ceiling = np.zeros_like(floor)
    open_ = np.flatnonzero(~floor)
    if len(open_):  # cannot hold the state even at full supply
        ceiling[open_] = session.snm(DRV_SEARCH_HI, row[open_], lobe[open_]) < 0.0
    active = ~(floor | ceiling)
    result[floor] = DRV_SEARCH_LO
    result[ceiling] = DRV_SEARCH_HI
    if active.any():
        row_on, lobe_on = row[active], lobe[active]
        lo = np.full(len(row_on), DRV_SEARCH_LO)
        hi = np.full(len(row_on), DRV_SEARCH_HI)
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            stable = session.snm_batch(mid, row_on, lobe_on) > 0.0
            hi = np.where(stable, mid, hi)
            lo = np.where(stable, lo, mid)
        result[active] = 0.5 * (lo + hi)
    obs.count("drv.solves", len(keys))
    for name, exits in (("drv.floor_exits", floor[lane]), ("drv.ceiling_exits", ceiling[lane])):
        if exits.any():
            obs.count(name, int(exits.sum()))
    for bisected in active[lane]:
        obs.observe("drv.bisection_steps", _BISECTION_STEPS if bisected else 0)
    return result[lane]


def drv_ds_pair(
    variation: CellVariation,
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
) -> Tuple[float, float]:
    """(DRV_DS1, DRV_DS0) of the cell: both lobes as two lanes of one session row."""
    drv1, drv0 = drv_lanes([(variation, corner, temp_c)] * 2, (0, 1), cell)
    return float(drv1), float(drv0)


def drv_ds1(
    variation: CellVariation,
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
) -> float:
    """Lowest supply still retaining logic '1' in this cell (volts)."""
    return float(drv_lanes([(variation, corner, temp_c)], 0, cell)[0])


def drv_ds0(
    variation: CellVariation,
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
) -> float:
    """Lowest supply still retaining logic '0' in this cell (volts)."""
    return float(drv_lanes([(variation, corner, temp_c)], 1, cell)[0])


def drv_ds(
    variation: CellVariation,
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
) -> float:
    """DRV_DS = max(DRV_DS1, DRV_DS0) of the cell."""
    return float(drv_ds_cells([variation], corner, temp_c, cell)[0])


def drv_ds_cells(
    variations: Sequence[CellVariation],
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
) -> np.ndarray:
    """DRV_DS of each cell at one PVT: all ``2n`` lobe searches in one kernel call."""
    rows = [(variation, corner, temp_c) for variation in variations]
    drv1, drv0 = drv_lanes(rows * 2, np.repeat([0, 1], len(rows)), cell).reshape(2, -1)
    return np.maximum(drv1, drv0)


def worst_over_grid(values, grid: Sequence[PVT]) -> Tuple[float, PVT]:
    """Largest of ``values`` (one per grid PVT) and its PVT; ties go to the first.

    Raises ``ValueError`` on an empty grid.
    """
    if len(grid) == 0:
        raise ValueError("worst-case DRV over an empty PVT grid")
    k = int(np.argmax(values))
    return float(values[k]), grid[k]


#: Process-local memo for :func:`drv_ds_pair` keyed on the full solve inputs.
#: ``CellVariation`` and ``CellDesign`` are frozen dataclasses, so the key is
#: hashable and collision-free.  Follows the ``campaign.memo`` discipline:
#: plain dict plus hit/miss counters surfaced by ``repro stats``.
_PAIR_MEMO: dict = {}


def drv_ds_pair_cached(
    variation: CellVariation,
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
) -> Tuple[float, float]:
    """Memoised :func:`drv_ds_pair` (exact same values, solved once)."""
    key = (variation, corner, float(temp_c), cell)
    hit = _PAIR_MEMO.get(key)
    if hit is not None:
        obs.count("memo.drv_pair.hits")
        return hit
    obs.count("memo.drv_pair.misses")
    pair = drv_ds_pair(variation, corner, temp_c, cell)
    _PAIR_MEMO[key] = pair
    return pair


def clear_pair_memo() -> None:
    """Drop the :func:`drv_ds_pair_cached` memo (test isolation)."""
    _PAIR_MEMO.clear()


def skew_scores(sigmas: np.ndarray) -> np.ndarray:
    """Per-cell DRV-skew score for an ``(n, 6)`` sigma matrix.

    The score projects a sigma vector onto the DRV_DS1-maximising direction
    of Fig. 4 (the sign pattern of ``CellVariation.worst_case_drv1``), in
    :data:`~repro.devices.variation.CELL_TRANSISTORS` order.  Because
    ``mirrored()`` negates this projection exactly, a *single* scalar score
    orders cells by DRV_DS1 ascending and simultaneously by DRV_DS0
    descending - one bucketing serves both lobes.

    The sum is elementwise and added left to right, so a score's bits
    depend only on its own row: not on the host's BLAS kernel and not on
    how many rows one call sees (a BLAS matrix-vector product is neither).
    """
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 2 or sigmas.shape[1] != len(CELL_TRANSISTORS):
        raise ValueError(
            f"sigmas must be (n, {len(CELL_TRANSISTORS)}) in CELL_TRANSISTORS "
            f"order, got {sigmas.shape}"
        )
    s = sigmas.T
    return -s[0] - s[1] + s[2] + s[3] - s[4] + s[5]


class _Ranked:
    """``np.sort(scores)`` at the ranks :func:`_select` kept, without the rest.

    ``window`` holds, sorted, every score in one of the windows
    ``[edges[2k], edges[2k + 1])``; ``first[k]`` is the rank of window
    ``k``'s lowest score and ``skip[k]`` the number of scores below it
    that lie in no window.
    """

    def __init__(self, window: np.ndarray, edges: np.ndarray,
                 first: np.ndarray, skip: np.ndarray) -> None:
        self.window, self.edges, self.first, self.skip = window, edges, first, skip

    def __getitem__(self, ranks) -> np.ndarray:
        """Scores at ``ranks``, each inside a window."""
        if self.skip.any():
            ranks = ranks - self.skip[np.searchsorted(self.first, ranks, side="right") - 1]
        return self.window[ranks]

    def below(self, values: np.ndarray) -> np.ndarray:
        """Number of scores below each of ``values``, each inside a window."""
        less = np.searchsorted(self.window, values)
        if self.skip.any():
            less += self.skip[np.searchsorted(self.edges[0::2], values, side="right") - 1]
        return less


def _windows(sample: np.ndarray, ranks: np.ndarray, n: int) -> Optional[np.ndarray]:
    """Edges ``[low_0, high_0, low_1, ...]`` of score windows around ``ranks``.

    ``sample`` is every ``s``-th of ``n`` scores, sorted.  The window of a
    rank spans :data:`_SAMPLE_MARGIN` standard deviations of the sample
    position its score takes, and one more sample score on each side;
    windows that meet merge.  ``None`` when they would span a third of the
    sample or more: the copies would then hold nearly as much as a sorted
    copy of every score, and sorting them would cost more than that sort.
    """
    m = len(sample)
    if 2 * len(ranks) >= m:  # windows 3+ positions wide would meet
        return None
    # The count of sample scores below the score at rank r is
    # hypergeometric: mean ~ (r + 1/2) m / n, variance at most m/4 (1 - m/n).
    half = _SAMPLE_MARGIN * np.sqrt(m / 4 * (1 - m / n))
    centre = (ranks + 0.5) * (m / n) - 0.5
    lo = np.floor(centre - half).astype(np.intp) - 1
    hi = np.ceil(centre + half).astype(np.intp) + 1
    low = np.where(lo >= 0, sample[lo.clip(0, m - 1)], -np.inf)
    high = np.nextafter(np.where(hi < m, sample[hi.clip(0, m - 1)], np.inf), np.inf)
    # Both ends rise with the rank: a window opens where the last one closed.
    opens = np.concatenate(([True], low[1:] > high[:-1]))
    closes = np.concatenate((opens[1:], [True]))
    if 3 * (hi[closes].clip(max=m - 1) - lo[opens].clip(min=0) + 1).sum() >= m:
        return None
    edges = np.empty(2 * int(opens.sum()))
    edges[0::2], edges[1::2] = low[opens], high[closes]
    return edges


def _select(scores: np.ndarray, ranks: np.ndarray) -> _Ranked:
    """The sorted scores at ``ranks`` and their neighbour ranks, selected.

    ``ranks`` are ascending.  Over :data:`_RANK_SAMPLE` cells, every
    ``ceil(n / _RANK_SAMPLE)``-th score is sorted to place :func:`_windows`
    around the ranks.  One pass over the scores sorts :data:`_RANK_CHUNK`
    of them at a time, counts the cells below each window edge and copies
    the cells inside a window; only the copies are sorted together.  Up to
    :data:`_RANK_SAMPLE` cells, when the windows would hold a third of the
    sample or more, or when a rank or a neighbour rank falls outside every window,
    the one window is every score: ``np.sort(scores)``.
    """
    n = len(scores)
    edges = None
    if n > _RANK_SAMPLE:  # a smaller sample is every score
        edges = _windows(np.sort(scores[::-(-n // _RANK_SAMPLE)]), ranks, n)
    if edges is not None:
        counts = np.zeros(len(edges) + 1, dtype=np.intp)
        inside = np.arange(len(counts)) % 2 == 1
        copies = []
        for lo in range(0, n, _RANK_CHUNK):
            part = np.sort(scores[lo:lo + _RANK_CHUNK])
            step = np.diff(np.searchsorted(part, edges), prepend=0, append=len(part))
            counts += step
            copies.append(part[np.repeat(inside, step)])
        first, size = (np.cumsum(counts) - counts)[inside], counts[inside]
        probes = (ranks + np.arange(-1, 2)[:, None]).clip(0, n - 1)
        k = np.searchsorted(first, probes, side="right") - 1
        if ((k >= 0) & (probes < first[k] + size[k])).all():
            window = np.concatenate(copies)
            window.sort()
            return _Ranked(window, edges, first, np.cumsum(counts[~inside])[:-1])
        obs.count("drv.rank.refills")
    zero = np.zeros(1, dtype=np.intp)
    return _Ranked(np.sort(scores), np.array([-np.inf, np.inf]), zero, zero)


def bucket_sizes(n: int, buckets: int) -> np.ndarray:
    """Cells in each of the ``buckets`` runs of :func:`rank_buckets` over
    ``n`` cells (``buckets <= n``): ``np.array_split``'s run sizes."""
    size, extra = divmod(n, buckets)
    return size + (np.arange(buckets) < extra)


def rank_buckets(scores: np.ndarray, buckets: int) -> Tuple[np.ndarray, np.ndarray]:
    """Bucket code of every cell and the index of each bucket's representative.

    The ``n`` cells split into ``B = min(buckets, n)`` runs.  Run ``b``
    holds the cells at stable ranks ``[start_b, start_b + size_b)`` of
    ``scores`` (ascending, ties in index order), with the run sizes of
    ``np.array_split``; its representative is the cell at rank ``start_b +
    size_b // 2``.  That is exactly what splitting a stable argsort gives,
    found by selection: :func:`_select` reads the scores at the
    representative and run-start ranks and at their neighbour ranks.  It
    sorts a full copy of the scores for banks of at most ``_RANK_SAMPLE``
    cells and when its windows would hold a third of them (from ~10
    buckets per million cells up).

    Those at the representative and run-start ranks interleave into one
    ascending bound list ``rep_0, start_1, rep_1, ..., rep_{B-1}``; a pass
    of ``searchsorted(bounds, scores, side="right")``, taken
    ``_RANK_CHUNK`` cells at a time, gives every cell its slot.  A cell's
    code is half its slot (the number of start scores at or below it), and
    a cell whose score equals the bound before an odd slot ``2b + 1``
    holds bucket ``b``'s representative score.  Index order matters only
    inside a tie group that a run start splits or that holds a
    representative, seen as a neighbour rank with the same score.  Only
    such groups are ranked again: :func:`_select` also counts ``#{s < x}``,
    one more chunked pass finds the members, and a member's stable rank is
    that count plus its place in index order (``-0.0 == 0.0``, as in a
    sort).  Every pass takes ``_RANK_CHUNK`` cells at a time.

    Codes come in the smallest unsigned dtype holding ``B - 1``.  Raises
    ``ValueError`` for ``buckets < 1`` or a non-finite score.
    """
    if int(buckets) < 1:
        raise ValueError(f"buckets must be >= 1, got {buckets}")
    n = len(scores)
    for lo in range(0, n, _RANK_CHUNK):
        if not np.isfinite(scores[lo:lo + _RANK_CHUNK]).all():
            raise ValueError("DRV skew scores must be finite (non-finite sigma)")
    if n == 0:
        return np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.intp)
    buckets = min(int(buckets), n)
    sizes = bucket_sizes(n, buckets)
    starts = np.cumsum(sizes) - sizes
    reps = starts + sizes // 2
    cuts = starts[1:]
    interleaved = np.empty(2 * buckets - 1, dtype=np.intp)
    interleaved[0::2], interleaved[1::2] = reps, cuts
    ranked = _select(scores, interleaved)
    bounds = ranked[interleaved]
    split = ranked[cuts - 1] == ranked[cuts]
    loose = ((reps > 0) & (ranked[np.maximum(reps - 1, 0)] == ranked[reps])) | (
        (reps < n - 1) & (ranked[np.minimum(reps + 1, n - 1)] == ranked[reps]))
    values = np.unique(
        np.concatenate([ranked[cuts[split]], ranked[reps[loose]]]) + 0.0)
    less = ranked.below(values)
    held = np.searchsorted(values, ranked[reps[loose]] + 0.0)
    del ranked  # its window of sorted scores: not held while the codes are written
    codes = np.empty(n, dtype=np.min_scalar_type(buckets - 1))
    rep_cells = np.empty(buckets, dtype=np.intp)
    # Slot 0 reads the NaN in front, which no score equals.
    before = np.concatenate(([np.nan], bounds))
    for lo in range(0, n, _RANK_CHUNK):
        part = scores[lo:lo + _RANK_CHUNK]
        slot = np.searchsorted(bounds, part, side="right")
        codes[lo:lo + _RANK_CHUNK] = slot >> 1
        hits = np.flatnonzero(part == before[slot])
        odd = slot[hits] % 2 == 1
        rep_cells[slot[hits[odd]] >> 1] = hits[odd] + lo
    if not len(values):
        return codes, rep_cells
    before = np.concatenate(([np.nan], values))
    members, group = [], []
    for lo in range(0, n, _RANK_CHUNK):
        part = scores[lo:lo + _RANK_CHUNK]
        slot = np.searchsorted(values, part, side="right")
        hits = np.flatnonzero(part == before[slot])
        members.append(hits + lo)
        group.append(slot[hits] - 1)
    members, group = np.concatenate(members), np.concatenate(group)
    stable = np.argsort(group, kind="stable")
    members, group = members[stable], group[stable]
    first = np.searchsorted(group, np.arange(len(values)))
    ranks = less[group] + np.arange(len(members)) - first[group]
    codes[members] = np.searchsorted(starts, ranks, side="right") - 1
    rep_cells[loose] = members[first[held] + reps[loose] - less[held]]
    return codes, rep_cells


def drv_ds_pair_map(
    scores: np.ndarray,
    rows,
    corner: str = "typical",
    temp_c: float = 25.0,
    cell: CellDesign = DEFAULT_CELL,
    buckets: int = 16,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantile-bucketed per-cell (DRV_DS1, DRV_DS0) map as codes + tables.

    ``scores`` are the :func:`skew_scores` of ``n`` cells (the dominant
    axis of DRV variation) and ``rows`` gives their Vth sigma multipliers:
    indexed with an index array of cells it returns their ``(k, 6)`` rows in
    :data:`~repro.devices.variation.CELL_TRANSISTORS` order.  An ``(n, 6)``
    matrix does; a streamed macro map
    (:class:`~repro.sram.macro.VariationStream`) redraws just those rows.
    A full per-cell solve would cost ``n`` bisection pairs (~17 ms a cell
    in one lock-step :func:`drv_lanes` call) - hours for 10^6-cell macros.
    Instead the cells are split by score into ``buckets``
    equal-population quantile runs by :func:`rank_buckets`, and each run
    inherits the exact :func:`drv_ds_pair` of its median-rank
    representative cell.  A million cells therefore cost ``buckets`` pair
    solves, shared further across calls by the
    :func:`drv_ds_pair_cached` memo.

    Returns ``(codes, drv1, drv0)``: an ``(n,)`` plane of bucket codes in
    the smallest unsigned dtype holding ``buckets - 1``, and the per-bucket
    DRV_DS1 / DRV_DS0 tables, so cell ``i`` has ``drv1[codes[i]]``.  With
    ``n <= buckets`` every cell is its own bucket.  Deterministic: codes
    and representatives are those of a stable argsort of the scores.

    Raises ``ValueError`` for ``buckets < 1`` or a non-finite score.
    """
    codes, rep_cells = rank_buckets(np.asarray(scores, dtype=float), buckets)
    if len(codes):
        obs.count("drv.map.cells", len(codes))
    drv1 = np.empty(len(rep_cells))
    drv0 = np.empty(len(rep_cells))
    rep_rows = np.asarray(rows[rep_cells], dtype=float)
    for bucket, row in enumerate(rep_rows):
        obs.count("drv.map.buckets")
        variation = CellVariation(
            **{t: float(s) for t, s in zip(CELL_TRANSISTORS, row)}
        )
        drv1[bucket], drv0[bucket] = drv_ds_pair_cached(variation, corner, temp_c, cell)
    return codes, drv1, drv0


def worst_case_drv(
    variation: CellVariation,
    which: str = "ds",
    pvt_grid: Optional[Iterable[PVT]] = None,
    cell: CellDesign = DEFAULT_CELL,
) -> Tuple[float, PVT]:
    """Maximum DRV over a (corner, temperature) grid, with its arg-max PVT.

    ``which`` selects ``'ds1'``, ``'ds0'`` or ``'ds'`` (the max of both).
    This mirrors the paper's Fig. 4 / Table I procedure of reporting the
    corner-temperature combination that maximises the DRV.
    """
    selectors = {"ds1": (0,), "ds0": (1,), "ds": (0, 1)}
    try:
        lobes = selectors[which]
    except KeyError:
        raise ValueError(f"which must be one of {sorted(selectors)}") from None
    grid = list(pvt_grid) if pvt_grid is not None else corner_temp_grid()
    rows = [(variation, pvt.corner, pvt.temp_c) for pvt in grid]
    drvs = drv_lanes(rows * len(lobes), np.repeat(lobes, len(rows)), cell)
    return worst_over_grid(drvs.reshape(len(lobes), -1).max(axis=0), grid)
