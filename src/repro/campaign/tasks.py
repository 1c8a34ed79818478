"""Task registry: the functions a campaign knows how to execute.

Workers receive :class:`~repro.campaign.spec.TaskPoint` descriptions, not
callables, so every task kind is registered here by name and looked up
inside the worker process.  A task function takes ``(params, context)`` -
the point's parameter dict and the spec's shared context dict - and returns
a JSON-serialisable value (that is what the persistent cache stores).

The registry also exposes each implementation's source digest, which feeds
the campaign fingerprint: editing a task function invalidates its cached
results without touching anybody else's.

Imports inside the task bodies are deliberate: the registry itself must be
importable from anywhere (including the analysis modules that build specs)
without dragging the whole analysis layer along, and the laziness keeps the
import graph acyclic.
"""

from __future__ import annotations

import hashlib
import inspect
from typing import Any, Callable, Dict, List, Optional

TaskFn = Callable[[Dict[str, Any], Dict[str, Any]], Any]

_REGISTRY: Dict[str, TaskFn] = {}


def task(kind: str) -> Callable[[TaskFn], TaskFn]:
    """Register a task implementation under ``kind``."""

    def register(fn: TaskFn) -> TaskFn:
        if kind in _REGISTRY and _REGISTRY[kind] is not fn:
            raise ValueError(f"task kind {kind!r} already registered")
        _REGISTRY[kind] = fn
        return fn

    return register


def get_task(kind: str) -> TaskFn:
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise KeyError(
            f"unknown task kind {kind!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def registered_kinds() -> List[str]:
    return sorted(_REGISTRY)


def code_digest(kind: str) -> str:
    """SHA-256 of the task implementation's source (fingerprint input).

    An unregistered kind digests to a sentinel: fingerprinting must not
    fail before the executor gets the chance to record the failure.
    """
    fn = _REGISTRY.get(kind)
    if fn is None:
        return "unregistered"
    try:
        blob = inspect.getsource(fn)
    except (OSError, TypeError):  # dynamically defined, e.g. in a REPL
        blob = f"{fn.__module__}.{fn.__qualname__}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _cell(context: Dict[str, Any]):
    from ..cell.design import DEFAULT_CELL

    return context.get("cell", DEFAULT_CELL)


def _design_and_cell(context: Dict[str, Any]):
    from ..regulator.design import DEFAULT_REGULATOR

    return context.get("design", DEFAULT_REGULATOR), _cell(context)


@task("table2-cell")
def table2_cell(params: Dict[str, Any], context: Dict[str, Any]) -> Dict[str, Any]:
    """Min DRF-causing resistance of one (defect, case study, PVT) point.

    The Table II driver aggregates these per-PVT values into the paper's
    min-over-grid cells; keeping the grid point as the task unit makes the
    cache reusable across different grid restrictions of the same sweep.
    """
    from ..devices.pvt import PVT
    from ..regulator.characterize import min_resistance_for_drf
    from ..regulator.defects import DEFECTS
    from ..regulator.load import WeakCellGroup
    from ..analysis.case_studies import case_study
    from ..analysis.table2 import vrefsel_for_vdd
    from .memo import case_drv

    design, cell = _design_and_cell(context)
    family = params["family"]
    pvt = PVT(params["corner"], params["vdd"], params["temp_c"])
    drv = case_drv(family, pvt.corner, pvt.temp_c, cell)
    weak = (WeakCellGroup(count=case_study(family).n_cells, drv=drv),)
    r = min_resistance_for_drf(
        DEFECTS[params["defect_id"]], drv, pvt, vrefsel_for_vdd(pvt.vdd),
        ds_time=params["ds_time"], weak_groups=weak, design=design, cell=cell,
    )
    return {"min_resistance": r}


@task("detection-entry")
def detection_entry(params: Dict[str, Any], context: Dict[str, Any]) -> Dict[str, Any]:
    """One (defect, test configuration) entry of the Table III matrix."""
    from ..core.testflow import TEST_CORNER, TEST_TEMP_C
    from ..devices.pvt import PVT
    from ..regulator.characterize import min_resistance_for_drf
    from ..regulator.defects import DEFECTS
    from ..regulator.design import VrefSelect

    design, cell = _design_and_cell(context)
    pvt = PVT(TEST_CORNER, params["vdd"], TEST_TEMP_C)
    r = min_resistance_for_drf(
        DEFECTS[params["defect_id"]], params["drv_worst"], pvt,
        VrefSelect[params["vrefsel"]], ds_time=params["ds_time"],
        design=design, cell=cell,
    )
    return {"min_resistance": r}


@task("figure4-point")
def figure4_point(params: Dict[str, Any], context: Dict[str, Any]) -> Dict[str, Any]:
    """Worst-over-grid DRV_DS1/DRV_DS0 for one (transistor, sigma) sample."""
    from ..cell.drv import drv_ds_pair, worst_over_grid
    from ..devices.pvt import PVT
    from ..devices.variation import CellVariation

    cell = _cell(context)
    variation = CellVariation.single(params["transistor"], params["sigma"])
    grid = [PVT(c, v, t) for (c, v, t) in params["grid"]]
    # One drv_ds_pair per grid point, not one kernel call for the grid: the
    # benchmark's drv-tiny workload requires that wrapper to fire.
    pairs = [drv_ds_pair(variation, pvt.corner, pvt.temp_c, cell) for pvt in grid]
    out: Dict[str, Any] = {}
    for lobe, label in enumerate(("ds1", "ds0")):
        value, best_pvt = worst_over_grid([pair[lobe] for pair in pairs], grid)
        out[f"drv_{label}"] = value
        out[f"pvt_{label}"] = [best_pvt.corner, best_pvt.vdd, best_pvt.temp_c]
    return out


@task("macro-bank")
def macro_bank(params: Dict[str, Any], context: Dict[str, Any]) -> Dict[str, Any]:
    """March m-LZ escape classification of one bank of an SRAM macro.

    The bank is the campaign unit: its variation map regenerates
    deterministically from ``(seed, geometry, bank)`` inside the worker
    (nothing is pickled), its DRV map costs ``buckets`` bucketed solves
    shared through the pair memo, and the per-bank escape counters are
    recorded here so worker-side recorders carry them home into the
    merged ``report.json`` (rendered by ``repro stats``).
    """
    from .. import obs
    from ..sram.macro import MacroSpec, bank_escape_summary

    cell = _cell(context)
    spec = MacroSpec(
        words=params["words"], bits=params["bits"],
        banks=params["banks"], seed=params["seed"],
    )
    summary = bank_escape_summary(
        spec, params["bank"],
        vddcc=params["vddcc"], ds_time=params["ds_time"],
        mission_time=params["mission_time"], corner=params["corner"],
        temp_c=params["temp_c"], cell=cell, buckets=params["buckets"],
    )
    for metric in ("cells", "weak", "detected", "escaped"):
        obs.count(f"macro.bank.{params['bank']}.{metric}", summary[metric])
    return summary


@task("probe")
def probe(params: Dict[str, Any], context: Dict[str, Any]) -> Dict[str, Any]:
    """Cheap deterministic scheduling probe (tests, CI smoke, benches).

    Computes a pure function of its params - optionally spinning
    ``spin`` hash rounds or sleeping ``sleep_ms`` to emulate real task
    cost - so the daemon and pool machinery can be exercised end to end
    without dragging the solver stack in.  Registered at package level
    (unlike test-local kinds) so subprocess pool workers can look it up.
    """
    import time as _time

    x = params["x"]
    digest = hashlib.sha256(repr(x).encode("utf-8")).hexdigest()
    for _ in range(int(params.get("spin", 0))):
        digest = hashlib.sha256(digest.encode("ascii")).hexdigest()
    sleep_ms = params.get("sleep_ms", 0)
    if sleep_ms:
        _time.sleep(float(sleep_ms) / 1e3)
    scale = context.get("scale", 1) if context else 1
    return {"y": x * scale, "digest": digest[:16]}


@task("mc-shard")
def mc_shard(params: Dict[str, Any], context: Dict[str, Any]) -> Dict[str, Any]:
    """One shard of the Monte Carlo DRV study.

    The shard's generator is spawned from ``(seed, shard)``, so the sampled
    population depends only on the spec - never on how many worker
    processes the shards were spread over.
    """
    import numpy as np

    from ..cell.drv import drv_ds_cells
    from ..devices.variation import CellVariation

    cell = _cell(context)
    rng = np.random.default_rng([params["seed"], params["shard"]])
    variations = [CellVariation.sample(rng) for _ in range(params["n_samples"])]
    samples = drv_ds_cells(variations, params["corner"], params["temp_c"], cell)
    return {"samples": samples.tolist()}
