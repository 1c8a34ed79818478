"""Golden artifact builders: the paper's tables and figures as payloads.

Each artifact is one scientific output of the reproduction - Table I case
studies, Table II minimal defect resistances, Table III's optimised test
flow, the Fig. 4 DRV curves, March m-LZ fault coverage - reduced to a
JSON-able payload plus the :class:`~repro.verify.compare.TolerancePolicy`
that says which of its numbers may drift by how much.  The same builder
produces the golden (at ``--regen`` time) and the actual (at verify time),
so a mismatch can only come from the code's behaviour changing, never from
two serialisation paths drifting apart.

Artifacts are computed at a *tier*:

* ``tiny`` - the smallest scope that still exercises every compared code
  path; cheap enough for the tier-1 test suite to run end to end.
* ``fast`` - the CLI's ``--fast`` scopes; the per-push CI gate.
* ``full`` - the analysis modules' default (paper) scopes; the nightly.

Builders fan grid work out through :mod:`repro.campaign`, so ``jobs > 1``
parallelises a regeneration the same way it does a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..devices.pvt import PVT, corner_temp_grid, paper_pvt_grid
from .compare import TolerancePolicy
from .tolerances import (
    DRV_ABS_V,
    RESISTANCE_REL,
    TIME_REDUCTION_ABS,
    Tolerance,
    VREG_ABS_V,
)

__all__ = [
    "ARTIFACTS",
    "TIERS",
    "Artifact",
    "TierScope",
    "artifact_names",
    "build_payload",
    "scope_for",
]

TIERS = ("tiny", "fast", "full")


@dataclass(frozen=True)
class TierScope:
    """Computation scope of one tier: grids, defect sets, sigma sweeps."""

    name: str
    table1_grid: Tuple[PVT, ...]
    table2_defects: Tuple[int, ...]
    table2_families: Tuple[str, ...]
    table2_grid: Tuple[PVT, ...]
    #: None skips Table III at this tier (the flow derivation is the most
    #: expensive artifact; tiny keeps the suite runnable in CI minutes).
    table3_defects: Optional[Tuple[int, ...]]
    fig4_sigmas: Tuple[float, ...]
    fig4_transistors: Tuple[str, ...]
    fig4_grid: Tuple[PVT, ...]
    #: Macro escape-map scope: (words, bits, banks, DRV buckets per bank).
    #: The seed and test conditions are fixed module constants; only the
    #: geometry/bucketing scales with the tier (tiny shrinks the array,
    #: fast/full run the paper's 4K x 64 DUT).
    macro_geometry: Tuple[int, int, int, int]

    def params(self) -> Dict[str, object]:
        """JSON-able record of the scope, embedded in every golden file."""
        return {
            "table1_grid": [p.label() for p in self.table1_grid],
            "table2_defects": list(self.table2_defects),
            "table2_families": list(self.table2_families),
            "table2_grid": [p.label() for p in self.table2_grid],
            "table3_defects": (
                list(self.table3_defects)
                if self.table3_defects is not None else None
            ),
            "fig4_sigmas": list(self.fig4_sigmas),
            "fig4_transistors": list(self.fig4_transistors),
            "fig4_grid": [p.label() for p in self.fig4_grid],
            "macro_geometry": list(self.macro_geometry),
        }


def scope_for(tier: str) -> TierScope:
    from ..analysis.figure4 import DEFAULT_SIGMAS
    from ..analysis.table2_grid import DEFAULT_TABLE2_GRID, FAMILIES
    from ..devices.variation import CELL_TRANSISTORS
    from ..regulator.defects import DRF_IDS

    hot = tuple(corner_temp_grid(corners=("fs",), temps=(125.0,)))
    if tier == "tiny":
        return TierScope(
            name="tiny",
            table1_grid=hot,
            table2_defects=(1, 16),
            table2_families=("CS2-1", "CS4-1"),
            table2_grid=(PVT("fs", 1.0, 125.0),),
            table3_defects=None,
            fig4_sigmas=(-3.0, 0.0, 3.0),
            fig4_transistors=("mncc1", "mpcc2"),
            fig4_grid=hot,
            macro_geometry=(64, 8, 2, 4),
        )
    if tier == "fast":
        return TierScope(
            name="fast",
            table1_grid=hot,
            table2_defects=(1, 16, 23),
            table2_families=tuple(FAMILIES),
            table2_grid=tuple(
                paper_pvt_grid(corners=("fs",), temps=(125.0,))
            ),
            table3_defects=(1, 3, 4),
            fig4_sigmas=(-6.0, -3.0, 0.0, 3.0, 6.0),
            fig4_transistors=tuple(CELL_TRANSISTORS),
            fig4_grid=hot,
            macro_geometry=(4096, 64, 8, 8),
        )
    if tier == "full":
        return TierScope(
            name="full",
            table1_grid=tuple(corner_temp_grid()),
            table2_defects=tuple(DRF_IDS),
            table2_families=tuple(FAMILIES),
            table2_grid=tuple(DEFAULT_TABLE2_GRID),
            table3_defects=tuple(DRF_IDS),
            fig4_sigmas=tuple(DEFAULT_SIGMAS),
            fig4_transistors=tuple(CELL_TRANSISTORS),
            fig4_grid=tuple(corner_temp_grid()),
            macro_geometry=(4096, 64, 8, 16),
        )
    raise ValueError(f"unknown tier {tier!r}; expected one of {TIERS}")


# --------------------------------------------------------------- builders


def _campaign_kwargs(jobs: int, cache_dir: Optional[str]) -> Dict[str, object]:
    return {"jobs": jobs, "cache_dir": cache_dir}


def build_table1(scope: TierScope, jobs: int = 1,
                 cache_dir: Optional[str] = None) -> dict:
    """Table I: per-case-study worst-case DRVs plus their arg-max PVT."""
    from ..analysis.case_studies import table1_rows

    rows = {}
    for row in table1_rows(pvt_grid=list(scope.table1_grid)):
        rows[row.case.name] = {
            "n_cells": row.case.n_cells,
            "drv_ds0": row.drv_ds0,
            "drv_ds1": row.drv_ds1,
            "drv_ds": row.drv_ds,
            "worst_pvt": row.worst_pvt.label(),
        }
    return {"rows": rows}


def build_table2(scope: TierScope, jobs: int = 1,
                 cache_dir: Optional[str] = None) -> dict:
    """Table II: minimal DRF-causing resistance per (defect, case study)."""
    from ..analysis.table2 import run_table2_campaign

    rows, _result = run_table2_campaign(
        defect_ids=scope.table2_defects,
        families=scope.table2_families,
        pvt_grid=list(scope.table2_grid),
        **_campaign_kwargs(jobs, cache_dir),
    )
    cells = {}
    for row in rows:
        entry = {}
        for family, cell in row.cells.items():
            entry[family] = {
                "min_resistance": cell.min_resistance,
                "pvt": cell.pvt.label() if cell.pvt is not None else None,
            }
        cells[f"Df{row.defect_id}"] = entry
    return {"cells": cells}


def build_table3(scope: TierScope, jobs: int = 1,
                 cache_dir: Optional[str] = None) -> dict:
    """Table III: the derived tap ladder and its test-time reduction."""
    from ..analysis.table3 import run_table3_campaign

    assert scope.table3_defects is not None
    flow, _result = run_table3_campaign(
        defect_ids=scope.table3_defects,
        **_campaign_kwargs(jobs, cache_dir),
    )
    iterations = []
    for iteration in flow.iterations:
        config = iteration.config
        iterations.append({
            "vdd": config.vdd,
            "vrefsel": config.vrefsel.name,
            "vreg": config.vreg_expected,
            "ds_time_ms": config.ds_time * 1e3,
            "n_detected": len(iteration.detected_defects),
            "maximized": [f"Df{d}" for d in iteration.maximized_defects],
        })
    return {
        "iterations": iterations,
        "time_reduction": flow.time_reduction(),
    }


def build_figure4(scope: TierScope, jobs: int = 1,
                  cache_dir: Optional[str] = None) -> dict:
    """Fig. 4: DRV_DS1/DRV_DS0 vs per-transistor Vth variation."""
    from ..analysis.figure4 import run_figure4_campaign

    points, _result = run_figure4_campaign(
        sigmas=list(scope.fig4_sigmas),
        transistors=scope.fig4_transistors,
        pvt_grid=list(scope.fig4_grid),
        **_campaign_kwargs(jobs, cache_dir),
    )
    series: Dict[str, Dict[str, dict]] = {}
    for point in points:
        series.setdefault(point.transistor, {})[f"{point.sigma:+g}"] = {
            "drv_ds1": point.drv_ds1,
            "drv_ds0": point.drv_ds0,
        }
    return {"series": series}


#: Fault-instance scope of the march coverage golden (small geometry: March
#: semantics are size-independent and the sweep must stay sub-second).
_MARCH_WORDS = 16
_MARCH_BITS = 4


def _march_fault_families() -> Dict[str, List[Tuple[str, Callable]]]:
    from ..sram.faults import (
        PeripheralPowerGatingFault,
        StuckAtFault,
        TransitionFault,
        drf_ds_variants,
    )

    saf = [
        (f"SAF{v}@{a}.{b}", lambda a=a, b=b, v=v: StuckAtFault(a, b, v))
        for a in (0, 7, 15)
        for b in (0, 3)
        for v in (0, 1)
    ]
    tf = [
        (
            f"TF{'r' if r else 'f'}@{a}",
            lambda a=a, r=r: TransitionFault(a, 1, rising=r),
        )
        for a in (0, 8, 15)
        for r in (True, False)
    ]
    ppg = [("PPG", lambda: PeripheralPowerGatingFault(recovery_ops=3))]
    return {
        "SAF": saf,
        "TF": tf,
        "PPG": ppg,
        "DRF_DS": drf_ds_variants(word=3, bit=1),
    }


def build_march(scope: TierScope, jobs: int = 1,
                cache_dir: Optional[str] = None) -> dict:
    """March library conformance: lengths, complexities and coverage.

    Pins the paper's structural claims (March m-LZ is 5N+4) and the
    coverage matrix that motivates it: full DRF_DS detection for m-LZ, the
    DS0 gap for March LZ, zero retention coverage for the classical tests.
    """
    from ..march import evaluate_coverage, standard_tests
    from ..sram import SRAMConfig

    config = SRAMConfig(n_words=_MARCH_WORDS, word_bits=_MARCH_BITS)
    tests = standard_tests()
    structure = {
        name: {
            "complexity": test.complexity(),
            "length_n32": test.length(32),
            "notation": str(test),
        }
        for name, test in tests.items()
    }
    coverage: Dict[str, Dict[str, float]] = {}
    for name, test in tests.items():
        per_family = {}
        for family, instances in _march_fault_families().items():
            report = evaluate_coverage(test, instances, config=config)
            per_family[family] = report.coverage
        coverage[name] = per_family
    return {"structure": structure, "coverage": coverage}


#: Fixed conditions of the macro escape golden: the mismatch-map seed and
#: the cold-corner deep-sleep test point where the escape population is
#: non-trivial (see :mod:`repro.analysis.macro`).
_MACRO_SEED = 7


def build_macro(scope: TierScope, jobs: int = 1,
                cache_dir: Optional[str] = None) -> dict:
    """Seeded macro escape summary: March m-LZ over a per-cell DRV map.

    Pins the whole array-scale stack end to end - deterministic variation
    maps, quantile-bucketed DRV solves, the vectorized March executor and
    the escape classification - as per-bank cell counts (compared exactly)
    plus the bank DRV extremes (compared to the DRV tolerance).
    """
    from ..analysis.macro import run_macro_campaign
    from ..sram.macro import MacroSpec

    words, bits, banks, buckets = scope.macro_geometry
    summary, _result = run_macro_campaign(
        MacroSpec(words=words, bits=bits, banks=banks, seed=_MACRO_SEED),
        buckets=buckets,
        **_campaign_kwargs(jobs, cache_dir),
    )
    payload_banks = {
        str(row.bank): {
            "cells": row.cells,
            "weak": row.weak,
            "detected": row.detected,
            "escaped": row.escaped,
            "drv_max": row.drv_max,
        }
        for row in summary.banks
    }
    return {
        "banks": payload_banks,
        "totals": {
            "cells": summary.cells,
            "weak": summary.weak,
            "detected": summary.detected,
            "escaped": summary.escaped,
        },
        "conditions": {
            "seed": _MACRO_SEED,
            "vddcc": summary.vddcc,
            "ds_time": summary.ds_time,
            "mission_time": summary.mission_time,
            "corner": summary.corner,
            "temp_c": summary.temp_c,
        },
    }


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Artifact:
    """One golden-checked artifact: its builder and tolerance policy."""

    name: str
    title: str
    build: Callable[..., dict]
    policy: TolerancePolicy

    def available(self, scope: TierScope) -> bool:
        if self.name == "table3":
            return scope.table3_defects is not None
        return True


ARTIFACTS: Dict[str, Artifact] = {
    artifact.name: artifact
    for artifact in (
        Artifact(
            "table1",
            "Table I - case-study DRVs",
            build_table1,
            TolerancePolicy([
                ("rows/*/drv_ds0", Tolerance.abs(DRV_ABS_V)),
                ("rows/*/drv_ds1", Tolerance.abs(DRV_ABS_V)),
                ("rows/*/drv_ds", Tolerance.abs(DRV_ABS_V)),
            ]),
        ),
        Artifact(
            "table2",
            "Table II - minimal DRF-causing resistances",
            build_table2,
            TolerancePolicy([
                ("cells/*/*/min_resistance", Tolerance.rel(RESISTANCE_REL)),
            ]),
        ),
        Artifact(
            "table3",
            "Table III - optimised test flow",
            build_table3,
            TolerancePolicy([
                ("iterations/*/vreg", Tolerance.abs(VREG_ABS_V)),
                ("time_reduction", Tolerance.abs(TIME_REDUCTION_ABS)),
            ]),
        ),
        Artifact(
            "fig4",
            "Fig. 4 - DRV vs per-transistor Vth variation",
            build_figure4,
            TolerancePolicy([
                ("series/*/*/drv_ds1", Tolerance.abs(DRV_ABS_V)),
                ("series/*/*/drv_ds0", Tolerance.abs(DRV_ABS_V)),
            ]),
        ),
        Artifact(
            "march",
            "March m-LZ structure and fault coverage",
            build_march,
            # Everything in the march payload is structural/classification
            # data: the empty policy compares every leaf exactly.
            TolerancePolicy(),
        ),
        Artifact(
            "macro",
            "Array-scale macro escape map (March m-LZ)",
            build_macro,
            # Cell counts compare exactly; only the DRV extremes carry the
            # solver tolerance.
            TolerancePolicy([
                ("banks/*/drv_max", Tolerance.abs(DRV_ABS_V)),
            ]),
        ),
    )
}


def artifact_names(scope: TierScope) -> List[str]:
    """Artifacts computed at this scope, in registry order."""
    return [
        name for name, artifact in ARTIFACTS.items()
        if artifact.available(scope)
    ]


def build_payload(
    name: str,
    scope: TierScope,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> dict:
    """Compute one artifact's payload at the given scope."""
    return ARTIFACTS[name].build(scope, jobs=jobs, cache_dir=cache_dir)
