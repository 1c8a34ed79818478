"""Monte Carlo DRV statistics: the process-variation data we don't have.

The paper's analysis rests on Intel's measured within-die variation; we
substitute a standard-normal mismatch model (one sigma multiplier per cell
transistor, scaled by SIGMA_VTH).  This module samples cell populations and
reports the DRV distribution plus the array-level DRV - the maximum over
the array, which is what Section III defines DRV_DS to be ("determined by
the least stable core-cell of the array").

Sampling the full 256K-cell array directly is wasteful; the array DRV for
``n`` cells is estimated from the sample maximum of ``n`` draws via
bootstrap over the simulated population.

For populations beyond a few hundred cells use the sharded campaign
(:func:`run_montecarlo_campaign`): the population splits into fixed shards
whose generators are spawned from ``(seed, shard_index)``, so the sampled
cells - and therefore every statistic - depend only on ``(n_samples, seed,
shards)``, never on how many worker processes executed them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..cell.design import DEFAULT_CELL, CellDesign
from ..cell.drv import drv_ds_cells
from ..devices.variation import CellVariation
from ..campaign import CampaignResult, SweepSpec, TaskPoint, run_campaign

#: Default shard count of the sharded campaign (fixed, not tied to --jobs,
#: so the sampled population is invariant under the worker count).
DEFAULT_SHARDS = 4


@dataclass(frozen=True)
class MonteCarloResult:
    """DRV samples of a simulated cell population at one (corner, temp)."""

    corner: str
    temp_c: float
    samples: np.ndarray  #: per-cell DRV_DS in volts

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def std(self) -> float:
        return float(np.std(self.samples))

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.samples, q))

    def array_drv(self, n_cells: int, rng: Optional[np.random.Generator] = None,
                  n_boot: int = 200) -> Tuple[float, float]:
        """Bootstrap estimate (mean, std) of max-DRV over an n-cell array.

        Resamples ``n_cells`` draws (with replacement) from the simulated
        population ``n_boot`` times and returns statistics of the maximum.
        """
        rng = rng or np.random.default_rng(7)
        maxima = np.array([
            np.max(rng.choice(self.samples, size=n_cells, replace=True))
            for _ in range(n_boot)
        ])
        return float(np.mean(maxima)), float(np.std(maxima))


def drv_distribution(
    n_samples: int = 100,
    corner: str = "typical",
    temp_c: float = 25.0,
    seed: int = 1,
    cell: CellDesign = DEFAULT_CELL,
) -> MonteCarloResult:
    """Sample ``n_samples`` cells and compute each cell's DRV_DS."""
    rng = np.random.default_rng(seed)
    variations = [CellVariation.sample(rng) for _ in range(n_samples)]
    return MonteCarloResult(corner, temp_c, drv_ds_cells(variations, corner, temp_c, cell))


def _shard_sizes(n_samples: int, shards: int) -> List[int]:
    base, extra = divmod(n_samples, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def montecarlo_spec(
    n_samples: int = 100,
    corner: str = "typical",
    temp_c: float = 25.0,
    seed: int = 1,
    shards: int = DEFAULT_SHARDS,
    cell: CellDesign = DEFAULT_CELL,
) -> SweepSpec:
    """Declarative Monte Carlo sweep: one task per population shard."""
    tasks = [
        TaskPoint.make(
            "mc-shard",
            corner=corner, temp_c=float(temp_c), seed=int(seed),
            shard=i, n_samples=size,
        )
        for i, size in enumerate(_shard_sizes(n_samples, shards))
        if size > 0
    ]
    return SweepSpec.build(
        "montecarlo", tasks, context={"cell": cell}, seed=int(seed)
    )


def run_montecarlo_campaign(
    n_samples: int = 100,
    corner: str = "typical",
    temp_c: float = 25.0,
    seed: int = 1,
    shards: int = DEFAULT_SHARDS,
    cell: CellDesign = DEFAULT_CELL,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    retries: int = 1,
    verbose: bool = False,
    observe: bool = False,
    obs_dir: Optional[str] = None,
    deadline_s: Optional[float] = None,
    chaos=None,
) -> Tuple[MonteCarloResult, CampaignResult]:
    """Sample the population in shards; returns (result, campaign result).

    Unlike the table sweeps, a lost shard would silently bias the
    statistics, so any failed shard raises instead of being dropped.
    ``observe``/``obs_dir`` meter the run and place its ``report.json``
    (see :mod:`repro.obs`).
    """
    spec = montecarlo_spec(n_samples, corner, temp_c, seed, shards, cell)
    result = run_campaign(
        spec, jobs=jobs, cache_dir=cache_dir, retries=retries, verbose=verbose,
        observe=observe, obs_dir=obs_dir, deadline_s=deadline_s, chaos=chaos,
    )
    if result.failures:
        errors = "; ".join(r.error or "?" for r in result.failures)
        raise RuntimeError(f"{len(result.failures)} Monte Carlo shards failed: {errors}")
    samples: List[float] = []
    for point in spec.tasks:
        value = result.value_for(point)
        if value is None:
            # Only an interrupted (drained) run leaves shards unrun;
            # report the partial statistics rather than crashing the
            # checkpoint exit path.
            if result.interrupted:
                continue
            raise RuntimeError(f"Monte Carlo shard {point.key} missing")
        samples.extend(value["samples"])
    return MonteCarloResult(corner, float(temp_c), np.array(samples)), result


def render_montecarlo(
    result: MonteCarloResult,
    array_sizes: Tuple[int, ...] = (1024, 65536, 262144),
) -> str:
    """Text summary: distribution statistics + array-level DRV estimates."""
    from ..core.reporting import render_table

    rows = [
        ["samples", f"{len(result.samples)}"],
        ["mean", f"{result.mean * 1e3:.1f} mV"],
        ["std", f"{result.std * 1e3:.1f} mV"],
        ["median", f"{result.quantile(0.5) * 1e3:.1f} mV"],
        ["q99", f"{result.quantile(0.99) * 1e3:.1f} mV"],
    ]
    for n_cells in array_sizes:
        mean, std = result.array_drv(n_cells)
        rows.append([
            f"array DRV ({n_cells} cells)",
            f"{mean * 1e3:.1f} +/- {std * 1e3:.1f} mV",
        ])
    return render_table(
        ["statistic", "value"], rows,
        title=f"Monte Carlo DRV_DS ({result.corner}, {result.temp_c:g}C)",
    )
