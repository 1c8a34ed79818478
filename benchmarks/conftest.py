"""Benchmark configuration.

Every benchmark regenerates one of the paper's tables or figures and prints
it (run with ``-s`` to see the artifacts), then asserts the *shape* of the
paper's result - orderings, winners, crossovers - rather than absolute
numbers, per EXPERIMENTS.md.

Grids: the default benchmark grids restrict the PVT sweep to the corners
and temperatures that host the paper's arg-min conditions, keeping the full
suite under ~15 minutes.  Set ``REPRO_FULL_GRID=1`` to sweep the paper's
complete 45-condition grid (order of an hour).
"""

import os

import pytest

from repro.devices.pvt import corner_temp_grid, paper_pvt_grid


def full_grid_requested() -> bool:
    return os.environ.get("REPRO_FULL_GRID", "0") == "1"


#: Speedup floors of the compiled backend versus the reference oracle
#: (``bench_spice.py``).  The regulator floor sits ~10% under the worst
#: ratio observed across CI hosts (1.9-2.5x depending on host) so the gate
#: catches real regressions, not scheduler noise on a sub-ms solve.
REGULATOR_SPEEDUP_FLOOR = 1.8
SWEEP_SPEEDUP_FLOOR = 4.0


@pytest.fixture(scope="session")
def drv_grid():
    """(corner, temperature) grid for DRV maximisation (Fig. 4 / Table I)."""
    if full_grid_requested():
        return corner_temp_grid()
    return corner_temp_grid(corners=("fs", "sf"), temps=(-30.0, 125.0))


@pytest.fixture(scope="session")
def characterization_grid():
    """PVT grid for the Table II defect characterisation."""
    if full_grid_requested():
        return paper_pvt_grid()
    return paper_pvt_grid(corners=("fs", "sf"), temps=(125.0,))


@pytest.fixture(scope="session")
def drv_worst_hot():
    from repro.cell import drv_ds1
    from repro.devices import CellVariation

    return drv_ds1(CellVariation.worst_case_drv1(6.0), "fs", 125.0)
