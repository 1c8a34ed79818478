"""Table II's default scope: its PVT grid and case-study families.

Kept apart from the driver, :mod:`repro.analysis.table2`, which loads the
regulator netlist and the circuit solver: a tier scope names Table II's
grid without loading either.
"""

from __future__ import annotations

from ..devices.pvt import paper_pvt_grid

#: Default reduced grid covering the paper's arg-min conditions.
DEFAULT_TABLE2_GRID = tuple(
    paper_pvt_grid(corners=("fs", "sf"), temps=(-30.0, 125.0))
)

#: Case-study families of Table II's columns (the -1 flavour of each).
FAMILIES = ("CS1-1", "CS2-1", "CS3-1", "CS4-1", "CS5-1")
