"""6T SRAM core-cell electrical analysis.

Implements Section III of the paper: the relation between the deep-sleep
data-retention voltage (DRV_DS) and the hold-state static noise margin (SNM),
and the impact of per-transistor Vth variation on both.

* :mod:`repro.cell.design` - cell geometry and model construction.
* :mod:`repro.cell.vtc` - vectorised voltage-transfer-curve solver for the
  cross-coupled inverters (including pass-gate leakage, which dominates at
  retention-level supplies).
* :mod:`repro.cell.snm` - butterfly curves and hold SNM per stored state
  (SNM_DS1 / SNM_DS0), via the 45-degree-rotation largest-square method.
* :mod:`repro.cell.drv` - DRV_DS1 / DRV_DS0 / DRV_DS by lock-step bisection
  on the cell supply, plus worst-case search over (corner, temperature).
* :mod:`repro.cell.leakage` - hold-state leakage of a cell and of the whole
  array (the voltage regulator's load).
* :mod:`repro.cell.retention` - time-to-flip model used to honour the
  paper's "DS time" test parameter.
"""

from .design import CellDesign, DEFAULT_CELL
from .drv import drv_ds, drv_ds0, drv_ds1, drv_ds_pair, worst_case_drv
from .leakage import array_leakage_current, cell_leakage_current
from .retention import flip_time, retains
from .snm import SnmSession, butterfly_curves, snm_ds
from .vtc import inverter_vtc

__all__ = [
    "CellDesign",
    "DEFAULT_CELL",
    "SnmSession",
    "inverter_vtc",
    "butterfly_curves",
    "snm_ds",
    "drv_ds",
    "drv_ds0",
    "drv_ds1",
    "drv_ds_pair",
    "worst_case_drv",
    "cell_leakage_current",
    "array_leakage_current",
    "flip_time",
    "retains",
]
