"""The complete methodology of the paper, as one driver.

Section by section:

1. **Variation analysis** (Section III.B / Fig. 4) - quantify the DRV
   sensitivity of each cell transistor and identify the sign pattern that
   maximises DRV_DS; confirm the 6-sigma worst-case combination.
2. **Worst-case DRV** (Table I context) - evaluate that combination over
   the (corner, temperature) grid.
3. **Defect characterisation** (Section IV / Table II machinery) - build
   the detection matrix of minimal DRF-causing resistances over candidate
   test configurations.
4. **Flow generation** (Section V / Table III) - optimise down to one tap
   per supply voltage while preserving maximal detection of every defect.

Grid sizes are parameters so unit tests can run a reduced pipeline; the
benchmarks run the full one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cell.design import DEFAULT_CELL, CellDesign
from ..cell.drv import drv_lanes, worst_case_drv
from ..devices.pvt import PVT, corner_temp_grid
from ..devices.variation import CELL_TRANSISTORS, CellVariation
from ..regulator.defects import DRF_IDS
from ..regulator.design import DEFAULT_REGULATOR, RegulatorDesign
from .testflow import DetectionMatrix, TestFlow, build_detection_matrix, optimize_flow


@dataclass
class MethodologyReport:
    """Everything the pipeline learned, ready for rendering."""

    transistor_sensitivity: Dict[str, float]
    worst_variation: CellVariation
    drv_worst: float
    drv_worst_pvt: PVT
    matrix: DetectionMatrix
    flow: TestFlow

    def summary(self) -> str:
        lines = [
            "Root-cause methodology report",
            "=============================",
            "1. Per-transistor DRV_DS1 sensitivity (worst sign, 3-sigma, mV):",
        ]
        for name, value in sorted(
            self.transistor_sensitivity.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"     {name}: {value * 1e3:7.1f} mV")
        lines.append(
            f"2. Worst-case DRV_DS = {self.drv_worst * 1e3:.0f} mV "
            f"at {self.drv_worst_pvt.label()}"
        )
        lines.append(
            f"3. Detection matrix over {len(self.matrix.configs)} configurations, "
            f"{len(self.matrix.defect_ids)} DRF-capable defects"
        )
        lines.append("4. " + str(self.flow).replace("\n", "\n   "))
        return "\n".join(lines)


@dataclass
class RetentionTestMethodology:
    """Configurable end-to-end pipeline (Sections III-V)."""

    sigma: float = 3.0
    worst_sigma: float = 6.0
    defect_ids: Sequence[int] = DRF_IDS
    pvt_grid: Optional[Sequence[PVT]] = None
    ds_time: float = 1e-3
    design: RegulatorDesign = field(default_factory=lambda: DEFAULT_REGULATOR)
    cell: CellDesign = field(default_factory=lambda: DEFAULT_CELL)

    def analyze_variation(self) -> Dict[str, float]:
        """DRV_DS1 shift per transistor at the DRV-degrading sign (step 1).

        The degrading sign for stored '1' is negative for the devices of
        the S-driving inverter and the S-side pass gate, positive for the
        other half - Fig. 4's observation 1, verified here empirically by
        taking the worse of both signs.
        """
        variations = [CellVariation.symmetric()] + [
            CellVariation.single(name, sign * self.sigma)
            for name in CELL_TRANSISTORS
            for sign in (-1.0, +1.0)
        ]
        rows = [(variation, "typical", 25.0) for variation in variations]
        base, *drvs = drv_lanes(rows, 0, self.cell).tolist()
        return {
            name: max(0.0, drvs[2 * k] - base, drvs[2 * k + 1] - base)
            for k, name in enumerate(CELL_TRANSISTORS)
        }

    def worst_case(self) -> Tuple[CellVariation, float, PVT]:
        """The 6-sigma worst-case combination and its DRV over PVT (step 2)."""
        variation = CellVariation.worst_case_drv1(self.worst_sigma)
        grid = self.pvt_grid if self.pvt_grid is not None else corner_temp_grid()
        drv, pvt = worst_case_drv(variation, "ds1", pvt_grid=grid, cell=self.cell)
        return variation, drv, pvt

    def characterize(self, drv_worst: float) -> DetectionMatrix:
        """Detection matrix over the 12 candidate configurations (step 3)."""
        return build_detection_matrix(
            drv_worst,
            defect_ids=self.defect_ids,
            ds_time=self.ds_time,
            design=self.design,
            cell=self.cell,
        )

    def run(self) -> MethodologyReport:
        """Execute all four steps and return the consolidated report."""
        sensitivity = self.analyze_variation()
        worst_variation, drv_worst, drv_pvt = self.worst_case()
        matrix = self.characterize(drv_worst)
        flow = optimize_flow(matrix)
        return MethodologyReport(
            transistor_sensitivity=sensitivity,
            worst_variation=worst_variation,
            drv_worst=drv_worst,
            drv_worst_pvt=drv_pvt,
            matrix=matrix,
            flow=flow,
        )
