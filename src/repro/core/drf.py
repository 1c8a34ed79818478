"""The DRF_DS fault model and end-to-end retention scenarios.

Section V's definition: *in DS mode, the regulated voltage Vreg is reduced
to a level such that the core-cell array supply voltage is lower than
DRV_DS of the SRAM; as a consequence, one or more core-cells lose the
stored data.*  It is a **dynamic** fault: sensitisation needs the operation
sequence (DSM, WUP, read).

:class:`DRFScenario` wires the whole stack together: a defective regulator
(electrical layer) supplies the VDD_CC that a behavioral SRAM sees during
deep sleep, with the weak-cell population of a chosen variation case study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from ..cell.design import DEFAULT_CELL, CellDesign
from ..cell.drv import drv_ds_pair
from ..devices.pvt import PVT
from ..devices.variation import CellVariation
from ..march.dsl import MarchTest
from ..march.runner import MarchResult, run_march
from ..regulator.defects import DefectSite
from ..regulator.design import DEFAULT_REGULATOR, RegulatorDesign, VrefSelect
from ..regulator.load import WeakCellGroup
from ..regulator.netlist import solve_regulator
from ..sram.memory import LowPowerSRAM, SRAMConfig
from ..sram.retention_engine import RetentionEngine, WeakCell


@dataclass(frozen=True)
class DRF_DS:
    """A concrete data-retention fault in deep-sleep mode.

    The fault exists whenever ``vddcc < drv`` of some cell for longer than
    its flip time; this record names the victims and the supply that caused
    the loss.
    """

    vddcc: float
    victims: Tuple[Tuple[int, int], ...]

    @property
    def is_present(self) -> bool:
        return bool(self.victims)


@dataclass
class DRFScenario:
    """A full sensitisation scenario: defect + PVT + variation population.

    ``weak_cell_locations`` places the variation-affected cells (defaults to
    one cell at (0, 0)); their DRVs are computed from ``variation`` at this
    scenario's corner and temperature.
    """

    pvt: PVT
    vrefsel: VrefSelect
    variation: CellVariation
    defect: Optional[DefectSite] = None
    resistance: float = 0.0
    weak_cell_locations: Sequence[Tuple[int, int]] = ((0, 0),)
    ds_time: float = 1e-3
    design: RegulatorDesign = field(default_factory=lambda: DEFAULT_REGULATOR)
    cell: CellDesign = field(default_factory=lambda: DEFAULT_CELL)
    sram_config: SRAMConfig = field(default_factory=lambda: SRAMConfig(n_words=64, word_bits=8))

    @cached_property
    def weak_drv(self) -> Tuple[float, float]:
        """(DRV_DS1, DRV_DS0) of the variation-affected cells here."""
        return drv_ds_pair(self.variation, self.pvt.corner, self.pvt.temp_c, self.cell)

    @cached_property
    def vddcc(self) -> float:
        """Array supply during deep sleep under this scenario's regulator."""
        drv1, drv0 = self.weak_drv
        weak_groups = (
            WeakCellGroup(count=len(self.weak_cell_locations), drv=max(drv1, drv0)),
        )
        op, _ = solve_regulator(
            self.pvt, self.vrefsel, self.defect, self.resistance,
            weak_groups=weak_groups, design=self.design, cell=self.cell,
        )
        return op.vddcc

    def build_sram(self) -> LowPowerSRAM:
        """A behavioral SRAM whose weak cells carry this scenario's DRVs."""
        drv1, drv0 = self.weak_drv
        weak = [
            WeakCell(addr, bit, drv1=drv1, drv0=drv0)
            for addr, bit in self.weak_cell_locations
        ]
        engine = RetentionEngine(
            weak, corner=self.pvt.corner, temp_c=self.pvt.temp_c, cell=self.cell
        )
        return LowPowerSRAM(self.sram_config, retention=engine)

    def fault(self) -> DRF_DS:
        """Evaluate the scenario without a March test: who loses data?

        Assumes the worst-case stored background per cell (the state whose
        DRV is higher), matching the paper's CSx-1 / CSx-0 convention of
        storing the degraded value.
        """
        drv1, drv0 = self.weak_drv
        sram = self.build_sram()
        background = 1 if drv1 >= drv0 else 0
        victims = []
        vddcc = self.vddcc
        for addr, bit in self.weak_cell_locations:
            sram.force_bit(addr, bit, background)
        lost = sram.retention.flips(vddcc, self.ds_time, sram.peek_bit)
        victims = tuple(lost)
        return DRF_DS(vddcc=vddcc, victims=victims)

    def run_test(self, test: MarchTest) -> MarchResult:
        """Execute a March test end-to-end under this scenario."""
        sram = self.build_sram()
        return run_march(test, sram, vddcc_for_sleep=lambda _i: self.vddcc)
