"""6T core-cell design: geometry and per-transistor model construction.

Transistor naming follows the paper's Fig. 3:

* ``MPcc1`` / ``MNcc1`` - the inverter driving internal node **S**,
* ``MPcc2`` / ``MNcc2`` - the inverter driving internal node **SB**,
* ``MNcc3`` - pass transistor between BL and S,
* ``MNcc4`` - pass transistor between BLB and SB.

The default sizing uses the classic read-stability ratio
pull-down : pass : pull-up = 3 : 2 : 1.5 (in units of minimum width) on a
40 nm drawn length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from ..devices.corners import Corner, get_corner
from ..devices.mosfet import MosfetModel, MosfetParams, nmos_params, pmos_params
from ..devices.variation import SIGMA_VTH, CellVariation

if TYPE_CHECKING:
    from ..spice import Circuit


@dataclass(frozen=True)
class CellDesign:
    """Geometry of the 6T cell (widths/length in metres)."""

    w_pulldown: float = 120e-9
    w_pass: float = 80e-9
    w_pullup: float = 60e-9
    length: float = 40e-9
    sigma_vth: float = SIGMA_VTH

    def base_params(self) -> Dict[str, MosfetParams]:
        """Unvaried parameter cards for the six transistors."""
        return {
            "mpcc1": pmos_params("mpcc1", self.w_pullup, self.length),
            "mncc1": nmos_params("mncc1", self.w_pulldown, self.length),
            "mpcc2": pmos_params("mpcc2", self.w_pullup, self.length),
            "mncc2": nmos_params("mncc2", self.w_pulldown, self.length),
            "mncc3": nmos_params("mncc3", self.w_pass, self.length),
            "mncc4": nmos_params("mncc4", self.w_pass, self.length),
        }

    def models(
        self,
        variation: CellVariation,
        corner: str = "typical",
        temp_c: float = 25.0,
    ) -> Dict[str, MosfetModel]:
        """Instantiate the six transistor models at a (corner, temperature).

        ``variation`` supplies per-transistor sigma multipliers in the
        paper's *signed Vth* convention: a negative sigma lowers Vth
        algebraically, which **strengthens an NMOS** (lower barrier) but
        **weakens a PMOS** (its threshold is negative, so lowering it grows
        the magnitude).  That asymmetry is exactly why Fig. 4's observation 1
        pairs negative variations on MPcc1/MNcc1/MNcc3 - all three changes
        pull the S node down and degrade retention of logic '1'.
        :class:`MosfetParams` stores the threshold *magnitude*, so the offset
        sign is flipped for PMOS devices here.
        """
        corner_obj: Corner = get_corner(corner)
        offsets = variation.vth_offsets(self.sigma_vth)
        models = {}
        for name, params in self.base_params().items():
            delta = offsets[name]
            if params.polarity == "p":
                delta = -delta
            models[name] = MosfetModel(params.with_vth_offset(delta), corner_obj, temp_c)
        return models

    def build_hold_circuit(
        self,
        vdd_cell: float,
        variation: CellVariation,
        corner: str = "typical",
        temp_c: float = 25.0,
    ) -> Circuit:
        """Full MNA netlist of the cell in deep-sleep hold state.

        Word line and both bit lines are grounded (peripheral circuitry is
        switched off in DS mode, Section III.A); the cell supply node is
        ``vddc``.  Used by integration tests to cross-check the vectorised
        VTC/SNM machinery against the general-purpose solver.
        """
        from ..spice import Circuit

        models = self.models(variation, corner, temp_c)
        circuit = Circuit(f"6T hold @ {vdd_cell:.3f}V")
        circuit.vsource("vddc", "vddc", "0", vdd_cell)
        # Cross-coupled inverters: S driven by (MPcc1, MNcc1) with input SB.
        circuit.mosfet("mpcc1", "s", "sb", "vddc", models["mpcc1"])
        circuit.mosfet("mncc1", "s", "sb", "0", models["mncc1"])
        circuit.mosfet("mpcc2", "sb", "s", "vddc", models["mpcc2"])
        circuit.mosfet("mncc2", "sb", "s", "0", models["mncc2"])
        # Pass gates: WL = BL = BLB = 0 V in DS mode.
        circuit.mosfet("mncc3", "s", "0", "0", models["mncc3"])
        circuit.mosfet("mncc4", "sb", "0", "0", models["mncc4"])
        return circuit


#: Default cell used across the project unless a caller overrides geometry.
DEFAULT_CELL = CellDesign()
