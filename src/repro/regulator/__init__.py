"""The embedded voltage regulator of Section II.B / Fig. 5, with defects.

Structure (reconstructed from the paper's text; Fig. 5 itself is an image):

* **Voltage source** - a polysilicon divider R1..R6 from VDD to ground with
  taps Vref78/Vref74/Vref70/Vref64 (0.78/0.74/0.70/0.64 x VDD) and Vbias52
  (0.52 x VDD).
* **Vref/Vbias selector** - connects one tap to the error amplifier's
  reference input according to VrefSel<1:0>, and Vbias52 to the bias input.
* **Error amplifier** - NMOS differential pair MNreg2 (reference input) /
  MNreg3 (feedback input), PMOS current mirror MPreg3 (diode) / MPreg4
  (output load), tail bias MNreg1.
* **Output stage** - PMOS MPreg1 driven by the amplifier output; pull-up
  MPreg2 disables it when the regulator is off.
* **Load** - the core-cell array leakage on the VDD_CC line (256K cells),
  plus the extra near-flip current of variation-affected cells.

Thirty-two resistive-open defect sites Df1..Df32 can be injected one at a
time (:mod:`repro.regulator.defects`); :mod:`repro.regulator.characterize`
finds, per defect and retention scenario, the minimal resistance causing a
data retention fault - reproducing Table II.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".characterize": (
        "CharacterizationResult",
        "classify_defect",
        "min_resistance_for_drf",
        "vreg_curve",
    ),
    ".defects": ("DEFECT_IDS", "DEFECTS", "DefectCategory", "DefectSite"),
    ".design": ("RegulatorDesign", "VREF_TAPS", "VrefSelect"),
    ".netlist": (
        "RegulatorOperatingPoint",
        "RegulatorSession",
        "build_regulator",
        "solve_regulator",
    ),
    ".load": ("ArrayLoad", "LeakageTable"),
})

__all__ = [
    "RegulatorDesign",
    "VrefSelect",
    "VREF_TAPS",
    "DefectSite",
    "DefectCategory",
    "DEFECTS",
    "DEFECT_IDS",
    "ArrayLoad",
    "LeakageTable",
    "build_regulator",
    "solve_regulator",
    "RegulatorSession",
    "RegulatorOperatingPoint",
    "vreg_curve",
    "min_resistance_for_drf",
    "classify_defect",
    "CharacterizationResult",
]
