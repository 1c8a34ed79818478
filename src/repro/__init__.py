"""repro: reproduction of "Test Solution for Data Retention Faults in
Low-Power SRAMs" (Zordan et al., DATE 2013).

The package is layered bottom-up:

* :mod:`repro.spice` - a small nonlinear circuit simulator (MNA + Newton),
  the substitute for the paper's Intel SPICE stack;
* :mod:`repro.devices` - EKV-style MOSFET models, process corners,
  temperature scaling, Vth variation;
* :mod:`repro.cell` - 6T core-cell hold analysis: VTC, SNM, DRV, leakage,
  flip time (Section III);
* :mod:`repro.regulator` - the embedded voltage regulator with 32
  resistive-open defect sites and their characterisation (Section IV);
* :mod:`repro.sram` - behavioral low-power SRAM with ACT/DS/PO power modes
  and functional fault models (Section II);
* :mod:`repro.march` - March test DSL, library (incl. March m-LZ), runner,
  coverage evaluation (Section V);
* :mod:`repro.core` - the paper's contribution: DRF_DS, the methodology
  pipeline, and the optimised test flow (Table III);
* :mod:`repro.analysis` - drivers that regenerate each table and figure.

Cross-cutting infrastructure: :mod:`repro.campaign` (parallel sweep
engine with caching, crash recovery and graceful interrupts),
:mod:`repro.obs` (telemetry), :mod:`repro.watchdog` (per-task deadlines)
and :mod:`repro.chaos` (deterministic fault injection).

The public names are re-exported lazily (PEP 562): ``import repro`` loads
no layer, and each name loads its own layer when first read.

Quickstart::

    from repro import march_m_lz, DRFScenario, PVT, VrefSelect, CellVariation
    from repro.regulator import DEFECTS

    scenario = DRFScenario(
        pvt=PVT("fs", 1.0, 125.0),
        vrefsel=VrefSelect.VREF74,
        variation=CellVariation.worst_case_drv1(6.0),
        defect=DEFECTS[1],
        resistance=100e3,
    )
    result = scenario.run_test(march_m_lz())
    print(result)  # FAIL -> the defect is detected
"""

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cell": ("drv_ds", "drv_ds0", "drv_ds1", "snm_ds", "worst_case_drv"),
    ".core": (
        "DRFScenario",
        "DRF_DS",
        "MethodologyReport",
        "RetentionTestMethodology",
        "TestConfig",
        "TestFlow",
        "all_test_configs",
        "build_detection_matrix",
        "optimize_flow",
        "paper_flow",
    ),
    ".devices": ("PVT", "CellVariation", "paper_pvt_grid"),
    ".march": (
        "march_c_minus",
        "march_lz",
        "march_m_lz",
        "march_ss",
        "mats_plus",
        "run_march",
    ),
    ".regulator": ("DEFECTS", "VrefSelect", "solve_regulator"),
    ".sram": ("LowPowerSRAM", "PowerMode", "SRAMConfig"),
})

__version__ = "1.0.0"

__all__ = [
    "PVT",
    "CellVariation",
    "paper_pvt_grid",
    "snm_ds",
    "drv_ds",
    "drv_ds0",
    "drv_ds1",
    "worst_case_drv",
    "VrefSelect",
    "DEFECTS",
    "solve_regulator",
    "LowPowerSRAM",
    "SRAMConfig",
    "PowerMode",
    "march_m_lz",
    "march_lz",
    "mats_plus",
    "march_c_minus",
    "march_ss",
    "run_march",
    "DRF_DS",
    "DRFScenario",
    "TestConfig",
    "TestFlow",
    "all_test_configs",
    "build_detection_matrix",
    "optimize_flow",
    "paper_flow",
    "RetentionTestMethodology",
    "MethodologyReport",
    "__version__",
]
