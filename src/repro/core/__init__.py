"""The paper's contribution: DRF_DS fault model, methodology, test flow.

* :mod:`repro.core.drf` - the deep-sleep data-retention fault model and
  end-to-end scenarios binding a defective regulator to a behavioral SRAM.
* :mod:`repro.core.testflow` - test configurations (VDD, VrefSel, DS time),
  the detection matrix over the 12 possible configurations, and the
  optimiser that reproduces Table III's 3-iteration flow (75% test-time
  reduction).
* :mod:`repro.core.methodology` - the full Section III-V pipeline as one
  driver: variation analysis -> worst-case DRV -> defect characterisation
  -> optimised flow.
* :mod:`repro.core.reporting` - plain-text renderers for the paper's
  tables and figures.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".diagnosis": (
        "Candidate",
        "DiagnosisResult",
        "diagnose",
        "syndrome_for",
    ),
    ".drf": ("DRFScenario", "DRF_DS"),
    ".escape": (
        "EscapeReport",
        "LogUniformResistance",
        "compare_flows",
        "escape_report",
        "flow_escape_summary",
    ),
    ".methodology": ("MethodologyReport", "RetentionTestMethodology"),
    ".testflow": (
        "DetectionMatrix",
        "TestConfig",
        "TestFlow",
        "TestIteration",
        "all_test_configs",
        "build_detection_matrix",
        "optimize_flow",
        "paper_flow",
    ),
    ".reporting": ("render_table",),
})

__all__ = [
    "DRF_DS",
    "DRFScenario",
    "TestConfig",
    "TestIteration",
    "TestFlow",
    "all_test_configs",
    "DetectionMatrix",
    "build_detection_matrix",
    "optimize_flow",
    "paper_flow",
    "RetentionTestMethodology",
    "MethodologyReport",
    "diagnose",
    "DiagnosisResult",
    "Candidate",
    "syndrome_for",
    "LogUniformResistance",
    "EscapeReport",
    "escape_report",
    "flow_escape_summary",
    "compare_flows",
    "render_table",
]
