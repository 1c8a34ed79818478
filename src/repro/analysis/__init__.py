"""Experiment drivers: one module per paper artifact.

* :mod:`repro.analysis.case_studies` - Table I (the CS1..CS5 scenarios)
* :mod:`repro.analysis.figure4` - Fig. 4 (DRV vs per-transistor variation)
* :mod:`repro.analysis.table2` - Table II (min defect resistance per CS)
* :mod:`repro.analysis.table3` - Table III (optimised test flow)
* :mod:`repro.analysis.power_savings` - Section IV.B power observations
* :mod:`repro.analysis.montecarlo` - array-level DRV statistics (the
  process-variation data the paper had from silicon, here sampled)
* :mod:`repro.analysis.macro` - array-scale macro escape maps (March m-LZ
  over per-cell variation maps, one campaign task per bank)

Every driver returns plain dataclasses and offers a ``render()`` for the
paper-style text table, so benchmarks and examples share one code path.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".case_studies": (
        "CASE_STUDIES",
        "CaseStudy",
        "render_table1",
        "table1_rows",
    ),
    ".ds_time": ("DsTimeResult", "ds_time_sweep", "render_ds_time"),
    ".figure4": (
        "Figure4Point",
        "figure4_spec",
        "figure4_sweep",
        "render_figure4",
        "run_figure4_campaign",
    ),
    ".macro": (
        "MacroBankRow",
        "MacroSummary",
        "macro_spec",
        "render_macro",
        "run_macro_campaign",
    ),
    ".montecarlo": (
        "MonteCarloResult",
        "drv_distribution",
        "montecarlo_spec",
        "render_montecarlo",
        "run_montecarlo_campaign",
    ),
    ".power_savings": ("PowerComparison", "power_comparison", "render_power"),
    ".table2": (
        "Table2Row",
        "render_table2",
        "run_table2_campaign",
        "table2_rows",
        "table2_spec",
    ),
    ".transient_validation": (
        "ValidationPoint",
        "gate_settling_comparison",
        "max_relative_error",
        "rail_discharge_comparison",
    ),
    ".table3": (
        "detection_matrix_spec",
        "render_table3",
        "run_table3_campaign",
        "table3_flow",
    ),
    ".tap_tradeoff": (
        "TapOperatingPoint",
        "recommended_tap",
        "render_tap_tradeoff",
        "tap_tradeoff",
    ),
})

__all__ = [
    "CaseStudy",
    "CASE_STUDIES",
    "table1_rows",
    "render_table1",
    "Figure4Point",
    "figure4_sweep",
    "render_figure4",
    "Table2Row",
    "table2_rows",
    "table2_spec",
    "run_table2_campaign",
    "render_table2",
    "table3_flow",
    "detection_matrix_spec",
    "run_table3_campaign",
    "render_table3",
    "figure4_spec",
    "run_figure4_campaign",
    "montecarlo_spec",
    "run_montecarlo_campaign",
    "render_montecarlo",
    "MacroBankRow",
    "MacroSummary",
    "macro_spec",
    "run_macro_campaign",
    "render_macro",
    "PowerComparison",
    "power_comparison",
    "render_power",
    "MonteCarloResult",
    "drv_distribution",
    "ds_time_sweep",
    "DsTimeResult",
    "render_ds_time",
    "rail_discharge_comparison",
    "gate_settling_comparison",
    "max_relative_error",
    "ValidationPoint",
    "tap_tradeoff",
    "recommended_tap",
    "render_tap_tradeoff",
    "TapOperatingPoint",
]
