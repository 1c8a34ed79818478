"""Behavioral low-power SRAM (Section II architecture).

A word-oriented 4K x 64 single-port SRAM with the paper's three power modes:

* **ACT** - read/write allowed, core and periphery at VDD;
* **DS** (deep sleep) - periphery gated off, core array held at the
  regulator output Vreg; no operations allowed;
* **PO** (power off) - everything gated; data is lost.

The functional array is bit-accurate and supports injection of the classic
memory fault models (stuck-at, transition, coupling) used to validate the
March engine, the paper's peripheral power-gating fault (the behaviour March
LZ targets), and - the point of the paper - data retention faults in DS
mode, driven by the electrical analysis layers: which cells flip during deep
sleep is decided by comparing the regulator's VDD_CC against each weak
cell's DRV with the flip-time model of :mod:`repro.cell.retention`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".decoder": ("AddressDecoder", "DecoderFault"),
    ".faults": (
        "CouplingFaultIdempotent",
        "CouplingFaultState",
        "DataRetentionFault",
        "Fault",
        "PeripheralPowerGatingFault",
        "StuckAtFault",
        "TransitionFault",
        "UnvectorizedFaultError",
        "drf_ds_variants",
    ),
    ".macro": (
        "MacroSpec",
        "bank_escape_summary",
        "macro_retention",
        "macro_sram",
    ),
    ".memory": ("LowPowerSRAM", "MemoryModeError", "SRAMConfig"),
    ".power_modes": ("PMControl", "PowerMode"),
    ".power_switches": ("PowerSwitchNetwork",),
    ".power_model": ("PowerReport", "static_power"),
    ".retention_engine": (
        "ArrayRetentionEngine",
        "RetentionEngine",
        "WeakCell",
    ),
})

__all__ = [
    "LowPowerSRAM",
    "SRAMConfig",
    "MemoryModeError",
    "PowerMode",
    "PMControl",
    "PowerSwitchNetwork",
    "AddressDecoder",
    "DecoderFault",
    "Fault",
    "StuckAtFault",
    "TransitionFault",
    "CouplingFaultIdempotent",
    "CouplingFaultState",
    "DataRetentionFault",
    "drf_ds_variants",
    "UnvectorizedFaultError",
    "PeripheralPowerGatingFault",
    "RetentionEngine",
    "ArrayRetentionEngine",
    "WeakCell",
    "MacroSpec",
    "macro_retention",
    "macro_sram",
    "bank_escape_summary",
    "static_power",
    "PowerReport",
]
