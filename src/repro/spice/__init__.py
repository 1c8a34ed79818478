"""A small nonlinear circuit simulator (the SPICE substitute).

The paper's electrical experiments were run with an Intel SPICE model of a
40nm low-power process.  That stack is proprietary, so this package provides
the substrate we substitute for it: a modified-nodal-analysis (MNA) solver
with Newton-Raphson iteration, damped steps, gmin and source stepping, DC
sweeps and a backward-Euler transient engine.  Device physics (the MOSFET
compact model) lives in :mod:`repro.devices`; this package only requires a
model object exposing ``ids(vg, vd, vs)``.

Public API
----------
:class:`Circuit`
    Netlist container with named nodes.
:class:`Resistor`, :class:`Capacitor`, :class:`VoltageSource`,
:class:`CurrentSource`, :class:`Mosfet`
    Netlist elements.
:func:`solve_dc`, :func:`dc_sweep`, :func:`solve_transient`
    Analyses returning :class:`Solution` / lists thereof.
:func:`solve_dc_batch`, :class:`SweepSession`, :func:`log_bisect`
    Batched/warm-started sweeps over the compiled assembly plan.
:func:`default_backend`, :func:`set_default_backend`, :func:`using_backend`
    Assembly-backend selection (``"compiled"`` vs the ``"reference"``
    per-element stamp oracle).

Every name is re-exported lazily: its submodule loads when the name is
first read.  The backend selection and :class:`ConvergenceError` come from
:mod:`repro.spice.contract`, which loads no solver, so campaign set-up and
the cell, macro and service paths never import :mod:`repro.spice.dc`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".circuit": ("Circuit",),
    ".elements": (
        "Capacitor",
        "CurrentSource",
        "Element",
        "Mosfet",
        "Resistor",
        "VoltageSource",
    ),
    ".contract": (
        "BACKENDS",
        "ConvergenceError",
        "default_backend",
        "set_default_backend",
        "using_backend",
    ),
    ".dc": ("Solution", "dc_sweep", "solve_dc"),
    ".compiled": ("CompiledCircuit", "compiled_plan"),
    ".sources": (
        "PiecewiseLinearVoltageSource",
        "PulseVoltageSource",
        "VoltageControlledVoltageSource",
    ),
    ".sweep": ("SweepSession", "log_bisect", "solve_dc_batch"),
    ".transient": ("TransientResult", "solve_transient"),
})

__all__ = [
    "BACKENDS",
    "CompiledCircuit",
    "SweepSession",
    "compiled_plan",
    "default_backend",
    "log_bisect",
    "set_default_backend",
    "solve_dc_batch",
    "using_backend",
    "Circuit",
    "Element",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "Mosfet",
    "PulseVoltageSource",
    "PiecewiseLinearVoltageSource",
    "VoltageControlledVoltageSource",
    "Solution",
    "ConvergenceError",
    "solve_dc",
    "dc_sweep",
    "TransientResult",
    "solve_transient",
]
