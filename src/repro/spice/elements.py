"""Netlist elements and their MNA stamps.

Each element implements :meth:`Element.stamp`, adding its Kirchhoff current
contributions to the residual vector and its partial derivatives to the
Jacobian, both held by a :class:`StampContext`.  The solver iterates
``J . dx = -F`` (damped Newton).

Sign conventions
----------------
* Node currents are *into* the residual of the node they leave (a positive
  current from node ``a`` to node ``b`` adds ``+i`` at ``a`` and ``-i`` at
  ``b``).
* A voltage source's branch current flows from its ``plus`` node through the
  source to its ``minus`` node.
* A MOSFET's drain current is positive flowing drain -> source for NMOS-like
  models (the model object owns polarity).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np


class StampContext:
    """Residual/Jacobian accumulator handed to elements during assembly.

    The unknown vector is ``x = [v(node 1..N-1), branch currents...]``; ground
    (node 0) is fixed at 0 V and has no residual row.

    ``jacobian=None`` makes a residual-only context: the ``add_*`` helpers
    skip their Jacobian writes, and an element whose partials cost extra
    work may skip computing them (``ctx.jacobian is None``).  The residual
    must not depend on that choice, bit for bit.
    """

    def __init__(
        self,
        x: np.ndarray,
        residual: np.ndarray,
        jacobian: Optional[np.ndarray],
        source_scale: float = 1.0,
        dt: Optional[float] = None,
        x_prev: Optional[np.ndarray] = None,
    ) -> None:
        self.x = x
        self.residual = residual
        self.jacobian = jacobian
        #: Multiplier applied to all independent sources (used by source stepping).
        self.source_scale = source_scale
        #: Transient timestep; ``None`` during DC analysis.
        self.dt = dt
        #: Previous-timestep solution for companion models; ``None`` during DC.
        self.x_prev = x_prev

    def v(self, node: int) -> float:
        """Voltage of ``node`` in the current iterate (ground reads 0)."""
        return 0.0 if node == 0 else float(self.x[node - 1])

    def v_prev(self, node: int) -> float:
        """Voltage of ``node`` at the previous timestep (transient only)."""
        if self.x_prev is None or node == 0:
            return 0.0
        return float(self.x_prev[node - 1])

    def unknown(self, index: int) -> float:
        """Read an arbitrary unknown (used for branch currents)."""
        return float(self.x[index])

    def add_current(self, node: int, current: float, derivs: Dict[int, float]) -> None:
        """Add ``current`` leaving ``node``; ``derivs`` maps node -> dI/dV."""
        if node == 0:
            return
        row = node - 1
        self.residual[row] += current
        jacobian = self.jacobian
        if jacobian is None:
            return
        for other, g in derivs.items():
            if other != 0:
                jacobian[row, other - 1] += g

    def add_current_dbranch(self, node: int, branch_index: int, coeff: float) -> None:
        """Add ``coeff`` * (branch current) sensitivity at ``node``."""
        if node == 0 or self.jacobian is None:
            return
        self.jacobian[node - 1, branch_index] += coeff

    def add_branch_residual(self, branch_index: int, value: float, derivs: Dict[int, float]) -> None:
        """Set the residual/jacobian row of a branch-current unknown."""
        self.residual[branch_index] += value
        jacobian = self.jacobian
        if jacobian is None:
            return
        for other, g in derivs.items():
            if other != 0:
                jacobian[branch_index, other - 1] += g

    def add_branch_dbranch(self, branch_index: int, other_branch: int, coeff: float) -> None:
        if self.jacobian is not None:
            self.jacobian[branch_index, other_branch] += coeff


class Element:
    """Base class for netlist elements."""

    def __init__(self, name: str) -> None:
        self.name = name

    def branch_count(self) -> int:
        """Number of extra branch-current unknowns this element introduces."""
        return 0

    def set_branch_index(self, index: int) -> None:
        """Called by the assembler with the element's first branch index."""

    def stamp(self, ctx: StampContext) -> None:
        raise NotImplementedError

    def describe(self, node_names: Sequence[str]) -> str:
        return f"{self.name}"


class Resistor(Element):
    """Linear resistor between nodes ``a`` and ``b``."""

    def __init__(self, name: str, a: int, b: int, resistance: float) -> None:
        super().__init__(name)
        if resistance <= 0:
            raise ValueError(f"{name}: resistance must be positive, got {resistance}")
        self.a = a
        self.b = b
        self.resistance = float(resistance)

    def stamp(self, ctx: StampContext) -> None:
        g = 1.0 / self.resistance
        current = (ctx.v(self.a) - ctx.v(self.b)) * g
        ctx.add_current(self.a, current, {self.a: g, self.b: -g})
        ctx.add_current(self.b, -current, {self.a: -g, self.b: g})

    def describe(self, node_names: Sequence[str]) -> str:
        return f"R {self.name} {node_names[self.a]} {node_names[self.b]} {self.resistance:g}"


class Capacitor(Element):
    """Capacitor; open in DC, backward-Euler companion in transient."""

    def __init__(self, name: str, a: int, b: int, capacitance: float) -> None:
        super().__init__(name)
        if capacitance < 0:
            raise ValueError(f"{name}: capacitance must be non-negative")
        self.a = a
        self.b = b
        self.capacitance = float(capacitance)

    def stamp(self, ctx: StampContext) -> None:
        if ctx.dt is None:
            return
        geq = self.capacitance / ctx.dt
        v_now = ctx.v(self.a) - ctx.v(self.b)
        v_old = ctx.v_prev(self.a) - ctx.v_prev(self.b)
        current = geq * (v_now - v_old)
        ctx.add_current(self.a, current, {self.a: geq, self.b: -geq})
        ctx.add_current(self.b, -current, {self.a: -geq, self.b: geq})

    def describe(self, node_names: Sequence[str]) -> str:
        return f"C {self.name} {node_names[self.a]} {node_names[self.b]} {self.capacitance:g}"


class VoltageSource(Element):
    """Ideal independent voltage source with a branch-current unknown."""

    def __init__(self, name: str, plus: int, minus: int, voltage: float) -> None:
        super().__init__(name)
        self.plus = plus
        self.minus = minus
        self.voltage = float(voltage)
        self._branch = -1

    def branch_count(self) -> int:
        return 1

    def set_branch_index(self, index: int) -> None:
        self._branch = index

    @property
    def branch_index(self) -> int:
        return self._branch

    def stamp(self, ctx: StampContext) -> None:
        ib = ctx.unknown(self._branch)
        ctx.add_current(self.plus, ib, {})
        ctx.add_current_dbranch(self.plus, self._branch, 1.0)
        ctx.add_current(self.minus, -ib, {})
        ctx.add_current_dbranch(self.minus, self._branch, -1.0)
        target = self.voltage * ctx.source_scale
        ctx.add_branch_residual(
            self._branch,
            ctx.v(self.plus) - ctx.v(self.minus) - target,
            {self.plus: 1.0, self.minus: -1.0},
        )

    def describe(self, node_names: Sequence[str]) -> str:
        return f"V {self.name} {node_names[self.plus]} {node_names[self.minus]} {self.voltage:g}"


class CurrentSource(Element):
    """Ideal independent current source pushing current from ``a`` to ``b``."""

    def __init__(self, name: str, a: int, b: int, current: float) -> None:
        super().__init__(name)
        self.a = a
        self.b = b
        self.current = float(current)

    def stamp(self, ctx: StampContext) -> None:
        i = self.current * ctx.source_scale
        ctx.add_current(self.a, i, {})
        ctx.add_current(self.b, -i, {})

    def describe(self, node_names: Sequence[str]) -> str:
        return f"I {self.name} {node_names[self.a]} {node_names[self.b]} {self.current:g}"


class Mosfet(Element):
    """Three-terminal MOSFET bound to a compact model.

    The model object must expose ``ids(vg, vd, vs)`` returning
    ``(i, di_dvg, di_dvd, di_dvs)`` where ``i`` is the current entering the
    drain and leaving the source (model handles polarity and source/drain
    symmetry).  ``multiplier`` scales the device (parallel multiplicity) and is
    used to model e.g. the leakage of a whole core-cell array with one device.
    """

    def __init__(self, name: str, drain: int, gate: int, source: int, model, multiplier: float = 1.0) -> None:
        super().__init__(name)
        self.drain = drain
        self.gate = gate
        self.source = source
        self.model = model
        self.multiplier = float(multiplier)

    def stamp(self, ctx: StampContext) -> None:
        vg = ctx.v(self.gate)
        vd = ctx.v(self.drain)
        vs = ctx.v(self.source)
        i, gg, gd, gs = self.model.ids(vg, vd, vs)
        m = self.multiplier
        i, gg, gd, gs = i * m, gg * m, gd * m, gs * m
        # Accumulate terminal derivatives explicitly: in diode-connected
        # devices two terminals share a node, and a dict literal would
        # silently drop one contribution.
        derivs: Dict[int, float] = {}
        for node, g in ((self.gate, gg), (self.drain, gd), (self.source, gs)):
            derivs[node] = derivs.get(node, 0.0) + g
        ctx.add_current(self.drain, i, derivs)
        ctx.add_current(self.source, -i, {k: -v for k, v in derivs.items()})
        # Gate tunnelling leakage (zero for most devices): modelled as two
        # linear conductances from the gate to source and drain overlaps.
        g_leak = getattr(self.model, "gate_leak_g", 0.0) * m
        if g_leak > 0.0:
            half = 0.5 * g_leak
            for terminal in (self.source, self.drain):
                i_t = half * (vg - ctx.v(terminal))
                ctx.add_current(self.gate, i_t, {self.gate: half, terminal: -half})
                ctx.add_current(terminal, -i_t, {self.gate: -half, terminal: half})

    def describe(self, node_names: Sequence[str]) -> str:
        return (
            f"M {self.name} d={node_names[self.drain]} g={node_names[self.gate]} "
            f"s={node_names[self.source]} model={getattr(self.model, 'name', '?')} m={self.multiplier:g}"
        )
