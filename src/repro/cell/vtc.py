"""Vectorised voltage-transfer curves of the cell's cross-coupled inverters.

During deep sleep the peripheral circuitry is off: WL = BL = BLB = 0 V, and
the cell supply is ``Vreg``.  Each internal node is then driven by three
devices - pull-up PMOS, pull-down NMOS and the (off but leaking) pass NMOS
to a grounded bit line.  At retention-level supplies the pass-gate leakage is
comparable to the inverter drive and is what ultimately closes the butterfly
eye, so it is part of the VTC by construction.

The output voltage for a whole array of input voltages is found with a
vectorised bisection on the node's KCL residual, which is strictly monotone
in the output voltage.  :class:`HalfCellKernel` evaluates that residual with
the pull-down, the pass gate and the pull-up as one stacked EKV model
(:meth:`MosfetModel.stack_roles`): only the output (every device's drain)
moves during the bisection, so the drain-independent gate halves are formed
once per solve, and a step is one ``(3, ...)`` pass through
:meth:`MosfetModel._drain_half`.  The residual is bit-identical to summing
three ``ids_value`` calls (DESIGN §19, §27).

The bisection's whole state is its bracket ``(lo, hi)``: :func:`bisect_output`
advances a bracket by any number of steps, so a solve stopped after ``s``
steps and resumed for ``44 - s`` more ends on the same bits as 44 steps in
one go, and :meth:`HalfCellKernel.take` resumes any subset of the points.
:class:`~repro.cell.snm.SnmSession` uses both to stop most of the DRV
search's VTCs early and to bisect only the points a lobe reads (DESIGN §24,
§27).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from ..devices.mosfet import MosfetModel

#: Bisection iterations; the final bracket is vdd * 2^-44 (~6e-14 V at
#: 1.1 V), far below solver noise.
_BISECTION_STEPS = 44

#: Steps of the tied-input bisection in :func:`metastable_bracket`: a
#: ``vdd * 2^-12`` bracket (~0.07 mV at 0.3 V) moves a leakage bound by
#: well under 1%.
_METASTABLE_STEPS = 12


def supply_bracket(v_in, vdd_cell, source: str) -> Tuple[np.ndarray, np.ndarray]:
    """The starting bracket ``[0, vdd]`` at the broadcast shape of the inputs.

    Raises ``ValueError``, naming ``source``, for a negative or NaN supply:
    the bracket would be inverted, or the curve NaN.
    """
    vdd_cell = np.asarray(vdd_cell, dtype=float)
    if not np.all(vdd_cell >= 0.0):
        bad = vdd_cell[~(vdd_cell >= 0.0)].flat[0]
        raise ValueError(f"{source}: negative cell supply or NaN: {bad:g} V")
    shape = np.broadcast_shapes(np.shape(v_in), vdd_cell.shape)
    return np.zeros(shape), np.broadcast_to(vdd_cell, shape).astype(float, copy=True)


def half_cell_roles(pullup: MosfetModel, pulldown: MosfetModel, pass_gate: MosfetModel, ndim: int):
    """The device stack :class:`HalfCellKernel` takes, for ``ndim``-axis points."""
    return MosfetModel.stack_roles((pulldown, pass_gate, pullup), ndim)


class HalfCellKernel:
    """``v_out ->`` KCL residual at half-cell outputs, the three devices as one EKV stack.

    ``devices`` is :func:`half_cell_roles`: (pull-down, pass gate, pull-up)
    on a leading axis.  Each device is evaluated in the NMOS convention on
    its drain side, valid for ``0 <= v_out <= vdd``:

    * pull-down: ``vgs = v_in``, ``vds = v_out``;
    * pass gate (gate and bit line at 0 V): ``vgs = 0``, ``vds = v_out``;
    * pull-up, terminals negated: ``vgs = vdd - v_in``, ``vds = vdd - v_out``
      (exactly ``(-v_in) - (-vdd)`` and ``(-v_out) - (-vdd)``).

    The residual is ``(i_down + i_pass) - i_up``, which is exactly the old
    ``i_down + i_pass + (-i_up)``.  The gate halves are formed once, at
    construction; :meth:`take` keeps them for a flat subset of the points.
    """

    def __init__(self, devices: MosfetModel, v_in, vdd_cell) -> None:
        v_in = np.asarray(v_in, dtype=float)
        vdd_cell = np.asarray(vdd_cell, dtype=float)
        shape = np.broadcast_shapes(v_in.shape, vdd_cell.shape)
        vgs = np.empty((3,) + shape)
        vgs[0] = v_in
        vgs[1] = 0.0
        np.subtract(vdd_cell, v_in, out=vgs[2, ...])
        a, _, _, f_f = devices._gate_half(vgs)
        # The supply gets every point axis, so take() can index it like the rest.
        vdd_cell = vdd_cell.reshape((1,) * (len(shape) - vdd_cell.ndim) + vdd_cell.shape)
        self._init(devices, a, f_f, vdd_cell)

    def _init(self, devices, a, f_f, vdd_cell) -> None:
        self.devices = devices
        self.a = a
        self.f_f = f_f
        self.vdd = vdd_cell
        self._vds = np.empty(a.shape)
        self._vds_up = self._vds[2, ...]

    def residual(self, v_out) -> np.ndarray:
        """The KCL residual at ``v_out`` (the points' shape); positive when it is too high."""
        vds = self._vds
        vds[:2] = v_out
        np.subtract(self.vdd, v_out, out=self._vds_up)
        *_, clm, base = self.devices._drain_half(self.a, self.f_f, vds)
        # On 0-d points these are NumPy scalars, whose arithmetic is cheaper.
        i_down, i_pass, i_up = np.multiply(base, clm, out=base)
        return (i_down + i_pass) - i_up

    def take(self, index) -> "HalfCellKernel":
        """The kernel on the points ``index`` (flat, C order) only, as a 1-D point axis.

        Gate halves, per-point device parameters and supplies are gathered,
        not recomputed: every operation is elementwise, so each kept point's
        residual keeps its bits.
        """
        take = _point_taker(index, self.a.shape[1:])
        devices = self.devices._with_params(
            self.devices, lambda attr: take(getattr(self.devices, attr))
        )
        kept = HalfCellKernel.__new__(HalfCellKernel)
        kept._init(devices, take(self.a), take(self.f_f), take(self.vdd[None])[0])
        return kept


def _point_taker(index: np.ndarray, shape) -> Callable[[np.ndarray], np.ndarray]:
    """A function of ``values``: them, broadcast to ``values.shape[:1] + shape``, at ``index``.

    ``index`` holds flat (C order) point indices into ``shape``.

    An axis of length 1 in ``values`` (a per-row parameter column, a
    scalar supply) is broadcast, so its coordinate is 0 for every point.
    The flat index into each such shape is formed once per taker: the
    device parameters of a kernel share their shape.
    """
    flat = {tuple(shape): index}

    def take(values: np.ndarray) -> np.ndarray:
        own = values.shape[1:]
        if own not in flat:
            coords = np.unravel_index(index, shape)
            flat[own] = np.ravel_multi_index(
                [c if n > 1 else np.zeros_like(c) for c, n in zip(coords, own)], own
            )
        return np.take(values.reshape(len(values), -1), flat[own], axis=1)

    return take


def bisect_output(
    residual: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, steps: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``steps`` more bisection steps on the bracket ``(lo, hi)``; returns the new one.

    The root stays inside every bracket, and each step halves it.
    """
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        too_high = residual(mid) > 0.0
        hi = np.where(too_high, mid, hi)
        lo = np.where(too_high, lo, mid)
    return lo, hi


def inverter_vtc(
    v_in: np.ndarray,
    vdd_cell,
    pullup: MosfetModel,
    pulldown: MosfetModel,
    pass_gate: MosfetModel,
) -> np.ndarray:
    """Output voltage of one half-cell inverter for an array of inputs.

    All three device models must already be instantiated at the desired
    (corner, temperature, Vth offset).  ``vdd_cell`` may be a scalar or an
    array broadcastable against ``v_in`` (e.g. a ``(V, 1)`` supply column
    against a ``(V, G)`` input grid for batched-supply butterfly curves).
    Returns an array of the broadcast shape: the midpoint of the bracket
    after :data:`_BISECTION_STEPS` steps.  Raises ``ValueError`` for a
    negative or NaN supply (see :func:`supply_bracket`).
    """
    lo, hi = supply_bracket(v_in, vdd_cell, "inverter_vtc")
    devices = half_cell_roles(pullup, pulldown, pass_gate, lo.ndim)
    kernel = HalfCellKernel(devices, v_in, vdd_cell)
    lo, hi = bisect_output(kernel.residual, lo, hi, _BISECTION_STEPS)
    return 0.5 * (lo + hi)


def metastable_bracket(
    vdd_cell,
    pullup: MosfetModel,
    pulldown: MosfetModel,
    pass_gate: MosfetModel,
) -> Tuple[np.ndarray, np.ndarray]:
    """Bracket ``(lo, hi)`` on the fixed point ``v_m = g(v_m)`` of one half-cell VTC g.

    A tied-input bisection: the residual at ``v_in = v_out = x`` is positive
    exactly when ``x > g(x)`` (the KCL residual rises with the output), and
    ``x - g(x)`` rises strictly because g never does, so the sign changes
    once, at ``v_m``.  For a symmetric cell ``v_m`` is the metastable point
    ``S = SB``, which bounds the hold-state iterates that
    :func:`repro.cell.retention.retains` certifies from (DESIGN §25).
    :data:`_METASTABLE_STEPS` steps from ``[0, vdd]`` leave a bracket
    ``vdd * 2^-12`` wide.  The device stack is formed once; every step
    re-forms the gate halves, since the gate moves with the drain.
    """
    lo, hi = supply_bracket(0.0, vdd_cell, "metastable_bracket")
    devices = half_cell_roles(pullup, pulldown, pass_gate, lo.ndim)

    def tied(x):
        return HalfCellKernel(devices, x, vdd_cell).residual(x)

    return bisect_output(tied, lo, hi, _METASTABLE_STEPS)


def vtc_pair(
    grid: np.ndarray,
    vdd_cell,
    models: Dict[str, MosfetModel],
):
    """Both half-cell VTCs on a common input grid.

    ``vdd_cell`` may be a scalar or broadcastable against ``grid`` (see
    :func:`inverter_vtc`).

    Returns ``(s_of_sb, sb_of_s)``:

    * ``s_of_sb[i]``  - node S driven by inverter 1 (MPcc1/MNCC1, pass MNcc3)
      when node SB is held at ``grid[i]``;
    * ``sb_of_s[i]``  - node SB driven by inverter 2 (MPcc2/MNcc2, pass
      MNcc4) when node S is held at ``grid[i]``.
    """
    s_of_sb = inverter_vtc(grid, vdd_cell, models["mpcc1"], models["mncc1"], models["mncc3"])
    sb_of_s = inverter_vtc(grid, vdd_cell, models["mpcc2"], models["mncc2"], models["mncc4"])
    return s_of_sb, sb_of_s
