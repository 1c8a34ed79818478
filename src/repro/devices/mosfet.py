"""EKV-style MOSFET compact model.

A single continuous expression covers weak inversion (subthreshold leakage)
through strong inversion::

    Id = 2 n beta phi_t^2 [ F(u_f) - F(u_r) ] (1 + lambda Vds)

    u_f = (Vgs - Vth) / (n phi_t)         (forward normalised voltage)
    u_r = (Vgs - Vth - n Vds) / (n phi_t) (reverse normalised voltage)
    F(u) = softplus(u / 2)^2,  softplus(x) = ln(1 + e^x)

Limits: in strong inversion / saturation ``F(u_f) >> F(u_r)`` and
``Id -> beta (Vgs - Vth)^2 / (2 n)``; in weak inversion
``Id ~ exp((Vgs - Vth)/(n phi_t)) (1 - exp(-Vds/phi_t))`` - the leakage the
data-retention analysis depends on falls out of the same equation.

The model is drain/source symmetric: a negative ``Vds`` is handled by
swapping terminals.  PMOS devices map onto the NMOS equations with all
terminal voltages negated.  Analytic derivatives are provided for the MNA
Newton solver, and all entry points accept NumPy arrays so the SRAM-cell
analysis can be fully vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Tuple

import numpy as np

from ..units import thermal_voltage
from .corners import Corner

#: Gate-oxide capacitance per area (F/m^2), used for gate-RC timing models.
COX_PER_AREA = 1.8e-2

#: Threshold-voltage temperature coefficient (V/K); |Vth| drops when hot.
VTH_TEMP_COEFF = 0.8e-3

#: Mobility temperature exponent: kp ~ (T0/T)^MOBILITY_TEMP_EXP.
MOBILITY_TEMP_EXP = 1.3

_T0_KELVIN = 298.15


@dataclass(frozen=True)
class MosfetParams:
    """Geometry-independent plus geometry parameters of one device.

    ``vth`` is the threshold magnitude at 25 C (positive for both
    polarities); ``kp`` is the process transconductance (mobility x Cox) in
    A/V^2; ``slope`` is the subthreshold slope factor n; ``lambda_`` the
    channel-length-modulation coefficient in 1/V.
    """

    name: str
    polarity: str  # 'n' or 'p'
    w: float  # channel width (m)
    l: float  # channel length (m)
    vth: float = 0.45
    kp: float = 300e-6
    slope: float = 1.35
    lambda_: float = 0.15
    #: Gate tunnelling leakage density (S/m^2 of gate area).  Zero for the
    #: thick-oxide low-power core-cell devices; non-zero for wide thin-oxide
    #: devices such as the regulator's output stage, whose gate-line current
    #: is what makes series opens on that line observable at DC.
    gate_leak_density: float = 0.0

    def __post_init__(self) -> None:
        if self.polarity not in ("n", "p"):
            raise ValueError(f"{self.name}: polarity must be 'n' or 'p'")
        if self.w <= 0 or self.l <= 0:
            raise ValueError(f"{self.name}: W and L must be positive")

    def with_vth_offset(self, delta_vth: float) -> "MosfetParams":
        """Return params with ``delta_vth`` added to the threshold magnitude.

        A *negative* offset makes the device faster/leakier - matching the
        sign convention of the paper's Fig. 4 sigma axis.
        """
        return replace(self, vth=self.vth + delta_vth)

    def scaled(self, w_scale: float) -> "MosfetParams":
        return replace(self, w=self.w * w_scale)


def nmos_params(name: str, w: float, l: float = 40e-9, **overrides) -> MosfetParams:
    """NMOS parameter card with 40nm-low-power-like defaults."""
    return MosfetParams(name=name, polarity="n", w=w, l=l, **overrides)


def pmos_params(name: str, w: float, l: float = 40e-9, **overrides) -> MosfetParams:
    """PMOS parameter card with 40nm-low-power-like defaults."""
    defaults = {"kp": 120e-6}
    defaults.update(overrides)
    return MosfetParams(name=name, polarity="p", w=w, l=l, **defaults)


def _softplus(x):
    """Numerically stable ln(1 + exp(x)) valid for large |x| and arrays."""
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


class MosfetModel:
    """A MOSFET parameter card evaluated at a (corner, temperature) point.

    This object is what :class:`repro.spice.Mosfet` binds to: it exposes
    ``ids(vg, vd, vs)`` returning the drain current and its three terminal
    derivatives, plus an array-friendly ``ids_value`` without derivatives.
    """

    def __init__(self, params: MosfetParams, corner: Corner = None, temp_c: float = 25.0) -> None:
        self.params = params
        self.corner = corner
        self.temp_c = float(temp_c)
        self.name = params.name

        vth = params.vth
        kp = params.kp
        if corner is not None:
            if params.polarity == "n":
                vth += corner.vth_shift_n
                kp *= corner.kp_scale_n
            else:
                vth += corner.vth_shift_p
                kp *= corner.kp_scale_p
        # Temperature dependence: |Vth| decreases and mobility degrades when hot.
        vth -= VTH_TEMP_COEFF * (self.temp_c - 25.0)
        t_kelvin = self.temp_c + 273.15
        kp *= (_T0_KELVIN / t_kelvin) ** MOBILITY_TEMP_EXP

        self.vth_eff = vth
        self.beta = kp * params.w / params.l
        self.phi_t = thermal_voltage(self.temp_c)
        self.n = params.slope
        self.lambda_ = params.lambda_
        self._i0 = 2.0 * self.n * self.beta * self.phi_t**2
        #: ``2 n phi_t``: dividing by it gives ``u / 2`` in one rounding.
        self._two_n_phi = 2.0 * (self.n * self.phi_t)
        #: Total gate-leak conductance (S); split evenly over the two overlaps.
        self.gate_leak_g = params.gate_leak_density * params.w * params.l

    #: The parameters :meth:`_gate_half` and :meth:`_drain_half` read.
    _CURRENT_PARAMS = ("vth_eff", "n", "phi_t", "lambda_", "_i0", "_two_n_phi")

    @classmethod
    def _with_params(cls, first: "MosfetModel", column) -> "MosfetModel":
        """A bare model named after ``first`` whose current parameters are ``column(attr)``."""
        stacked = cls.__new__(cls)
        stacked.params = first.params
        stacked.name = first.name
        for attr in cls._CURRENT_PARAMS:
            setattr(stacked, attr, column(attr))
        return stacked

    @classmethod
    def stack(cls, models: Sequence["MosfetModel"]) -> "MosfetModel":
        """One model whose current parameters are ``(R, 1)`` columns.

        The current is elementwise in them, so row ``r`` of :meth:`ids_value`
        is ``models[r]``'s result bit for bit.  The models must share a
        polarity; only :meth:`ids_value` and :meth:`stack_roles` are served.
        """
        if len({m.params.polarity for m in models}) != 1:
            raise ValueError("MosfetModel.stack: models must share one polarity")
        return cls._with_params(
            models[0],
            lambda attr: np.array([getattr(m, attr) for m in models], dtype=float)[:, None],
        )

    @classmethod
    def stack_roles(cls, roles: Sequence["MosfetModel"], ndim: int) -> "MosfetModel":
        """``D`` device roles, scalar or :meth:`stack` ed alike, on a leading role axis.

        Each current parameter gets shape ``(D,) + (1,) * k + s``, where
        ``s`` is its shape in the roles and ``k`` pads it to ``ndim`` axes, so
        it broadcasts against ``(D,) + shape`` for any ``ndim``-axis points.
        The roles may differ in polarity: the caller forms each role's
        ``vgs`` and ``vds`` in the NMOS convention and applies the sign, so
        only :meth:`_gate_half` and :meth:`_drain_half` are served
        (:class:`repro.cell.vtc.HalfCellKernel`).
        """

        def column(attr):
            values = np.array([getattr(m, attr) for m in roles], dtype=float)
            pad = (1,) * (ndim + 1 - values.ndim)
            return values.reshape((len(roles),) + pad + values.shape[1:])

        return cls._with_params(roles[0], column)

    # ------------------------------------------------------------------ core
    def _gate_half(self, vgs):
        """Drain-independent half of the EKV current: ``(a, h_f, sp_f, f_f)``.

        ``a = vgs - vth_eff`` is the overdrive both normalised voltages
        start from; ``h_f = u_f / 2`` and ``f_f = F(u_f)`` is the forward
        term.  ``a / (2 n phi_t)`` is ``(a / (n phi_t)) / 2`` bit for bit:
        scaling by 2 commutes with rounding, and no operand is subnormal.
        """
        a = vgs - self.vth_eff
        h_f = a / self._two_n_phi
        sp_f = _softplus(h_f)
        return a, h_f, sp_f, sp_f * sp_f

    def _drain_half(self, a, f_f, vds):
        """Drain-dependent half on a gate half: ``(h_r, sp_r, clm, base)``, ``h_r = u_r / 2``.

        The drain current is ``base * clm``.
        """
        h_r = (a - self.n * vds) / self._two_n_phi
        sp_r = _softplus(h_r)
        clm = 1.0 + self.lambda_ * vds
        base = self._i0 * (f_f - sp_r * sp_r)
        return h_r, sp_r, clm, base

    def _terms(self, vgs, vds):
        """Shared front half of the EKV current for vds >= 0.

        Returns ``(h_f, h_r, sp_f, sp_r, clm, base)``; the drain current is
        ``base * clm``.  It is :meth:`_gate_half` then :meth:`_drain_half`;
        :meth:`_forward`, :meth:`ids_value` and the VTC kernel
        (:class:`repro.cell.vtc.HalfCellKernel`) all build on those two, so
        there is one current expression.  The split is exact: ``vgs - vth -
        n*vds`` already evaluates as ``(vgs - vth) - n*vds``.
        """
        a, h_f, sp_f, f_f = self._gate_half(vgs)
        h_r, sp_r, clm, base = self._drain_half(a, f_f, vds)
        return h_f, h_r, sp_f, sp_r, clm, base

    def _forward(self, vgs, vds):
        """NMOS-convention current for vds >= 0, with partials (vgs, vds)."""
        n_phi = self.n * self.phi_t
        h_f, h_r, sp_f, sp_r, clm, base = self._terms(vgs, vds)
        i = base * clm
        # F'(u) = softplus(u/2) * sigmoid(u/2)
        fp_f = sp_f * _sigmoid(h_f)
        fp_r = sp_r * _sigmoid(h_r)
        di_dvgs = self._i0 * (fp_f - fp_r) / n_phi * clm
        di_dvds = self._i0 * fp_r / self.phi_t * clm + base * self.lambda_
        return i, di_dvgs, di_dvds

    def _nids(self, vg, vd, vs) -> Tuple[float, float, float, float]:
        """NMOS-convention drain current + terminal partials, any vds sign."""
        if vd >= vs:
            i, dgs, dds = self._forward(vg - vs, vd - vs)
            return i, dgs, dds, -dgs - dds
        # Swap drain and source: actual current is the negated forward one.
        i, dgs, dds = self._forward(vg - vd, vs - vd)
        di_dvg = -dgs
        di_dvs = -dds
        di_dvd = dgs + dds
        return -i, di_dvg, di_dvd, di_dvs

    def ids(self, vg: float, vd: float, vs: float) -> Tuple[float, float, float, float]:
        """Drain->source current and partials (d/dvg, d/dvd, d/dvs).

        For PMOS devices the returned current is typically negative (it flows
        source -> drain), consistent with the drain->source sign convention.
        """
        if self.params.polarity == "p":
            i, gg, gd, gs = self._nids(-vg, -vd, -vs)
            return -i, gg, gd, gs
        return self._nids(vg, vd, vs)

    # ------------------------------------------------------- vectorised value
    def ids_value(self, vg, vd, vs):
        """Array-friendly drain current without derivatives.

        Accepts scalars or broadcastable NumPy arrays; used by the vectorised
        SRAM-cell VTC/SNM analysis where thousands of bias points are
        evaluated at once.
        """
        vg = np.asarray(vg, dtype=float)
        vd = np.asarray(vd, dtype=float)
        vs = np.asarray(vs, dtype=float)
        if self.params.polarity == "p":
            vg, vd, vs = -vg, -vd, -vs
            sign = -1.0
        else:
            sign = 1.0
        swap = vd < vs
        d_eff = np.where(swap, vs, vd)
        s_eff = np.where(swap, vd, vs)
        vgs = vg - s_eff
        vds = d_eff - s_eff
        *_, clm, base = self._terms(vgs, vds)
        i = base * clm
        i = np.where(swap, -i, i)
        result = sign * i
        if result.ndim == 0:
            return float(result)
        return result

    # --------------------------------------------------------------- parasitics
    def gate_capacitance(self) -> float:
        """Total gate capacitance estimate (channel + 20% overlap), in farads."""
        return 1.2 * COX_PER_AREA * self.params.w * self.params.l

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        corner = self.corner.name if self.corner else "raw"
        return (
            f"MosfetModel({self.name}, {self.params.polarity}, vth_eff="
            f"{self.vth_eff:.3f}V, beta={self.beta:.3e}, {corner}, {self.temp_c:g}C)"
        )
