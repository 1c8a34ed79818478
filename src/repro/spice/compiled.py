"""Compiled MNA assembly: flat index plans + vectorised stamps.

The reference path (:meth:`Element.stamp` driven by ``_assemble`` in
:mod:`repro.spice.dc`) dispatches into Python once per element per Newton
iteration and accumulates through dict-based helper calls.  For the
circuits here (a 6T cell, a ~10-transistor regulator) that dispatch *is*
the hot path: thousands of DRV/Table-II solves bottom out in it.

A :class:`CompiledCircuit` walks the netlist **once** and compiles it into
flat NumPy index arrays - gather rows for every element terminal, scatter
indices into the flattened Jacobian, a constant linear-part matrix for the
resistive/source skeleton - so each Newton iteration:

* evaluates every batchable MOSFET in **one** vectorised EKV call,
* assembles the linear part with a single mat-vec against the cached
  skeleton matrix,
* scatters the nonlinear contributions with ``np.add.at`` into
  preallocated buffers.

The same plan exposes :meth:`assemble_batch`, which stacks *P* operating
points into ``(P, n)`` / ``(P, n, n)`` buffers so a whole sweep iterates
Newton in lock-step - that is what makes ``solve_dc_batch`` fast: NumPy
per-op overhead is amortised over ``points x devices`` instead of being
paid per device.

Ground handling uses a padded "trash" slot: row/column ``n`` absorbs every
ground contribution unconditionally, and the public views slice it away.

Compatibility contract
----------------------
* Any element type the compiler does not recognise (table-driven array
  loads, timed sources, controlled sources, user subclasses) is stamped
  through the reference :class:`~repro.spice.elements.StampContext` into
  the same buffers - the compiled path never changes semantics, only the
  inner loop of the elements it understands.
* Element *values* (resistances, source voltages, device models) may be
  mutated between solves; call :meth:`refresh` (the solver does this once
  per solve / transient step) to re-gather them.  Topology changes
  (adding elements/nodes) require recompilation, which
  :func:`compiled_plan` detects from the element/unknown counts.
* ``assemble``/``assemble_batch`` return **views into reused buffers**:
  consume them (factor/solve) before the next assembly call.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .circuit import Circuit
from .elements import (
    Capacitor,
    CurrentSource,
    Element,
    Mosfet,
    Resistor,
    StampContext,
    VoltageSource,
)

__all__ = ["CompiledCircuit", "compiled_plan"]

#: Attributes a MOSFET compact model must expose (all scalars) for its
#: devices to join the batched EKV evaluation.  :class:`repro.devices.
#: mosfet.MosfetModel` satisfies this; anything else falls back to the
#: reference stamp.  Polarity comes from ``model.params.polarity``.
_BATCH_MODEL_ATTRS = ("vth_eff", "beta", "phi_t", "n", "lambda_", "gate_leak_g")


def _batchable_model(model) -> bool:
    if not all(hasattr(model, attr) for attr in _BATCH_MODEL_ATTRS):
        return False
    params = getattr(model, "params", None)
    return getattr(params, "polarity", None) in ("n", "p")


class CompiledCircuit:
    """One circuit's compiled assembly plan (see module docstring)."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        # Branch-current unknowns must be placed before indices are frozen.
        for name, index in circuit.branch_offsets().items():
            circuit.element(name).set_branch_index(index)
        self.n = circuit.unknown_count()
        self.n_nodes = circuit.node_count - 1
        self._size = self.n + 1  # padded: slot n absorbs ground rows/cols
        #: Invalidation signature checked by :func:`compiled_plan`.
        self.signature = (len(circuit.elements), self.n)

        row = self._row
        self._resistors: List[Resistor] = []
        self._capacitors: List[Capacitor] = []
        self._vsources: List[VoltageSource] = []
        self._isources: List[CurrentSource] = []
        self._mosfets: List[Mosfet] = []
        self.generic: List[Element] = []
        for element in circuit.elements:
            kind = type(element)
            if kind is Resistor:
                self._resistors.append(element)
            elif kind is Capacitor:
                self._capacitors.append(element)
            elif kind is VoltageSource:
                self._vsources.append(element)
            elif kind is CurrentSource:
                self._isources.append(element)
            elif kind is Mosfet and _batchable_model(element.model):
                self._mosfets.append(element)
            else:
                self.generic.append(element)

        S = self._size
        # ---------------------------------------------------- index plans
        # Linear skeleton entry positions (values re-gathered by refresh()).
        lin_idx: List[int] = []
        for r in self._resistors:
            a, b = row(r.a), row(r.b)
            lin_idx += [a * S + a, b * S + b, a * S + b, b * S + a]
        for v in self._vsources:
            p, m, br = row(v.plus), row(v.minus), v.branch_index
            lin_idx += [p * S + br, m * S + br, br * S + p, br * S + m]
        self._leak_devices = [m for m in self._mosfets
                              if getattr(m.model, "gate_leak_g", 0.0) > 0.0]
        for d in self._leak_devices:
            g = row(d.gate)
            for term in (row(d.source), row(d.drain)):
                lin_idx += [g * S + g, g * S + term, term * S + g,
                            term * S + term]
        self._lin_idx = np.asarray(lin_idx, dtype=np.intp)
        self._lin_vals = np.empty(len(lin_idx))

        # Capacitors: residual rows and Jacobian scatter positions.
        ca = np.asarray([row(c.a) for c in self._capacitors], dtype=np.intp)
        cb = np.asarray([row(c.b) for c in self._capacitors], dtype=np.intp)
        self._cap_a, self._cap_b = ca, cb
        self._cap_ridx = np.concatenate([ca, cb]) if len(ca) else ca
        self._cap_jidx = (
            np.concatenate([ca * S + ca, ca * S + cb, cb * S + ca, cb * S + cb])
            if len(ca) else ca
        )
        self._cap_rvals = np.empty((2, len(ca)))
        self._cap_jvals = np.empty((4, len(ca)))
        self._cap_c = np.empty(len(ca))

        # MOSFET device table: terminal gathers + Jacobian scatter pattern.
        M = len(self._mosfets)
        d = np.asarray([row(m.drain) for m in self._mosfets], dtype=np.intp)
        g = np.asarray([row(m.gate) for m in self._mosfets], dtype=np.intp)
        s = np.asarray([row(m.source) for m in self._mosfets], dtype=np.intp)
        self._mos_d, self._mos_g, self._mos_s = d, g, s
        self._mos_ridx = np.concatenate([d, s]) if M else d
        self._mos_jidx = (
            np.concatenate([d * S + g, d * S + d, d * S + s,
                            s * S + g, s * S + d, s * S + s])
            if M else d
        )
        self._mos_rvals = np.empty((2, M))
        self._mos_jvals = np.empty((6, M))
        # Device parameters (filled by refresh()).
        self._mos_vth = np.empty(M)
        self._mos_i0m = np.empty(M)  # 2 n beta phi_t^2 x multiplier
        self._mos_n = np.empty(M)
        self._mos_phi = np.empty(M)
        self._mos_nphi = np.empty(M)
        self._mos_lambda = np.empty(M)
        self._mos_pol = np.empty(M)
        # Gather targets and elementwise scratch, reused across assemblies
        # (per-shape entries appear lazily for batched evaluation).
        self._mos_vg = np.empty(M)
        self._mos_vd = np.empty(M)
        self._mos_vs = np.empty(M)
        self._scratch: Dict[Tuple[int, ...], List[np.ndarray]] = {}

        # Diagonal positions of the node rows (gmin shunt).
        self._diag_idx = np.arange(self.n_nodes, dtype=np.intp) * (S + 1)

        # ------------------------------------------------ reused buffers
        self._g0 = np.zeros((S, S))
        self._b0 = np.zeros(S)
        self._xpad = np.zeros(S)
        self._xprev_pad = np.zeros(S)
        self._res_pad = np.zeros(S)
        self._jac_pad = np.zeros((S, S))
        self._batch: Dict[int, dict] = {}
        #: Branch row of each plain voltage source (for per-point overrides).
        self._vsource_rows = {v.name: v.branch_index for v in self._vsources}

        self.refresh()

    def _row(self, node: int) -> int:
        """Unknown index of ``node``; ground maps to the padded trash slot."""
        return node - 1 if node else self.n

    # ------------------------------------------------------------- values
    def refresh(self) -> None:
        """Re-gather element values into the plan's arrays.

        Called once per solve (and per transient step): element values may
        be mutated between solves - swept source voltages, a defect
        resistance ramp, a swapped device model - without recompiling.
        """
        vals = self._lin_vals
        k = 0
        for r in self._resistors:
            cond = 1.0 / r.resistance
            vals[k:k + 4] = (cond, cond, -cond, -cond)
            k += 4
        for _v in self._vsources:
            vals[k:k + 4] = (1.0, -1.0, 1.0, -1.0)
            k += 4
        for dev in self._leak_devices:
            half = 0.5 * dev.model.gate_leak_g * dev.multiplier
            # Two overlap conductances: gate->source and gate->drain.
            vals[k:k + 8] = (half, -half, -half, half) * 2
            k += 8
        g0 = self._g0
        g0[:] = 0.0
        np.add.at(g0.ravel(), self._lin_idx, vals)

        b0 = self._b0
        b0[:] = 0.0
        for v in self._vsources:
            b0[v.branch_index] -= v.voltage
        for isrc in self._isources:
            b0[self._row(isrc.a)] += isrc.current
            b0[self._row(isrc.b)] -= isrc.current
        b0[self.n] = 0.0  # trash slot must stay inert

        for j, c in enumerate(self._capacitors):
            self._cap_c[j] = c.capacitance

        for j, dev in enumerate(self._mosfets):
            model = dev.model
            self._mos_vth[j] = model.vth_eff
            # Same expression as MosfetModel.__init__ builds _i0 from; the
            # multiplier is folded in because every output carries exactly
            # one i0 factor (bit-exact for the ubiquitous multiplier of 1).
            i0 = 2.0 * model.n * model.beta * model.phi_t ** 2
            self._mos_i0m[j] = i0 * dev.multiplier
            self._mos_n[j] = model.n
            self._mos_phi[j] = model.phi_t
            self._mos_nphi[j] = model.n * model.phi_t
            self._mos_lambda[j] = model.lambda_
            self._mos_pol[j] = 1.0 if model.params.polarity == "n" else -1.0

    # ---------------------------------------------------------- EKV batch
    def _mos_eval_into(self, vg, vd, vs, out_i, out_ni, partials=None):
        """Vectorised EKV evaluation mirroring ``MosfetModel.ids`` exactly.

        ``vg``/``vd``/``vs`` are owned gather buffers shaped ``(M,)`` or
        ``(P, M)`` and are consumed (overwritten).  Results are written
        straight into the scatter-value slots: the device current and its
        negation, then - when ``partials`` is the six-slot tuple
        ``(gg, gd, gs, -gg, -gd, -gs)`` - the three terminal conductances
        and their negations, the layout ``np.add.at`` expects.  Every
        operation runs in place on preallocated scratch, so the hot path
        performs no allocations.

        The current is finished before any partial is touched, and
        ``partials=None`` returns right there: a residual-only assembly
        skips both sigmoids and the conductance arithmetic, and its
        current has the same bits as the full evaluation's because it *is*
        the full evaluation's prefix.

        The arithmetic reproduces the scalar model operation-for-operation
        (drain/source swap via the sign of ``vd - vs``, PMOS polarity
        folding, the tanh-based sigmoid), so compiled and reference stamps
        agree to the last ulp for unit device multipliers.
        """
        shape = vg.shape
        scratch = self._scratch.get(shape)
        if scratch is None:
            scratch = [np.empty(shape) for _ in range(6)]
            self._scratch[shape] = scratch
        t_vds, t_sgn, t_c, t_d, t_e, t_f = scratch
        pol = self._mos_pol
        np.multiply(vg, pol, out=vg)
        np.multiply(vd, pol, out=vd)
        np.multiply(vs, pol, out=vs)
        # Drain/source symmetry: evaluate at (|vds|, vg - min(vd, vs)) and
        # un-swap with the sign of vd - vs (+1 at vd == vs, like the scalar
        # ``vd >= vs`` branch).
        np.subtract(vd, vs, out=t_vds)
        np.copysign(1.0, t_vds, out=t_sgn)
        np.abs(t_vds, out=t_vds)                    # vds >= 0
        np.minimum(vd, vs, out=t_c)
        np.subtract(vg, t_c, out=vg)                # vgs
        np.subtract(vg, self._mos_vth, out=vg)      # vgs - vth
        np.multiply(self._mos_n, t_vds, out=t_c)
        np.subtract(vg, t_c, out=t_c)               # vgs - vth - n vds
        np.divide(t_c, self._mos_nphi, out=t_c)     # u_r
        np.multiply(t_c, 0.5, out=t_c)              # u_r / 2
        np.divide(vg, self._mos_nphi, out=vg)       # u_f
        np.multiply(vg, 0.5, out=vg)                # u_f / 2
        np.logaddexp(0.0, vg, out=vd)               # sp_f
        np.logaddexp(0.0, t_c, out=vs)              # sp_r
        np.multiply(vd, vd, out=t_d)                # F(u_f)
        np.multiply(vs, vs, out=t_e)                # F(u_r)
        np.subtract(t_d, t_e, out=t_d)
        np.multiply(t_d, self._mos_i0m, out=t_d)    # base = i0 (F_f - F_r)
        np.multiply(self._mos_lambda, t_vds, out=t_e)
        np.add(t_e, 1.0, out=t_e)                   # clm = 1 + lambda vds
        np.multiply(t_d, t_e, out=out_i)            # i (forward frame)
        # Back to circuit frame: sign the current.
        np.multiply(pol, t_sgn, out=t_f)
        np.multiply(out_i, t_f, out=out_i)
        np.negative(out_i, out=out_ni)
        if partials is None:
            return
        out_gg, out_gd, out_gs, out_ngg, out_ngd, out_ngs = partials
        # fp = softplus(u/2) * sigmoid(u/2), sigmoid(x) = (1 + tanh(x/2))/2.
        np.multiply(vg, 0.5, out=vg)
        np.tanh(vg, out=vg)
        np.add(vg, 1.0, out=vg)
        np.multiply(vg, 0.5, out=vg)
        np.multiply(vd, vg, out=vg)                 # fp_f
        np.multiply(t_c, 0.5, out=t_c)
        np.tanh(t_c, out=t_c)
        np.add(t_c, 1.0, out=t_c)
        np.multiply(t_c, 0.5, out=t_c)
        np.multiply(vs, t_c, out=t_c)               # fp_r
        np.subtract(vg, t_c, out=vg)
        np.multiply(vg, self._mos_i0m, out=vg)
        np.divide(vg, self._mos_nphi, out=vg)
        np.multiply(vg, t_e, out=vg)                # di/dvgs
        np.multiply(t_c, self._mos_i0m, out=t_c)
        np.divide(t_c, self._mos_phi, out=t_c)
        np.multiply(t_c, t_e, out=t_c)
        np.multiply(t_d, self._mos_lambda, out=t_d)
        np.add(t_c, t_d, out=t_c)                   # di/dvds
        # Un-swap the partials.
        np.multiply(vg, t_sgn, out=out_gg)          # gg = +-dgs
        np.add(t_sgn, 1.0, out=t_sgn)
        np.multiply(t_sgn, 0.5, out=t_sgn)          # 1 where unswapped
        np.multiply(t_sgn, vg, out=t_e)
        np.add(t_c, t_e, out=out_ngs)               # -gs = dds + [!swap] dgs
        np.negative(out_ngs, out=out_gs)
        np.subtract(1.0, t_sgn, out=t_sgn)          # 1 where swapped
        np.multiply(t_sgn, vg, out=t_sgn)
        np.add(t_c, t_sgn, out=out_gd)              # gd = dds + [swap] dgs
        np.negative(out_gg, out=out_ngg)
        np.negative(out_gd, out=out_ngd)

    # ------------------------------------------------------ single point
    def assemble(
        self,
        x: np.ndarray,
        gmin: float,
        source_scale: float,
        dt: Optional[float] = None,
        x_prev: Optional[np.ndarray] = None,
        jacobian: bool = True,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Residual and Jacobian at ``x`` (views into reused buffers).

        ``jacobian=False`` returns ``(residual, None)``: no skeleton copy,
        gmin diagonal, conductance arithmetic or Jacobian scatter.  The
        residual has the same bits as the full assembly's.
        """
        n, S = self.n, self._size
        xpad = self._xpad
        xpad[:n] = x
        res = self._res_pad
        jac = self._jac_pad if jacobian else None
        np.dot(self._g0, xpad, out=res)
        if source_scale == 1.0:
            res += self._b0
        else:
            res += self._b0 * source_scale
        # gmin shunt on every non-ground node.
        nn = self.n_nodes
        res[:nn] += gmin * xpad[:nn]
        if jacobian:
            jac[:] = self._g0
            jac.ravel()[self._diag_idx] += gmin
        # Capacitor backward-Euler companions (transient only).
        if dt is not None and len(self._cap_c):
            xp = self._xprev_pad
            if x_prev is None:
                xp[:] = 0.0
            else:
                xp[:n] = x_prev
            geq = self._cap_c / dt
            ca, cb = self._cap_a, self._cap_b
            ic = geq * ((xpad[ca] - xpad[cb]) - (xp[ca] - xp[cb]))
            rv = self._cap_rvals
            rv[0] = ic
            rv[1] = -ic
            np.add.at(res, self._cap_ridx, rv.ravel())
            if jacobian:
                jv = self._cap_jvals
                jv[0] = geq
                jv[1] = -geq
                jv[2] = -geq
                jv[3] = geq
                np.add.at(jac.ravel(), self._cap_jidx, jv.ravel())
        # Batched MOSFETs: one vectorised EKV call for every device.
        if len(self._mos_pol):
            np.take(xpad, self._mos_g, out=self._mos_vg)
            np.take(xpad, self._mos_d, out=self._mos_vd)
            np.take(xpad, self._mos_s, out=self._mos_vs)
            rv = self._mos_rvals
            jv = self._mos_jvals
            self._mos_eval_into(
                self._mos_vg, self._mos_vd, self._mos_vs, rv[0], rv[1],
                tuple(jv) if jacobian else None,
            )
            np.add.at(res, self._mos_ridx, rv.ravel())
            if jacobian:
                np.add.at(jac.ravel(), self._mos_jidx, jv.ravel())
        # Everything the compiler does not understand: reference stamps.
        jac_view = jac[:n, :n] if jacobian else None
        if self.generic:
            ctx = StampContext(
                x, res[:n], jac_view,
                source_scale=source_scale, dt=dt, x_prev=x_prev,
            )
            for element in self.generic:
                element.stamp(ctx)
        return res[:n], jac_view

    # ----------------------------------------------------- stacked points
    def vsource_branch_row(self, name: str) -> Optional[int]:
        """Branch row of a compiled plain voltage source, or ``None``."""
        return self._vsource_rows.get(name)

    def _batch_buffers(self, P: int) -> dict:
        buf = self._batch.get(P)
        if buf is None:
            S = self._size
            M = len(self._mos_pol)
            offsets = np.arange(P, dtype=np.intp)
            buf = {
                "xpad": np.zeros((P, S)),
                "res": np.zeros((P, S)),
                "jac": np.zeros((P, S, S)),
                "mos_ridx": (offsets[:, None] * S + self._mos_ridx).ravel()
                if M else None,
                "mos_jidx": (offsets[:, None] * S * S + self._mos_jidx).ravel()
                if M else None,
                "mos_rvals": np.empty((P, 2, M)),
                "mos_jvals": np.empty((P, 6, M)),
                "vg": np.empty((P, M)),
                "vd": np.empty((P, M)),
                "vs": np.empty((P, M)),
            }
            self._batch[P] = buf
        return buf

    def assemble_batch(
        self,
        X: np.ndarray,
        gmin: float,
        source_scale: float,
        source_override: Optional[Tuple[int, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked DC residual/Jacobian for ``X`` of shape ``(P, n)``.

        ``source_override`` is ``(branch_row, values)``: the voltage of the
        swept source is taken per point from ``values`` instead of the
        element's scalar value.  Returns views shaped ``(P, n)`` and
        ``(P, n, n)`` into buffers reused across calls.
        """
        P = X.shape[0]
        n, S = self.n, self._size
        buf = self._batch_buffers(P)
        xpad = buf["xpad"]
        xpad[:, :n] = X
        res = buf["res"]
        jac = buf["jac"]
        np.matmul(xpad, self._g0.T, out=res)
        res += self._b0 * source_scale
        if source_override is not None:
            row, values = source_override
            # b0 already carries -V_base; correct to the per-point value.
            res[:, row] += (-self._b0[row] - values) * source_scale
        jac[:] = self._g0
        nn = self.n_nodes
        res[:, :nn] += gmin * xpad[:, :nn]
        jac.reshape(P, S * S)[:, self._diag_idx] += gmin
        if len(self._mos_pol):
            np.take(xpad, self._mos_g, axis=1, out=buf["vg"])
            np.take(xpad, self._mos_d, axis=1, out=buf["vd"])
            np.take(xpad, self._mos_s, axis=1, out=buf["vs"])
            rv = buf["mos_rvals"]
            jv = buf["mos_jvals"]
            self._mos_eval_into(
                buf["vg"], buf["vd"], buf["vs"], rv[:, 0], rv[:, 1],
                tuple(jv[:, k] for k in range(6)),
            )
            np.add.at(res.reshape(-1), buf["mos_ridx"], rv.reshape(-1))
            np.add.at(jac.reshape(-1), buf["mos_jidx"], jv.reshape(-1))
        if self.generic:
            for p in range(P):
                ctx = StampContext(
                    X[p], res[p, :n], jac[p, :n, :n],
                    source_scale=source_scale,
                )
                for element in self.generic:
                    element.stamp(ctx)
        return res[:, :n], jac[:, :n, :n]


def compiled_plan(circuit: Circuit) -> CompiledCircuit:
    """The circuit's cached plan, recompiled when the topology changed.

    Value mutations are handled by :meth:`CompiledCircuit.refresh`;
    topology changes (new elements or nodes) alter the signature and
    trigger a fresh compile.
    """
    plan = getattr(circuit, "_compiled_plan", None)
    signature = (len(circuit.elements), circuit.unknown_count())
    if plan is None or plan.signature != signature:
        plan = CompiledCircuit(circuit)
        circuit._compiled_plan = plan
    return plan
