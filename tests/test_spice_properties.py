"""Property-based checks of the MNA solver on randomised networks.

For arbitrary linear resistor networks with voltage/current sources, the
Newton solver must agree with a directly-assembled linear MNA solve - this
catches stamp sign errors, branch-index bookkeeping bugs and gmin leakage
far more broadly than hand-picked circuits.

The second half pits the compiled assembly plan against the per-element
``Element.stamp`` reference oracle on randomised *device* networks
(MOSFETs with non-unit multipliers, capacitors with backward-Euler
companions, sources under a partial source-stepping scale): both paths
must produce the same residual and Jacobian to within ulp-level rounding,
and the same DC solutions to within nanovolts.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.spice import Circuit, solve_dc
from repro.verify.tolerances import (
    ASSEMBLY_ATOL,
    ASSEMBLY_RTOL,
    DC_BACKEND_AGREEMENT_V,
)


@st.composite
def linear_networks(draw):
    """A random connected resistor network with one vsource and isources."""
    n_nodes = draw(st.integers(2, 6))
    nodes = [f"n{i}" for i in range(n_nodes)]
    circuit = Circuit("random")
    # Spanning chain to ground keeps everything connected.
    chain = ["0"] + nodes
    resistors = []
    for i in range(len(chain) - 1):
        r = draw(st.floats(10.0, 1e5))
        resistors.append((chain[i], chain[i + 1], r))
    # Extra random edges.
    extra = draw(st.integers(0, 4))
    for k in range(extra):
        a = draw(st.sampled_from(chain))
        b = draw(st.sampled_from(chain))
        if a == b:
            continue
        r = draw(st.floats(10.0, 1e5))
        resistors.append((a, b, r))
    for idx, (a, b, r) in enumerate(resistors):
        circuit.resistor(f"r{idx}", a, b, r)
    v = draw(st.floats(-5.0, 5.0))
    circuit.vsource("vs", nodes[0], "0", v)
    n_isrc = draw(st.integers(0, 2))
    for k in range(n_isrc):
        node = draw(st.sampled_from(nodes))
        i = draw(st.floats(-1e-3, 1e-3))
        circuit.isource(f"is{k}", "0", node, i)
    return circuit


def _direct_solve(circuit: Circuit) -> np.ndarray:
    """Assemble and solve the linear MNA system with plain numpy."""
    from repro.spice.elements import CurrentSource, Resistor, VoltageSource

    n_nodes = circuit.node_count - 1
    offsets = circuit.branch_offsets()
    n = circuit.unknown_count()
    G = np.zeros((n, n))
    rhs = np.zeros(n)
    for el in circuit.elements:
        if isinstance(el, Resistor):
            g = 1.0 / el.resistance
            for a, b, sign in ((el.a, el.a, 1), (el.b, el.b, 1), (el.a, el.b, -1), (el.b, el.a, -1)):
                if a and b:
                    G[a - 1, b - 1] += sign * g
        elif isinstance(el, VoltageSource):
            k = offsets[el.name]
            if el.plus:
                G[el.plus - 1, k] += 1.0
                G[k, el.plus - 1] += 1.0
            if el.minus:
                G[el.minus - 1, k] -= 1.0
                G[k, el.minus - 1] -= 1.0
            rhs[k] = el.voltage
        elif isinstance(el, CurrentSource):
            if el.a:
                rhs[el.a - 1] -= el.current
            if el.b:
                rhs[el.b - 1] += el.current
    # Match the solver's gmin shunt for an apples-to-apples comparison.
    for row in range(n_nodes):
        G[row, row] += 1e-12
    return np.linalg.solve(G, rhs)


class TestLinearNetworkEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(linear_networks())
    def test_newton_matches_direct_solve(self, circuit):
        expected = _direct_solve(circuit)
        solution = solve_dc(circuit)
        assert np.allclose(solution.x, expected, rtol=1e-7, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(linear_networks())
    def test_kcl_at_every_node(self, circuit):
        """Total source branch current balances through the network."""
        solution = solve_dc(circuit)
        # The residual at the solution must be numerically zero: re-assemble.
        from repro.spice.dc import _assemble

        residual, _ = _assemble(circuit, solution.x, 1e-12, 1.0)
        assert np.max(np.abs(residual)) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(linear_networks(), st.floats(0.1, 3.0))
    def test_linearity_under_source_scaling(self, circuit, scale):
        """Scaling the only vsource scales every node voltage linearly
        (when no current sources are present)."""
        from repro.spice.elements import CurrentSource

        if any(isinstance(el, CurrentSource) for el in circuit.elements):
            return
        base = solve_dc(circuit).x.copy()
        circuit.element("vs").voltage *= scale
        scaled = solve_dc(circuit).x
        assert np.allclose(scaled, base * scale, rtol=1e-6, atol=1e-9)


@st.composite
def device_circuits(draw):
    """A random mixed network: resistor chain, MOSFETs, caps and sources.

    The resistor spanning chain keeps every node resistively tied to
    ground, so the DC operating point is well-posed regardless of where
    the devices land.  MOSFET multipliers are deliberately non-unit: the
    compiled plan folds them into the device's ``i0`` up front, which is
    exact only to rounding.
    """
    from repro.devices import CORNERS, MosfetModel, nmos_params, pmos_params

    n_nodes = draw(st.integers(2, 6))
    nodes = [f"n{i}" for i in range(n_nodes)]
    chain = ["0"] + nodes
    circuit = Circuit("random-devices")
    for i in range(len(chain) - 1):
        circuit.resistor(f"r{i}", chain[i], chain[i + 1], draw(st.floats(1e3, 1e7)))
    circuit.vsource("vs", nodes[0], "0", draw(st.floats(0.2, 1.2)))
    corner = CORNERS[draw(st.sampled_from(["typical", "fast", "slow", "fs", "sf"]))]
    temp_c = draw(st.sampled_from([-40.0, 25.0, 125.0]))
    for k in range(draw(st.integers(1, 4))):
        d = draw(st.sampled_from(chain))
        g = draw(st.sampled_from(chain))
        s = draw(st.sampled_from(chain))
        if draw(st.booleans()):
            params = nmos_params(f"m{k}", 120e-9)
        else:
            params = pmos_params(f"m{k}", 240e-9)
        circuit.mosfet(
            f"m{k}", d, g, s, MosfetModel(params, corner, temp_c),
            multiplier=draw(st.floats(0.5, 4.0)),
        )
    for k in range(draw(st.integers(0, 3))):
        a = draw(st.sampled_from(chain))
        b = draw(st.sampled_from(chain))
        if a != b:
            circuit.capacitor(f"c{k}", a, b, draw(st.floats(1e-15, 1e-9)))
    for k in range(draw(st.integers(0, 2))):
        node = draw(st.sampled_from(nodes))
        circuit.isource(f"i{k}", "0", node, draw(st.floats(-1e-4, 1e-4)))
    return circuit


class TestCompiledVsReference:
    """The compiled plan against the Element.stamp oracle (the tentpole's
    core correctness contract)."""

    @staticmethod
    def _random_state(data, n):
        values = data.draw(
            st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n),
            label="state",
        )
        return np.asarray(values)

    @settings(max_examples=40, deadline=None)
    @given(device_circuits(), st.data())
    def test_dc_assembly_matches_reference(self, circuit, data):
        from repro.spice.compiled import compiled_plan
        from repro.spice.dc import _assemble, _assign_branch_indices

        _assign_branch_indices(circuit)
        x = self._random_state(data, circuit.unknown_count())
        gmin = data.draw(st.sampled_from([0.0, 1e-12, 1e-6]), label="gmin")
        scale = data.draw(st.floats(0.05, 1.0), label="source_scale")
        residual_ref, jacobian_ref = _assemble(circuit, x, gmin, scale)
        plan = compiled_plan(circuit)
        plan.refresh()
        residual, jacobian = plan.assemble(x, gmin, scale)
        np.testing.assert_allclose(residual, residual_ref, rtol=ASSEMBLY_RTOL, atol=ASSEMBLY_ATOL)
        np.testing.assert_allclose(jacobian, jacobian_ref, rtol=ASSEMBLY_RTOL, atol=ASSEMBLY_ATOL)

    @settings(max_examples=40, deadline=None)
    @given(device_circuits(), st.data())
    def test_transient_companion_assembly_matches_reference(self, circuit, data):
        """Backward-Euler capacitor companions agree between the paths."""
        from repro.spice.compiled import compiled_plan
        from repro.spice.dc import _assemble, _assign_branch_indices

        _assign_branch_indices(circuit)
        n = circuit.unknown_count()
        x = self._random_state(data, n)
        x_prev = self._random_state(data, n)
        dt = data.draw(st.floats(1e-12, 1e-3), label="dt")
        residual_ref, jacobian_ref = _assemble(
            circuit, x, 1e-12, 1.0, dt=dt, x_prev=x_prev
        )
        plan = compiled_plan(circuit)
        plan.refresh()
        residual, jacobian = plan.assemble(x, 1e-12, 1.0, dt=dt, x_prev=x_prev)
        np.testing.assert_allclose(residual, residual_ref, rtol=ASSEMBLY_RTOL, atol=ASSEMBLY_ATOL)
        np.testing.assert_allclose(jacobian, jacobian_ref, rtol=ASSEMBLY_RTOL, atol=ASSEMBLY_ATOL)

    @settings(max_examples=20, deadline=None)
    @given(device_circuits())
    def test_dc_solutions_agree_to_nanovolts(self, circuit):
        from repro.spice import ConvergenceError

        try:
            reference = solve_dc(circuit, backend="reference")
        except ConvergenceError:
            assume(False)
        compiled = solve_dc(circuit, backend="compiled")
        n_nodes = circuit.node_count - 1
        diff = np.abs(reference.x[:n_nodes] - compiled.x[:n_nodes])
        assert diff.max() <= DC_BACKEND_AGREEMENT_V

    @settings(max_examples=20, deadline=None)
    @given(device_circuits(), st.data())
    def test_value_mutation_picked_up_by_refresh(self, circuit, data):
        """Mutating element values and calling refresh() must equal a fresh
        reference assembly - the contract RegulatorSession relies on."""
        from repro.spice.compiled import compiled_plan
        from repro.spice.dc import _assemble, _assign_branch_indices
        from repro.spice.elements import Resistor

        _assign_branch_indices(circuit)
        plan = compiled_plan(circuit)
        plan.refresh()
        factor = data.draw(st.floats(0.5, 2.0), label="resistance_factor")
        for element in circuit.elements:
            if isinstance(element, Resistor):
                element.resistance *= factor
        circuit.element("vs").voltage *= 0.75
        x = self._random_state(data, circuit.unknown_count())
        plan.refresh()
        residual, jacobian = plan.assemble(x, 1e-12, 1.0)
        residual_ref, jacobian_ref = _assemble(circuit, x, 1e-12, 1.0)
        np.testing.assert_allclose(residual, residual_ref, rtol=ASSEMBLY_RTOL, atol=ASSEMBLY_ATOL)
        np.testing.assert_allclose(jacobian, jacobian_ref, rtol=ASSEMBLY_RTOL, atol=ASSEMBLY_ATOL)


# ---------------------------------------------------------------------------
# Residual-only assembly and the Newton loop built on it.
#
# Line-search trials in ``_newton`` assemble the residual only and the
# accepted point gets one full assembly.  That keeps the Newton trajectory
# only if a residual-only assembly returns the full assembly's residual bit
# for bit, on both backends and through every element kind the regulator
# uses (compiled MOSFETs, the table-driven ArrayLoad, generic stamps).


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


def _backend_assembler(circuit, backend):
    from repro.spice.dc import _assign_branch_indices, _make_assembler

    _assign_branch_indices(circuit)
    return _make_assembler(circuit, backend)[0]


def _regulator_cases():
    """Every DC defect site plus the defect-free netlist, with and without
    weak-cell crowbar groups (one group above the operating point's Vddcc,
    one below, so both tails of the logistic turn-on are stamped)."""
    from repro.devices.pvt import PVT
    from repro.regulator.defects import DEFECTS
    from repro.regulator.design import VrefSelect
    from repro.regulator.load import WeakCellGroup
    from repro.regulator.netlist import build_regulator

    pvt = PVT("fs", 1.0, 125.0)
    weak = (WeakCellGroup(64, 0.78), WeakCellGroup(4, 0.55))
    sites = [None] + [d for _n, d in sorted(DEFECTS.items()) if d.timing is None]
    for defect in sites:
        for groups in ((), weak):
            circuit, _nodes = build_regulator(
                pvt, VrefSelect.VREF74, defect,
                2e4 if defect is not None else 0.0, weak_groups=groups,
            )
            yield (defect.number if defect else 0), bool(groups), circuit


class TestResidualOnlyAssembly:
    """(a) ``jacobian=False`` returns the full assembly's residual bits."""

    GMINS = tuple(10.0 ** -k for k in range(3, 13))

    @pytest.mark.parametrize("backend", ["compiled", "reference"])
    def test_regulator_sites_residual_bits(self, backend):
        cases = 0
        for site, weak, circuit in _regulator_cases():
            cases += 1
            assemble = _backend_assembler(circuit, backend)
            n, n_nodes = circuit.unknown_count(), circuit.node_count - 1
            rng = np.random.default_rng(1000 * site + weak)
            for _ in range(2):
                x = np.concatenate([
                    rng.uniform(-0.1, 1.1, n_nodes),
                    rng.normal(0.0, 1e-4, n - n_nodes),
                ])
                for gmin in self.GMINS:
                    scale = float(rng.uniform(0.05, 1.0))
                    full, jac = assemble(x, gmin, scale)
                    assert jac is not None
                    full = full.copy()
                    residual, none = assemble(x, gmin, scale, jacobian=False)
                    assert none is None
                    assert _bits(residual) == _bits(full), (site, weak, gmin, scale)
        assert cases > 50  # ~29 DC sites + defect-free, each with/without weak cells

    @settings(max_examples=40, deadline=None)
    @given(device_circuits(), st.data(), st.sampled_from(["compiled", "reference"]))
    def test_transient_residual_bits(self, circuit, data, backend):
        """Backward-Euler companions (``dt``/``x_prev``) on random device
        networks: the residual-only path skips only the ``geq`` Jacobian."""
        assemble = _backend_assembler(circuit, backend)
        n = circuit.unknown_count()
        x = TestCompiledVsReference._random_state(data, n)
        x_prev = TestCompiledVsReference._random_state(data, n)
        dt = data.draw(st.floats(1e-12, 1e-3), label="dt")
        gmin = data.draw(st.sampled_from(self.GMINS), label="gmin")
        scale = data.draw(st.floats(0.05, 1.0), label="source_scale")
        full, _ = assemble(x, gmin, scale, dt, x_prev)
        full = full.copy()
        residual, none = assemble(x, gmin, scale, dt, x_prev, jacobian=False)
        assert none is None
        assert _bits(residual) == _bits(full)

    @pytest.mark.parametrize("backend", ["compiled", "reference"])
    def test_generic_stamps_residual_bits(self, backend):
        """Timed and controlled sources plus an array load go through the
        reference ``StampContext`` on both backends; under a transient step
        their residual-only stamps skip the Jacobian writes only."""
        from repro.devices import CORNERS, MosfetModel, nmos_params
        from repro.regulator.load import ArrayLoad, WeakCellGroup, leakage_table
        from repro.spice.sources import (
            PulseVoltageSource,
            VoltageControlledVoltageSource,
        )

        circuit = Circuit("generic-transient")
        circuit.add(PulseVoltageSource(
            "vp", circuit.node("in"), 0, 0.0, 1.0, delay=1e-9, rise=1e-9))
        circuit.add(VoltageControlledVoltageSource(
            "e1", circuit.node("buf"), 0, circuit.node("in"), 0, 0.8))
        circuit.resistor("r1", "buf", "load", 2e3)
        circuit.capacitor("c1", "load", "0", 1e-12)
        circuit.mosfet("m1", "load", "in", "0",
                       MosfetModel(nmos_params("m1", 120e-9), CORNERS["fs"], 125.0))
        circuit.add(ArrayLoad(
            "arr", circuit.node("load"), leakage_table("fs", 125.0), 4096,
            (WeakCellGroup(16, 0.45),),
        ))
        circuit.element("vp").advance_to(1.5e-9)
        assemble = _backend_assembler(circuit, backend)
        n = circuit.unknown_count()
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = rng.uniform(-0.2, 1.2, n)
            x_prev = rng.uniform(-0.2, 1.2, n)
            for dt in (None, 1e-10):
                full, _ = assemble(x, 1e-12, 1.0, dt, x_prev if dt else None)
                full = full.copy()
                residual, none = assemble(
                    x, 1e-12, 1.0, dt, x_prev if dt else None, jacobian=False
                )
                assert none is None
                assert _bits(residual) == _bits(full)


def _always_full(assembler):
    """The assembler ignoring ``jacobian=False``: a Jacobian at every
    trial, as the Newton loop assembled before residual-only trials."""
    def assemble(x, gmin, scale, dt=None, x_prev=None, jacobian=True):
        return assembler(x, gmin, scale, dt, x_prev)

    return assemble


def _run_key(run):
    x, iterations, stalled = run
    return (None if x is None else _bits(x)), iterations, stalled


class TestResidualOnlyNewton:
    """(b) residual-only trials keep ``(x bits, iterations)`` of every run,
    with the stall rule switched off."""

    def test_tiny_table2_runs_match_full_jacobian_trials(self, monkeypatch):
        """Every ``_newton`` call of tiny Table II runs twice: through the
        shipped assembler and through ``_always_full``."""
        from repro.spice import dc
        from repro.verify.artifacts import build_payload, scope_for

        monkeypatch.setattr(dc, "_STALL_WINDOW", 10 ** 9)
        real = dc._newton
        runs = []

        def paired(assembler, *args, **kwargs):
            oracle = real(_always_full(assembler), *args, **kwargs)
            result = real(assembler, *args, **kwargs)
            runs.append((_run_key(oracle), _run_key(result)))
            return result

        monkeypatch.setattr(dc, "_newton", paired)
        build_payload("table2", scope_for("tiny"))
        assert len(runs) > 80
        assert [k for k, (a, b) in enumerate(runs) if a != b] == []
        # The Df16 warm start that the stall rule cuts in production runs to
        # max_iter here, so the long failing trajectory is covered too.
        assert any(x is None and iters == 150 for _a, (x, iters, _s) in runs)

    @pytest.mark.parametrize("backend", ["compiled", "reference"])
    def test_seeded_regulator_runs_match(self, monkeypatch, backend):
        from repro.devices.pvt import PVT
        from repro.regulator.defects import DEFECTS
        from repro.regulator.design import VrefSelect
        from repro.regulator.load import WeakCellGroup
        from repro.regulator.netlist import RegulatorSession
        from repro.spice import dc

        monkeypatch.setattr(dc, "_STALL_WINDOW", 10 ** 9)
        outcomes = []
        rng = np.random.default_rng(2013)
        pvt = PVT("fs", 1.0, 125.0)
        for number in (1, 16, 19, 23, 32):
            for groups in ((), (WeakCellGroup(64, 0.70),)):
                session = RegulatorSession(
                    pvt, VrefSelect.VREF74, DEFECTS[number], weak_groups=groups
                )
                session._set_resistance(float(rng.choice([3e3, 3e4, 3e5])))
                assemble = _backend_assembler(session.circuit, backend)
                n_nodes = session.circuit.node_count - 1
                x0 = session._heuristic()
                x0[:n_nodes] += rng.normal(0.0, 0.05, n_nodes)
                for gmin in (1e-12, 1e-6):
                    args = (n_nodes, x0, gmin, 1.0, 150, 0.4, 5e-12)
                    oracle = dc._newton(_always_full(assemble), *args)
                    result = dc._newton(assemble, *args)
                    assert _run_key(oracle) == _run_key(result), (number, gmin)
                    outcomes.append(result[1])
        assert max(outcomes) > 50  # long, heavily damped runs are covered
