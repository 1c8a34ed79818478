"""Singular / ill-conditioned netlists: every backend fails the same way.

The solver contract for an unsolvable system is a
:class:`~repro.spice.dc.ConvergenceError` carrying the full strategy
trail in ``.context`` - never a raw ``numpy.linalg.LinAlgError``.  The
reference behavior was pinned first (see each case's comment) and the
compiled backend must conform to it exactly:

* netlists whose MNA matrix is *exactly* singular (conflicting or
  redundant parallel voltage sources produce identical branch rows) make
  every Newton strategy observe a singular factor and the chain exhausts
  with a trail naming each strategy tried;
* netlists that are only singular *before* regularisation (floating
  nodes, current-source-only nodes) are rescued by the gmin shunt and
  converge to the same operating point on every backend - the suite pins
  that they converge rather than assuming they fail.
"""

import numpy as np
import pytest

from repro.spice import (
    BACKENDS,
    Circuit,
    ConvergenceError,
    solve_dc,
    solve_dc_batch,
)
from repro.verify.tolerances import DC_BACKEND_AGREEMENT_V


def _conflicting_vsources():
    """Two parallel voltage sources demanding different node voltages.

    Their branch rows are identical up to the rhs -> the MNA matrix is
    exactly rank-deficient at every gmin and source scale; no strategy
    can converge.  (Pinned reference behavior: ConvergenceError after the
    full chain.)
    """
    circuit = Circuit("conflicting-vsources")
    circuit.vsource("v1", "a", "0", 1.0)
    circuit.vsource("v2", "a", "0", 0.5)
    circuit.resistor("r", "a", "0", 1e3)
    return circuit


def _redundant_vsources():
    """Two identical parallel sources: consistent rhs, still singular.

    The branch-current split between them is indeterminate, so LU hits a
    zero pivot even though node voltages would be well-defined.  (Pinned
    reference behavior: ConvergenceError - the solver does not guess a
    split.)
    """
    circuit = Circuit("redundant-vsources")
    circuit.vsource("v1", "a", "0", 1.0)
    circuit.vsource("v2", "a", "0", 1.0)
    circuit.resistor("r", "a", "0", 1e3)
    return circuit


def _floating_node():
    """A node with no DC path to ground (capacitor-only connection).

    Without regularisation the node's KCL row is all-zero; the gmin shunt
    makes it solvable and parks the node at 0 V.  (Pinned reference
    behavior: converges.)
    """
    circuit = Circuit("floating-node")
    circuit.vsource("v1", "a", "0", 1.0)
    circuit.resistor("r1", "a", "b", 1e3)
    circuit.capacitor("cf", "c", "b", 1e-12)
    return circuit


def _isource_node():
    """A node fed only by current sources (zero diagonal before gmin).

    The opposing sources cancel; only the gmin shunt gives the node
    voltage a unique value.  (Pinned reference behavior: converges.)
    """
    circuit = Circuit("isource-node")
    circuit.isource("i1", "0", "a", 1e-3)
    circuit.isource("i2", "a", "0", 1e-3)
    circuit.resistor("r", "a", "b", 1e3)
    circuit.vsource("v", "b", "0", 0.5)
    return circuit


def _solve(make_circuit, backend):
    return solve_dc(make_circuit(), backend=backend)


class TestExactlySingular:
    """Rank-deficient netlists exhaust the strategy chain identically."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "make_circuit", [_conflicting_vsources, _redundant_vsources],
        ids=["conflicting", "redundant"],
    )
    def test_raises_convergence_error_with_strategy_trail(
        self, make_circuit, backend
    ):
        with pytest.raises(ConvergenceError) as excinfo:
            _solve(make_circuit, backend)
        error = excinfo.value
        strategies = error.context.get("strategies")
        assert strategies, "failure must carry the machine-readable trail"
        # The full chain ran: gmin stepping and source stepping were tried
        # before giving up, and the message names them for a human.
        joined = " ".join(strategies)
        assert "gmin-step" in joined and "source-step" in joined
        assert "tried" in str(error)
        assert error.context.get("vstep_limit")
        assert "total_iterations" in error.context

    @pytest.mark.parametrize(
        "make_circuit", [_conflicting_vsources, _redundant_vsources],
        ids=["conflicting", "redundant"],
    )
    def test_failure_trail_is_identical_across_backends(self, make_circuit):
        trails = {}
        for backend in BACKENDS:
            with pytest.raises(ConvergenceError) as excinfo:
                _solve(make_circuit, backend)
            trails[backend] = excinfo.value.context["strategies"]
        reference = trails["reference"]
        for backend, trail in trails.items():
            assert trail == reference, (
                f"{backend} diverged from the pinned reference trail"
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_raw_linear_algebra_exceptions(self, backend):
        """No LinAlgError may escape, from LAPACK or from numpy."""
        try:
            _solve(_conflicting_vsources, backend)
        except ConvergenceError:
            pass
        # Any other exception type propagates and fails the test.

    def test_singular_point_in_a_batch_sweep_fails_cleanly(self):
        """A batched sweep over a singular netlist raises ConvergenceError
        (from the per-point fallback chain), not a raw LinAlgError."""
        with pytest.raises(ConvergenceError):
            solve_dc_batch(
                _conflicting_vsources(), "v1", [0.8, 1.0, 1.2],
                backend="compiled",
            )


class TestGminRescued:
    """Only-singular-before-gmin netlists converge identically instead."""

    @pytest.mark.parametrize(
        "make_circuit", [_floating_node, _isource_node],
        ids=["floating-node", "isource-node"],
    )
    def test_all_backends_converge_to_the_same_point(self, make_circuit):
        solutions = {
            backend: _solve(make_circuit, backend)
            for backend in BACKENDS
        }
        reference = solutions["reference"]
        n_nodes = make_circuit().node_count - 1
        for backend, solution in solutions.items():
            diff = np.abs(solution.x[:n_nodes] - reference.x[:n_nodes])
            assert diff.max() <= DC_BACKEND_AGREEMENT_V, backend
