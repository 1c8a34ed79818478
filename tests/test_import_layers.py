"""Import layering: a run loads only the layers it uses.

Six package ``__init__``s (``repro``, ``repro.analysis``, ``repro.core``,
``repro.sram``, ``repro.regulator``, ``repro.spice``) re-export their
submodules' names lazily (:func:`repro._lazy.lazy_exports`), so importing
a package loads no submodule until one of its names is asked for.  The
cell, macro, March, service and verify paths then never load the circuit
solver (:mod:`repro.spice.dc`) or the regulator netlist; Table II loads
both when it is imported.

The layering checks run in fresh interpreters: the suite's own imports
(``conftest.py`` solves a regulator) would otherwise hide an edge.
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

#: Packages whose ``__init__`` re-exports lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.sram",
    "repro.regulator",
    "repro.spice",
)

#: Modules the solver-free paths must never load.
SOLVER_MODULES = ("repro.spice.dc", "repro.regulator.netlist", "scipy")


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``args`` with the package on its path."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("REPRO_SPICE_BACKEND", None)
    return subprocess.run(
        [sys.executable, *args], cwd=str(REPO), env=env,
        capture_output=True, text=True, timeout=300,
    )


def _loaded_after(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; which solver modules it loaded."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps({m: m in sys.modules for m in sys.argv[1:]}))\n"
    )
    modules = (*SOLVER_MODULES, "repro.spice.compiled")
    done = _python("-c", probe, *modules)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestSolverFreePaths:
    def test_cell_macro_march_serve_verify_never_load_the_solver(self):
        loaded = _loaded_after(
            "import repro, repro.analysis.case_studies, repro.analysis.figure4\n"
            "import repro.analysis.macro, repro.march, repro.serve, repro.verify\n"
            "from repro.verify.artifacts import build_payload, scope_for\n"
            "scope = scope_for('tiny')\n"
            "for name in ('table1', 'fig4', 'march', 'macro'):\n"
            "    assert build_payload(name, scope)\n"
        )
        assert not any(loaded[m] for m in SOLVER_MODULES), loaded

    def test_table2_loads_the_solver_when_imported(self):
        loaded = _loaded_after("import repro.analysis.table2")
        assert loaded["repro.spice.dc"], loaded
        assert loaded["repro.spice.compiled"], loaded

    def test_backend_selection_loads_no_solver(self):
        loaded = _loaded_after(
            "from repro.spice import ConvergenceError, default_backend\n"
            "assert default_backend() == 'compiled'\n"
        )
        assert not loaded["repro.spice.dc"], loaded


class TestLazyExports:
    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_every_exported_name_resolves(self, name):
        package = importlib.import_module(name)
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        listed = dir(package)
        for export in package.__all__:
            value = getattr(package, export)
            assert namespace[export] is value, export
            assert export in listed, export

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_every_listed_name_resolves(self, name):
        package = importlib.import_module(name)
        for attribute in dir(package):
            getattr(package, attribute)

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="no_such_export"):
            getattr(package, "no_such_export")
        assert not hasattr(package, "no_such_export")

    def test_spice_reexports_the_solver_objects(self):
        import repro.spice
        import repro.spice.dc

        for export in ("ConvergenceError", "BACKENDS", "default_backend",
                       "set_default_backend", "using_backend"):
            assert (getattr(repro.spice, export)
                    is getattr(repro.spice.dc, export)), export

    def test_convergence_error_context_survives_pickling(self):
        from repro.spice import ConvergenceError

        error = ConvergenceError(
            "DC analysis failed", context={"strategies": ["newton(3 iters)"],
                                           "vstep_limit": 0.4},
        )
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is ConvergenceError
        assert str(copy) == str(error)
        assert copy.context == error.context


def test_quickstart_example_detects_the_fault():
    """The README's first program, run as a user runs it."""
    done = _python(str(REPO / "examples" / "quickstart.py"))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert any("result: March m-LZ: FAIL" in line for line in lines), lines
    assert any("defect-free device: March m-LZ: PASS" in line
               for line in lines), lines
