"""Differential backend fuzzing: compiled vs reference on random netlists.

The repo carries two numerically independent solver paths: the per-element
``Element.stamp`` reference oracle and the compiled scatter-index plan
(:mod:`repro.spice.compiled`).  The property tests pin their agreement on
hypothesis-generated circuits; this module is the *operational* version of
the same contract - a seeded ``random.Random`` netlist generator (no test
framework in the loop) that any environment can run via
``repro verify --fuzz N``, with failing cases shrunk to a minimal netlist
and dumped to disk as a self-contained JSON repro.

A generated netlist is topology-valid by construction: a resistor spanning
chain ties every node to ground (well-posed DC operating point), a single
swept voltage source feeds the chain, and MOSFETs / capacitors / current
sources land on arbitrary nodes.  Four checks run per case:

* ``assembly_dc``        - residual and Jacobian of one DC assembly agree
  to rounding (ULP-level) at a random state;
* ``assembly_transient`` - ditto for the backward-Euler companion
  (random ``dt`` and previous state);
* ``dc_solution``        - full Newton solves from the same initial state
  agree to nanovolts;
* ``batch_sweep``        - lock-step batched Newton over a source sweep
  agrees with the sequential reference sweep.

Every check is deterministic given the case seed, so a CI failure replays
exactly from the dumped spec (or from ``--fuzz-seed``).
"""

from __future__ import annotations

import json
import math
import random
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .tolerances import (
    ASSEMBLY_ATOL,
    ASSEMBLY_RTOL,
    DC_BACKEND_AGREEMENT_V,
    SWEEP_BATCH_AGREEMENT_V,
)

__all__ = [
    "CHECKS",
    "FuzzFailure",
    "FuzzReport",
    "build_circuit",
    "generate_spec",
    "load_repro",
    "run_case",
    "run_fuzz",
    "shrink_spec",
]

#: Check names in execution order.
CHECKS = ("assembly_dc", "assembly_transient", "dc_solution", "batch_sweep")

_CORNERS = ("typical", "fast", "slow", "fs", "sf")
_TEMPS = (-40.0, 25.0, 125.0)


def _sub_seed(seed: int, label: str) -> int:
    """A deterministic per-purpose RNG seed derived from the case seed."""
    return zlib.crc32(f"{seed}:{label}".encode()) & 0xFFFFFFFF


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def generate_spec(seed: int) -> Dict[str, Any]:
    """One random topology-valid netlist spec (JSON-able, self-contained)."""
    rng = random.Random(seed)
    n_nodes = rng.randint(2, 6)
    nodes = [f"n{i}" for i in range(n_nodes)]
    chain = ["0"] + nodes
    elements: List[Dict[str, Any]] = []
    for i in range(len(chain) - 1):
        elements.append({
            "kind": "resistor", "name": f"r{i}",
            "a": chain[i], "b": chain[i + 1],
            "ohms": _log_uniform(rng, 1e3, 1e7),
            "chain": True,
        })
    elements.append({
        "kind": "vsource", "name": "vs",
        "plus": nodes[0], "minus": "0",
        "volts": rng.uniform(0.2, 1.2),
    })
    corner = rng.choice(_CORNERS)
    temp_c = rng.choice(_TEMPS)
    for k in range(rng.randint(1, 4)):
        elements.append({
            "kind": "mosfet", "name": f"m{k}",
            "d": rng.choice(chain), "g": rng.choice(chain),
            "s": rng.choice(chain),
            "polarity": rng.choice(("nmos", "pmos")),
            "corner": corner, "temp_c": temp_c,
            "multiplier": rng.uniform(0.5, 4.0),
        })
    for k in range(rng.randint(0, 3)):
        a, b = rng.choice(chain), rng.choice(chain)
        if a == b:
            continue
        elements.append({
            "kind": "capacitor", "name": f"c{k}",
            "a": a, "b": b, "farads": _log_uniform(rng, 1e-15, 1e-9),
        })
    for k in range(rng.randint(0, 2)):
        elements.append({
            "kind": "isource", "name": f"i{k}",
            "a": "0", "b": rng.choice(nodes),
            "amps": rng.uniform(-1e-4, 1e-4),
        })
    return {"seed": seed, "elements": elements}


def build_circuit(spec: Dict[str, Any]):
    """Instantiate a Circuit from a spec dict."""
    from ..devices import MosfetModel, nmos_params, pmos_params
    from ..devices.corners import CORNERS
    from ..spice import Circuit

    circuit = Circuit(f"fuzz-{spec['seed']}")
    for el in spec["elements"]:
        kind = el["kind"]
        if kind == "resistor":
            circuit.resistor(el["name"], el["a"], el["b"], el["ohms"])
        elif kind == "vsource":
            circuit.vsource(el["name"], el["plus"], el["minus"], el["volts"])
        elif kind == "mosfet":
            if el["polarity"] == "nmos":
                params = nmos_params(el["name"], 120e-9)
            else:
                params = pmos_params(el["name"], 240e-9)
            model = MosfetModel(params, CORNERS[el["corner"]], el["temp_c"])
            circuit.mosfet(
                el["name"], el["d"], el["g"], el["s"], model,
                multiplier=el["multiplier"],
            )
        elif kind == "capacitor":
            circuit.capacitor(el["name"], el["a"], el["b"], el["farads"])
        elif kind == "isource":
            circuit.isource(el["name"], el["a"], el["b"], el["amps"])
        else:
            raise ValueError(f"unknown element kind {kind!r}")
    return circuit


def _random_state(spec: Dict[str, Any], label: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(_sub_seed(spec["seed"], label))
    return rng.uniform(-1.5, 1.5, size=n)


def _compare_assembly(
    reference: Tuple[np.ndarray, np.ndarray],
    compiled: Tuple[np.ndarray, np.ndarray],
) -> Optional[str]:
    for part, ref, got in zip(
        ("residual", "jacobian"), reference, compiled
    ):
        close = np.isclose(got, ref, rtol=ASSEMBLY_RTOL, atol=ASSEMBLY_ATOL)
        if not close.all():
            where = np.argwhere(~close)[0]
            index = tuple(int(i) for i in where)
            return (
                f"{part}{index}: reference {ref[tuple(where)]!r} vs "
                f"compiled {got[tuple(where)]!r}"
            )
    return None


def _check_assembly_dc(spec: Dict[str, Any]) -> Tuple[str, str]:
    from ..spice.compiled import compiled_plan
    from ..spice.dc import _assemble, _assign_branch_indices

    circuit = build_circuit(spec)
    _assign_branch_indices(circuit)
    x = _random_state(spec, "assembly_dc", circuit.unknown_count())
    rng = random.Random(_sub_seed(spec["seed"], "assembly_dc:params"))
    gmin = rng.choice((0.0, 1e-12, 1e-6))
    scale = rng.uniform(0.05, 1.0)
    reference = _assemble(circuit, x, gmin, scale)
    plan = compiled_plan(circuit)
    plan.refresh()
    compiled = plan.assemble(x, gmin, scale)
    detail = _compare_assembly(reference, compiled)
    if detail:
        return "fail", f"gmin={gmin:g} scale={scale:g}: {detail}"
    return "ok", ""


def _check_assembly_transient(spec: Dict[str, Any]) -> Tuple[str, str]:
    from ..spice.compiled import compiled_plan
    from ..spice.dc import _assemble, _assign_branch_indices

    circuit = build_circuit(spec)
    _assign_branch_indices(circuit)
    n = circuit.unknown_count()
    x = _random_state(spec, "assembly_tr:x", n)
    x_prev = _random_state(spec, "assembly_tr:prev", n)
    rng = random.Random(_sub_seed(spec["seed"], "assembly_tr:params"))
    dt = _log_uniform(rng, 1e-12, 1e-3)
    reference = _assemble(circuit, x, 1e-12, 1.0, dt=dt, x_prev=x_prev)
    plan = compiled_plan(circuit)
    plan.refresh()
    compiled = plan.assemble(x, 1e-12, 1.0, dt=dt, x_prev=x_prev)
    detail = _compare_assembly(reference, compiled)
    if detail:
        return "fail", f"dt={dt:g}: {detail}"
    return "ok", ""


def _check_dc_solution(spec: Dict[str, Any]) -> Tuple[str, str]:
    from ..spice import ConvergenceError, solve_dc

    try:
        reference = solve_dc(build_circuit(spec), backend="reference")
    except ConvergenceError:
        return "skip", "reference backend did not converge"
    try:
        circuit = build_circuit(spec)
        compiled = solve_dc(circuit, backend="compiled")
    except ConvergenceError as error:
        return "fail", f"compiled diverged where reference converged: {error}"
    n_nodes = circuit.node_count - 1
    diff = np.abs(reference.x[:n_nodes] - compiled.x[:n_nodes])
    if diff.size and diff.max() > DC_BACKEND_AGREEMENT_V:
        node = int(np.argmax(diff))
        return "fail", (
            f"node {node + 1}: |reference - compiled| = {diff.max():.3e} V "
            f"> {DC_BACKEND_AGREEMENT_V:g} V"
        )
    return "ok", ""


def _check_batch_sweep(spec: Dict[str, Any]) -> Tuple[str, str]:
    from ..spice import ConvergenceError, dc_sweep, solve_dc_batch

    v0 = next(
        el["volts"] for el in spec["elements"] if el["kind"] == "vsource"
    )
    # A narrow monotone walk around the operating value keeps both paths on
    # the same branch of any bistable characteristic the random MOSFETs
    # might have formed; branch selection is not the contract under test.
    values = list(np.linspace(0.8 * v0, 1.2 * v0, 7))
    try:
        sequential = dc_sweep(
            build_circuit(spec), "vs", values, backend="reference"
        )
    except ConvergenceError:
        return "skip", "reference sweep did not converge"
    try:
        batch = solve_dc_batch(
            build_circuit(spec), "vs", values, backend="compiled"
        )
    except ConvergenceError as error:
        return "fail", f"batch sweep diverged where reference swept: {error}"
    n_nodes = build_circuit(spec).node_count - 1
    for index, (b, s) in enumerate(zip(batch, sequential)):
        diff = np.abs(b.x[:n_nodes] - s.x[:n_nodes])
        if diff.size and diff.max() > SWEEP_BATCH_AGREEMENT_V:
            return "fail", (
                f"sweep point {index} (vs={values[index]:.4f} V): "
                f"|batch - sequential| = {diff.max():.3e} V "
                f"> {SWEEP_BATCH_AGREEMENT_V:g} V"
            )
    return "ok", ""


_CHECK_FUNCS = {
    "assembly_dc": _check_assembly_dc,
    "assembly_transient": _check_assembly_transient,
    "dc_solution": _check_dc_solution,
    "batch_sweep": _check_batch_sweep,
}


def run_case(
    spec: Dict[str, Any], checks: Sequence[str] = CHECKS
) -> Tuple[str, str, str]:
    """Run the checks on one spec; returns (status, check, detail).

    Status is ``'ok'`` when every check passes, ``'fail'`` on the first
    disagreement, ``'skip'`` when at least one check skipped (reference
    non-convergence) and none failed.
    """
    skipped = ""
    for check in checks:
        status, detail = _CHECK_FUNCS[check](spec)
        if status == "fail":
            return "fail", check, detail
        if status == "skip":
            skipped = check
    if skipped:
        return "skip", skipped, "reference did not converge"
    return "ok", "", ""


# ---------------------------------------------------------------- shrinking


def _removable_indices(spec: Dict[str, Any]) -> List[int]:
    """Elements the shrinker may drop (never the chain or the source)."""
    removable = []
    for index, el in enumerate(spec["elements"]):
        if el["kind"] == "vsource" or el.get("chain"):
            continue
        removable.append(index)
    return removable


def _without(spec: Dict[str, Any], index: int) -> Dict[str, Any]:
    elements = [el for i, el in enumerate(spec["elements"]) if i != index]
    return {"seed": spec["seed"], "elements": elements}


def _prune_tail(spec: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Drop the last chain resistor when nothing else touches its far node."""
    chain = [el for el in spec["elements"] if el.get("chain")]
    if len(chain) <= 1:
        return None
    tail = chain[-1]
    tail_node = tail["b"]
    for el in spec["elements"]:
        if el is tail:
            continue
        terminals = [
            el.get(key) for key in ("a", "b", "d", "g", "s", "plus", "minus")
        ]
        if tail_node in terminals:
            return None
    elements = [el for el in spec["elements"] if el is not tail]
    return {"seed": spec["seed"], "elements": elements}


def shrink_spec(
    spec: Dict[str, Any],
    check: str,
    max_rounds: int = 20,
) -> Dict[str, Any]:
    """Greedy element removal: the smallest spec still failing ``check``.

    Each round tries dropping every removable element (and pruning unused
    chain tail nodes); a removal is kept when the same check still fails.
    Terminates at a fixpoint - a 1-minimal netlist with respect to element
    removal - which is what a human wants to stare at, not the 10-element
    original.
    """
    def still_fails(candidate: Dict[str, Any]) -> bool:
        try:
            status, failed_check, _ = run_case(candidate, checks=(check,))
        except Exception:
            # A candidate that errors out in a new way is not a smaller
            # instance of the *same* bug; don't shrink into it.
            return False
        return status == "fail" and failed_check == check

    current = spec
    for _ in range(max_rounds):
        progressed = False
        for index in reversed(_removable_indices(current)):
            candidate = _without(current, index)
            if still_fails(candidate):
                current = candidate
                progressed = True
        pruned = _prune_tail(current)
        while pruned is not None and still_fails(pruned):
            current = pruned
            progressed = True
            pruned = _prune_tail(current)
        if not progressed:
            break
    return current


# ----------------------------------------------------------------- the run


@dataclass
class FuzzFailure:
    """One compiled-vs-reference disagreement, with its minimal repro."""

    case_index: int
    seed: int
    check: str
    detail: str
    spec: Dict[str, Any]
    shrunk: Dict[str, Any]
    repro_path: Optional[str] = None

    def render(self) -> str:
        location = f" -> {self.repro_path}" if self.repro_path else ""
        return (
            f"case {self.case_index} (seed {self.seed}) failed {self.check}: "
            f"{self.detail} "
            f"[shrunk to {len(self.shrunk['elements'])} elements]{location}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "case_index": self.case_index,
            "seed": self.seed,
            "check": self.check,
            "detail": self.detail,
            "spec": self.spec,
            "shrunk": self.shrunk,
            "repro_path": self.repro_path,
        }


@dataclass
class FuzzReport:
    """Outcome of one fuzzing run."""

    cases: int = 0
    passed: int = 0
    skipped: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    base_seed: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cases": self.cases,
            "passed": self.passed,
            "skipped": self.skipped,
            "base_seed": self.base_seed,
            "failures": [f.to_dict() for f in self.failures],
        }

    def render(self) -> str:
        line = (
            f"fuzz: {self.passed}/{self.cases} agreed, "
            f"{self.skipped} skipped (non-convergent), "
            f"{len(self.failures)} disagreement(s) [seed {self.base_seed}]"
        )
        return "\n".join([line] + [f"  {f.render()}" for f in self.failures])


def _dump_repro(failure: FuzzFailure, repro_dir) -> str:
    directory = Path(repro_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"fuzz-{failure.check}-seed{failure.seed}.json"
    path.write_text(
        json.dumps(failure.to_dict(), sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )
    return str(path)


def load_repro(path) -> Dict[str, Any]:
    """Load a dumped repro file; returns the (shrunk) spec to re-run."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if "elements" in document:
        return document  # a bare spec
    return document.get("shrunk") or document["spec"]


def run_fuzz(
    n_cases: int,
    seed: int = 0,
    checks: Sequence[str] = CHECKS,
    repro_dir=None,
    shrink: bool = True,
    max_failures: int = 10,
) -> FuzzReport:
    """Fuzz ``n_cases`` seeded netlists; shrink and dump any failures.

    Case ``k`` uses the derived seed ``crc32(seed:k)``, so any individual
    failure reproduces from its own seed without re-running the campaign.
    Stops collecting (but keeps counting) after ``max_failures`` failures.
    """
    report = FuzzReport(base_seed=seed)
    with obs.span("verify.fuzz"):
        for index in range(n_cases):
            case_seed = _sub_seed(seed, f"case:{index}")
            spec = generate_spec(case_seed)
            status, check, detail = run_case(spec, checks)
            report.cases += 1
            obs.count("verify.fuzz.cases")
            if status == "ok":
                report.passed += 1
                continue
            if status == "skip":
                report.skipped += 1
                obs.count("verify.fuzz.skipped")
                continue
            obs.count("verify.fuzz.failures")
            shrunk = shrink_spec(spec, check) if shrink else spec
            failure = FuzzFailure(index, case_seed, check, detail, spec, shrunk)
            if repro_dir is not None:
                failure.repro_path = _dump_repro(failure, repro_dir)
            if len(report.failures) < max_failures:
                report.failures.append(failure)
    return report
