"""Solver-stack benchmark: compiled assembly vs the reference stamp oracle.

Measures, in one process, the two headline speedups of the compiled MNA
engine (DESIGN.md Section 10), with floors in ``conftest``:

* a cold regulator operating-point solve (``backend="compiled"`` against
  ``backend="reference"``);
* a 64-point cell supply sweep (:func:`repro.spice.solve_dc_batch`
  against the sequential reference-backend :func:`repro.spice.dc_sweep`);

plus the assembly-vs-factorisation wall-time split the solver reports
through :mod:`repro.obs`.

Results are printed (run with ``-s``) and, when ``REPRO_BENCH_JSON`` names
a directory, written to ``bench_spice.json`` there - CI points it at the
campaign cache directory so the numbers ride along with ``report.json`` in
the uploaded artifact.  Set ``REPRO_BENCH_SMOKE=1`` for single-round
timings (the CI smoke mode); the speedup gates still apply.

Reported times are min-of-rounds (noise only ever adds time); the ratio
gates compare interleaved, adjacent-in-time measurement pairs and take
the median per-round ratio, so a load spike on the host skews a round's
pair together instead of skewing the quotient.
"""

import json
import os
import time

import numpy as np
import pytest

from conftest import REGULATOR_SPEEDUP_FLOOR, SWEEP_SPEEDUP_FLOOR
from repro import obs
from repro.cell.design import DEFAULT_CELL
from repro.devices.pvt import PVT
from repro.devices.variation import CellVariation
from repro.regulator.design import VrefSelect
from repro.regulator.netlist import _initial_guess, build_regulator
from repro.spice import dc_sweep, solve_dc, solve_dc_batch, using_backend

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
ROUNDS = 2 if SMOKE else 5
#: Sub-millisecond measurements (single regulator solves) flake at
#: min-of-2; they are cheap enough to always take more rounds.
SMALL_SOLVE_ROUNDS = 9
SWEEP_POINTS = 64

RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def _dump_results():
    yield
    out_dir = os.environ.get("REPRO_BENCH_JSON")
    if out_dir and RESULTS:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "bench_spice.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(RESULTS, fh, indent=2, sort_keys=True)
        print(f"\nbench_spice results -> {path}")


def _time_rounds(fns, rounds=ROUNDS, inner=1):
    """Per-round wall times for several runners, measured *interleaved*.

    Alternating the runners inside one rounds loop (instead of timing
    each in its own block) makes machine-load drift hit every runner
    equally; :func:`_robust_speedup` then compares adjacent-in-time
    pairs, which is what keeps the ratio gates stable on noisy CI hosts.
    ``inner`` runs each timed region that many times and reports the
    mean, so sub-millisecond solves are not at the mercy of a single
    scheduler preemption landing inside one call.
    """
    times = [[] for _ in fns]
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            for _k in range(inner):
                fn()
            times[i].append((time.perf_counter() - start) / inner)
    return times


def _robust_speedup(times_a, times_b):
    """Median of per-round ``a / b`` ratios.

    A load spike inflates one round's pair together, leaving its ratio
    roughly intact, and the median discards the rounds where it did not -
    unlike a ratio of two independent min-of-rounds, where noise landing
    on different rounds skews the quotient directly.
    """
    ratios = sorted(a / b for a, b in zip(times_a, times_b))
    return ratios[len(ratios) // 2]


def _regulator_runner(backend):
    pvt = PVT("typical", 1.1, 25.0)
    circuit, _ = build_regulator(pvt, VrefSelect.VREF70)
    x0 = _initial_guess(circuit, pvt, VrefSelect.VREF70, True)

    def run():
        solve_dc(circuit, x0=x0.copy(), backend=backend)

    run()  # warm-up: one-off plan compilation stays out of the timing
    return run


def _hold_cell():
    return DEFAULT_CELL.build_hold_circuit(1.1, CellVariation.symmetric())


def test_regulator_operating_point_speedup():
    """Cold regulator solve: compiled assembly vs per-element stamps."""
    rounds = _time_rounds(
        [_regulator_runner("reference"), _regulator_runner("compiled")],
        rounds=SMALL_SOLVE_ROUNDS, inner=5,
    )
    reference, compiled = (min(t) for t in rounds)
    speedup = _robust_speedup(rounds[0], rounds[1])
    RESULTS["regulator_solve"] = {
        "reference_s": reference,
        "compiled_s": compiled,
        "speedup": speedup,
        "floor": REGULATOR_SPEEDUP_FLOOR,
    }
    print(
        f"\nregulator op point: reference {reference * 1e3:.3f}ms, "
        f"compiled {compiled * 1e3:.3f}ms, speedup {speedup:.2f}x"
    )
    assert speedup >= REGULATOR_SPEEDUP_FLOOR


def test_cell_vdd_sweep_speedup():
    """64-point supply sweep: lock-step batch vs sequential reference."""
    values = list(np.linspace(1.1, 0.35, SWEEP_POINTS))
    sequential_circuit = _hold_cell()
    batch_circuit = _hold_cell()

    def sequential():
        with using_backend("reference"):
            dc_sweep(sequential_circuit, "vddc", values)

    def batch():
        solve_dc_batch(batch_circuit, "vddc", values, backend="compiled")

    sequential()
    batch()  # warm-up both (plan compilation out of the timing)
    rounds = _time_rounds([sequential, batch])
    reference, batched = (min(t) for t in rounds)
    speedup = _robust_speedup(rounds[0], rounds[1])
    RESULTS["cell_vdd_sweep"] = {
        "points": SWEEP_POINTS,
        "reference_s": reference,
        "compiled_s": batched,
        "speedup": speedup,
        "floor": SWEEP_SPEEDUP_FLOOR,
    }
    print(
        f"\ncell VDD sweep ({SWEEP_POINTS} pts): reference "
        f"{reference * 1e3:.3f}ms, compiled batch {batched * 1e3:.3f}ms, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= SWEEP_SPEEDUP_FLOOR


def test_assembly_factorisation_split():
    """The obs split histograms quantify where solve time goes."""
    pvt = PVT("typical", 1.1, 25.0)
    circuit, _ = build_regulator(pvt, VrefSelect.VREF70)
    x0 = _initial_guess(circuit, pvt, VrefSelect.VREF70, True)
    with obs.recording() as rec:
        solve_dc(circuit, x0=x0.copy())
    assemble = rec.histograms["dc.assemble.seconds"].total
    factor = rec.histograms["dc.factor.seconds"].total
    total = assemble + factor
    RESULTS["dc_split"] = {
        "assemble_s": assemble,
        "factor_s": factor,
        "assemble_share": assemble / total if total else 0.0,
    }
    print(
        f"\ndc split: assembly {assemble * 1e3:.3f}ms "
        f"({assemble / total:.0%}), factorisation {factor * 1e3:.3f}ms"
    )
    assert assemble > 0.0 and factor > 0.0
