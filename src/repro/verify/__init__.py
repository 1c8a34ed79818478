"""repro.verify - the paper-fidelity conformance layer.

Three guarantees, in one subsystem:

1. **Golden artifacts** (:mod:`repro.verify.goldens`,
   :mod:`repro.verify.artifacts`): the reproduction's scientific outputs -
   Table I/II/III, the Fig. 4 DRV curves, March m-LZ structure and
   coverage - pinned as schema-versioned JSON and re-checked through
   per-metric tolerance policies (:mod:`repro.verify.tolerances`).  A perf
   refactor that shifts a minimal DRF-causing resistance now fails loudly
   with the offending table cell named, instead of sailing through a test
   suite that only checks shapes.
2. **Differential backend fuzzing** (:mod:`repro.verify.fuzz`): seeded
   random netlists pit the compiled assembly plan against the
   ``Element.stamp`` reference oracle for DC assembly, transient
   companions, full solves and batched sweeps; disagreements shrink to a
   minimal netlist and land on disk as self-contained repros.
3. **Gating** (:mod:`repro.verify.runner`, ``repro verify`` in the CLI):
   one command with fast/full tiers, a JSON report, and an exit-code
   contract CI can gate merges on.

Run ``repro verify --fast`` to check, ``repro verify --regen`` after an
*intentional* physics/output change to re-pin the goldens (and review the
golden diff like any other code change).
"""

from .artifacts import ARTIFACTS, TIERS, Artifact, TierScope, scope_for
from .compare import Mismatch, TolerancePolicy, compare_payloads
from .fuzz import (
    CHECKS,
    FuzzFailure,
    FuzzReport,
    build_circuit,
    generate_spec,
    load_repro,
    run_case,
    run_fuzz,
    shrink_spec,
)
from .goldens import GOLDEN_SCHEMA, default_goldens_dir, load_golden, write_golden
from .runner import (
    REPORT_SCHEMA,
    ArtifactResult,
    VerifyReport,
    run_verify,
    write_verify_report,
)
from .tolerances import EXACT, Tolerance

__all__ = [
    "ARTIFACTS",
    "CHECKS",
    "EXACT",
    "GOLDEN_SCHEMA",
    "REPORT_SCHEMA",
    "TIERS",
    "Artifact",
    "ArtifactResult",
    "FuzzFailure",
    "FuzzReport",
    "Mismatch",
    "TierScope",
    "Tolerance",
    "TolerancePolicy",
    "VerifyReport",
    "build_circuit",
    "compare_payloads",
    "default_goldens_dir",
    "generate_spec",
    "load_golden",
    "load_repro",
    "run_case",
    "run_fuzz",
    "run_verify",
    "scope_for",
    "shrink_spec",
    "write_golden",
    "write_verify_report",
]
