"""March test engine: DSL, standard library, runner and coverage evaluator.

March tests (van de Goor [10]) are sequences of *march elements*, each an
address order plus a list of read/write operations applied to every address
before moving on.  The paper extends the notation with two power-mode
operations: ``DSM`` (switch ACT -> deep sleep, wait the DS time) and ``WUP``
(wake up, DS -> ACT), each of complexity 1.  That extension is what turns
March LZ into **March m-LZ**, the paper's 5N+4 test for data retention
faults in deep-sleep mode.
"""

from .dsl import (
    DSM,
    WUP,
    AddressOrder,
    MarchElement,
    MarchTest,
    Operation,
    read,
    write,
)
from .library import (
    march_c_minus,
    march_lz,
    march_m_lz,
    march_ss,
    mats_plus,
    standard_tests,
)
from .parser import MarchParseError, parse_library_or_custom, parse_march
from .runner import (
    CellTable,
    FailureTable,
    MarchFailure,
    MarchResult,
    run_march,
    run_march_vectorized,
)
from .coverage import CoverageReport, evaluate_coverage

__all__ = [
    "AddressOrder",
    "Operation",
    "read",
    "write",
    "DSM",
    "WUP",
    "MarchElement",
    "MarchTest",
    "march_m_lz",
    "march_lz",
    "mats_plus",
    "march_c_minus",
    "march_ss",
    "standard_tests",
    "run_march",
    "run_march_vectorized",
    "parse_march",
    "parse_library_or_custom",
    "MarchParseError",
    "MarchResult",
    "MarchFailure",
    "FailureTable",
    "CellTable",
    "evaluate_coverage",
    "CoverageReport",
]
