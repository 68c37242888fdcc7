"""Simultaneous unitary similarity and equivalence of matrix collections.

The package decides whether two tuples of complex matrices are related by a
common unitary change of basis (similarity, ``U A_l U* = B_l``) or by a
common pair of unitaries (equivalence, ``U A_l V* = B_l``).  A positive
answer comes with the unitary witness; a negative answer comes with a
machine-checkable certificate.  Canonical features derived from the same
machinery give a fingerprint that is invariant under unitary conjugation.
"""

__version__ = "0.1.0"

from .canonical import compare_features, extract_features
from .certcheck import CheckReport, check_certificate
from .errors import SusimError
from .instances import GenConfig, generate
from .linalg import DEFAULT_TOLERANCES, Tolerances
from .model import FAILED, NOT_SIMILAR, SOLVED, CanonicalFeatures, Certificate, Instance, SolveResult
from .oracles import small_case_decider, trace_word_oracle
from .solver import solve, solve_sueq, solve_sus, witness_residual

__all__ = [
    "__version__",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "SusimError",
    "Instance",
    "SolveResult",
    "Certificate",
    "SOLVED",
    "NOT_SIMILAR",
    "FAILED",
    "solve",
    "solve_sus",
    "solve_sueq",
    "witness_residual",
    "check_certificate",
    "CheckReport",
    "extract_features",
    "compare_features",
    "CanonicalFeatures",
    "GenConfig",
    "generate",
    "trace_word_oracle",
    "small_case_decider",
]
