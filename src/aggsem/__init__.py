"""aggsem: stable, Kripke-Kleene and well-founded semantics for ground
logic programs with aggregates, each realized through a pluggable
ternary satisfaction relation over pairs of interpretations.
"""

from .bounds import Bounds, bnd_truth, exact_bounds
from .errors import (
    AggsemError,
    ArithmeticOverflowError,
    CapabilityError,
    InconsistentPairError,
    ParseError,
    TooLargeError,
    UniverseMismatchError,
)
from .eval2 import (
    AggValue,
    eval_aggregate,
    eval_multiset,
    is_model,
    is_supported_model,
    sat2,
    tp,
)
from .fixpoints import (
    WellFoundedResult,
    gl_reduct,
    kripke_kleene,
    lfp_lower,
    stable_check,
    stable_enumerate,
    well_founded,
)
from .interp import (
    Interpretation,
    InterpretationPair,
    enumerate_interval,
    interval_expansion_count,
    leq_precision,
    leq_subset,
    reset_interval_expansions,
)
from .oracle import flp_reduct, gz_reduct, ultimate_operator_bruteforce
from .syntax import (
    AggFunc,
    AggregateAtom,
    Comparison,
    Literal,
    Program,
    Rule,
    combine_rules_per_head,
    parse_interpretation,
    parse_program,
)
from .ternary import (
    PrecisionOrder,
    SemanticsId,
    TruthValue,
    check_well_behaved,
    compare_precision,
    is_convex,
    sat3,
    sat3_body,
    truth3,
    truth3_body,
)

__version__ = "0.1.0"

__all__ = [
    "AggFunc",
    "AggValue",
    "AggregateAtom",
    "AggsemError",
    "ArithmeticOverflowError",
    "Bounds",
    "CapabilityError",
    "Comparison",
    "InconsistentPairError",
    "Interpretation",
    "InterpretationPair",
    "Literal",
    "ParseError",
    "PrecisionOrder",
    "Program",
    "Rule",
    "SemanticsId",
    "TooLargeError",
    "TruthValue",
    "UniverseMismatchError",
    "WellFoundedResult",
    "bnd_truth",
    "check_well_behaved",
    "combine_rules_per_head",
    "compare_precision",
    "enumerate_interval",
    "eval_aggregate",
    "eval_multiset",
    "exact_bounds",
    "flp_reduct",
    "gl_reduct",
    "gz_reduct",
    "interval_expansion_count",
    "is_convex",
    "is_model",
    "is_supported_model",
    "kripke_kleene",
    "leq_precision",
    "leq_subset",
    "lfp_lower",
    "parse_interpretation",
    "parse_program",
    "reset_interval_expansions",
    "sat2",
    "sat3",
    "sat3_body",
    "stable_check",
    "stable_enumerate",
    "tp",
    "truth3",
    "truth3_body",
    "ultimate_operator_bruteforce",
    "well_founded",
]
