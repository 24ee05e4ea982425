"""opalg: exact rewriting over free commutative operated algebras.

Words built from generator letters and unary operators, polynomials over
the rational-function field in a formal weight, a monomial order, a
critical-pair verifier for operated rewrite systems, and exact operator
models (Hurwitz series and scalar operators) used as soundness oracles.
"""

from .coeff import Scalar, InvalidWeight, PoleAtWeight
from .terms import Operator, OpApp, Word, Context, OP_D, OP_P
from .terms import compare, compare_explain, LESS, EQUAL, GREATER
from .poly import OpPolynomial, ZeroPolynomial
from .rewrite import (
    RuleSchema,
    Match,
    Step,
    match_rule,
    find_occurrences,
    reduce_once,
    normal_form,
    is_irreducible,
    ideal_member,
    certificate_sum,
    StepLimitExceeded,
    TermLimitExceeded,
    UnverifiedTheory,
    RuleValidationError,
)
from .gsbases import (
    TheoryPreset,
    CompositionReport,
    VerifyConfig,
    VerifyReport,
    PRESETS,
    preset,
    broken_rb,
    intersection_compositions,
    including_compositions,
    check_triviality,
    verify_gs,
    enumerate_irr,
    count_irr,
    MonomialNotBelowAmbiguity,
    BoundExceeded,
)
from .models import check_axioms, evaluate_in_model
from .syntax import parse_polynomial, parse_word, format_polynomial

__version__ = "0.1.0"
