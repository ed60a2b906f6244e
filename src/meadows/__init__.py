"""Meadows: total commutative rings with zero-totalized inverse or division.

The package provides the term algebra over the meadow signatures,
projections between the inversive, divisive, and reduced divisive
notations, exact evaluation in the zero-totalized rationals, finite
meadows with exhaustive axiom checking, punched (partial) variants,
normal forms and equality decision procedures for the arithmetical
fragments, a three-valued logic over punched meadows, usage-convention
checks, and presentations with structural module operators.
"""

from .terms import (
    Term, Zero, One, Var, Add, Mul, Neg, Inv, Div, Sub, ZERO, ONE,
    Signature, SignatureError,
    numeral, power, conforms, check_conforms, subst, free_vars, fold,
)
from .parsing import ParseError, parse_term, render
from .projection import Projection, project
from .semantics import (
    Q0, FiniteMeadow, MissingAssignment, NotRegular, NotUnique,
    eval_q0, q0_div, q0_inv, zp_meadow, zn_ring, zn_meadow, eval_model,
    check_axioms, AxiomFailure, expand_regular_ring,
    two_squares, corollary_witness,
)
from .partial import (
    PunchVariant, Defined, UNDEFINED, PartialValue,
    punch_eval, RecoveryReport, recovery_check,
)
from .normalize import (
    Monomial, Polynomial, PolyFrac, ZeroNF, Frac, ZERO_NF, NormalForm,
    to_polyfrac, expand_poly, decide_iamd, normal_form_closed,
    zero_eliminate, decide_iamdz_gil, decide_divisive,
    UnsupportedTheory, decide_by_theory,
)
from .logic3 import (
    TruthValue3, Formula, Eq, Neq, Not, And, Or, Implies, Forall, Exists,
    Equality, Connectives, Quantifiers, LogicConfig, lpmd,
    eval_formula, two_valued_convention_check, parse_formula,
)
from .convention import (
    DefNzClass, ConventionId, classify, Violation, COMPLIANT,
    closed_compliance, open_compliance_sufficient, Sufficiency,
)
from .presentations import (
    Symbol, Equation, Presentation,
    builtin, builtin_names, combine, hide, export, rename,
    ExpansionReport, visible_models_check, md_d, md_rd,
    parse_module_expression,
)

__version__ = "0.1.0"
