"""Meadows: total commutative rings with zero-totalized inverse or division.

The package provides the term algebra over the meadow signatures,
projections between the inversive, divisive, and reduced divisive
notations, exact evaluation in the zero-totalized rationals, finite
meadows with exhaustive axiom checking, punched (partial) variants,
normal forms and equality decision procedures for the arithmetical
fragments, a three-valued logic over punched meadows, usage-convention
checks, and presentations with structural module operators.

The names below load lazily (PEP 562): ``import meadows`` imports no
submodule, and each name or submodule is imported on first access.
"""

from importlib import import_module

# Each submodule with the public names the package re-exports from it.
_EXPORTS = {
    "terms": """Term Zero One Var Add Mul Neg Inv Div Sub ZERO ONE Signature SignatureError
        numeral power conforms check_conforms subst free_vars fold""",
    "parsing": "ParseError parse_term render",
    "projection": "Projection project",
    "semantics": """Q0 FiniteMeadow MissingAssignment NotRegular NotUnique eval_q0 q0_div q0_inv
        zp_meadow zn_ring zn_meadow eval_model check_axioms AxiomFailure expand_regular_ring
        two_squares corollary_witness""",
    "partial": """PunchVariant Defined UNDEFINED PartialValue punch_eval RecoveryReport
        recovery_check""",
    "normalize": """Monomial Polynomial PolyFrac ZeroNF Frac ZERO_NF NormalForm to_polyfrac
        expand_poly decide_iamd normal_form_closed zero_eliminate decide_iamdz_gil
        decide_divisive UnsupportedTheory decide_by_theory""",
    "logic3": """TruthValue3 Formula Eq Neq Not And Or Implies Forall Exists Equality
        Connectives Quantifiers LogicConfig lpmd eval_formula two_valued_convention_check
        parse_formula""",
    "convention": """DefNzClass ConventionId classify Violation COMPLIANT closed_compliance
        open_compliance_sufficient Sufficiency""",
    "presentations": """Symbol Equation Presentation builtin builtin_names combine hide export
        rename ExpansionReport visible_models_check md_d md_rd parse_module_expression""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
