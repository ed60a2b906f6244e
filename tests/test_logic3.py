import copy
import pickle
import sys
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meadows.logic3 import (
    And, Connectives, Eq, Equality, Exists, Forall, Implies, LogicConfig,
    Neq, Not, Or, Quantifiers, TruthValue3,
    _and3, _fold_exists, _fold_forall, _not3, _or3,
    eval_formula, formula_free_vars, lpmd, parse_formula,
    two_valued_convention_check,
)
from meadows.parsing import ParseError, render
from meadows.partial import PunchVariant, punch_eval, recovery_check
from meadows.semantics import Q0, MissingAssignment, zn_ring, zp_meadow
from meadows.terms import (
    Add, Div, Inv, Mul, Neg, Term, Var, ZERO, ONE, Signature, SignatureError, numeral,
)

from .helpers import formula_text, oracle_quantifier, oracle_truth

T, F, U = TruthValue3.T, TruthValue3.F, TruthValue3.U
DIV0 = PunchVariant.DIV_ZERO_ALL
INV0 = PunchVariant.INV_ZERO
VALUES = (T, F, U)
Z5 = zp_meadow(5)


def cfg(eq="weak", conn="mccarthy", quant="bochvar", domain=(0, 1, 2)):
    return LogicConfig(
        Equality(eq), Connectives(conn), Quantifiers(quant), tuple(domain)
    )


def dmd(text):
    return parse_formula(text, Signature.DMD)


# ---------------------------------------------------------------------------
# Equality modes


def test_equality_modes_on_nondenoting_atoms():
    assert eval_formula(dmd("1/0 = 1/0 + 1"), cfg(eq="strong"), DIV0) is T
    assert eval_formula(dmd("1/0 = 1/0"), cfg(eq="exist"), DIV0) is F
    assert eval_formula(dmd("1/0 = 1/0"), cfg(eq="weak"), DIV0) is U
    assert eval_formula(dmd("1/0 = 1"), cfg(eq="strong"), DIV0) is F
    assert eval_formula(dmd("1 = 1/0"), cfg(eq="strong"), DIV0) is F


@pytest.mark.parametrize("text, weak, strong, exist", [
    ("1/0 = 1", U, F, F),
    ("x = x/0 + 1", U, F, F),
    ("1/0 + x = 1/0", U, T, F),
    ("(x/0)/(x/0) = 0/0", U, T, F),
    ("x/x = 1", T, T, T),
])
def test_equality_atoms_with_a_violation_on_either_side(text, weak, strong, exist):
    for model in (Q0, Z5):
        for mode, want in (("weak", weak), ("strong", strong), ("exist", exist)):
            assert eval_formula(dmd(text), cfg(eq=mode), DIV0, model, {"x": 1}) is want


@pytest.mark.parametrize("text", ["1/0 + y = 1", "1 = y * (1/0) + y", "1/0 = y"])
def test_a_missing_variable_after_a_violation_in_an_atom_still_raises(text):
    for model in (Q0, Z5):
        with pytest.raises(MissingAssignment, match="'y'"):
            eval_formula(dmd(text), cfg(), DIV0, model)


def test_equality_modes_agree_when_both_denote():
    for mode in ("weak", "strong", "exist"):
        assert eval_formula(dmd("1 = 1"), cfg(eq=mode), DIV0) is T
        assert eval_formula(dmd("1 = 0"), cfg(eq=mode), DIV0) is F


# ---------------------------------------------------------------------------
# Connective suites


def test_negation_same_in_all_suites():
    assert _not3(T) is F and _not3(F) is T and _not3(U) is U


def test_mccarthy_left_absorption():
    for x in VALUES:
        assert _and3(Connectives.MCCARTHY, U, x) is U
        assert _or3(Connectives.MCCARTHY, U, x) is U
        assert _or3(Connectives.MCCARTHY, T, x) is T
        assert _and3(Connectives.MCCARTHY, F, x) is F


def test_mccarthy_reversed_mirrors():
    for a, b in product(VALUES, repeat=2):
        assert _and3(Connectives.MCCARTHY_REV, a, b) is _and3(
            Connectives.MCCARTHY, b, a
        )
        assert _or3(Connectives.MCCARTHY_REV, a, b) is _or3(
            Connectives.MCCARTHY, b, a
        )


def test_bochvar_strictness():
    for x in VALUES:
        for op in (_and3, _or3):
            assert op(Connectives.BOCHVAR, U, x) is U
            assert op(Connectives.BOCHVAR, x, U) is U


def test_kleene_monotonicity():
    # Refining U to T or F never flips a determined result.
    for op in (_and3, _or3):
        for a, b in product(VALUES, repeat=2):
            before = op(Connectives.KLEENE, a, b)
            if before is U:
                continue
            for ra in (a,) if a is not U else (T, F):
                for rb in (b,) if b is not U else (T, F):
                    assert op(Connectives.KLEENE, ra, rb) is before


def test_all_suites_classical_on_two_values():
    classical = {(T, T): (T, T), (T, F): (F, T), (F, T): (F, T), (F, F): (F, F)}
    for suite in Connectives:
        for (a, b), (want_and, want_or) in classical.items():
            assert _and3(suite, a, b) is want_and
            assert _or3(suite, a, b) is want_or


def test_quantifiers_classical_on_two_values():
    for suite in Quantifiers:
        assert _fold_forall(suite, [T, T, T]) is T
        assert _fold_forall(suite, [T, F, T]) is F
        assert _fold_exists(suite, [F, F, F]) is F
        assert _fold_exists(suite, [F, T, F]) is T


def test_quantifier_connective_coherence_two_element_domain():
    for a, b in product(VALUES, repeat=2):
        assert _fold_forall(Quantifiers.KLEENE, [a, b]) is _and3(
            Connectives.KLEENE, a, b
        )
        assert _fold_forall(Quantifiers.BOCHVAR, [a, b]) is _and3(
            Connectives.BOCHVAR, a, b
        )
        assert _fold_exists(Quantifiers.KLEENE, [a, b]) is _or3(
            Connectives.KLEENE, a, b
        )
        assert _fold_exists(Quantifiers.BOCHVAR, [a, b]) is _or3(
            Connectives.BOCHVAR, a, b
        )


@pytest.mark.parametrize("suite", list(Quantifiers))
def test_quantifier_folds_agree_with_the_reference_rules(suite):
    for n in range(1, 5):
        for values in product(VALUES, repeat=n):
            instances = {str(v) for v in values}
            assert str(_fold_forall(suite, values)) == oracle_quantifier(
                True, suite.value, instances), values
            assert str(_fold_exists(suite, values)) == oracle_quantifier(
                False, suite.value, instances), values
    # No instance: the units of conjunction and disjunction.  A domain is
    # never empty, so no formula reaches this case.
    assert _fold_forall(suite, []) is T and _fold_exists(suite, []) is F


def test_implies_is_not_or():
    for suite in Connectives:
        for a, b in product(VALUES, repeat=2):
            lhs = eval_formula(
                Implies(_const(a), _const(b)), cfg(conn=suite.value), DIV0
            )
            rhs = eval_formula(
                Or(Not(_const(a)), _const(b)), cfg(conn=suite.value), DIV0
            )
            assert lhs is rhs


def _const(v: TruthValue3):
    """A closed atom with the given truth value under weak equality."""
    if v is T:
        return Eq(ONE, ONE)
    if v is F:
        return Eq(ONE, ZERO)
    return Eq(Div(ONE, ZERO), ONE)


# ---------------------------------------------------------------------------
# The quoted fixtures


def test_mccarthy_vs_bochvar_implication():
    f = dmd("0 != 0 -> 0/0 = 1")
    assert eval_formula(f, cfg(conn="mccarthy"), DIV0) is T
    assert eval_formula(f, cfg(conn="bochvar"), DIV0) is U
    assert eval_formula(f, cfg(conn="kleene"), DIV0) is T


def test_mccarthy_vs_kleene_disjunction():
    f = dmd("0/0 = 1 | 0 = 0")
    assert eval_formula(f, cfg(conn="mccarthy"), DIV0) is U
    assert eval_formula(f, cfg(conn="kleene"), DIV0) is T


def test_quantifier_fixtures():
    forall = dmd("forall x. x/x = 1")
    exists = dmd("exists x. x/x = 1")
    assert eval_formula(forall, cfg(quant="kleene"), DIV0) is U
    assert eval_formula(exists, cfg(quant="kleene"), DIV0) is T
    assert eval_formula(exists, cfg(quant="bochvar"), DIV0) is U
    assert eval_formula(forall, cfg(quant="bochvar"), DIV0) is U


def test_fixtures_stable_across_domains_containing_zero():
    for domain in ((0, 1), (0, 1, 2, 3), (0, 2, 5)):
        assert (
            eval_formula(dmd("forall x. x/x = 1"), cfg(quant="kleene", domain=domain), DIV0)
            is U
        )
        assert (
            eval_formula(dmd("exists x. x/x = 1"), cfg(quant="kleene", domain=domain), DIV0)
            is T
        )


def test_two_valued_convention_check():
    report = two_valued_convention_check(
        dmd("forall x. (x != 0 -> x/x = 1)"), lpmd(), DIV0
    )
    assert report.compliant and report.value is T
    report = two_valued_convention_check(dmd("0 = 0 | 0/0 = 1"), lpmd(), DIV0)
    assert report.compliant and report.value is T
    report = two_valued_convention_check(dmd("forall x. x/x = 1"), lpmd(), DIV0)
    assert not report.compliant and report.value is U


def test_convention_check_requires_sentence():
    with pytest.raises(ValueError):
        two_valued_convention_check(dmd("x = 1"), lpmd(), DIV0)


# ---------------------------------------------------------------------------
# Finite models, config plumbing, parsing


def test_eval_over_finite_model():
    m = zp_meadow(3)
    f = parse_formula("forall x. x * inv(x) = 1", Signature.IMD)
    value = eval_formula(f, cfg(quant="kleene", domain=(0, 1, 2)), INV0, m)
    assert value is U
    f = parse_formula("forall x. x * inv(x) = 1", Signature.IMD)
    value = eval_formula(f, cfg(quant="kleene", domain=(1, 2)), INV0, m)
    assert value is T


def test_lpmd_preset():
    preset = lpmd((0, 1))
    assert preset.equality is Equality.WEAK
    assert preset.connectives is Connectives.MCCARTHY
    assert preset.quantifiers is Quantifiers.BOCHVAR
    assert preset.domain == (0, 1)
    with pytest.raises(ValueError):
        LogicConfig(Equality.WEAK, Connectives.MCCARTHY, Quantifiers.BOCHVAR, ())


def test_formula_parsing_shapes():
    f = parse_formula("~ x = 1 & y = 1", Signature.DMD)
    assert f == And(Not(Eq(Var("x"), ONE)), Eq(Var("y"), ONE))
    f = parse_formula("x = 1 | y = 1 -> z = 1", Signature.DMD)
    assert f == Implies(Or(Eq(Var("x"), ONE), Eq(Var("y"), ONE)), Eq(Var("z"), ONE))
    f = parse_formula("x != 1", Signature.DMD)
    assert f == Not(Eq(Var("x"), ONE))
    f = parse_formula("forall x. exists y. x = y", Signature.DMD)
    assert f == Forall("x", Exists("y", Eq(Var("x"), Var("y"))))
    f = parse_formula("(x + 1) = 1", Signature.DMD)
    assert f == Eq(Add(Var("x"), ONE), ONE)
    # implication is right associative
    f = parse_formula("x = 1 -> y = 1 -> z = 1", Signature.DMD)
    assert f == Implies(Eq(Var("x"), ONE), Implies(Eq(Var("y"), ONE), Eq(Var("z"), ONE)))


def test_formula_parsing_parenthesized_formulas():
    f = parse_formula("(0 = 0)", Signature.DMD)
    assert f == Eq(ZERO, ZERO)
    f = parse_formula("((0 = 0) & (1 = 1))", Signature.DMD)
    assert f == And(Eq(ZERO, ZERO), Eq(ONE, ONE))
    f = parse_formula("(forall x. x = x) -> 1 = 1", Signature.DMD)
    assert f == Implies(Forall("x", Eq(Var("x"), Var("x"))), Eq(ONE, ONE))


@pytest.mark.parametrize("text, message", [
    ("forall 1. 1 = 1", "expected a variable after quantifier (at position 7)"),
    ("forall x x = 1", "expected '.', found 'x' (at position 9)"),
    ("(x = 1", "expected ')', found 'end of input' (at position 6)"),
    ("((0 = 0) & 1 = 1", "expected ')', found 'end of input' (at position 16)"),
    ("x = 1 )", "unexpected ')' after formula (at position 6)"),
    ("x & y = 1", "expected '=' or '!=' after term (at position 2)"),
    ("~", "expected a term, found 'end of input' (at position 1)"),
    # A quantifier starts only a whole formula, so here forall is a variable.
    ("(x + 1) = 1 & forall x. x = 0", "expected '=' or '!=' after term (at position 21)"),
    ("0 = 0 -> exists y. y = 0", "expected '=' or '!=' after term (at position 16)"),
])
def test_formula_parse_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse_formula(text, Signature.IMD)
    assert str(info.value) == message


# A '(' where a formula operand starts opens a term exactly when the token
# after its matching ')' continues a term.
@pytest.mark.parametrize("text, want", [
    ("((x)) = 1", Eq(Var("x"), ONE)),
    ("(x)^-1 = 1", Eq(Inv(Var("x")), ONE)),
    ("~(x) = 1", Not(Eq(Var("x"), ONE))),
    ("(forall x. (x) = x)", Forall("x", Eq(Var("x"), Var("x")))),
    ("((x) + 1) * 2 != 0 & ((0 = 0))",
     And(Neq(Mul(Add(Var("x"), ONE), numeral(2)), ZERO), Eq(ZERO, ZERO))),
])
def test_a_parenthesis_opens_a_term_by_the_token_after_its_group(text, want):
    assert parse_formula(text, Signature.IMD) is want


@pytest.mark.parametrize("text, message", [
    # The group (x) is followed by '+', so the term (x) + 1 starts at '('.
    ("(x) + 1 & 0 = 0", "expected '=' or '!=' after term (at position 8)"),
    # The group (x = 1) is followed by '+', so it is read as a term.
    ("(x = 1) + 2 = 3", "expected ')', found '=' (at position 3)"),
])
def test_a_group_followed_by_a_term_operator_is_read_as_a_term(text, message):
    with pytest.raises(ParseError) as info:
        parse_formula(text, Signature.IMD)
    assert str(info.value) == message


def test_formula_free_vars_and_shadowing():
    f = parse_formula("forall x. x = y", Signature.DMD)
    assert formula_free_vars(f) == {"y"}
    value = eval_formula(
        f, cfg(domain=(0,)), DIV0, a={"y": 0, "x": 99}
    )
    assert value is T  # the bound x shadows the outer binding


def test_neq_is_sugar():
    assert Neq(ONE, ZERO) == Not(Eq(ONE, ZERO))


def test_formulas_are_interned_terms():
    body = Eq(Var("x"), ONE)
    assert isinstance(body, Term) and body is Eq(Var("x"), ONE)
    f = Forall("x", Not(body))
    assert f is Forall("x", Not(Eq(Var("x"), ONE))) and f.var == "x" and f.body is Not(body)
    assert f is not Exists("x", Not(body)) and f is not Forall("y", Not(body))
    assert repr(f) == "Forall(Var('x'), Not(Eq(Var('x'), One())))"
    with pytest.raises(AttributeError):
        f.body = body


def test_domain_values_are_checked_only_when_a_quantifier_is_evaluated():
    # Every part of a formula is evaluated, so McCarthy's disjunction still
    # evaluates its right operand after a true left one.
    # Instances are evaluated in domain order, so 7 is the value reported.
    cfg = lpmd((0, 7, 8))
    assert eval_formula(dmd("0 = 0"), cfg, DIV0, Z5) is T
    with pytest.raises(ValueError, match="value 7 of x is outside the carrier 0..4"):
        eval_formula(dmd("0 = 0 | (forall x. x = x)"), cfg, DIV0, Z5)


# Which error eval_formula raises when a formula holds several, in Z5 with
# div0 unless stated: an atom checks its lhs's signature, then the
# environment, folds the lhs, checks its rhs's signature and folds the rhs;
# atoms and quantifier instances are evaluated left to right.
PRECEDENCE = [
    ("x^-1 = 1", {"x": 9}, (0, 1, 2), SignatureError, "not in signature dmd"),
    ("x = 1^-1", {"x": 9}, (0, 1, 2), ValueError, "value 9 of x is outside the carrier"),
    ("z = 1^-1", {}, (0, 1, 2), MissingAssignment, "'z'"),
    ("1/1 = z & 1^-1 = 1", {}, (0, 1, 2), MissingAssignment, "'z'"),
    ("forall y. y = z", {}, (0, 9), MissingAssignment, "'z'"),
    ("forall y. y = 1", {}, (0, 9), ValueError, "value 9 of y is outside the carrier"),
]


@pytest.mark.parametrize("text, a, domain, error, match", PRECEDENCE)
def test_error_precedence_in_eval_formula(text, a, domain, error, match):
    with pytest.raises(ValueError, match=match) as err:
        eval_formula(parse_formula(text, None), cfg(domain=domain), DIV0, Z5, a)
    assert type(err.value) is error


def test_ring_without_inverse_in_formulas():
    # Only a defined division reads the model's inverse.
    z6 = zn_ring(6)
    with pytest.raises(ValueError, match="model provides no interpretation for 'inv'"):
        eval_formula(dmd("exists y. y/y = 1"), cfg(), DIV0, z6)
    assert eval_formula(dmd("exists y. y/0 = 0"), cfg(), DIV0, z6) is U


# ---------------------------------------------------------------------------
# Printed formulas, mutations and the reference evaluator

SIG_OF = {
    INV0: Signature.IMD, DIV0: Signature.DMD, PunchVariant.DIV_ZERO_NONZERO_NUM: Signature.DMD,
}


def terms(sig):
    leaf = st.sampled_from([ZERO, ONE, Var("x"), Var("y"), Var("z")])

    def branch(t):
        inverse = st.builds(Div, t, t) if sig is Signature.DMD else st.builds(Inv, t)
        return st.one_of(st.builds(Add, t, t), st.builds(Mul, t, t), st.builds(Neg, t), inverse)

    return st.recursive(leaf, branch, max_leaves=4)


def formulas(sig):
    # Three variable names, so nested quantifiers often shadow one another.
    atom = st.builds(Eq, terms(sig), terms(sig))
    var = st.sampled_from(("x", "y", "z"))
    return st.recursive(
        atom,
        lambda f: st.one_of(
            st.builds(Not, f), st.builds(And, f, f), st.builds(Or, f, f), st.builds(Implies, f, f),
            st.builds(Forall, var, f), st.builds(Exists, var, f),
        ),
        max_leaves=6,
    )


FORMULAS = {sig: formulas(sig) for sig in (Signature.DMD, Signature.IMD)}
SHADOWED = Forall(
    "x", Implies(Exists("x", Eq(Var("x"), ONE)), Not(Eq(Div(ONE, Var("x")), Var("y")))),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(FORMULAS)).flatmap(lambda sig: st.tuples(st.just(sig), FORMULAS[sig])))
@example((Signature.DMD, SHADOWED))
def test_printed_formulas_parse_back_to_the_same_object(case):
    sig, f = case
    assert parse_formula(formula_text(f), sig) is f


def parenthesised_text(f, draw) -> str:
    """Text that parse_formula reads back as f, with 0-2 extra pairs of
    parentheses around each term, 1-3 around each operand of a connective
    or negation and 0-3 around each quantifier body."""
    def wrap(text, low, high):
        k = draw(st.integers(low, high))
        return "(" * k + text + ")" * k

    def text(g):
        match g:
            case Eq(lhs=lhs, rhs=rhs):
                return f"{wrap(render(lhs), 0, 2)} = {wrap(render(rhs), 0, 2)}"
            case Not(body=Eq(lhs=lhs, rhs=rhs)) if draw(st.booleans()):
                return f"{wrap(render(lhs), 0, 2)} != {wrap(render(rhs), 0, 2)}"
            case Not(body=body):
                return "~" + wrap(text(body), 1, 3)
            case Forall(var=var, body=body):
                return f"forall {var}. {wrap(text(body), 0, 3)}"
            case Exists(var=var, body=body):
                return f"exists {var}. {wrap(text(body), 0, 3)}"
        symbol = {And: "&", Or: "|", Implies: "->"}[type(g)]
        left, right = g.children
        return f"{wrap(text(left), 1, 3)} {symbol} {wrap(text(right), 1, 3)}"

    return wrap(text(f), 0, 1)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(FORMULAS)).flatmap(lambda sig: st.tuples(st.just(sig), FORMULAS[sig])),
       st.data())
def test_formulas_with_extra_parentheses_parse_back_to_the_same_object(case, data):
    sig, f = case
    assert parse_formula(parenthesised_text(f, data.draw), sig) is f


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(list(FORMULAS)), st.data())
def test_one_character_mutations_parse_or_raise_parse_error(sig, data):
    text = formula_text(data.draw(FORMULAS[sig]))
    k = data.draw(st.integers(0, len(text)))
    c = data.draw(st.sampled_from("()~&|->=!.^/*+01xyz "))
    mutated = data.draw(st.sampled_from([text[:k] + c + text[k + 1:], text[:k] + c + text[k:],
                                         text[:k] + text[k + 1:]]))
    try:
        f = parse_formula(mutated, sig)
    except (ParseError, SignatureError):
        # A mutation can also spell a symbol outside sig, such as ^-1 under dmd.
        return
    assert parse_formula(formula_text(f), sig) is f


def test_connectives_agree_with_the_reference_tables():
    for suite in Connectives:
        for a, b in product(VALUES, repeat=2):
            left, right = _const(a), _const(b)
            for f in (Not(left), And(left, right), Or(left, right), Implies(left, right)):
                want = oracle_truth(f, "weak", suite.value, "bochvar", (0,), "div0")
                assert str(eval_formula(f, cfg(conn=suite.value), DIV0)) == want, (suite, f)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(SIG_OF)), st.sampled_from((None, 5)), st.data())
def test_eval_formula_agrees_with_the_reference_evaluator(variant, modulus, data):
    f = data.draw(FORMULAS[SIG_OF[variant]])
    if modulus is None:
        values = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                                  Fraction(3)])
    else:
        values = st.integers(0, modulus - 1)
    domain = tuple(data.draw(st.lists(values, min_size=1, max_size=3, unique=True)))
    a = {name: data.draw(values) for name in ("x", "y", "z")}
    model = None if modulus is None else Z5
    for eq, conn, quant in product(Equality, Connectives, Quantifiers):
        value = eval_formula(f, LogicConfig(eq, conn, quant, domain), variant, model, a)
        want = oracle_truth(
            f, eq.value, conn.value, quant.value, domain, variant.value, modulus, a,
        )
        assert str(value) == want, (formula_text(f), eq, conn, quant, domain, a)


def _outcome(call):
    """call()'s result, or the type and message of the ValueError it raised."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(SIG_OF)), st.sampled_from(list(SIG_OF)), st.data())
def test_model_none_is_q0(variant, source, data):
    # None is how callers that predate the Q0 object spell it; z is left
    # unassigned, so some calls raise MissingAssignment.
    sig = SIG_OF[variant]
    t = data.draw(terms(sig))
    f = data.draw(FORMULAS[sig])
    values = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), 3])
    a = {name: data.draw(values) for name in ("x", "y")}
    cfg = LogicConfig(Equality.STRONG, Connectives.KLEENE, Quantifiers.BOCHVAR,
                      (Fraction(0), 1, Fraction(-1, 2)))

    def results(*model):
        return [
            _outcome(lambda: punch_eval(t, variant, *model, a)),
            _outcome(lambda: recovery_check(source, variant, t, a, *model)),
            _outcome(lambda: eval_formula(f, cfg, variant, *model, a)),
            _outcome(lambda: two_valued_convention_check(f, cfg, variant, *model)),
        ]

    assert results(None) == results(Q0) == [
        _outcome(lambda: punch_eval(t, variant, a=a)),
        _outcome(lambda: recovery_check(source, variant, t, a)),
        _outcome(lambda: eval_formula(f, cfg, variant, a=a)),
        _outcome(lambda: two_valued_convention_check(f, cfg, variant)),
    ]


# ---------------------------------------------------------------------------
# Depth: every test here runs under Python's default recursion limit.

DEEP = {
    "negations": ("~" * 100_000 + "0 = 0", "Not(" * 100_000, frozenset()),
    "quantifiers": ("forall x. " * 5_000 + "x = x", "Forall(Var('x'), " * 5_000, frozenset()),
    "parentheses": ("(" * 1_000 + "y = 0" + ")" * 1_000, "Eq(Var('y'), Zero())", {"y"}),
}


def test_nested_parentheses_parse_in_linear_time():
    # One pass pairs the parentheses, and each '(' is then read once, as a
    # term or as a formula group; each parse here once took time quadratic
    # in depth.
    depth = 20_000
    start = time.perf_counter()
    assert parse_formula("(" * depth + "0 = x" + ")" * depth, Signature.IMD) is Eq(ZERO, Var("x"))
    with pytest.raises(ParseError) as info:
        parse_formula("(" * depth + "0 = x" + ")" * (depth - 1), Signature.IMD)
    assert str(info.value) == f"expected ')', found 'end of input' (at position {2 * depth + 4})"
    with pytest.raises(ParseError) as info:
        parse_formula("(" * depth + "x" + ")" * depth + " & 0 = 0", Signature.IMD)
    assert str(info.value) == f"expected '=' or '!=' after term (at position {depth + 1})"
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("name", DEEP)
def test_deep_formulas_within_default_recursion_limit(name):
    limit = sys.getrecursionlimit()
    assert limit <= 1000
    text, repr_prefix, free = DEEP[name]
    f = parse_formula(text, Signature.DMD)
    again = parse_formula(text, Signature.DMD)
    assert again is f and again == f and hash(again) == hash(f)
    assert eval_formula(f, lpmd((0,)), DIV0, a={"y": 0}) is T
    assert formula_free_vars(f) == free
    assert repr(f).startswith(repr_prefix)
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.deepcopy(f) is f
    assert sys.getrecursionlimit() == limit
