import random
import sys
import time
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meadows import parsing
from meadows.logic3 import And, Eq, Exists, Forall, Implies, Not, Or, parse_formula
from meadows.parsing import ParseError, parse_term, render, tokenize
from meadows.projection import Projection, project
from meadows.terms import (
    Add, Div, Inv, Mul, Neg, One, Sub, Var, Zero, ONE, ZERO,
    Signature, SignatureError, conforms, numeral,
)

from .helpers import oracle_render, oracle_tokenize, random_term


def test_parse_precedence():
    t = parse_term("x + y * z^-1", Signature.IMD)
    assert t == Add(Var("x"), Mul(Var("y"), Inv(Var("z"))))


def test_parse_division():
    assert parse_term("1 / 0", Signature.DMD) == Div(One(), Zero())


def test_parse_signature_violation():
    with pytest.raises(SignatureError) as err:
        parse_term("x / y", Signature.IMD)
    assert "/" in str(err.value)
    with pytest.raises(SignatureError):
        parse_term("0", Signature.IAMD)


def test_parse_numerals_and_inv_alias():
    assert parse_term("3", Signature.CR) == numeral(3)
    assert parse_term("inv(x + 1)", Signature.IMD) == Inv(Add(Var("x"), One()))
    # 'inv' not followed by '(' is an ordinary variable
    assert parse_term("inv + 1", Signature.CR) == Add(Var("inv"), One())


def test_parse_subtraction_desugars_except_rd():
    assert parse_term("x - y", Signature.CR) == Add(Var("x"), Neg(Var("y")))
    assert parse_term("x - y", Signature.RD) == Sub(Var("x"), Var("y"))


def test_parse_unary_minus_binds_tighter_than_mul():
    assert parse_term("-x * y", Signature.CR) == Mul(Neg(Var("x")), Var("y"))
    assert parse_term("-(x * y)", Signature.CR) == Neg(Mul(Var("x"), Var("y")))


def test_parse_left_associativity():
    assert parse_term("x - y - z", Signature.RD) == Sub(Sub(Var("x"), Var("y")), Var("z"))
    assert parse_term("x / y / z", Signature.DMD) == Div(
        Div(Var("x"), Var("y")), Var("z")
    )


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_term("x + ", Signature.CR)
    assert err.value.pos == 4
    with pytest.raises(ParseError):
        parse_term("x ^ 2", Signature.IMD)
    with pytest.raises(ParseError):
        parse_term("(x", Signature.CR)
    with pytest.raises(ParseError):
        parse_term("x y", Signature.CR)


# One input per kind of error parse_term raises, with its message.
TERM_ERRORS = [
    ("x + $", "unexpected character '$' (at position 4)"),
    ("x ^ 2", "expected '^-1' (at position 2)"),
    ("x^-", "expected '^-1' (at position 1)"),
    ("x + ", "expected a term, found 'end of input' (at position 4)"),
    ("x + )", "expected a term, found ')' (at position 4)"),
    ("(x", "expected ')', found 'end of input' (at position 2)"),
    ("inv(x y", "expected ')', found 'y' (at position 6)"),
    ("x y", "unexpected 'y' after term (at position 2)"),
    ("x ) ", "unexpected ')' after term (at position 2)"),
]


@pytest.mark.parametrize("text,message", TERM_ERRORS)
def test_parse_term_error_table(text, message):
    with pytest.raises(ParseError) as err:
        parse_term(text, Signature.CR)
    assert str(err.value) == message
    assert message.endswith(f"(at position {err.value.pos})")


def outcome(call):
    try:
        return call()
    except ParseError as exc:
        return str(exc), exc.pos


# Characters and strings the scanner treats differently: Unicode spaces,
# digits (one not ASCII), letters (some not lower-case ASCII), '_', '!'
# and '>' (parts of the tokens '!=' and '->' only), and every operator.
SCAN_PIECES = st.sampled_from(
    [" ", "\t", "\n", "\x0b", "\x1c", "\x85", "\xa0", "\u2003", "\u3000",
     "0", "1", "9", "\u0663", "a", "x", "z", "A", "\xe9", "_", "!", ">",
     "->", "!=", "=", "~", "&", "|", ".", "^", "+", "-", "*", "/", "(", ")",
     "inv", "^-1", "forall", "x1_"])


def scan(text, formula_ops):
    tokens = tokenize(text, formula_ops)
    positions = parsing._positions(text, formula_ops)
    assert len(positions) == len(tokens)
    return list(zip(tokens, positions))


@pytest.mark.parametrize("formula_ops", [False, True])
@settings(max_examples=400)
@given(text=st.lists(SCAN_PIECES, max_size=16).map("".join))
def test_scanner_agrees_with_a_character_loop(formula_ops, text):
    expected = outcome(lambda: oracle_tokenize(text, formula_ops))
    assert outcome(lambda: scan(text, formula_ops)) == expected
    # The parsers report an error at a token the scanner found.  Both admit
    # every symbol, so no signature error stands in for a parse error.
    parse = (lambda: parse_formula(text, None)) if formula_ops else (
        lambda: parse_term(text, None))
    got = outcome(parse)
    if type(got) is tuple and type(expected) is list:
        assert got[1] in {pos for _, pos in expected}


@pytest.mark.parametrize("text", ["a" * 10**6 + "!", "9" * 10**6 + "!", "x" + " " * 10**6,
                                  " " * 10**6 + "!", "(" * 10**6])
def test_scanning_is_linear(text):
    for formula_ops in (False, True):
        start = time.perf_counter()
        try:
            tokenize(text, formula_ops)
        except ParseError as exc:
            assert exc.pos == len(text) - 1
        assert time.perf_counter() - start < 2


def test_long_literals_fail_at_their_position():
    # More digits than Python 3.11's default limit on int string conversion
    # is a parse error at the literal, on every interpreter.
    for parse, pos in (
        (lambda: parse_term("9" * 4301, None), 0),
        (lambda: parse_term("1 + " + "9" * 5000, None), 4),
        (lambda: parse_formula("x = " + "9" * 4301, None), 4),
    ):
        with pytest.raises(ParseError) as err:
            parse()
        assert err.value.pos == pos
    assert parse_term("9" * 4300, None) is numeral(10**4300 - 1)


def test_render_examples():
    assert render(Mul(Var("x"), Inv(Var("y")))) == "x * y^-1"
    assert render(Div(One(), Zero())) == "1 / 0"
    assert render(Add(One(), One())) == "1 + 1"
    assert render(Add(One(), One()), numerals=True) == "2"


def test_render_numeral_flag_cases():
    assert render(numeral(0), numerals=True) == "0"
    assert render(numeral(7), numerals=True) == "7"
    assert render(Mul(numeral(2), Var("x")), numerals=True) == "2 * x"
    # Right-nested: only the canonical subterm sugars, and it still round-trips.
    t = Add(One(), Add(One(), One()))
    assert render(t, numerals=True) == "1 + 2"
    assert parse_term("1 + 2", Signature.CR) == t


def test_render_sexpr():
    t = Mul(Var("x"), Inv(Var("y")))
    assert render(t, style="sexpr") == "(* x (inv y))"
    assert render(Sub(One(), One()), style="sexpr") == "(sub 1 1)"


def _roundtrip(t, sig):
    text = render(t)
    again = parse_term(text, sig)
    assert again == t, f"{text!r} reparsed to {again}"


def test_roundtrip_handpicked():
    cases = [
        (Neg(Neg(Var("x"))), Signature.CR),
        (Inv(Inv(Var("x"))), Signature.IMD),
        (Neg(Inv(Var("x"))), Signature.IMD),
        (Inv(Neg(Var("x"))), Signature.IMD),
        (Mul(Add(Var("x"), Var("y")), Var("z")), Signature.CR),
        (Div(Var("x"), Div(Var("y"), Var("z"))), Signature.DMD),
        (Sub(Var("x"), Sub(Sub(One(), One()), Var("y"))), Signature.RD),
        (Mul(Var("x"), Neg(Var("y"))), Signature.CR),
        (Add(Var("x"), Neg(Var("y"))), Signature.CR),
    ]
    for t, sig in cases:
        _roundtrip(t, sig)


@pytest.mark.parametrize("sig", list(Signature))
def test_roundtrip_random_terms(sig):
    rng = random.Random(20260811)
    for _ in range(300):
        t = random_term(rng, sig, max_depth=6)
        _roundtrip(t, sig)
        rendered = render(t, numerals=True)
        assert parse_term(rendered, sig) == t


@st.composite
def imd_terms(draw, depth=4):
    leaf = st.sampled_from(
        [Zero(), One(), Var("x"), Var("y"), Var("z")]
    )
    return draw(
        st.recursive(
            leaf,
            lambda inner: st.one_of(
                st.builds(Add, inner, inner),
                st.builds(Mul, inner, inner),
                st.builds(Neg, inner),
                st.builds(Inv, inner),
            ),
            max_leaves=20,
        )
    )


@settings(max_examples=200)
@given(imd_terms())
def test_roundtrip_property(t):
    assert conforms(t, Signature.IMD)
    assert parse_term(render(t), Signature.IMD) == t


# ---------------------------------------------------------------------------
# The printers against a reference printer


def printable_terms(sig):
    """Terms over sig's symbols (None: all of them), with numerals and their
    reduced divisive images up to 60, towers of - and ^-1, and subterms
    shared by both operands of a node."""
    x = Var("x")
    ops = [op for op in (Add, Mul, Sub, Div, Neg, Inv)
           if sig is None or conforms(op(*[x] * len(op._fields)), sig)]
    binary = [op for op in ops if len(op._fields) == 2]
    unary = [op for op in ops if len(op._fields) == 1]
    leaves = [st.just(ONE), st.sampled_from("xyz").map(Var)]
    if sig is None or conforms(ZERO, sig):
        leaves.append(st.just(ZERO))
    if Add in ops:
        leaves.append(st.integers(2, 60).map(numeral))
    if Sub in ops:
        leaves.append(st.integers(2, 60).map(
            lambda k: project(numeral(k), Projection.IMN_TO_RDMN)))

    def extend(kids):
        options = [st.builds(op, kids, kids) for op in binary]
        options.append(st.builds(lambda t, op: op(t, t), kids, st.sampled_from(binary)))
        if unary:
            options.append(st.builds(lambda t, ops: reduce(lambda u, op: op(u), ops, t),
                                     kids, st.lists(st.sampled_from(unary), min_size=1,
                                                    max_size=12)))
        return st.one_of(options)

    return st.recursive(st.one_of(leaves), extend, max_leaves=12)


ANY_TERM = st.sampled_from([None, *Signature]).flatmap(printable_terms)
FORMULAS = st.recursive(
    st.builds(Eq, printable_terms(None), printable_terms(None)),
    lambda fs: st.one_of(
        st.builds(Not, fs), st.builds(And, fs, fs), st.builds(Or, fs, fs),
        st.builds(Implies, fs, fs), st.builds(Forall, st.sampled_from("xy"), fs),
        st.builds(Exists, st.sampled_from("xy"), fs)),
    max_leaves=4)


@settings(max_examples=300, deadline=None)
@given(ANY_TERM)
def test_printers_match_the_reference_printer(t):
    assert render(t) == oracle_render(t)
    assert render(t, numerals=True) == oracle_render(t, numerals=True)
    assert render(t, "sexpr") == oracle_render(t, "sexpr")
    assert repr(t) == oracle_render(t, "repr")


@settings(max_examples=60, deadline=None)
@given(FORMULAS)
def test_formula_repr_matches_the_reference_printer(f):
    assert repr(f) == oracle_render(f, "repr")


def test_render_refuses_a_formula_at_its_first_node_bottom_up():
    x = Var("x")
    with pytest.raises(KeyError) as info:
        render(Not(And(Eq(x, ONE), Eq(ONE, x))), "sexpr")
    assert info.value.args == (Eq,)
    # An unprintable numeral to the left of the formula node is met first.
    with pytest.raises(ValueError, match="too large to spell out"):
        render(Eq(Add(x, numeral(sys.maxsize // 8 + 1)), x))
    with pytest.raises(KeyError):
        render(Eq(Add(x, numeral(sys.maxsize // 8 + 1)), x), numerals=True)
