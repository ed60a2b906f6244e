import random
from fractions import Fraction

import pytest

from meadows.parsing import parse_term
from meadows.partial import (
    Defined, PunchVariant, UNDEFINED, Violation, punch_eval, punched_value, recovery_check,
)
from meadows.semantics import Q0, MissingAssignment, eval_q0, zn_ring, zp_meadow
from meadows.terms import (
    Add, Div, Inv, Mul, Neg, Var, ZERO, ONE,
    Signature, SignatureError, free_vars,
)

from .helpers import random_assignment, random_term

INV0 = PunchVariant.INV_ZERO
DIV0 = PunchVariant.DIV_ZERO_ALL
DIV0LIB = PunchVariant.DIV_ZERO_NONZERO_NUM


def test_punch_eval_quoted_cases():
    assert punch_eval(Inv(ZERO), INV0) is UNDEFINED
    assert punch_eval(Div(ZERO, ZERO), DIV0LIB) == Defined(Fraction(0))
    assert punch_eval(Div(ZERO, ZERO), DIV0) is UNDEFINED
    assert punch_eval(Mul(ZERO, Inv(ZERO)), INV0) is UNDEFINED


def test_punch_eval_defined_values_match_total():
    assert punch_eval(Inv(Var("x")), INV0, a={"x": 2}) == Defined(Fraction(1, 2))
    assert punch_eval(Div(ONE, Var("x")), DIV0, a={"x": 4}) == Defined(Fraction(1, 4))


def test_punch_eval_signature_mismatch():
    with pytest.raises(SignatureError):
        punch_eval(Div(ONE, ONE), INV0)
    with pytest.raises(SignatureError):
        punch_eval(Inv(ONE), DIV0)


def test_punch_eval_finite_model():
    m = zp_meadow(5)
    assert punch_eval(Inv(ZERO), INV0, m) is UNDEFINED
    assert punch_eval(Inv(Var("x")), INV0, m, {"x": 2}) == Defined(3)
    assert punch_eval(Div(Var("x"), ZERO), DIV0, m, {"x": 1}) is UNDEFINED
    assert punch_eval(Div(ZERO, ZERO), DIV0LIB, m) == Defined(0)
    assert punch_eval(Neg(ONE), INV0, m) == Defined(4)


def test_a_missing_variable_after_a_punched_application_still_raises():
    # The walk goes on past an undefined subterm, so a variable with no
    # value later in the term is reported, in Q0 as in a finite model.
    t = parse_term("0^-1 + y", None)
    for model in (Q0, zp_meadow(5)):
        with pytest.raises(MissingAssignment, match="'y'"):
            punch_eval(t, INV0, model)


def test_the_first_violation_in_post_order_is_reported():
    # With both operands undefined the left one is reported, and an
    # undefined shared subterm is reported at itself wherever it recurs.
    left, right = Inv(ZERO), Inv(Add(ONE, Neg(ONE)))
    shared = Div(ONE, Mul(ZERO, Var("x")))
    cases = [
        (Add(left, right), INV0, left, "inverse of 0"),
        (Add(right, left), INV0, right, "inverse of 0"),
        (Mul(Inv(left), Neg(right)), INV0, left, "inverse of 0"),
        (Add(Mul(right, Var("x")), Inv(right)), INV0, right, "inverse of 0"),
        (Div(Add(shared, ONE), shared), DIV0, shared, "denominator 0"),
        (Div(Div(ZERO, ZERO), Div(ONE, ZERO)), DIV0LIB, Div(ONE, ZERO), "denominator 0"),
        (Div(Div(ZERO, ZERO), Div(ONE, ZERO)), DIV0, Div(ZERO, ZERO), "denominator 0"),
    ]
    for model in (Q0, zp_meadow(5)):
        a = model.check_assignment({"x": 3})
        for t, variant, where, detail in cases:
            assert punched_value(t, variant, model, a) == Violation(where, detail)
            assert punch_eval(t, variant, model, {"x": 3}) is UNDEFINED


def test_a_ring_without_inverse_is_read_up_to_the_first_violation():
    # Evaluation stops at the first punched application, so a division
    # after it never reads the inverse the ring lacks; one before it does.
    z6 = zn_ring(6)
    assert punch_eval(Add(Div(ONE, ZERO), Div(ONE, ONE)), DIV0, z6) is UNDEFINED
    with pytest.raises(ValueError, match="model provides no interpretation for 'inv'"):
        punch_eval(Add(Div(ONE, ONE), Div(ONE, ZERO)), DIV0, z6)


def test_recovery_table():
    # 0^-1 projects to 1/0: undefined on both sides, for both div variants.
    r = recovery_check(DIV0, INV0, Inv(ZERO))
    assert r.agrees and r.direct is UNDEFINED and r.projected is UNDEFINED
    r = recovery_check(DIV0LIB, INV0, Inv(ZERO))
    assert r.agrees
    # x/0 projects to x * 0^-1: undefined on both sides.
    r = recovery_check(INV0, DIV0, Div(Var("x"), ZERO), {"x": 1})
    assert r.agrees and r.direct is UNDEFINED
    # 0/0 is 0 under the liberal variant but its projection is undefined:
    # the inversive notation cannot express the liberal view.
    r = recovery_check(INV0, DIV0LIB, Div(ZERO, ZERO))
    assert not r.agrees
    assert r.direct == Defined(Fraction(0)) and r.projected is UNDEFINED


def test_totality_complement():
    # Punching never changes a defined value.
    rng = random.Random(20260811)
    for variant, sig in ((INV0, Signature.IMD), (DIV0, Signature.DMD),
                         (DIV0LIB, Signature.DMD)):
        for _ in range(600):
            t = random_term(rng, sig, 5)
            a = random_assignment(rng, free_vars(t))
            result = punch_eval(t, variant, a=a)
            if isinstance(result, Defined):
                assert result.value == eval_q0(t, a)


def _children(t):
    if isinstance(t, (Add, Mul)):
        return [t.left, t.right]
    if isinstance(t, Div):
        return [t.num, t.den]
    if isinstance(t, (Neg, Inv)):
        return [t.arg]
    return []


def test_strictness():
    rng = random.Random(5)
    for variant, sig in ((INV0, Signature.IMD), (DIV0, Signature.DMD)):
        for _ in range(400):
            t = random_term(rng, sig, 5)
            a = random_assignment(rng, free_vars(t))
            kids = _children(t)
            if any(punch_eval(k, variant, a=a) is UNDEFINED for k in kids):
                assert punch_eval(t, variant, a=a) is UNDEFINED


def test_variant_ordering():
    # Whatever the strict division variant defines, the liberal one does too.
    rng = random.Random(6)
    for _ in range(800):
        t = random_term(rng, Signature.DMD, 5)
        a = random_assignment(rng, free_vars(t))
        strict = punch_eval(t, DIV0, a=a)
        liberal = punch_eval(t, DIV0LIB, a=a)
        if isinstance(strict, Defined):
            assert liberal == strict
    # ... and strictly more: 0/0 separates them.
    assert punch_eval(parse_term("0/0", Signature.DMD), DIV0) is UNDEFINED
    assert punch_eval(parse_term("0/0", Signature.DMD), DIV0LIB) == Defined(
        Fraction(0)
    )
