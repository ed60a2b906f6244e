import random

import pytest

from meadows.convention import (
    COMPLIANT, ConventionId, DefNzClass, Sufficiency, Violation,
    classify, closed_compliance, open_compliance_sufficient,
)
from meadows.parsing import parse_term, render
from meadows.partial import Defined, PunchVariant, UNDEFINED, punch_eval
from meadows.terms import (
    Add, Inv, Var, ONE, ZERO,
    Signature, SignatureError, free_vars,
)

from .helpers import random_assignment, random_term

INV = ConventionId.RELEVANT_INVERSIVE
DIV = ConventionId.RELEVANT_DIVISION
LIB = ConventionId.LIBERAL_RELEVANT_DIVISION


def iamdz(text):
    return parse_term(text, Signature.IAMDZ)


def test_classify_examples():
    assert classify(Add(ONE, Var("x"))) is DefNzClass.NEITHER
    assert classify(Add(ONE, Var("x")), mode="literal") is DefNzClass.IN_NZ
    assert classify(ZERO) is DefNzClass.IN_DEF
    assert classify(Inv(ZERO)) is DefNzClass.NEITHER
    assert classify(Inv(Add(ONE, ONE))) is DefNzClass.IN_NZ


def test_classify_rejects_bad_input():
    with pytest.raises(SignatureError):
        classify(parse_term("x / y", Signature.DMD))
    with pytest.raises(ValueError):
        classify(ONE, mode="lenient")


def test_classify_literal_unsound_case():
    # The literal sum rule lets an undefined operand ride along.
    t = iamdz("1 + inv(0)")
    assert classify(t, mode="literal") is DefNzClass.IN_NZ
    assert classify(t, mode="strict") is DefNzClass.NEITHER
    assert punch_eval(t, PunchVariant.INV_ZERO) is UNDEFINED


def test_classify_vars_defined_flag():
    t = iamdz("1 + x * x")
    assert classify(t) is DefNzClass.NEITHER
    assert classify(t, vars_defined=True) is DefNzClass.IN_NZ
    assert classify(Var("x"), vars_defined=True) is DefNzClass.IN_DEF


def test_literal_mode_contains_strict_mode():
    rng = random.Random(20260811)
    rank = {DefNzClass.NEITHER: 0, DefNzClass.IN_DEF: 1, DefNzClass.IN_NZ: 2}
    for _ in range(800):
        t = random_term(rng, Signature.IAMDZ, 5)
        assert rank[classify(t, "literal")] >= rank[classify(t, "strict")]
        assert rank[classify(t, "strict", vars_defined=True)] >= rank[
            classify(t, "strict")
        ]


def test_strict_mode_soundness_sampled():
    rng = random.Random(4242)
    for _ in range(500):
        t = random_term(rng, Signature.IAMDZ, 5)
        cls = classify(t, "strict", vars_defined=True)
        if cls is DefNzClass.NEITHER:
            continue
        for _ in range(8):
            a = random_assignment(rng, free_vars(t), nonneg=True)
            result = punch_eval(t, PunchVariant.INV_ZERO, a=a)
            assert isinstance(result, Defined), (t, a)
            if cls is DefNzClass.IN_NZ:
                assert result.value > 0, (t, a)


def test_closed_compliance_examples():
    assert isinstance(
        closed_compliance(parse_term("1/0", Signature.DMD), DIV), Violation
    )
    assert closed_compliance(parse_term("0/0", Signature.DMD), LIB) is COMPLIANT
    assert closed_compliance(parse_term("2/2", Signature.DMD), DIV) is COMPLIANT
    assert isinstance(
        closed_compliance(parse_term("inv(0)", Signature.IMD), INV), Violation
    )
    assert closed_compliance(parse_term("inv(2)", Signature.IMD), INV) is COMPLIANT


def test_closed_compliance_violation_details():
    v = closed_compliance(parse_term("1/0", Signature.DMD), DIV)
    assert render(v.subterm) == "1 / 0"
    assert "denominator" in v.detail
    # Hidden zero denominators are found by evaluation, not syntax.
    v = closed_compliance(parse_term("1/(2 - 2)", Signature.DMD), DIV)
    assert isinstance(v, Violation)


def test_closed_compliance_leftmost_innermost():
    t = parse_term("(1/0) + (2/0)", Signature.DMD)
    v = closed_compliance(t, DIV)
    assert render(v.subterm) == "1 / 0"
    t = parse_term("1/(1/0)", Signature.DMD)
    v = closed_compliance(t, DIV)
    assert render(v.subterm) == "1 / 0"  # the inner division offends first


def test_closed_compliance_open_term_rejected():
    with pytest.raises(ValueError):
        closed_compliance(parse_term("x / 2", Signature.DMD), DIV)


def test_closed_compliance_matches_punched_evaluation():
    # Exactness on closed terms: compliant iff the punched value is defined.
    rng = random.Random(77)
    pairs = [
        (INV, PunchVariant.INV_ZERO, Signature.IMD),
        (DIV, PunchVariant.DIV_ZERO_ALL, Signature.DMD),
        (LIB, PunchVariant.DIV_ZERO_NONZERO_NUM, Signature.DMD),
    ]
    for conv, variant, sig in pairs:
        for _ in range(400):
            t = random_term(rng, sig, 5, variables=())
            compliant = closed_compliance(t, conv) is COMPLIANT
            defined = isinstance(punch_eval(t, variant), Defined)
            assert compliant == defined, (conv, t)


def test_each_convention_is_its_punch_variant():
    assert list(ConventionId) == list(PunchVariant)
    for conv, variant in ((INV, PunchVariant.INV_ZERO), (DIV, PunchVariant.DIV_ZERO_ALL),
                          (LIB, PunchVariant.DIV_ZERO_NONZERO_NUM)):
        assert conv is variant and ConventionId(variant.value) is conv
    # closed_compliance takes a convention under either name.
    t = parse_term("0 / 0", Signature.DMD)
    assert closed_compliance(t, PunchVariant.DIV_ZERO_NONZERO_NUM) is COMPLIANT
    assert closed_compliance(t, PunchVariant.DIV_ZERO_ALL) == closed_compliance(t, DIV)


def test_open_compliance_examples():
    t = iamdz("inv(1 + x * x)")
    assert open_compliance_sufficient(t) is Sufficiency.UNKNOWN
    assert open_compliance_sufficient(t, mode="literal") is Sufficiency.CERTIFIED_COMPLIANT
    assert (
        open_compliance_sufficient(t, vars_defined=True)
        is Sufficiency.CERTIFIED_COMPLIANT
    )
    assert open_compliance_sufficient(iamdz("inv(3)")) is Sufficiency.CERTIFIED_COMPLIANT
    assert open_compliance_sufficient(Inv(Var("x"))) is Sufficiency.UNKNOWN


def test_open_compliance_checks_nested_inverses():
    # A certifiable outer argument must not hide an uncertified inner inverse.
    t = iamdz("inv(1 + inv(0))")
    assert open_compliance_sufficient(t, mode="literal") is Sufficiency.UNKNOWN


def test_open_compliance_certificate_is_sound():
    rng = random.Random(88)
    for _ in range(400):
        t = random_term(rng, Signature.IAMDZ, 5)
        if open_compliance_sufficient(t, vars_defined=True) is not (
            Sufficiency.CERTIFIED_COMPLIANT
        ):
            continue
        for _ in range(8):
            a = random_assignment(rng, free_vars(t), nonneg=True)
            assert isinstance(punch_eval(t, PunchVariant.INV_ZERO, a=a), Defined)


def test_closed_iamd_terms_always_certified():
    # Without zero in the signature there is nothing to violate.
    rng = random.Random(99)
    for _ in range(400):
        t = random_term(rng, Signature.IAMD, 5, variables=())
        assert classify(t, "strict") is DefNzClass.IN_NZ
        assert classify(t, "literal") is DefNzClass.IN_NZ
        assert open_compliance_sufficient(t) is Sufficiency.CERTIFIED_COMPLIANT
