import pytest

from meadows.terms import (
    Add, Div, Inv, Mul, Neg, One, Sub, Var, Zero, ZERO, ONE,
    Signature, SignatureError,
    numeral, power, conforms, check_conforms, subst, free_vars,
)


def test_numeral_base_cases():
    assert numeral(0) == Zero()
    assert numeral(1) == One()
    assert numeral(2) == Add(One(), One())
    assert numeral(3) == Add(Add(One(), One()), One())


def test_numeral_rejects_negative():
    with pytest.raises(ValueError):
        numeral(-1)


def test_power_clauses():
    x = Var("x")
    assert power(x, 0) == One()
    assert power(x, 1) == Mul(One(), x)
    assert power(x, 2) == Mul(Mul(One(), x), x)
    two = Add(One(), One())
    assert power(two, 1) == Mul(One(), two)


def test_conforms_examples():
    assert not conforms(Inv(Var("x")), Signature.DMD)
    assert conforms(Div(One(), Zero()), Signature.DMD)
    assert not conforms(Neg(One()), Signature.IAMD)


def test_conforms_signature_sets():
    assert conforms(Sub(One(), One()), Signature.RD)
    assert not conforms(Sub(One(), One()), Signature.CR)
    assert not conforms(Zero(), Signature.RD)
    assert not conforms(Zero(), Signature.IAMD)
    assert conforms(Zero(), Signature.IAMDZ)
    assert not conforms(Div(One(), One()), Signature.IMD)
    assert not conforms(Inv(One()), Signature.CR)


def test_conforms_monotone():
    # IAMD terms conform to IAMDZ, which conform to IMD.
    terms = [
        Mul(Var("x"), Inv(Var("x"))),
        Add(One(), Inv(Add(One(), Var("y")))),
    ]
    for t in terms:
        assert conforms(t, Signature.IAMD)
        assert conforms(t, Signature.IAMDZ)
        assert conforms(t, Signature.IMD)


def test_check_conforms_names_the_symbol():
    with pytest.raises(SignatureError) as err:
        check_conforms(Inv(Var("x")), Signature.DMD)
    assert "^-1" in str(err.value)


def test_check_conforms_names_the_first_offender():
    # The first offender met visiting each node before its children and the
    # right child before the left.
    with pytest.raises(SignatureError, match="/"):
        check_conforms(Add(Neg(Var("x")), Div(ONE, ONE)), Signature.IAMD)
    with pytest.raises(SignatureError, match=r"\(unary\)"):
        check_conforms(Add(Div(ONE, ONE), Mul(Neg(ONE), ONE)), Signature.IAMD)
    with pytest.raises(SignatureError, match="^0 "):
        check_conforms(Inv(Add(Neg(ONE), ZERO)), Signature.IAMD)


def test_subst_examples():
    x, y = Var("x"), Var("y")
    assert subst(Mul(x, Inv(x)), "x", ZERO) == Mul(ZERO, Inv(ZERO))
    assert subst(y, "x", ONE) == y
    assert subst(Add(x, x), "x", numeral(2)) == Add(numeral(2), numeral(2))


def test_free_vars():
    assert free_vars(Mul(Var("x"), Inv(Var("y")))) == {"x", "y"}
    assert free_vars(numeral(5)) == frozenset()
    assert free_vars(Add(Var("x"), Var("x"))) == {"x"}


def test_var_name_validation():
    with pytest.raises(ValueError):
        Var("X")
    with pytest.raises(ValueError):
        Var("1x")
    with pytest.raises(ValueError):
        Var("")
    assert Var("a_1").name == "a_1"


def test_structural_equality_not_ac():
    x, y = Var("x"), Var("y")
    assert Add(x, y) != Add(y, x)
    assert Add(x, y) == Add(Var("x"), Var("y"))
    assert hash(Add(x, y)) == hash(Add(Var("x"), Var("y")))
