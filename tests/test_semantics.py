import random
import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meadows.parsing import parse_term
from meadows.partial import Defined, PunchVariant, punch_eval
from meadows.presentations import builtin
from meadows import semantics
from meadows.semantics import (
    AxiomFailure, FiniteMeadow, MAX_ASSIGNMENTS, MissingAssignment, NotRegular, NotUnique,
    check_axioms, corollary_witness, eval_model, eval_q0,
    expand_regular_ring, is_prime, two_squares, zn_meadow, zn_ring, zp_meadow,
)
from meadows.terms import (
    Add, Div, Inv, Mul, Neg, One, Sub, Var, Zero, ONE, ZERO,
    Signature, free_vars, numeral,
)

from .helpers import oracle_eval, random_assignment, random_term, shapes_presentation


def test_eval_q0_examples():
    assert eval_q0(Inv(ZERO)) == 0
    assert eval_q0(parse_term("5 / 0", Signature.DMD)) == 0
    t = parse_term("(1 + x*x + y*y) * (1 + x*x + y*y)^-1", Signature.IMD)
    assert eval_q0(t, {"x": 2, "y": 3}) == 1
    assert eval_q0(Inv(numeral(2))) == Fraction(1, 2)


def test_eval_q0_missing_assignment():
    with pytest.raises(MissingAssignment):
        eval_q0(Var("x"), {"y": 1})


def test_zp_meadow_tables():
    zp5 = zp_meadow(5)
    assert zp5.inv == (0, 1, 3, 2, 4)
    assert zp_meadow(2).inv == (0, 1)
    with pytest.raises(ValueError):
        zp_meadow(4)


def test_eval_model_examples():
    assert eval_model(Inv(numeral(2)), zp_meadow(5)) == 3
    assert eval_model(Mul(Var("x"), Inv(Var("x"))), zp_meadow(3), {"x": 0}) == 0
    assert eval_model(Add(ONE, ONE), zp_meadow(2)) == 0


def test_check_axioms_zp_and_z6():
    assert check_axioms(zp_meadow(7), "imd") == []
    assert check_axioms(zn_meadow(6), "imd") == []


def test_check_axioms_z4_identity_inverse_fails():
    ring = zn_ring(4)
    bad = FiniteMeadow(ring.size, ring.add, ring.mul, ring.neg, (0, 1, 2, 3))
    failures = check_axioms(bad, "imd")
    assert failures, "Z_4 with identity inverse is not a meadow"
    restricted = [f for f in failures if f.axiom == "restricted_inv"]
    assert restricted and restricted[0].witness == (("x", 2),)


def test_expand_regular_ring_z6_identity():
    expanded = expand_regular_ring(zn_ring(6))
    assert expanded.inv == (0, 1, 2, 3, 4, 5)


@pytest.mark.parametrize("n,bad", [(4, 2), (9, 3)])
def test_expand_regular_ring_not_regular(n, bad):
    with pytest.raises(NotRegular) as err:
        expand_regular_ring(zn_ring(n))
    assert err.value.element == bad


def test_expand_regular_ring_squarefree_up_to_30():
    squarefree = [
        n for n in range(1, 31)
        if all(n % (d * d) for d in range(2, 6))
    ]
    for n in squarefree:
        meadow = zn_meadow(n)
        assert check_axioms(meadow, "imd") == [], n


def test_expansion_uniqueness_never_trips():
    # NotUnique signals a contradiction with the uniqueness theorem; over
    # genuine commutative rings it must never fire.
    for n in (1, 2, 3, 5, 6, 7, 10, 15, 21, 30):
        try:
            zn_meadow(n)
        except NotUnique as exc:  # pragma: no cover
            pytest.fail(f"uniqueness violated for Z_{n}: {exc}")


def test_modular_inverse_is_the_regular_ring_expansion():
    for n in range(1, 61):
        try:
            expected = expand_regular_ring(zn_ring(n)).inv
        except NotRegular as exc:
            with pytest.raises(NotRegular) as err:
                zn_meadow(n)
            assert err.value.element == exc.element, n
        else:
            assert zn_meadow(n).inv == expected, n


def test_large_prime_field_evaluates_without_tables():
    t = Div(Add(Var("x"), ONE), Mul(Var("x"), Var("x")))
    tracemalloc.start()
    try:
        m = zp_meadow(2003)
        value = eval_model(t, m, {"x": 5})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 6 * pow(25, -1, 2003) % 2003
    assert peak < 5 * 2**20
    assert punch_eval(t, PunchVariant.DIV_ZERO_ALL, m, {"x": 5}) == Defined(value)
    assert repr(m) == "zn_meadow(2003)"
    assert m == zn_meadow(2003) and hash(m) == hash(zn_meadow(2003))
    assert m != zn_ring(2003)
    assert not {"add", "mul", "neg", "inv"} & vars(m).keys()


def test_two_squares_examples():
    assert two_squares(7, 3) == (1, 3)
    v, w = two_squares(2, 1)
    assert (v * v + w * w) % 2 == 1
    assert two_squares(5, 0) == (0, 0)
    with pytest.raises(ValueError):
        two_squares(6, 1)
    with pytest.raises(ValueError):
        two_squares(7, 9)


def test_corollary_witness_examples():
    assert corollary_witness(7) == (2, 3, 2)
    u, v, w = corollary_witness(2)
    assert u * u + v * v + 1 == w * 2
    assert corollary_witness(3) == (1, 1, 1)


def test_komori_dichotomy():
    # x * x^-1 is 1 for nonzero x and 0 * 0^-1 = 0, exactly.
    t = Mul(Var("x"), Inv(Var("x")))
    assert eval_q0(t, {"x": 0}) == 0
    rng = random.Random(11)
    for _ in range(200):
        q = Fraction(rng.randint(-30, 30), rng.randint(1, 10))
        expected = 0 if q == 0 else 1
        assert eval_q0(t, {"x": q}) == expected
    for p in (2, 3, 5, 7, 11, 13):
        m = zp_meadow(p)
        for x in m.carrier:
            got = eval_model(t, m, {"x": x})
            assert got == (0 if x == 0 else 1)


def test_separating_equation_fails_in_every_zp():
    # 1 + x^2 + y^2 hits zero mod p, so the defining equation of the
    # rational meadow fails in every finite prime model.
    t = parse_term("(1 + x*x + y*y) * (1 + x*x + y*y)^-1", Signature.IMD)
    for p in (2, 3, 5, 7, 11, 13):
        m = zp_meadow(p)
        hits = [
            (x, y)
            for x, y in product(m.carrier, repeat=2)
            if eval_model(t, m, {"x": x, "y": y}) != 1
        ]
        assert hits, f"no counterexample in Z_{p}"
        x, y = hits[0]
        assert (1 + x * x + y * y) % p == 0


def test_numeral_homomorphism():
    models = [None, zp_meadow(5), zp_meadow(13), zn_meadow(6)]
    for n in range(1, 8):
        for m in range(1, 8):
            combined = numeral(n + m)
            split = Add(numeral(n), numeral(m))
            assert eval_q0(combined) == eval_q0(split)
            for model in models[1:]:
                assert eval_model(combined, model) == eval_model(split, model)


def test_imd_dmd_axioms_hold_in_q0_fuzz():
    rng = random.Random(20260811)
    axioms = list(builtin("imd").axioms) + list(builtin("dmd").axioms)
    assignments = [
        random_assignment(rng, ("x", "y", "z")) for _ in range(10_000)
    ]
    for eq in axioms:
        names = sorted(free_vars(eq.lhs) | free_vars(eq.rhs))
        for a in assignments[:: max(1, len(names))]:
            assert eval_q0(eq.lhs, a) == eval_q0(eq.rhs, a), (eq.name, a)


def test_eval_q0_agrees_with_independent_oracle():
    rng = random.Random(99)
    for sig in (Signature.IMD, Signature.DMD, Signature.RD):
        for _ in range(400):
            t = random_term(rng, sig, 5)
            a = random_assignment(rng, free_vars(t))
            assert eval_q0(t, a) == oracle_eval(t, a)


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_eval_model_rejects_values_outside_the_carrier():
    m = zp_meadow(5)
    for bad in (5, 7, -1, -6, Fraction(1, 2)):
        with pytest.raises(ValueError, match="outside the carrier"):
            eval_model(Add(Var("x"), ONE), m, {"x": bad})
    assert eval_model(Add(Var("x"), ONE), m, {"x": 4}) == 0


def test_eval_model_deep_term_within_default_recursion_limit():
    # 5000 nested additions: far past Python's default recursion limit.
    assert eval_model(numeral(5000), zp_meadow(7)) == 5000 % 7
    assert eval_model(Sub(numeral(9), Var("x")), zp_meadow(7), {"x": 3}) == 6
    assert eval_model(Div(ONE, numeral(3)), zp_meadow(7)) == 5


def test_missing_inverse_table_raises_value_error():
    with pytest.raises(ValueError, match="inv"):
        check_axioms(zn_ring(6), "imd")
    with pytest.raises(ValueError, match="inv"):
        check_axioms(zn_ring(6), "dmd")
    with pytest.raises(ValueError, match="inv"):
        eval_model(Inv(ONE), zn_ring(6))
    assert check_axioms(zn_ring(6), "cr") == []


def _naive_eval(t, m: FiniteMeadow, a: dict) -> int:
    match t:
        case Zero():
            return m.zero
        case One():
            return m.one
        case Var(name=name):
            return a[name]
        case Add(left=l, right=r):
            return m.add[_naive_eval(l, m, a)][_naive_eval(r, m, a)]
        case Mul(left=l, right=r):
            return m.mul[_naive_eval(l, m, a)][_naive_eval(r, m, a)]
        case Sub(left=l, right=r):
            return m.add[_naive_eval(l, m, a)][m.neg[_naive_eval(r, m, a)]]
        case Neg(arg=arg):
            return m.neg[_naive_eval(arg, m, a)]
        case Inv(arg=arg):
            return m.inv[_naive_eval(arg, m, a)]
        case Div(num=num, den=den):
            return m.mul[_naive_eval(num, m, a)][m.inv[_naive_eval(den, m, a)]]
    raise TypeError(f"unknown node {t!r}")


def _naive_check_axioms(m: FiniteMeadow, axioms) -> list[AxiomFailure]:
    """One assignment at a time, in row-major order."""
    failures = []
    for eq in (builtin(axioms) if isinstance(axioms, str) else axioms).axioms:
        names = sorted(free_vars(eq.lhs) | free_vars(eq.rhs))
        bad = []
        for values in product(m.carrier, repeat=len(names)):
            a = dict(zip(names, values))
            lhs, rhs = _naive_eval(eq.lhs, m, a), _naive_eval(eq.rhs, m, a)
            if lhs != rhs:
                bad.append((tuple(zip(names, values)), lhs, rhs))
        if bad:
            failures.append(AxiomFailure(eq.name, *bad[0], len(bad)))
    return failures


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.randoms(use_true_random=False), st.data())
def test_modular_eval_matches_table_evaluation(n, rng, data):
    try:
        m, sigs = zn_meadow(n), (Signature.IMD, Signature.DMD, Signature.RD)
    except NotRegular:
        m, sigs = zn_ring(n), (Signature.CR,)
    t = random_term(rng, rng.choice(sigs), 5)
    a = {v: data.draw(st.integers(0, n - 1)) for v in sorted(free_vars(t))}
    assert eval_model(t, m, a) == _naive_eval(t, m, a)


@st.composite
def corrupted_zn(draw):
    """Z_n (with inverse x^-1 for units, 0 otherwise) with a few table entries overwritten."""
    n = draw(st.integers(2, 13))
    ring = zn_ring(n)
    tables = {
        "add": [list(row) for row in ring.add],
        "mul": [list(row) for row in ring.mul],
        "neg": list(ring.neg),
        "inv": [pow(x, -1, n) if gcd(x, n) == 1 else 0 for x in range(n)],
    }
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(tables)))
        i = draw(st.integers(0, n - 1))
        value = draw(st.integers(0, n - 1))
        if key in ("add", "mul"):
            tables[key][i][draw(st.integers(0, n - 1))] = value
        else:
            tables[key][i] = value
    return FiniteMeadow(
        n,
        tuple(map(tuple, tables["add"])),
        tuple(map(tuple, tables["mul"])),
        tuple(tables["neg"]),
        tuple(tables["inv"]),
        0,
        1,
    )


SHAPES = shapes_presentation()


@settings(max_examples=30, deadline=None)
@given(corrupted_zn())
def test_check_axioms_matches_naive_reference(m):
    # With n up to 13, a 3-variable axiom has up to 169 lines of 13
    # assignments, so witnesses and failure counts must survive many lines.
    # A corrupted add or mul table is not commutative, which the shapes'
    # operand-first equations need; m has no sub or div table.
    for axioms in ("cr", "imd", "dmd", SHAPES):
        assert check_axioms(m, axioms) == _naive_check_axioms(m, axioms)


def test_check_axioms_refuses_more_than_max_assignments(monkeypatch):
    m = zp_meadow(1009)
    total = 3 * 1009**3 + 2 * 1009**2 + 5 * 1009  # imd: 3, 2 and 5 axioms in 3, 2, 1 variables
    with pytest.raises(ValueError, match=f"needs {total} assignments.* cap of {MAX_ASSIGNMENTS}"):
        check_axioms(m, "imd")
    assert not {"add", "mul", "neg", "inv"} & vars(m).keys()
    small = zp_meadow(5)
    monkeypatch.setattr(semantics, "MAX_ASSIGNMENTS", 3 * 5**3 + 2 * 5**2 + 5 * 5)
    assert check_axioms(small, "imd") == []
    monkeypatch.setattr(semantics, "MAX_ASSIGNMENTS", 3 * 5**3 + 2 * 5**2 + 5 * 5 - 1)
    with pytest.raises(ValueError, match="cap"):
        check_axioms(small, "imd")
