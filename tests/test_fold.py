"""Interned terms and the fold: identity, table size, and depth.

Every test here runs under Python's default recursion limit, far below
the depth of the terms it builds.
"""

import copy
import gc
import pickle
import sys
import threading
import time

import pytest

from meadows.convention import (
    COMPLIANT, ConventionId, Sufficiency, closed_compliance, open_compliance_sufficient,
)
from meadows.normalize import zero_eliminate
from meadows.parsing import parse_term, render
from meadows.projection import Projection, project
from meadows.semantics import eval_model, eval_q0, zp_meadow
from meadows.terms import (
    CONSTRUCTORS, Add, Div, Inv, Mul, Neg, Sub, Var, ONE, ZERO,
    Signature, SignatureError, check_conforms, fold, free_vars, numeral, subst,
)

DEEP = 100_000


@pytest.fixture(scope="module")
def deep():
    assert sys.getrecursionlimit() <= 1000
    return numeral(DEEP)


def interned_count():
    return sum(len(c._interned) for c in CONSTRUCTORS)


def test_equal_terms_are_one_object():
    x, y = Var("x"), Var("y")
    assert Add(x, y) is Add(Var("x"), Var("y"))
    assert Add(x, y) is not Add(y, x)
    assert parse_term("x + y", None) is Add(x, y)


def test_fold_visits_each_distinct_subterm_once():
    t = Var("x")
    for _ in range(200):
        t = Add(t, t)  # 2^200 leaves as a tree, 201 distinct subterms
    visits = []

    def count(node, *kids):
        visits.append(node)
        return 1 + sum(kids)

    assert fold(t, dict.fromkeys(CONSTRUCTORS, count)) == 2 ** 201 - 1
    assert len(visits) == 201


def test_intern_table_shrinks_when_terms_are_dropped():
    # No other test uses this variable, so no node of the chain is alive before.
    gc.collect()
    before = interned_count()
    t = Var("intern_probe")
    for _ in range(9_999):
        t = Add(t, ONE)
    assert interned_count() >= before + 10_000
    del t
    gc.collect()
    assert interned_count() == before


def test_concurrent_construction_yields_one_object():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    results = [None] * 4

    def build(i):
        results[i] = [Mul(numeral(k), Inv(Var(f"v{k % 7}"))) for k in range(300)]

    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    for other in results[1:]:
        assert all(a is b for a, b in zip(results[0], other))


def test_deep_numeral_identity_and_evaluation(deep):
    assert deep == numeral(DEEP) and hash(deep) == hash(numeral(DEEP))
    assert deep != numeral(DEEP - 1)
    assert eval_q0(deep) == DEEP
    assert eval_model(deep, zp_meadow(7)) == DEEP % 7
    assert free_vars(deep) == frozenset()
    check_conforms(deep, Signature.IAMDZ)
    with pytest.raises(SignatureError, match=r"\^-1"):
        check_conforms(Add(deep, Inv(ONE)), Signature.CR)


def test_pickle_and_deepcopy_return_the_interned_term():
    x = Var("x")
    shared = Add(Mul(x, Inv(x)), Div(ONE, Mul(x, Inv(x))))
    for t in (x, ZERO, shared):
        assert pickle.loads(pickle.dumps(t)) is t
        assert copy.deepcopy(t) is t
    # Not the deep fixture, and compared as booleans, so that a failure
    # report does not print a term 100,000 levels deep.
    t = Add(numeral(DEEP), x)
    assert [pickle.loads(pickle.dumps(t)) is t, copy.deepcopy(t) is t] == [True, True]


def test_repr_text():
    x = Var("x")
    assert repr(Add(Mul(x, Inv(ZERO)), Neg(ONE))) == "Add(Mul(Var('x'), Inv(Zero())), Neg(One()))"
    assert repr(Sub(Div(ONE, Var("y_2")), x)) == "Sub(Div(One(), Var('y_2')), Var('x'))"


def test_repr_is_linear_in_depth():
    depth = 40_000
    t = numeral(depth)
    start = time.perf_counter()
    text = repr(t)
    assert time.perf_counter() - start < 5
    assert text == "Add(" * (depth - 1) + "One(), One())" + ", One())" * (depth - 2)


def test_deep_numeral_rewrites(deep):
    assert subst(Add(deep, Var("x")), "x", ONE) is numeral(DEEP + 1)
    assert zero_eliminate(Add(deep, ZERO)) is deep
    assert project(deep, Projection.DMN_TO_IMN) is deep
    assert project(deep, Projection.IMN_TO_DMN) is deep
    assert eval_q0(project(deep, Projection.IMN_TO_RDMN)) == DEEP


def test_deep_numeral_renders(deep):
    assert render(deep, numerals=True) == str(DEEP)
    infix = render(deep)
    assert len(infix) == 4 * DEEP - 3 and infix.startswith("1 + 1 + ")
    sexpr = render(deep, "sexpr")
    assert sexpr.startswith("(+ " * (DEEP - 1) + "1 1)")
    assert parse_term(infix, None) is deep


def test_deeply_nested_text_parses():
    depth = 10_000
    assert parse_term("(" * depth + "x" + ")" * depth, None) is Var("x")
    t = parse_term("inv(" * depth + "2" + ")" * depth, Signature.IMD)
    assert eval_q0(t) == 2
    assert render(t, numerals=True) == "(" * (depth - 1) + "2^-1" + ")^-1" * (depth - 1)


def test_deep_closed_compliance():
    depth = 2_000
    t = Inv(ZERO)  # the leftmost-innermost violation
    for k in range(depth):
        t = Mul(t, Inv(Mul(ZERO, ONE) if k == 3 else numeral(2)))
    result = closed_compliance(t, ConventionId.RELEVANT_INVERSIVE)
    assert result.subterm is Inv(ZERO) and result.detail == "inverse of 0"
    chain = numeral(3)
    for _ in range(depth):
        chain = Div(ONE, chain)
    assert closed_compliance(chain, ConventionId.RELEVANT_DIVISION) is COMPLIANT
    bad = Div(chain, Add(ZERO, ZERO))
    result = closed_compliance(bad, ConventionId.RELEVANT_DIVISION)
    assert result.subterm is bad and result.detail == "denominator 0"
    liberal = Div(Mul(ZERO, chain), ZERO)
    assert closed_compliance(liberal, ConventionId.LIBERAL_RELEVANT_DIVISION) is COMPLIANT


def test_deep_open_compliance():
    depth = 2_000
    t = Add(ONE, Var("x"))
    for _ in range(depth):
        t = Inv(Add(ONE, t))
    assert open_compliance_sufficient(t, vars_defined=True) is Sufficiency.CERTIFIED_COMPLIANT
    assert open_compliance_sufficient(t, mode="literal") is Sufficiency.CERTIFIED_COMPLIANT
    assert open_compliance_sufficient(t) is Sufficiency.UNKNOWN
    assert open_compliance_sufficient(Inv(Mul(Var("x"), t)), vars_defined=True) is (
        Sufficiency.UNKNOWN
    )
