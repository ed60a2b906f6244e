"""Interned terms and the fold: identity, table size, and depth.

Every test here runs under Python's default recursion limit, far below
the depth of the terms it builds.  A numeral is one node, so the deep
terms are chains x + x + ... + x, shaped like the numerals' chains of
1 + 1 + ... + 1; the numerals are checked alongside, at constant cost.
"""

import copy
import gc
import itertools
import pickle
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meadows.convention import (
    COMPLIANT, ConventionId, Sufficiency, closed_compliance, open_compliance_sufficient,
)
from meadows.normalize import zero_eliminate
from meadows.parsing import parse_term, render
from meadows.projection import Projection, project
from meadows.semantics import eval_model, eval_q0, zp_meadow
from meadows.terms import (
    CONSTRUCTORS, NUMERAL, Add, Div, Inv, Mul, Neg, Sub, Var, ONE, ZERO,
    Signature, SignatureError, check_conforms, fold, free_vars, numeral, subst,
)

from .helpers import oracle_fold

DEEP = 100_000
X = Var("x")


def chain(n):
    """(...(x + x) + ...) + x with n occurrences of x, n - 1 levels deep."""
    t = X
    for _ in range(n - 1):
        t = Add(t, X)
    return t


@pytest.fixture(scope="module")
def deep():
    assert sys.getrecursionlimit() <= 1000
    return chain(DEEP)


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
    # No other test uses this variable or these numerals, so no node of the
    # chain and no numeral read below is alive before.
    gc.collect()
    before = interned_count()
    t = Var("intern_probe")
    for _ in range(9_999):
        t = Add(t, ONE)
    n = numeral(10**40 + 7)
    assert n.left.left.left is numeral(10**40 + 4)
    assert interned_count() >= before + 10_004
    del t, n
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
    assert deep == chain(DEEP) and hash(deep) == hash(chain(DEEP))
    assert deep != chain(DEEP - 1)
    assert eval_q0(deep, {"x": 1}) == DEEP
    assert eval_model(deep, zp_meadow(7), {"x": 1}) == DEEP % 7
    assert free_vars(deep) == frozenset({"x"})
    check_conforms(deep, Signature.IAMDZ)
    with pytest.raises(SignatureError, match=r"\^-1"):
        check_conforms(Add(deep, Inv(ONE)), Signature.CR)
    n = numeral(DEEP)
    assert n == numeral(DEEP) and hash(n) == hash(numeral(DEEP)) and n != numeral(DEEP - 1)
    assert eval_q0(n) == DEEP and eval_model(n, zp_meadow(7)) == DEEP % 7
    assert free_vars(n) == frozenset()
    check_conforms(n, Signature.IAMDZ)


def test_pickle_and_deepcopy_return_the_interned_term():
    x = Var("x")
    shared = Add(Mul(x, Inv(x)), Div(ONE, Mul(x, Inv(x))))
    for t in (x, ZERO, shared):
        assert pickle.loads(pickle.dumps(t)) is t
        assert copy.deepcopy(t) is t
    # Not the deep fixture, and compared as booleans, so that a failure
    # report does not print a term 100,000 levels deep.
    t = Add(chain(DEEP), ONE)
    assert [pickle.loads(pickle.dumps(t)) is t, copy.deepcopy(t) is t] == [True, True]


def test_repr_text():
    x = Var("x")
    assert repr(Add(Mul(x, Inv(ZERO)), Neg(ONE))) == "Add(Mul(Var('x'), Inv(Zero())), Neg(One()))"
    assert repr(Sub(Div(ONE, Var("y_2")), x)) == "Sub(Div(One(), Var('y_2')), Var('x'))"


def test_repr_is_linear_in_depth():
    depth = 40_000
    t = chain(depth)
    start = time.perf_counter()
    text = repr(t)
    assert time.perf_counter() - start < 5
    assert text == "Add(" * (depth - 1) + "Var('x'), Var('x'))" + ", Var('x'))" * (depth - 2)
    # A numeral's repr spells out its chain.
    assert repr(numeral(4)) == "Add(Add(Add(One(), One()), One()), One())"


def test_deep_numeral_rewrites(deep):
    assert subst(Add(deep, Var("y")), "y", ONE) is Add(deep, ONE)
    assert subst(deep, "x", ONE) is numeral(DEEP)
    assert zero_eliminate(Add(deep, ZERO)) is deep
    assert project(deep, Projection.DMN_TO_IMN) is deep
    assert project(deep, Projection.IMN_TO_DMN) is deep
    assert eval_q0(project(deep, Projection.IMN_TO_RDMN), {"x": 1}) == DEEP
    n = numeral(DEEP)
    assert subst(Add(n, X), "x", ONE) is numeral(DEEP + 1)
    assert zero_eliminate(Add(n, ZERO)) is n
    assert project(n, Projection.DMN_TO_IMN) is n and project(n, Projection.IMN_TO_DMN) is n
    assert eval_q0(project(n, Projection.IMN_TO_RDMN)) == DEEP


def test_deep_numeral_renders(deep):
    infix = render(deep)
    assert render(deep, numerals=True) == infix
    assert len(infix) == 4 * DEEP - 3 and infix.startswith("x + x + ")
    sexpr = render(deep, "sexpr")
    assert sexpr.startswith("(+ " * (DEEP - 1) + "x x)")
    assert parse_term(infix, None) is deep
    n = numeral(DEEP)
    assert render(n, numerals=True) == str(DEEP)
    assert render(n) == infix.replace("x", "1") and parse_term(render(n), None) is n
    assert render(n, "sexpr") == sexpr.replace("x", "1")


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


# ---------------------------------------------------------------------------
# A fold's recorded walk

_FRESH = itertools.count()


@st.composite
def shared_terms(draw):
    """A term built bottom-up from a pool, so that later nodes share earlier
    ones: leaves, a variable no other term has, a numeral and an rdmn
    chain, then any constructors over them."""
    pool = [Var(f"fresh_{next(_FRESH)}"), X, Var("y"), ZERO, ONE,
            numeral(draw(st.integers(2, 30))),
            project(numeral(draw(st.integers(2, 30))), Projection.IMN_TO_RDMN)]
    for _ in range(draw(st.integers(0, 30))):
        cls = draw(st.sampled_from((Add, Mul, Sub, Neg, Inv, Div)))
        pool.append(cls(*[draw(st.sampled_from(pool)) for _ in cls._fields]))
    return pool[-1]


class Boom(Exception):
    pass


def recorder(numeral_case=True, bad=None):
    """An algebra that logs each call as (node, args) and returns its
    number, raising Boom at the node bad; and its log."""
    calls = []

    def call(node, *args):
        calls.append((node, args))
        if node is bad:
            raise Boom(node)
        return len(calls)

    algebra = dict.fromkeys(CONSTRUCTORS, call)
    if numeral_case:
        algebra[NUMERAL] = call
    return algebra, calls


@settings(max_examples=200, deadline=None)
@given(shared_terms(), st.data())
def test_every_fold_makes_the_calls_of_the_reference_walk(t, data):
    algebra, calls = recorder()
    oracle_fold(t, algebra)
    expected = calls[:]
    walk = [node for node, _ in expected]

    # Raising at a chosen node, first while t may not have been folded yet:
    # the same calls up to it every time, and no order left behind.
    bad = data.draw(st.sampled_from(walk))
    raising, raised = recorder(bad=bad)
    before = t._order
    with pytest.raises(Boom) as err:
        fold(t, raising)
    assert err.value.args[0] is bad and raised == expected[:walk.index(bad) + 1]
    assert t._order is before

    for _ in range(2):  # the second time after a fold with another algebra
        calls.clear()
        assert fold(t, algebra) == len(expected) and calls == expected
        if not t._numeral:
            assert t._order == tuple(walk[:-1])
        free_vars(t)
        raised.clear()
        with pytest.raises(Boom) as err:
            fold(t, raising)
        assert err.value.args[0] is bad and raised == expected[:walk.index(bad) + 1]

    # Without a numeral case chains are walked link by link, every time.
    plain, plain_calls = recorder(numeral_case=False)
    oracle_fold(t, plain)
    expected_plain = plain_calls[:]
    for _ in range(2):
        plain_calls.clear()
        fold(t, plain)
        assert plain_calls == expected_plain

    # A memo holds an earlier fold's results, which are reused.
    u = data.draw(st.sampled_from(walk))
    memo, oracle_memo = {}, {}
    calls.clear()
    oracle_fold(u, algebra, oracle_memo)
    oracle_fold(t, algebra, oracle_memo)
    expected_memo = calls[:]
    calls.clear()
    fold(u, algebra, memo)
    fold(t, algebra, memo)
    assert calls == expected_memo and memo == oracle_memo


def test_a_fold_that_raises_records_no_order():
    t = Mul(Inv(Var(f"fresh_{next(_FRESH)}")), numeral(3))
    raising, _ = recorder(bad=t)
    with pytest.raises(Boom):
        fold(t, raising)
    assert t._order is None
    assert eval_q0(t, {t.left.arg.name: 2}) == 3 / 2
    assert t._order == (t.left.arg, t.left, numeral(3))


def test_folded_terms_and_read_chain_children_are_freed_by_refcount():
    # With the collector off, only reference counts free terms, so a cycle
    # through a recorded order or a chain's children would keep them.
    gc.collect()
    before = interned_count()
    gc.disable()
    try:
        x = Var("lifetime_probe")
        t = Add(Mul(x, Inv(numeral(10**30 + 7))), Sub(ONE, x))
        n = project(numeral(10**15 + 9), Projection.IMN_TO_RDMN)
        eval_q0(t, {"lifetime_probe": 2})
        free_vars(t)
        assert t._order is not None
        assert n.left.left.children[1] is n.right and t.left.right.arg.left.left.right is ONE
        refs = [weakref.ref(node) for node in (t, *t._order, n, n.left.left) if node is not ONE]
        del x, t, n
        assert [ref() for ref in refs] == [None] * len(refs)
        assert interned_count() == before
    finally:
        gc.enable()


def test_folded_terms_pickle_and_copy_to_themselves():
    x = Var("x")
    t = Div(Add(numeral(12), x), Mul(x, project(numeral(5), Projection.IMN_TO_RDMN)))
    eval_q0(t, {"x": 1})
    assert t._order is not None
    assert pickle.loads(pickle.dumps(t)) is t and copy.deepcopy(t) is t


def test_chain_nodes_have_no_attribute_hook():
    assert not any(hasattr(cls, "__getattr__") for cls in CONSTRUCTORS)
    n = numeral(4)
    assert len(n.children) == 2 and list(n.children) == [numeral(3), ONE]
    assert n.children == (numeral(3), ONE) and (numeral(3), ONE) == n.children
    assert list(reversed(n.children)) == [ONE, numeral(3)]
