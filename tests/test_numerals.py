"""Numerals as one node: identity, cost, and agreement with their chains.

A numeral k >= 2 is one Add node that carries k, its reduced divisive
image (...(1 - (1 - 1 - 1)) - ...) - (1 - 1 - 1) one Sub node that
carries k, and every fold algebra with a NUMERAL entry takes either as
one leaf.  The oracle for each such algebra is the same fold with that
entry removed, which walks the chain of additions or subtractions
through its children.  The printers are not folds: their oracle is
helpers.oracle_render, which reads the chains node by node.  Exact
evaluation in Q0, total and punched, and closed compliance are checked
against independent recursive oracles, with numerals above 10^20.
"""

import contextlib
import copy
import pickle
import random
import sys
import time
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meadows import convention, normalize, parsing, partial, projection, semantics, terms
from meadows.convention import (
    ConventionId, classify, closed_compliance, open_compliance_sufficient,
)
from meadows.normalize import (
    decide_iamd, decide_iamdz_gil, expand_poly, to_polyfrac, zero_eliminate,
)
from meadows.parsing import parse_term, render
from meadows.partial import UNDEFINED, Defined, PunchVariant, punch_eval, punched_value
from meadows.projection import Projection, project
from meadows.semantics import (
    Q0, FiniteMeadow, eval_model, eval_q0, expand_regular_ring, zn_meadow, zn_ring, zp_meadow,
)
from meadows.terms import (
    NUMERAL, Add, Div, Inv, Mul, Neg, Sub, Var, ONE, ZERO,
    Signature, fold, free_vars, numeral, subst,
)

from .helpers import oracle_eval, oracle_punched, oracle_render

# Every module that folds terms, with the name it calls fold by.
FOLDING = (terms, parsing, projection, semantics, partial, convention, normalize)


@contextlib.contextmanager
def chains():
    """Within: every fold walks numerals as chains of additions and their
    reduced divisive images as chains of subtractions."""
    fold = terms.fold

    def chain_fold(t, algebra, memo=None):
        stripped = copy.copy(algebra)  # a defaultdict stays one
        stripped.pop(NUMERAL, None)
        return fold(t, stripped, memo)

    with contextlib.ExitStack() as stack:
        for module in FOLDING:
            stack.enter_context(mock.patch.object(module, "fold", chain_fold))
        yield


def outcome(call):
    try:
        return "value", call()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return "raised", type(exc), str(exc)


def assert_agree(*calls):
    """Each call gives the same value, or raises the same error, with
    numerals as leaves as with numerals as chains."""
    as_leaves = [outcome(call) for call in calls]
    with chains():
        as_chains = [outcome(call) for call in calls]
    assert as_leaves == as_chains


def terms_over(ops, variables=("x", "y"), zero=True):
    """Terms over ops whose leaves are numerals up to 60 and variables."""
    leaves = st.integers(0 if zero else 1, 60).map(numeral)
    if variables:
        leaves = leaves | st.sampled_from(variables).map(Var)
    return st.recursive(leaves, lambda kids: st.one_of(
        [st.builds(op, kids, kids) if len(op._fields) == 2 else st.builds(op, kids)
         for op in ops]), max_leaves=10)


ALL = (Add, Mul, Neg, Inv, Div, Sub)
IMD = (Add, Mul, Neg, Inv)
DMD = (Add, Mul, Neg, Div)
ARITHMETICAL = (Add, Mul, Inv)
# The table model is Z_6 with every operation looked up, not computed.
TABLE_MODEL = expand_regular_ring(zn_ring(6))
MODELS = (Q0, zp_meadow(2), zp_meadow(7), zn_meadow(6), zn_meadow(1), zn_ring(4), TABLE_MODEL)
VALUES = st.fixed_dictionaries({"x": st.integers(0, 5), "y": st.integers(0, 5)})


# ---------------------------------------------------------------------------
# Identity and cost


def test_a_numeral_is_one_interned_add_node():
    assert parse_term("3", None) is numeral(3) is Add(Add(ONE, ONE), ONE)
    assert numeral(2) is Add(ONE, ONE) and numeral(2).left is ONE
    for k in (2, 3, 60, 10**30):
        n = numeral(k)
        assert type(n) is Add
        assert n.left is numeral(k - 1) and n.right is ONE
        assert n.children == (numeral(k - 1), ONE)
        assert Add(n, ONE) is numeral(k + 1)
        assert pickle.loads(pickle.dumps(n)) is n and copy.deepcopy(n) is n
    assert Add(ONE, numeral(2)) is not numeral(3)
    assert numeral(0) is ZERO and numeral(1) is ONE


def test_a_huge_numeral_costs_constant_time():
    start = time.perf_counter()
    n = numeral(10**30)
    assert eval_q0(n) == 10**30 and eval_model(n, zp_meadow(1009)) == 10**30 % 1009
    assert render(n, numerals=True) == str(10**30)
    assert parse_term(str(10**30), None) is n
    assert free_vars(Mul(n, Var("x"))) == {"x"}
    assert project(n, Projection.IMN_TO_DMN) is n
    assert classify(n).value == "InNz"
    assert closed_compliance(Inv(n), ConventionId.RELEVANT_INVERSIVE) is convention.COMPLIANT
    assert expand_poly(Mul(n, Var("x"))) == expand_poly(Mul(Var("x"), n))
    assert decide_iamd(n, Add(numeral(10**30 - 1), ONE))
    assert pickle.loads(pickle.dumps(Mul(n, n))) is Mul(n, n)
    assert time.perf_counter() - start < 2


def numerals_alive():
    return sum(type(key) is int for key in Add._interned)


def test_repr_of_a_huge_chain_is_one_string_repeat():
    k = 10**6
    n, image = numeral(k), project(numeral(k), Projection.IMN_TO_RDMN)
    alive = numerals_alive(), sum(type(key) is int for key in Sub._interned)
    start = time.perf_counter()
    assert repr(n) == "Add(" * (k - 1) + "One()" + ", One())" * (k - 1)
    link = ", Sub(Sub(One(), One()), One()))"
    assert repr(image) == "Sub(" * (k - 1) + "One()" + link * (k - 1)
    assert time.perf_counter() - start < 1
    assert (numerals_alive(), sum(type(key) is int for key in Sub._interned)) == alive
    with pytest.raises(ValueError, match="too large to spell out"):
        repr(Mul(Var("x"), numeral(sys.maxsize // 8 + 1)))


def test_a_table_model_evaluates_a_numeral_without_its_chain():
    n = numeral(10**5)
    before = numerals_alive()
    value = eval_model(n, TABLE_MODEL)
    assert numerals_alive() == before
    with chains():
        assert eval_model(n, TABLE_MODEL) == value == 10**5 % 6
    start = time.perf_counter()
    assert eval_model(numeral(10**30), TABLE_MODEL) == 10**30 % 6
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# Agreement with the chains, one test per group of algebras


def render_calls(t):
    return [lambda: render(t), lambda: render(t, "sexpr")]


def projection_calls(t, d):
    return [lambda: project(t, Projection.IMN_TO_DMN), lambda: project(t, Projection.IMN_TO_RDMN),
            lambda: project(d, Projection.DMN_TO_IMN)]


def evaluation_calls(t, d, a):
    calls = [lambda: eval_q0(t, a), lambda: eval_q0(d, a)]
    for m in MODELS:
        calls += [lambda m=m: eval_model(t, m, a), lambda m=m: eval_model(d, m, a),
                  lambda m=m: punch_eval(t, PunchVariant.INV_ZERO, m, a)]
        # punched_value returns the violation itself, subterm and all.
        calls += [lambda m=m, u=u, v=v: punched_value(u, v, m, m.check_assignment(a))
                  for u, v in ((t, PunchVariant.INV_ZERO), (d, PunchVariant.DIV_ZERO_ALL),
                               (d, PunchVariant.DIV_ZERO_NONZERO_NUM))]
    return calls


def violation_calls(t, d):
    return [lambda: closed_compliance(t, ConventionId.RELEVANT_INVERSIVE),
            lambda: closed_compliance(d, ConventionId.RELEVANT_DIVISION),
            lambda: closed_compliance(d, ConventionId.LIBERAL_RELEVANT_DIVISION)]


def syntax_calls(t, u, p):
    """Def/Nz, free variables, rewrites, polynomials and decisions."""
    calls = [lambda mode=mode, defined=defined: (
                classify(t, mode, defined), open_compliance_sufficient(t, mode, defined))
             for mode in ("strict", "literal") for defined in (False, True)]
    return calls + [
        lambda: free_vars(t), lambda: subst(t, "x", u), lambda: subst(t, "y", numeral(7)),
        lambda: zero_eliminate(t), lambda: expand_poly(p), lambda: to_polyfrac(p),
        lambda: decide_iamdz_gil(t, u), lambda: decide_iamdz_gil(t, subst(t, "x", u))]


def test_each_numeral_up_to_60_agrees():
    x, y = Var("x"), Var("y")
    for k in range(61):
        n = numeral(k)
        assert render(n, numerals=True) == oracle_render(n, numerals=True)
        contexts = (n, Inv(n), Add(x, n), Mul(Inv(Add(n, y)), n))
        for t in contexts:
            d = project(t, Projection.IMN_TO_DMN)
            p = Mul(Add(n, x), n) if k else x
            calls = (render_calls(t) + projection_calls(t, d)
                     + violation_calls(Mul(Inv(n), n), Div(n, Add(n, n)))
                     + evaluation_calls(t, d, {"x": 1, "y": 2}) + syntax_calls(t, Inv(n), p))
            assert_agree(*calls)


@settings(max_examples=150, deadline=None)
@given(terms_over(ALL))
def test_renders_agree(t):
    assert_agree(*render_calls(t))
    assert render(t, numerals=True) == oracle_render(t, numerals=True)
    assert [render(t), render(t, "sexpr")] == [oracle_render(t), oracle_render(t, "sexpr")]


@settings(max_examples=150, deadline=None)
@given(terms_over(IMD), terms_over(DMD))
def test_projections_agree(t, d):
    assert_agree(*projection_calls(t, d))


@settings(max_examples=150, deadline=None)
@given(terms_over(IMD), terms_over(DMD), VALUES)
def test_evaluations_agree(t, d, a):
    assert_agree(*evaluation_calls(t, d, a))


@settings(max_examples=150, deadline=None)
@given(terms_over(IMD, variables=()), terms_over(DMD, variables=()))
def test_violations_agree(t, d):
    assert_agree(*violation_calls(t, d))


@settings(max_examples=150, deadline=None)
@given(terms_over(ARITHMETICAL), terms_over(ARITHMETICAL), terms_over((Add, Mul), zero=False))
def test_classes_variables_rewrites_and_polynomials_agree(t, u, p):
    assert_agree(*syntax_calls(t, u, p))


# ---------------------------------------------------------------------------
# The reduced divisive image of a numeral


MINUS_ONE = Sub(Sub(ONE, ONE), ONE)


def rd(k):
    """The image of numeral k in the reduced divisive notation."""
    return project(numeral(k), Projection.IMN_TO_RDMN)


def scrambled(model, seed):
    """model's tables with one add or neg entry changed: no longer a ring."""
    rng = random.Random(seed)
    add, neg = [list(row) for row in model.add], list(model.neg)
    x, y = rng.randrange(model.size), rng.randrange(model.size)
    if seed % 2:
        add[x][y] = (add[x][y] + rng.randrange(1, model.size)) % model.size
    else:
        neg[x] = (neg[x] + rng.randrange(1, model.size)) % model.size
    return FiniteMeadow(model.size, tuple(map(tuple, add)), model.mul, tuple(neg), model.inv)


RD_MODELS = (zp_meadow(5), zn_meadow(6), zp_meadow(7), TABLE_MODEL,
             *(scrambled(TABLE_MODEL, seed) for seed in range(8)),
             *(scrambled(expand_regular_ring(zn_ring(7)), seed) for seed in range(8)))


def rd_calls(t, a):
    """Printing, evaluation and free variables of a reduced divisive term."""
    calls = [lambda: render(t), lambda: render(t, numerals=True), lambda: render(t, "sexpr"),
             lambda: free_vars(t), lambda: eval_q0(subst(subst(t, "x", rd(3)), "y", ONE))]
    return calls + [lambda m=m: eval_model(t, m, a) for m in RD_MODELS]


def test_the_image_of_a_numeral_is_one_interned_sub_node():
    image = ONE
    for k in range(2, 80):
        image = Sub(image, MINUS_ONE)
        assert image is rd(k) and image._numeral == k and type(image) is Sub
        assert image.children == (rd(k - 1), MINUS_ONE)
        assert Sub(image, MINUS_ONE) is rd(k + 1)
        assert parse_term(render(image), Signature.RD) is image
        assert pickle.loads(pickle.dumps(image)) is image and copy.deepcopy(image) is image
        assert Add(image, ONE)._numeral == 0 and Sub(numeral(k), MINUS_ONE)._numeral == 0
    assert render(rd(3)) == "1 - (1 - 1 - 1) - (1 - 1 - 1)"
    assert render(rd(2), "sexpr") == "(sub 1 (sub (sub 1 1) 1))"
    assert rd(1) is ONE and rd(0) is Sub(ONE, ONE)


def test_a_huge_numeral_projects_to_rdmn_in_constant_time():
    start = time.perf_counter()
    image = project(numeral(10**12), Projection.IMN_TO_RDMN)
    assert type(image) is Sub and image._numeral == 10**12
    assert eval_q0(image) == 10**12 and eval_model(image, zp_meadow(1009)) == 10**12 % 1009
    assert eval_model(image, TABLE_MODEL) == 10**12 % 6
    values = [eval_model(image, m) for m in RD_MODELS]
    with chains():  # each cycle is at most 7 long, so its length divides 420
        assert values == [eval_model(rd(10**12 % 420 + 420), m) for m in RD_MODELS]
    assert time.perf_counter() - start < 1


def test_each_rdmn_image_up_to_60_agrees():
    x, y = Var("x"), Var("y")
    for k in range(61):
        n = rd(k)
        for t in (n, Sub(x, n), Div(n, Sub(n, y)), Sub(Div(ONE, n), Sub(y, n))):
            assert_agree(*rd_calls(t, {"x": 1, "y": 4}))


@settings(max_examples=150, deadline=None)
@given(terms_over(IMD), st.fixed_dictionaries({"x": st.integers(0, 4), "y": st.integers(0, 4)}))
def test_rdmn_images_agree(t, a):
    assert_agree(*rd_calls(project(t, Projection.IMN_TO_RDMN), a))


# ---------------------------------------------------------------------------
# Exact evaluation in Q0 against independent oracles

INV0, DIV0, DIV0LIB = (PunchVariant.INV_ZERO, PunchVariant.DIV_ZERO_ALL,
                       PunchVariant.DIV_ZERO_NONZERO_NUM)


def shapes(ops, variables=("x", "y"), images=False):
    """Terms over ops as nested tuples: numerals 0 to 60 and above 10^20,
    when images reduced divisive images of numerals up to 10^18 (the most
    that can be spelled out), and variables."""
    leaves = st.one_of(st.integers(0, 60), st.integers(10**20 + 1, 10**30)).map(
        lambda k: ("num", k))
    if images:
        leaves |= st.one_of(st.integers(2, 60), st.integers(61, 10**18)).map(
            lambda k: ("rd", k))
    if variables:
        leaves |= st.sampled_from(variables).map(lambda name: ("var", name))

    def extend(kids):
        # Shared subterms, zeros that only arithmetic finds, and inverses
        # and divisions of zero.
        branches = [kids.map(lambda k: (Mul, k, k))]
        if Neg in ops:
            branches.append(kids.map(lambda k: (Add, k, (Neg, k))))
        if Inv in ops:
            branches.append(kids.map(lambda k: (Inv, (Mul, k, ("num", 0)))))
        if Div in ops:
            branches.append(kids.map(lambda k: (Div, k, (Mul, k, ("num", 0)))))
        return st.one_of(branches + [
            st.tuples(st.just(op), kids, kids) if len(op._fields) == 2
            else st.tuples(st.just(op), kids) for op in ops])

    return st.recursive(leaves, extend, max_leaves=12)


def build(shape, oracle=False):
    """The term a shape stands for.  For the oracles, which walk numerals
    as chains, a numeral above 60 or its image is the variable n<k>."""
    kind, *rest = shape
    if kind == "var":
        return Var(rest[0])
    if kind in ("num", "rd"):
        k = rest[0]
        if oracle and k > 60:
            return Var(f"n{k}")
        return numeral(k) if kind == "num" else project(numeral(k), Projection.IMN_TO_RDMN)
    return kind(*(build(kid, oracle) for kid in rest))


def oracle_input(shape, a):
    """The oracles' term for a shape, and a with each n<k> assigned k."""
    t = build(shape, oracle=True)
    return t, {**a, **{name: int(name[1:]) for name in free_vars(t) if name[0] == "n"}}


def first_punched(t, variant, a):
    """(None, value) of t in punched Q0, or (subterm, detail) for its first
    punched application in post-order, by plain recursion."""
    if type(t) is Var:
        return None, Fraction(a[t.name])
    if not t.children:
        return None, Fraction(t is ONE)
    results = [first_punched(kid, variant, a) for kid in t.children]
    for result in results:
        if result[0] is not None:
            return result
    xs = [value for _, value in results]
    if type(t) is Inv:
        if xs[0] == 0:
            return (t, "inverse of 0") if variant is INV0 else (None, Fraction(0))
        return None, 1 / xs[0]
    if type(t) is Div:
        num, den = xs
        if den != 0:
            return None, num / den
        if variant is DIV0 or (variant is DIV0LIB and num != 0):
            return t, "denominator 0"
        return None, Fraction(0)
    if type(t) is Neg:
        return None, -xs[0]
    return None, xs[0] + xs[1] if type(t) is Add else xs[0] * xs[1]


_LONG = st.builds(lambda n, sign, d: Fraction(sign * n, d), st.integers(10**40, 10**45),
                  st.sampled_from((1, -1)), st.integers(1, 10**42))
Q0_VALUES = st.fixed_dictionaries({name: st.one_of(
    st.just(0), st.integers(-3, 3), st.fractions(-30, 30, max_denominator=12),
    st.integers(-10**45, 10**45), _LONG) for name in ("x", "y")})


@settings(max_examples=200, deadline=None)
@given(shapes(ALL, images=True), Q0_VALUES)
def test_q0_evaluation_agrees_with_the_oracle(shape, a):
    t = build(shape)
    want = oracle_eval(*oracle_input(shape, a))
    for got in (eval_q0(t, a), eval_model(t, Q0, a)):
        assert type(got) is Fraction and got == want
    # Every node's result is a canonical pair: d > 0, gcd(n, d) = 1.
    results: dict = {}
    fold(t, {**Q0.algebra(), Var: Q0.var_case(Q0.check_assignment(a))}, results)
    assert all(d > 0 and gcd(n, d) == 1 for n, d in results.values())


@settings(max_examples=200, deadline=None)
@given(shapes(IMD), shapes(DMD), Q0_VALUES)
def test_punched_q0_evaluation_agrees_with_the_oracle(i, d, a):
    for shape, variant in ((i, INV0), (d, DIV0), (d, DIV0LIB)):
        t, (u, ua) = build(shape), oracle_input(shape, a)
        want = oracle_punched(u, variant.value, None, ua)
        got = punch_eval(t, variant, Q0, a)
        assert got == (UNDEFINED if want is None else Defined(want))
        value = punched_value(t, variant, Q0, Q0.check_assignment(a))
        if want is not None:
            assert type(got.value) is Fraction and type(value) is Fraction and value == want


@settings(max_examples=200, deadline=None)
@given(shapes(IMD, variables=()), shapes(DMD, variables=()))
def test_closed_compliance_reports_the_first_punched_application(i, d):
    for shape, variant in ((i, INV0), (d, DIV0), (d, DIV0LIB)):
        t = build(shape)
        u, a = oracle_input(shape, {})
        subterm, detail = first_punched(u, variant, a)
        for name in a if subterm is not None else ():
            subterm = subst(subterm, name, numeral(a[name]))
        got = closed_compliance(t, variant)
        if subterm is None:
            assert got is convention.COMPLIANT
        else:
            assert got.subterm is subterm and got.detail == detail
