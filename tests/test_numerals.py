"""Numerals as one node: identity, cost, and agreement with their chains.

A numeral k >= 2 is one Add node that carries k, and every fold algebra
with a NUMERAL entry takes it as one leaf.  The oracle for each such
algebra is the same fold with that entry removed, which walks the
numeral's chain (...(1 + 1) + ...) + 1 through its children.
"""

import contextlib
import copy
import pickle
import time
from unittest import mock

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
from meadows.partial import PunchVariant, punch_eval, punched_value
from meadows.projection import Projection, project
from meadows.semantics import (
    Q0, eval_model, eval_q0, expand_regular_ring, zn_meadow, zn_ring, zp_meadow,
)
from meadows.terms import (
    NUMERAL, Add, Div, Inv, Mul, Neg, Sub, Var, ONE, ZERO,
    free_vars, numeral, subst,
)

# Every module that folds terms, with the name it calls fold by.
FOLDING = (terms, parsing, projection, semantics, partial, convention, normalize)


@contextlib.contextmanager
def chains():
    """Within: every fold walks numerals as chains of additions."""
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


def decimal_render(t):
    """render(t, numerals=True) read off the chains: the expanded text with
    each subterm (...(1 + 1) + ...) + 1 printed as its decimal literal."""
    naturals = {ONE: 1}

    def add(node, left, right):
        n = naturals.get(node.left)
        if n and node.right is ONE:
            naturals[node] = n + 1
            return str(n + 1), parsing._ATOM
        return parsing._binary(node, left, right)

    with chains():
        return terms._join(terms.fold(t, {**parsing._INFIX[False], Add: add})[0])


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
        assert render(n, numerals=True) == decimal_render(n)
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
    assert render(t, numerals=True) == decimal_render(t)


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
