import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meadows import normalize
from meadows.normalize import (
    Frac, Monomial, Polynomial, UnsupportedTheory, ZERO_NF, ZeroNF,
    decide_by_theory, decide_divisive, decide_iamd, decide_iamdz_gil,
    expand_poly, normal_form_closed, to_polyfrac, zero_eliminate,
)
from meadows.parsing import parse_term
from meadows.semantics import eval_q0
from meadows.terms import (
    Add, Div, Inv, Mul, One, Term, Var, Zero, ONE, ZERO,
    Signature, SignatureError, free_vars, numeral, subst,
)

from .helpers import (
    VARS, equivalent_variant, oracle_eval, positive_assignment,
    random_assignment, random_term,
)


def iamd(text):
    return parse_term(text, Signature.IAMD)


def iamdz(text):
    return parse_term(text, Signature.IAMDZ)


# ---------------------------------------------------------------------------
# Polynomials


def test_monomial_canonical_form():
    m = Monomial.variable("x") * Monomial.variable("y") * Monomial.variable("x")
    assert m.exponents == (("x", 2), ("y", 1))
    assert m.degree == 3
    with pytest.raises(ValueError):
        Monomial((("y", 1), ("x", 1)))
    with pytest.raises(ValueError):
        Monomial((("x", 0),))


def test_polynomial_invariants():
    with pytest.raises(ValueError):
        Polynomial(())
    with pytest.raises(ValueError):
        Polynomial(((Monomial(), 0),))


def test_polynomial_arithmetic_collects():
    x = Polynomial.variable("x")
    y = Polynomial.variable("y")
    assert x * y + y * x == Polynomial(((Monomial.variable("x") * Monomial.variable("y"), 2),))
    one = Polynomial.constant(1)
    sq = (x + one) * (x + one)
    expected = {
        Monomial((("x", 2),)): 1,
        Monomial.variable("x"): 2,
        Monomial(): 1,
    }
    assert dict(sq.terms) == expected
    assert str(sq) == "x^2 + 2*x + 1"


@settings(max_examples=150)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9))
def test_polynomial_ring_laws(a, b, c):
    pa, pb, pc = (Polynomial.constant(a), Polynomial.variable("x"),
                  Polynomial.constant(c) * Polynomial.variable("y"))
    pa = pa + Polynomial.variable("x") * Polynomial.constant(b)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa + pb) + pc == pa + (pb + pc)
    assert pa * (pb + pc) == pa * pb + pa * pc


inverse_free_terms = st.recursive(
    st.one_of(st.just(ONE), st.sampled_from(VARS).map(Var)),
    lambda kids: st.one_of(st.builds(Add, kids, kids), st.builds(Mul, kids, kids)),
    max_leaves=12,
)


def poly_value(p: Polynomial, point: dict) -> int:
    total = 0
    for m, c in p.terms:
        for v, e in m.exponents:
            c *= point[v] ** e
        total += c
    return total


@settings(max_examples=200)
@given(inverse_free_terms, st.fixed_dictionaries({v: st.integers(1, 50) for v in VARS}))
def test_expand_poly_matches_oracle_at_points(t, point):
    assert poly_value(expand_poly(t), point) == oracle_eval(t, point)


@settings(max_examples=200)
@given(inverse_free_terms, inverse_free_terms)
def test_polynomial_operators_match_term_expansion(t, u):
    assert expand_poly(t) + expand_poly(u) == expand_poly(Add(t, u))
    assert expand_poly(t) * expand_poly(u) == expand_poly(Mul(t, u))


# ---------------------------------------------------------------------------
# PolyFrac extraction and the first decision procedure


def test_to_polyfrac_clauses():
    pf = to_polyfrac(iamd("x + y^-1"))
    x_y = Monomial.variable("x") * Monomial.variable("y")
    assert dict(pf.num.terms) == {x_y: 1, Monomial(): 1}
    assert pf.den == Polynomial.variable("y")

    pf = to_polyfrac(Inv(Inv(Var("x"))))
    assert pf.num == Polynomial.variable("x")
    assert pf.den == Polynomial.constant(1)

    pf = to_polyfrac(Mul(Var("x"), Inv(Var("x"))))
    assert pf.num == Polynomial.variable("x")
    assert pf.den == Polynomial.variable("x")


def test_polyfrac_printed_form():
    # The CLI's decide witness prints this form; it must not change.
    pf = to_polyfrac(iamd("(x + y*z + 1 + 1) * (x*x + z + z) * (y*y*y + x*z + 1 + 1)^-1"))
    assert str(pf) == (
        "(x^2*y*z + 2*y*z^2 + x^3 + 2*x^2 + 2*x*z + 4*z) / (y^3 + x*z + 2)"
    )


def test_expand_poly_examples():
    sq = expand_poly(iamd("(x + 1) * (x + 1)"))
    assert str(sq) == "x^2 + 2*x + 1"
    assert expand_poly(numeral(3)) == Polynomial.constant(3)
    assert expand_poly(iamd("x*y + y*x")) == Polynomial(
        ((Monomial.variable("x") * Monomial.variable("y"), 2),)
    )
    with pytest.raises(SignatureError):
        expand_poly(iamd("x^-1"))


def test_decide_iamd_examples():
    assert decide_iamd(iamd("x * x^-1"), ONE)
    assert decide_iamd(iamd("(x + y) * z^-1"), iamd("x * z^-1 + y * z^-1"))
    assert not decide_iamd(Var("x"), Add(Var("x"), Var("x")))
    assert not decide_iamd(iamd("x * y^-1"), iamd("y * x^-1"))


def test_decide_iamd_soundness_against_q0():
    rng = random.Random(17)
    tried = 0
    while tried < 300:
        t = random_term(rng, Signature.IAMD, 5)
        u = random_term(rng, Signature.IAMD, 5)
        if decide_iamd(t, u):
            names = free_vars(t) | free_vars(u)
            for _ in range(20):
                a = positive_assignment(rng, names)
                assert eval_q0(t, a) == eval_q0(u, a)
        tried += 1


def test_decide_iamd_accepts_equivalent_variants():
    rng = random.Random(23)
    for _ in range(300):
        t = random_term(rng, Signature.IAMD, 4)
        u = equivalent_variant(rng, t)
        assert decide_iamd(t, u), (t, u)


# ---------------------------------------------------------------------------
# Closed normal forms, zero elimination, the GIL procedure


def test_normal_form_closed_examples():
    assert normal_form_closed(iamd("4 * 6^-1"), Signature.IAMD) == Frac(2, 3)
    assert normal_form_closed(Inv(ZERO), Signature.IAMDZ) == ZERO_NF
    assert normal_form_closed(ONE, Signature.IAMD) == Frac(1, 1)


def test_normal_form_closed_errors():
    with pytest.raises(ValueError):
        normal_form_closed(Var("x"), Signature.IAMD)
    with pytest.raises(SignatureError):
        normal_form_closed(ZERO, Signature.IAMD)
    with pytest.raises(ValueError):
        normal_form_closed(ONE, Signature.IMD)


def test_zero_eliminate_examples():
    assert zero_eliminate(iamdz("0 * x + y")) == Var("y")
    assert zero_eliminate(iamdz("(inv(0) + 0) * x")) == ZERO_NF
    assert zero_eliminate(Var("x")) == Var("x")


def test_zero_eliminate_preserves_value():
    rng = random.Random(29)
    for _ in range(500):
        t = random_term(rng, Signature.IAMDZ, 5)
        s = zero_eliminate(t)
        for _ in range(5):
            a = random_assignment(rng, free_vars(t), nonneg=True)
            expected = eval_q0(t, a)
            got = Fraction(0) if isinstance(s, ZeroNF) else eval_q0(s, a)
            assert got == expected


def test_zero_eliminate_result_is_zero_free():
    rng = random.Random(31)
    for _ in range(500):
        s = zero_eliminate(random_term(rng, Signature.IAMDZ, 5))
        if not isinstance(s, ZeroNF):
            assert conforms_iamd(s)


def conforms_iamd(t: Term) -> bool:
    from meadows.terms import conforms

    return conforms(t, Signature.IAMD)


def test_decide_iamdz_gil_examples():
    assert decide_iamdz_gil(iamdz("(x*(x+y)) * (x*(x+y))^-1"), iamdz("x * x^-1"))
    assert decide_iamdz_gil(
        iamdz("(1 + x*x + y*y) * (1 + x*x + y*y)^-1"), ONE
    )
    assert not decide_iamdz_gil(iamdz("x * x^-1"), ONE)
    # Differs from 1 only where x and y are both zero.
    assert not decide_iamdz_gil(iamdz("(x + y) * (x + y)^-1"), ONE)


def test_decide_iamdz_gil_alternative_swap_both_orientations():
    lhs = iamdz("(x*(x+y)) * (x*(x+y))^-1")
    rhs = iamdz("x * x^-1")
    assert decide_iamdz_gil(lhs, rhs)
    assert decide_iamdz_gil(rhs, lhs)


def test_decide_iamdz_gil_decides_each_zeroed_set_once(monkeypatch):
    calls = 0
    same = normalize._same_quotient

    def counting(p, q):
        nonlocal calls
        calls += 1
        assert calls <= 2 ** 8, "a set of zeroed variables was decided twice"
        return same(p, q)

    monkeypatch.setattr(normalize, "_same_quotient", counting)
    s = iamdz(" + ".join(f"x{i}" for i in range(1, 9)))
    ss = Mul(s, s)
    assert decide_iamdz_gil(Mul(s, Inv(s)), Mul(ss, Inv(ss)))
    assert 1 <= calls <= 2 ** 8


def test_decide_iamdz_gil_zeroes_only_variables_under_an_inverse(monkeypatch):
    # Only y occurs under an inverse, so the zero sets are {} and {y}, not
    # every subset of the fifteen variables.
    decided = 0
    differ = normalize._sides_differ

    def counting(left, right):
        nonlocal decided
        decided += 1
        return differ(left, right)

    monkeypatch.setattr(normalize, "_sides_differ", counting)
    s = iamdz(" + ".join(f"x{i}" for i in range(14)))
    unit = iamdz("y * y^-1")
    assert decide_iamdz_gil(Mul(s, unit), Mul(unit, s))
    assert 1 <= decided <= 2


def gil_reason(t: Term, u: Term):
    return normalize._reason(normalize._THEORIES["iamdz-gil"], t, u)


def test_gil_counterexample_names_the_zero_set():
    assert gil_reason(iamdz("(x*(x+y)) * (x*(x+y))^-1"), iamdz("x * x^-1"))[0] is None
    zeroed, left, right = gil_reason(iamdz("x * x^-1"), ONE)
    assert (zeroed, str(left), str(right)) == (["x"], "0", "(1) / (1)")
    zeroed, left, right = gil_reason(iamdz("(x + y) * (x + y)^-1"), iamdz("y * y^-1"))
    assert (zeroed, str(left), str(right)) == (["y"], "(x) / (x)", "0")
    # Sides that differ with nothing zeroed are the zero-eliminated sides.
    zeroed, left, right = gil_reason(iamdz("0 * y + x"), iamdz("x + x"))
    assert (zeroed, str(left), str(right)) == ([], "(x) / (1)", "(2*x) / (1)")


def test_decide_iamdz_gil_degenerate_zero():
    assert decide_iamdz_gil(ZERO, ZERO)
    assert decide_iamdz_gil(iamdz("0 * x"), ZERO)
    assert not decide_iamdz_gil(ZERO, ONE)
    assert not decide_iamdz_gil(iamdz("0 * x"), Var("x"))


def test_decide_iamdz_gil_soundness_in_q0():
    # Positive verdicts must hold at every non-negative point (the general
    # inverse law is valid there).
    rng = random.Random(37)
    for _ in range(200):
        t = random_term(rng, Signature.IAMDZ, 4)
        u = random_term(rng, Signature.IAMDZ, 4)
        if decide_iamdz_gil(t, u):
            names = free_vars(t) | free_vars(u)
            for _ in range(16):
                a = random_assignment(rng, names, nonneg=True)
                assert eval_q0(t, a) == eval_q0(u, a), (t, u, a)


def test_gil_lemma_semantic_shadow():
    # t * t^-1 evaluates to 1 at strictly positive assignments.
    rng = random.Random(41)
    for _ in range(300):
        t = random_term(rng, Signature.IAMD, 5)
        tt = Mul(t, Inv(t))
        a = positive_assignment(rng, free_vars(t))
        assert eval_q0(tt, a) == 1


def test_decide_divisive_examples():
    assert decide_divisive(parse_term("x / x", Signature.DAMD), ONE, "damd")
    assert decide_divisive(
        parse_term("0 / 0", Signature.DAMDZ), ZERO, "damdz-gil"
    )
    assert not decide_divisive(
        parse_term("1 / x", Signature.DAMD), Var("x"), "damd"
    )


def test_decide_divisive_agrees_with_inversive_on_projections():
    rng = random.Random(43)
    for _ in range(200):
        t = random_term(rng, Signature.DAMD, 4)
        u = random_term(rng, Signature.DAMD, 4)
        verdict = decide_divisive(t, u, "damd")
        # Independent route: positive-grid evaluation of the divisive terms.
        assert verdict == grid_equal(t, u)


def test_decide_by_theory_refuses_open_problem():
    with pytest.raises(UnsupportedTheory):
        decide_by_theory("iamdz", ZERO, ZERO)
    with pytest.raises(UnsupportedTheory):
        decide_by_theory("damdz", ZERO, ZERO)
    with pytest.raises(ValueError):
        decide_by_theory("nonsense", ZERO, ZERO)


# ---------------------------------------------------------------------------
# The deterministic positive-grid identity oracle


def degree_bounds(t: Term) -> dict[str, tuple[int, int]]:
    """Structural per-variable degree bounds (numerator, denominator).

    Independent of the polynomial machinery: computed on the term alone.
    """
    if isinstance(t, (One, Zero)):
        return {}
    if isinstance(t, Var):
        return {t.name: (1, 0)}
    if isinstance(t, Inv):
        return {v: (d, n) for v, (n, d) in degree_bounds(t.arg).items()}
    if isinstance(t, Div):
        left = degree_bounds(t.num)
        right = degree_bounds(t.den)
    else:
        left = degree_bounds(t.left)
        right = degree_bounds(t.right)
    out = {}
    for v in set(left) | set(right):
        ln, ld = left.get(v, (0, 0))
        rn, rd = right.get(v, (0, 0))
        if isinstance(t, Mul):
            out[v] = (ln + rn, ld + rd)
        elif isinstance(t, Div):
            out[v] = (ln + rd, ld + rn)
        else:  # Add: num is l.num*r.den + r.num*l.den over l.den*r.den
            out[v] = (max(ln + rd, rn + ld), ld + rd)
    return out


def grid_equal(t: Term, u: Term) -> bool:
    """Evaluate t and u at every point of a positive-integer grid.

    The grid allows per-variable degree + 1 points per variable, which is
    enough to separate any two distinct rational functions of those
    degrees; evaluation is exact, through the independent oracle.
    """
    bt, bu = degree_bounds(t), degree_bounds(u)
    names = sorted(set(bt) | set(bu))
    sizes = []
    for v in names:
        tn, td = bt.get(v, (0, 0))
        un, ud = bu.get(v, (0, 0))
        sizes.append(max(tn + ud, un + td) + 1)
    for point in product(*(range(1, s + 1) for s in sizes)):
        a = {v: Fraction(k) for v, k in zip(names, point)}
        if oracle_eval(t, a) != oracle_eval(u, a):
            return False
    return True


def grid_volume(t: Term, u: Term) -> int:
    bt, bu = degree_bounds(t), degree_bounds(u)
    vol = 1
    for v in set(bt) | set(bu):
        tn, td = bt.get(v, (0, 0))
        un, ud = bu.get(v, (0, 0))
        vol *= max(tn + ud, un + td) + 1
    return vol


def test_grid_oracle_agreement_sample():
    # A smaller copy of the acceptance run, for fast feedback.
    rng = random.Random(20260811)
    checked = 0
    while checked < 150:
        t = random_term(rng, Signature.IAMD, 6)
        if rng.random() < 0.5:
            u = equivalent_variant(rng, t)
        else:
            u = random_term(rng, Signature.IAMD, 6)
        if grid_volume(t, u) > 4000:
            continue
        assert decide_iamd(t, u) == grid_equal(t, u), (t, u)
        checked += 1


def gil_oracle(t: Term, u: Term) -> bool:
    """Equality under the general inverse law, by brute force.

    Both sides agree exactly when they agree as zero-totalized functions
    on the non-negative rationals, and the non-negative orthant splits by
    which variables are zero: for every subset of variables pinned to 0,
    the two (raw, unsimplified) terms must agree on a positive grid of
    the remaining ones.
    """
    names = sorted(free_vars(t) | free_vars(u))
    for mask in range(1 << len(names)):
        zeroed_t, zeroed_u = t, u
        for i, v in enumerate(names):
            if mask >> i & 1:
                zeroed_t = subst(zeroed_t, v, ZERO)
                zeroed_u = subst(zeroed_u, v, ZERO)
        if not grid_equal(zeroed_t, zeroed_u):
            return False
    return True


def test_decide_iamdz_gil_matches_brute_force():
    rng = random.Random(20260811)
    checked = trues = 0
    while checked < 200:
        t = random_term(rng, Signature.IAMDZ, 4)
        if rng.random() < 0.4:
            u = zero_pad(rng, t)
        else:
            u = random_term(rng, Signature.IAMDZ, 4)
        if grid_volume(t, u) > 1500:
            continue
        verdict = decide_iamdz_gil(t, u)
        assert verdict == gil_oracle(t, u), (t, u)
        trues += verdict
        checked += 1
    assert 0 < trues < checked


def zero_pad(rng: random.Random, t: Term) -> Term:
    """An equal-by-zero-laws variant: add 0 * r and commute."""
    padded = Add(Mul(ZERO, random_term(rng, Signature.IAMDZ, 3)), t)
    if rng.random() < 0.5:
        padded = Add(padded.right, padded.left)
    return padded


def term_level_gil(t: Term, u: Term) -> bool:
    """Equality under the general inverse law by zero-eliminating terms: a
    worklist of zeroed variable sets, each child pair its parent's with one
    more variable substituted by 0 and zero-eliminated again.  Every
    variable is zeroed, under an inverse or not."""
    seen = {frozenset()}
    work = [(frozenset(), zero_eliminate(t), zero_eliminate(u))]
    while work:
        zeroed, s, s2 = work.pop()
        if s is ZERO_NF or s2 is ZERO_NF:
            if s is not s2:
                return False
            continue
        if not decide_iamd(s, s2):
            return False
        for v in sorted(free_vars(s) | free_vars(s2)):
            child = zeroed | {v}
            if child not in seen:
                seen.add(child)
                work.append((child, zero_eliminate(subst(s, v, ZERO)),
                             zero_eliminate(subst(s2, v, ZERO))))
    return True


iamdz_terms = st.recursive(
    st.one_of(st.just(ZERO), st.just(ONE), st.sampled_from(VARS).map(Var)),
    lambda kids: st.one_of(st.builds(Add, kids, kids), st.builds(Mul, kids, kids),
                           st.builds(Inv, kids)),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(iamdz_terms, iamdz_terms, st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_gil_walk_matches_term_level_walk_and_brute_force(t, u, padded, seed):
    rng = random.Random(seed)
    if padded:
        u = zero_pad(rng, t)
    zeroed, _, _ = gil_reason(t, u)
    verdict = zeroed is None
    assert decide_iamdz_gil(t, u) is verdict
    assert term_level_gil(t, u) is verdict
    if grid_volume(t, u) <= 1500:
        assert gil_oracle(t, u) is verdict
    if zeroed is not None:
        # The sides differ at a random point that zeroes exactly the reported
        # variables; the others are positive, where inverse arguments that
        # zero elimination keeps are nonzero.
        names = free_vars(t) | free_vars(u)
        assert set(zeroed) <= names
        a = {v: Fraction(0) if v in zeroed else Fraction(rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 9))
             for v in names}
        assert oracle_eval(t, a) != oracle_eval(u, a), (t, u, zeroed)


def to_sympy(t: Term, sympy):
    """An arithmetical term as a sympy expression, built independently of the
    library's polynomial kernel."""
    match t:
        case One():
            return sympy.Integer(1)
        case Var(name=name):
            return sympy.Symbol(name, positive=True)
        case Add(left=l, right=r):
            return to_sympy(l, sympy) + to_sympy(r, sympy)
        case Mul(left=l, right=r):
            return to_sympy(l, sympy) * to_sympy(r, sympy)
        case Inv(arg=arg):
            return 1 / to_sympy(arg, sympy)
    raise TypeError(f"not an arithmetical term: {t!r}")


iamd_terms = st.recursive(
    st.one_of(st.just(ONE), st.sampled_from(VARS).map(Var)),
    lambda kids: st.one_of(st.builds(Add, kids, kids), st.builds(Mul, kids, kids),
                           st.builds(Inv, kids)),
    max_leaves=10,
)


def test_decide_iamd_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=200, deadline=None)
    @given(iamd_terms, iamd_terms, st.integers(0, 2 ** 32 - 1))
    def check(t, u, seed):
        if seed % 2:
            u = equivalent_variant(random.Random(seed), t)
        difference = sympy.cancel(to_sympy(t, sympy) - to_sympy(u, sympy))
        assert decide_iamd(t, u) is (difference == 0), (t, u)

    check()
