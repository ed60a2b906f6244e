import random
import time
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meadows.presentations import (
    Equation, Presentation, Symbol,
    _axiom_holds_everywhere, builtin, builtin_names, combine, export, hide, md_d, md_rd,
    parse_module_expression, rename, visible_models_check,
)
from meadows import exhaustive, presentations, semantics
from meadows.exhaustive import encode_tables, equation_lines, equation_names
from meadows.semantics import check_axioms, zp_meadow
from meadows.terms import (
    Add, Div, Inv, Mul, Neg, One, Sub, Var, Zero, Signature, constructors, free_vars,
)
from meadows.parsing import parse_term

from .helpers import oracle_parse_module_expression, shapes_presentation


EXPECTED_COUNTS = {
    "cr": 8, "inv": 2, "div": 3, "rd": 9,
    "imd": 10, "dmd": 11,
    "acrz": 7, "acr": 6,
    "iamd": 7, "damd": 7, "iamdz": 9, "damdz": 10,
}


def test_builtin_axiom_counts():
    for name, count in EXPECTED_COUNTS.items():
        assert len(builtin(name).axioms) == count, name


def test_builtin_contains_expected_equations():
    imd = builtin("imd")
    wanted = parse_term("x * (x * x^-1)", Signature.IMD), parse_term("x", Signature.IMD)
    assert any((eq.lhs, eq.rhs) == wanted for eq in imd.axioms)
    dmd = builtin("dmd")
    wanted = parse_term("x / y", Signature.DMD), parse_term("x * (1 / y)", Signature.DMD)
    assert any((eq.lhs, eq.rhs) == wanted for eq in dmd.axioms)
    iamd = builtin("iamd")
    wanted = parse_term("x * x^-1", Signature.IAMD), parse_term("1", Signature.IAMD)
    assert any((eq.lhs, eq.rhs) == wanted for eq in iamd.axioms)


def test_builtin_acrz_has_no_negation():
    acrz = builtin("acrz")
    assert not any("add_neg" == eq.name for eq in acrz.axioms)
    assert Symbol("-", 1) not in acrz.visible
    acr = builtin("acr")
    assert not any(eq.name == "add_zero" for eq in acr.axioms)
    assert Symbol("0", 0) not in acr.visible


def test_builtin_unknown_name():
    with pytest.raises(ValueError):
        builtin("xyz")
    assert "imd" in builtin_names() and "md_rd" in builtin_names()


def test_combine_reconstructs_builtins():
    assert combine(builtin("cr"), builtin("inv")).equivalent(builtin("imd"))
    assert combine(builtin("cr"), builtin("div")).equivalent(builtin("dmd"))
    assert combine(builtin("acrz"), builtin("div")).equivalent(builtin("damdz"))
    assert combine(builtin("acrz"), builtin("inv")).equivalent(builtin("iamdz"))


def test_combine_idempotent_up_to_dedup():
    p = builtin("imd")
    assert combine(p, p).equivalent(p)


def test_combine_arity_clash():
    # Rename multiplication to "/" and collide with genuine division.
    clashed = rename("*", "/", builtin("cr"))
    with pytest.raises(ValueError) as err:
        combine(clashed, builtin("dmd"))
    assert "clash" in str(err.value) or "conflict" in str(err.value)


def test_unary_and_binary_minus_coexist():
    # cr's unary minus and rd's binary minus share a display name.
    merged = combine(builtin("cr"), builtin("rd"))
    names = sorted(str(s) for s in merged.visible)
    assert "-/1" in names and "-/2" in names


def test_hide_and_export():
    p = hide("inv", builtin("imd"))
    assert p.visible == builtin("cr").visible
    assert len(p.axioms) == 10
    with pytest.raises(ValueError):
        hide("inv", p)  # already hidden
    with pytest.raises(ValueError):
        hide("/", builtin("imd"))  # not present at all

    exported = export(["0", "1", "+", "*", "-/1"], builtin("imd"))
    assert exported.visible == builtin("cr").visible
    assert len(exported.axioms) == 10
    with pytest.raises(ValueError):
        export(["/"], builtin("cr"))


def test_rename():
    p = rename("^-1", "recip", builtin("imd"))
    assert Symbol("recip", 1) in p.visible
    assert Symbol("^-1", 1) not in p.visible
    assert len(p.axioms) == 10
    with pytest.raises(ValueError):
        rename("+", "*", builtin("cr"))


def test_md_d_chain_signature():
    p = md_d()
    assert p.visible == builtin("dmd").visible
    assert p.hidden_symbols == frozenset({Symbol("^-1", 1)})
    assert len(p.axioms) == 11  # ten inversive axioms plus the defining one


def test_md_rd_chain_signature():
    p = md_rd()
    assert p.visible == frozenset(
        {Symbol("1", 0), Symbol("-", 2), Symbol("/", 2)}
    )
    assert p.hidden_symbols == frozenset(
        {Symbol("0", 0), Symbol("+", 2), Symbol("*", 2), Symbol("-", 1),
         Symbol("^-1", 1)}
    )
    assert len(p.axioms) == 12


def test_visible_models_check_recovers_inverse():
    for p in (2, 3, 5):
        model = zp_meadow(p)
        report = visible_models_check(md_d(), model)
        assert report.satisfiable
        assert len(report.expansions) == 1
        assert report.expansions[0]["inv"] == model.inv


def test_visible_models_check_no_hidden_symbols():
    report = visible_models_check(builtin("cr"), zp_meadow(3))
    assert report.satisfiable
    assert report.expansions == [{}]


def test_visible_models_check_unsatisfiable():
    # No meadow structure extends the two-element "everything is zero"
    # division table.
    zero_ring = {
        "one": 1,
        "sub": ((0, 1), (1, 0)),
        "div": ((0, 0), (0, 0)),
    }
    report = visible_models_check(md_rd(), zero_ring, size=2)
    assert not report.satisfiable
    assert report.failure


def test_visible_models_check_finds_rd_expansion():
    # The genuine reduced divisive reduct of Z_2 does expand back.
    m = zp_meadow(2)
    ops = m.ops()
    reduct = {"one": 1, "sub": ops["sub"], "div": ops["div"]}
    report = visible_models_check(md_rd(), reduct, size=2)
    assert report.satisfiable
    assert {"zero": 0, "one": 1}.items() <= {"zero": report.expansions[0]["zero"],
                                             "one": 1}.items()
    assert report.expansions[0]["add"] == ops["add"]
    assert report.expansions[0]["mul"] == ops["mul"]
    assert report.expansions[0]["inv"] == ops["inv"]


@pytest.mark.parametrize("bad", [2, -1, 1.0, "1", None])
def test_visible_models_check_rejects_values_outside_the_carrier(bad):
    # A value equal to the size would otherwise read as undecided.
    ops = zp_meadow(2).ops()
    for key, reduct in (("div", {"one": 1, "sub": ops["sub"], "div": ((0, bad), (0, 1))}),
                        ("one", {"one": bad, "sub": ops["sub"], "div": ops["div"]})):
        with pytest.raises(ValueError, match=f"table '{key}'"):
            visible_models_check(md_rd(), reduct, size=2)
    for div in (((0, 1),), ((0, 1), (0,)), 2, ((0, 1), 2)):
        with pytest.raises(ValueError, match="table 'div' is not a table of arity 2 on 2"):
            visible_models_check(md_rd(), {**ops, "div": div}, size=2)


def test_visible_models_check_names_missing_symbols_in_sorted_order():
    # They came in the iteration order of a set of strings, which the hash
    # seed changes from run to run.
    with pytest.raises(ValueError, match=r"visible symbols \['div', 'inv'\]$"):
        visible_models_check(builtin("divdef"), semantics.zn_ring(2))


def test_visible_models_check_refuses_more_than_max_assignments(monkeypatch):
    ops = zp_meadow(23).ops()
    reduct = {"one": 1, "sub": ops["sub"], "div": ops["div"]}
    with pytest.raises(ValueError, match=r"model of size 23 needs \d+ assignments, more than"):
        visible_models_check(md_rd(), reduct, size=23)
    # md_d over Z_3: the visible check, then 3 values of each of 3 inv slots.
    work = (1 + 3 * 3) * sum(3 ** len(free_vars(eq.lhs) | free_vars(eq.rhs))
                             for eq in md_d().axioms)
    monkeypatch.setattr(exhaustive, "MAX_ASSIGNMENTS", work)
    assert visible_models_check(md_d(), zp_meadow(3)).satisfiable
    monkeypatch.setattr(exhaustive, "MAX_ASSIGNMENTS", work - 1)
    with pytest.raises(ValueError, match=f"needs {work} assignments"):
        visible_models_check(md_d(), zp_meadow(3))


def test_hide_and_export_commute_with_combine_on_disjoint_signatures():
    # inv fragment {*, ^-1} and subdef {+, -, -(binary)} share no symbols.
    p, q = builtin("inv"), builtin("subdef")
    assert not {k for k, _ in p.symbols} & {k for k, _ in q.symbols}
    assert hide("inv", combine(p, q)).equivalent(combine(hide("inv", p), q))
    kept = ["*"]
    assert export(kept, combine(p, q)).equivalent(
        combine(export(kept, p), export([], q))
    )


def test_dmd_reduct_satisfies_dmd_axioms():
    # The divisive reduct of a prime meadow is a model of the divisive axioms.
    for p in (2, 3, 5, 7):
        assert check_axioms(zp_meadow(p), "dmd") == []


def test_axioms_match_rendered_tables():
    # The stored equations reparse from their table spellings.
    cr = builtin("cr")
    eq = {e.name: e for e in cr.axioms}
    lhs = parse_term("x + (-x)", Signature.CR)
    assert eq["add_neg"].lhs == lhs
    rd = builtin("rd")
    eq = {e.name: e for e in rd.axioms}
    assert eq["rd_sub_self"].lhs == parse_term("x - x", Signature.RD)
    assert eq["rd_sub_self"].rhs == parse_term("1 - 1", Signature.RD)


def test_presentation_invariant_enforced():
    bad = Equation("loose", Var("x"), parse_term("x + 1", Signature.CR))
    with pytest.raises(ValueError):
        Presentation(
            name="broken",
            symbols=(("one", Symbol("1", 0)),),
            hidden=frozenset(),
            axioms=(bad,),
        )


def test_parse_module_expression():
    p = parse_module_expression("hide(inv, combine(imd, divdef))")
    assert p.equivalent(md_d())
    p = parse_module_expression("export({0, 1, +, *, -/1}, imd)")
    assert p.visible == builtin("cr").visible
    p = parse_module_expression("rename(^-1 := recip, imd)")
    assert Symbol("recip", 1) in p.visible
    with pytest.raises(ValueError):
        parse_module_expression("combine(imd")
    with pytest.raises(ValueError):
        parse_module_expression("imd extra")


@pytest.mark.parametrize("text, message", [
    ("hide(+,imd", "expected ')', found 'end of input' in module expression"),
    ("combine(imd,cr x)", "expected ')', found 'x' in module expression"),
    ("combine(imd cr)", "expected ',', found 'cr' in module expression"),
    ("export({+},imd imd)", "expected ')', found 'imd' in module expression"),
    ("combine(imd,combine(cr,imd)", "expected ')', found 'end of input' in module expression"),
    ("combine(imd,cr) imd", "unexpected 'imd' in module expression"),
])
def test_module_expression_errors(text, message):
    with pytest.raises(ValueError) as info:
        parse_module_expression(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    # Each of these used to read a punctuation token as a symbol or a name.
    ("rename(+:=,,imd)", "expected a symbol, found ',' in module expression"),
    ("rename(*:=(,imd)", "expected a symbol, found '(' in module expression"),
    ("combine(imd,)", "expected a module expression, found ')' in module expression"),
    ("hide(,,imd)", "expected a symbol, found ',' in module expression"),
    ("export({,},imd)", "expected a symbol, found ',' in module expression"),
    ("export({+ :=},imd)", "expected a symbol, found ':=' in module expression"),
    ("(imd)", "expected a module expression, found '(' in module expression"),
    ("hide(+,{)", "expected a module expression, found '{' in module expression"),
])
def test_punctuation_is_never_a_name_or_a_symbol(text, message):
    with pytest.raises(ValueError) as info:
        parse_module_expression(text)
    assert str(info.value) == message


def test_export_symbol_lists():
    # The commas between exported symbols are optional, and a list may be
    # empty or end in a comma.
    plus, times = Symbol("+", 2), Symbol("*", 2)
    for text, visible in (("export({},imd)", set()), ("export({+,},imd)", {plus}),
                          ("export({+ *},imd)", {plus, times}),
                          ("export({+,*,},imd)", {plus, times})):
        p = parse_module_expression(text)
        assert p.visible == visible and p == oracle_parse_module_expression(text), text


_PUNCTUATION = ["(", ")", "{", "}", ",", ":="]
_NEW_MESSAGES = {
    f"expected {want}, found {token!r} in module expression"
    for want in ("a module expression", "a symbol") for token in _PUNCTUATION
}
_MODULE_PIECES = (
    ["combine", "hide", "export", "rename", "imd", "cr", "divdef", "subdef", "md_d",
     "nope", "+", "*", "-", "-/1", "^-1", "/", "0", "1", "inv", "recip", ":", "="]
    + _PUNCTUATION
)


def _module_outcome(parse, text):
    try:
        p = parse(text)
    except ValueError as error:
        return str(error)
    return p.name, p.symbols, p.hidden, p.axioms


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_MODULE_PIECES),
                          st.sampled_from(["", "", " ", "\t", "\n"])), max_size=16))
def test_module_expressions_match_the_oracle(pieces):
    # Same presentation or same message as the character-loop reader,
    # except where punctuation stands for a name or a symbol.
    text = "".join(piece + space for piece, space in pieces)
    got = _module_outcome(parse_module_expression, text)
    if got not in _NEW_MESSAGES:
        assert got == _module_outcome(oracle_parse_module_expression, text), text


def test_module_expression_whitespace_is_read_in_linear_time():
    for text in ("imd" + " " * 10**6, " " * 10**6 + "imd"):
        start = time.perf_counter()
        assert parse_module_expression(text) is builtin("imd")
        assert time.perf_counter() - start < 2


def test_md_rd_is_hidden_from_md_d():
    # The builtin table builds md_rd from its own md_d, once.
    assert md_d() is builtin("md_d") is parse_module_expression("md_d")
    assert md_rd() is builtin("md_rd")
    assert md_rd().equivalent(parse_module_expression(
        "hide(0, hide(+, hide(-/1, combine(hide(*, md_d), subdef))))"))


def _count_axiom_runs(monkeypatch, p):
    """Run each visible_models_check through a counter of the axioms run,
    keyed by name; returns the counts of the last search."""
    keys = frozenset(k for k, _ in p.symbols)
    names = {equation_lines(eq.lhs, eq.rhs, equation_names(eq.lhs, eq.rhs), keys): eq.name
             for eq in p.axioms}
    counts: dict[str, int] = {}
    holds = presentations._axiom_holds_everywhere

    def counted(lines, tables):
        counts[names[lines]] = counts.get(names[lines], 0) + 1
        return holds(lines, tables)

    monkeypatch.setattr(presentations, "_axiom_holds_everywhere", counted)
    return counts


@pytest.mark.parametrize("prime, calls", [(2, 22), (3, 34), (5, 70), (7, 122)])
def test_search_decides_each_visible_axiom_once(monkeypatch, prime, calls):
    # The eight ring axioms read no inverse: each runs once, on the reduct,
    # and trials and candidates run only the three that read inv.
    p = md_d()
    counts = _count_axiom_runs(monkeypatch, p)
    report = visible_models_check(p, zp_meadow(prime))
    assert report.expansions == [{"inv": zp_meadow(prime).inv}]
    reads_inv = {eq.name for eq in p.axioms if Inv in constructors(eq.lhs) | constructors(eq.rhs)}
    assert reads_inv == {"inv_inv", "restricted_inv", "div_as_inv"}
    for eq in p.axioms:
        if eq.name not in reads_inv:
            assert counts.pop(eq.name) == 1, eq.name
    assert counts.keys() <= reads_inv
    assert sum(counts.values()) + 8 == calls


_Z2 = zp_meadow(2).ops()
_Z3 = zp_meadow(3).ops()


@pytest.mark.parametrize("p, model, size, expansions, failure", [
    (md_d(), zp_meadow(2), None, [{"inv": (0, 1)}], None),
    (md_d(), zp_meadow(3), None, [{"inv": (0, 1, 2)}], None),
    (md_d(), zp_meadow(5), None, [{"inv": (0, 1, 3, 2, 4)}], None),
    (md_d(), zp_meadow(7), None, [{"inv": (0, 1, 4, 5, 2, 3, 6)}], None),
    (md_rd(), {"one": 1, "sub": _Z2["sub"], "div": _Z2["div"]}, 2,
     [{"add": ((0, 1), (1, 0)), "inv": (0, 1), "mul": ((0, 0), (0, 1)), "neg": (0, 1),
       "zero": 0}], None),
    (md_rd(), {"one": 1, "sub": ((0, 1), (1, 0)), "div": ((0, 0), (0, 0))}, 2,
     [], "no expansion satisfies all axioms"),
    (md_d(), {**_Z3, "add": ((0, 1, 2), (1, 2, 0), (2, 0, 0))}, 3,
     [], "axiom add_assoc fails on visible reduct"),
    (md_d(), {**_Z3, "div": ((0, 0, 0), (0, 1, 1), (0, 2, 2))}, 3,
     [], "no value for inv(2,) satisfies the axioms"),
])
def test_search_reports(p, model, size, expansions, failure):
    # Every expansion and failure as the search found them when it ran
    # every axiom in every trial and candidate.
    report = visible_models_check(p, model, size)
    assert (report.satisfiable, report.expansions, report.failure) == (
        bool(expansions), expansions, failure)


_KEY = {Zero: "zero", One: "one", Add: "add", Mul: "mul",
        Neg: "neg", Inv: "inv", Div: "div", Sub: "sub"}


def _naive_partial_eval(t, tables: dict, a: dict):
    """One assignment: None when an operand or a table entry is undecided."""
    if type(t) is Var:
        return a[t.name]
    value = tables[_KEY[type(t)]]
    for kid in t.children:
        arg = _naive_partial_eval(kid, tables, a)
        if arg is None or value is None:
            return None
        value = value[arg]
    return value


@st.composite
def undecided_zn(draw):
    """Z_n, n <= 7, tabulating every operator (inverse x^-1 for units, else
    0), with some table entries, constants included, undecided (None)."""
    n = draw(st.integers(1, 7))
    inv = [pow(x, -1, n) if gcd(x, n) == 1 else 0 for x in range(n)]
    tables = {
        "zero": 0, "one": 1 % n,
        "add": [[(x + y) % n for y in range(n)] for x in range(n)],
        "mul": [[x * y % n for y in range(n)] for x in range(n)],
        "sub": [[(x - y) % n for y in range(n)] for x in range(n)],
        "div": [[x * inv[y] % n for y in range(n)] for x in range(n)],
        "neg": [-x % n for x in range(n)],
        "inv": inv,
    }
    for _ in range(draw(st.integers(0, 8))):
        key = draw(st.sampled_from(sorted(tables)))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if key in ("zero", "one"):
            tables[key] = None
        elif key in ("neg", "inv"):
            tables[key][i] = None
        else:
            tables[key][i][j] = None
    return n, tables


PARTIAL_AXIOMS = [
    eq for p in (md_d(), builtin("imd"), builtin("dmd"), shapes_presentation())
    for eq in p.axioms
]


def _naive_lines(lhs, rhs, names, tables, n) -> dict:
    """Map each line's outer values to its (lhs values, rhs values), found
    one assignment at a time, with an undecided value (None) read as n."""
    lines = {}
    for values in product(range(n), repeat=len(names)):
        a = dict(zip(names, values))
        line = lines.setdefault(values[:-1], ([], []))
        for side, out in zip((lhs, rhs), line):
            value = _naive_partial_eval(side, tables, a)
            out.append(n if value is None else value)
    return lines


@settings(max_examples=80, deadline=None)
@given(undecided_zn())
def test_partial_lines_match_naive_none_propagation(model):
    # equation_lines yields just the lines whose sides differ, with n as
    # the undecided value.
    n, tables = model
    encoded = encode_tables(tables, n, partial=True)
    for eq in PARTIAL_AXIOMS:
        names = sorted(free_vars(eq.lhs) | free_vars(eq.rhs))
        lines = equation_lines(eq.lhs, eq.rhs, names, tables.keys())
        got = [(outer, [*lhs], [*rhs]) for outer, lhs, rhs in lines(encoded)]
        naive = _naive_lines(eq.lhs, eq.rhs, names, tables, n)
        want = [(outer, lhs, rhs) for outer, (lhs, rhs) in naive.items() if lhs != rhs]
        assert got == want, eq.name
        holds = all(x == y or n in (x, y) for _, lhs, rhs in want for x, y in zip(lhs, rhs))
        assert _axiom_holds_everywhere(lines, encoded) is holds, eq.name


@settings(max_examples=25, deadline=None)
@given(undecided_zn())
def test_side_values_match_naive_at_every_assignment(model):
    # side = v, v the last variable, holds on a line exactly where the side
    # reads ident, so the lines equation_lines yields and those it skips
    # give the side's value at every assignment.  v is zz, which sorts
    # after every variable of the axioms, or else the side's own last
    # variable, so the side's values vary along the line.
    n, tables = model

    def decided(table):
        if isinstance(table, list):
            return [*map(decided, table)]
        return 0 if table is None else table

    total = {key: decided(table) for key, table in tables.items()}
    for values, partial in ((total, False), (tables, True)):
        encoded = encode_tables(values, n, partial)
        for eq in PARTIAL_AXIOMS:
            for side in (eq.lhs, eq.rhs):
                for last in {"zz", max(free_vars(side), default="zz")}:
                    names = sorted(free_vars(side) | {last})
                    lines = equation_lines(side, Var(last), names, values.keys())
                    got = {outer: [*lhs] for outer, lhs, _ in lines(encoded)}
                    naive = _naive_lines(side, Var(last), names, values, n)
                    for outer, (lhs, rhs) in naive.items():
                        assert rhs == [*range(n)]
                        assert got.get(outer, rhs) == lhs, (eq.name, side, outer)


@pytest.mark.parametrize("partial", [False, True])
@pytest.mark.parametrize("n", [255, 256])
def test_lines_at_the_encoding_switch(n, partial):
    # Lines are bytes up to 255 elements, whose undecided value 255 is the
    # last byte, and tuples from 256.  Every table read shape: a row and a
    # column of the bare variable, an operand read along a line, a unary
    # table, two varying operands, and closed sides.
    x, y = Var("x"), Var("y")
    equations = [
        (Add(x, y), Add(y, x)),
        (Mul(Add(x, y), Inv(y)), Neg(Mul(Inv(Mul(x, x)), Add(y, One())))),
        (Mul(x, x), Sub(Zero(), Div(One(), x))),
        (Inv(Add(One(), One())), Mul(One(), Neg(Zero()))),
    ]
    rng = random.Random(n)
    inv = [pow(v, -1, n) if gcd(v, n) == 1 else 0 for v in range(n)]
    tables = {
        "zero": 0, "one": 1,
        "add": [[(a + b) % n for b in range(n)] for a in range(n)],
        "mul": [[a * b % n for b in range(n)] for a in range(n)],
        "sub": [[(a - b) % n for b in range(n)] for a in range(n)],
        "div": [[a * inv[b] % n for b in range(n)] for a in range(n)],
        "neg": [-v % n for v in range(n)],
        "inv": inv,
    }
    for key in ("add", "mul", "sub", "div", "neg", "inv"):
        for _ in range(20):
            row = tables[key] if key in ("neg", "inv") else \
                tables[key][rng.choice((n - 1, rng.randrange(n)))]
            slot = rng.choice((n - 1, rng.randrange(n)))
            row[slot] = None if partial and rng.random() < 0.5 else rng.choice((n - 1, 0))
    encoded = encode_tables(tables, n, partial)
    assert type(encoded.ident) is (bytes if n == 255 else tuple)
    for lhs, rhs in equations:
        names = sorted(free_vars(lhs) | free_vars(rhs))
        lines = equation_lines(lhs, rhs, names, tables.keys())
        got = [(outer, [*left], [*right]) for outer, left, right in lines(encoded)]
        naive = _naive_lines(lhs, rhs, names, tables, n)
        assert got == [(outer, l, r) for outer, (l, r) in naive.items() if l != r]
