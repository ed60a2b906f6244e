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
from meadows.semantics import check_axioms, equation_lines, zp_meadow
from meadows.terms import Add, Div, Inv, Mul, Neg, One, Sub, Var, Zero, Signature, free_vars
from meadows.parsing import parse_term

from .helpers import shapes_presentation


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


@settings(max_examples=80, deadline=None)
@given(undecided_zn())
def test_partial_lines_match_naive_none_propagation(model):
    n, tables = model
    for eq in PARTIAL_AXIOMS:
        names = sorted(free_vars(eq.lhs) | free_vars(eq.rhs))
        lines = equation_lines(eq.lhs, eq.rhs, names, n, tables.keys(), partial=True)
        got = [
            (outer + (i,))[:len(names)] + (x, y)
            for outer, lhs, rhs in lines(tables)
            for i, (x, y) in enumerate(zip(lhs, rhs))
        ]
        want = []
        for values in product(range(n), repeat=len(names)):
            a = dict(zip(names, values))
            want.append(values + (_naive_partial_eval(eq.lhs, tables, a),
                                  _naive_partial_eval(eq.rhs, tables, a)))
        assert got == want, eq.name
        holds = all(x is None or y is None or x == y for *_, x, y in want)
        assert _axiom_holds_everywhere(lines, tables) is holds, eq.name
