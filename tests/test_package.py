"""The package's public names, the modules each module and CLI subcommand
imports, and the immutability of its values."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import meadows
from meadows.convention import ConventionId, closed_compliance
from meadows.parsing import parse_term
from meadows.presentations import builtin, md_d, visible_models_check
from meadows.semantics import AxiomFailure, FiniteMeadow, zp_meadow

# The public names of the package, grouped by the submodule that defines them.
EXPORTS = {
    "terms": [
        "Term", "Zero", "One", "Var", "Add", "Mul", "Neg", "Inv", "Div", "Sub", "ZERO", "ONE",
        "Signature", "SignatureError",
        "numeral", "power", "conforms", "check_conforms", "subst", "free_vars", "fold",
    ],
    "parsing": ["ParseError", "parse_term", "render"],
    "projection": ["Projection", "project"],
    "semantics": [
        "Q0", "FiniteMeadow", "MissingAssignment", "NotRegular", "NotUnique",
        "eval_q0", "q0_div", "q0_inv", "zp_meadow", "zn_ring", "zn_meadow", "eval_model",
        "check_axioms", "AxiomFailure", "expand_regular_ring",
    ],
    "numbers": ["two_squares", "corollary_witness"],
    "partial": [
        "PunchVariant", "Defined", "UNDEFINED", "PartialValue",
        "punch_eval", "RecoveryReport", "recovery_check",
    ],
    "normalize": [
        "Monomial", "Polynomial", "PolyFrac", "ZeroNF", "Frac", "ZERO_NF", "NormalForm",
        "to_polyfrac", "expand_poly", "decide_iamd", "normal_form_closed",
        "zero_eliminate", "decide_iamdz_gil", "decide_divisive",
        "UnsupportedTheory", "TooManyInverseVariables", "decide_by_theory",
    ],
    "logic3": [
        "TruthValue3", "Formula", "Eq", "Neq", "Not", "And", "Or", "Implies", "Forall", "Exists",
        "Equality", "Connectives", "Quantifiers", "LogicConfig", "lpmd",
        "eval_formula", "two_valued_convention_check", "parse_formula",
    ],
    "convention": [
        "DefNzClass", "ConventionId", "classify", "Violation", "COMPLIANT",
        "closed_compliance", "open_compliance_sufficient", "Sufficiency",
    ],
    "presentations": [
        "Symbol", "Equation", "Presentation",
        "builtin", "builtin_names", "combine", "hide", "export", "rename",
        "ExpansionReport", "visible_models_check", "md_d", "md_rd",
        "parse_module_expression",
    ],
}


def test_all_lists_every_public_name_in_order():
    assert meadows.__all__ == [name for names in EXPORTS.values() for name in names]


def test_each_name_is_its_submodules_object():
    for module, names in EXPORTS.items():
        sub = import_module(f"meadows.{module}")
        assert getattr(meadows, module) is sub
        for name in names:
            assert getattr(meadows, name) is getattr(sub, name), name
            assert vars(meadows)[name] is getattr(sub, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from meadows import *", namespace)
    for name in meadows.__all__:
        assert namespace[name] is getattr(meadows, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        meadows.no_such_name
    assert not hasattr(meadows, "no_such_name")


def loaded_modules(code, *args):
    """The meadows submodules loaded once code has run in a fresh interpreter,
    and dataclasses if it was loaded too."""
    src = str(Path(meadows.__file__).resolve().parent.parent)
    code += ('\nprint(*sorted(m for m in sys.modules'
             ' if m.startswith("meadows.") or m == "dataclasses"))')
    p = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    return set(p.stdout.split())


def test_bare_import_loads_no_submodule_until_a_name_is_used():
    # dir() lists every name and submodule before any of them is loaded.
    names = [*(name for group in EXPORTS.values() for name in group), *EXPORTS]
    code = f"import sys, meadows\nassert set(dir(meadows)) >= set({names!r})"
    assert loaded_modules(code) == set()
    code += "\nassert meadows.semantics is sys.modules['meadows.semantics']"
    assert loaded_modules(code) == {"meadows.semantics", "meadows.numbers", "meadows.terms"}
    assert loaded_modules("import sys\nfrom meadows import Var") == {"meadows.terms"}


# Each module and the other package modules that importing it loads; none of
# them loads dataclasses.
LAYERS = {
    "terms": set(),
    "parsing": {"terms"},
    "projection": {"terms"},
    "numbers": set(),
    "semantics": {"numbers", "terms"},
    "exhaustive": {"numbers", "semantics", "terms"},
    "partial": {"numbers", "projection", "semantics", "terms"},
    "normalize": {"projection", "terms"},
    "logic3": {"numbers", "parsing", "partial", "projection", "semantics", "terms"},
    "convention": {"numbers", "partial", "projection", "semantics", "terms"},
    "presentations": {"exhaustive", "numbers", "parsing", "semantics", "terms"},
    "cli": {"parsing", "terms"},
}


def test_every_module_has_its_layers_listed():
    assert {p.stem for p in Path(meadows.__file__).parent.glob("*.py")} == {"__init__", *LAYERS}


@pytest.mark.parametrize("module, modules", LAYERS.items())
def test_each_module_imports_only_its_layers(module, modules):
    want = {f"meadows.{m}" for m in {module} | modules}
    assert loaded_modules(f"import sys, meadows.{module}") == want


ALWAYS = {"cli", "parsing", "terms"}
SEMANTICS = {"numbers", "semantics"}
PARTIAL = {"partial", "projection"} | SEMANTICS
NORMALIZE = {"normalize", "projection"} | SEMANTICS
PRESENTATIONS = {"exhaustive", "presentations"} | SEMANTICS


@pytest.mark.parametrize("argv, modules", [
    (["eval", "1+1"], SEMANTICS),
    (["eval", "--model", "zp:5", "1/2"], SEMANTICS),
    (["eval", "1 +"], SEMANTICS),
    (["peval", "--variant", "div0", "1/0"], PARTIAL),
    (["project", "--to", "imn", "x/y"], {"projection"}),
    (["normalize", "--sig", "iamd", "1+1"], NORMALIZE),
    (["decide", "--theory", "damd", "x/x", "1"], {"normalize", "projection"}),
    (["truth", "0 = 0"], PARTIAL | {"logic3"}),
    (["classify", "x"], PARTIAL | {"convention"}),
    (["comply", "1/0"], PARTIAL | {"convention"}),
    (["check-model", "--zp", "3"], PRESENTATIONS),
    (["witness", "--prime", "5"], {"numbers"}),
    (["spec", "--show", "imd"], PRESENTATIONS),
    (["no-such-command"], set()),
])
def test_each_subcommand_imports_only_its_modules(argv, modules):
    code = ("import io, sys\nfrom contextlib import redirect_stdout\nfrom meadows.cli import run\n"
            "with redirect_stdout(io.StringIO()):\n    run(sys.argv[1:])")
    want = {f"meadows.{m}" for m in ALWAYS | modules}
    assert loaded_modules(code, *argv) == want


# ExpansionReport was the one mutable value, and deleting an attribute of a
# term raised TypeError.
@pytest.mark.parametrize("make, field", [
    (lambda: parse_term("x + 1", None), "left"),
    (lambda: zp_meadow(5), "size"),
    (lambda: FiniteMeadow(2, ((0, 1), (1, 0)), ((0, 0), (0, 1)), (0, 1), (0, 1)), "add"),
    (lambda: builtin("imd"), "axioms"),
    (lambda: AxiomFailure("a", (("x", 0),), 0, 1, 1), "axiom"),
    (lambda: closed_compliance(parse_term("1/0", None), ConventionId("div0")), "subterm"),
    (lambda: visible_models_check(md_d(), zp_meadow(3)), "expansions"),
])
def test_values_are_immutable(make, field):
    value = make()
    for name in (field, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
