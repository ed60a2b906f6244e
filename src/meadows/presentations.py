"""Named axiom sets and presentation-level module operators.

A presentation bundles a signature (visible and hidden operator
symbols) with a list of named equations.  The builtin presentations
cover commutative rings, inversive and divisive meadows, their
arithmetical variants, and reduced divisive meadows; module operators
(combine, hide, export, rename) manipulate presentations structurally,
which is enough to flatten the hiding chains that derive the divisive
and reduced divisive presentations from the inversive one.

Symbols are identified by a fixed operator key (zero, one, add, mul,
neg, inv, div, sub); the display name and arity travel with the key so
renaming never touches the stored equation trees.  Two symbols may
share a display name as long as their arities differ (unary and binary
minus coexist); a combine only fails when one display name and arity
would denote two different operators.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cache
from itertools import product as iter_product
from typing import NamedTuple

from .parsing import parse_term
from .terms import (
    Add, Neg, Sub, Term, Var,
    Signature, constructors,
)
from .exhaustive import (
    OP_ARITY, OP_KEY, LineTables, capped_equations, encode_tables, equation_lines,
)
from .semantics import FiniteMeadow

__all__ = [
    "Symbol", "Equation", "Presentation",
    "builtin", "builtin_names", "combine", "hide", "export", "rename",
    "ExpansionReport", "visible_models_check",
    "md_d", "md_rd", "parse_module_expression",
]


# The display name of each operator key; its arity is exhaustive.OP_ARITY's.
DEFAULT_SYMBOLS = {
    "zero": "0", "one": "1", "add": "+", "mul": "*",
    "neg": "-", "inv": "^-1", "div": "/", "sub": "-",
}


class Symbol(NamedTuple):
    name: str
    arity: int

    def __str__(self):
        return f"{self.name}/{self.arity}"


class Equation(NamedTuple):
    name: str
    lhs: Term
    rhs: Term


def _equation_ops(eq: Equation) -> frozenset[str]:
    """The operator keys occurring in either side of eq."""
    used = constructors(eq.lhs) | constructors(eq.rhs)
    return frozenset(OP_KEY[c] for c in used if c in OP_KEY)


class Presentation(namedtuple("Presentation", "name symbols hidden axioms")):
    """A name, the symbols as (op key, display symbol) pairs sorted by key,
    the frozenset of op keys currently hidden, and the tuple of axioms."""

    __slots__ = ()

    def __new__(cls, name: str, symbols: tuple[tuple[str, Symbol], ...],
                hidden: frozenset[str], axioms: tuple[Equation, ...]):
        keys = {k for k, _ in symbols}
        for key, sym in symbols:
            if OP_ARITY[key] != sym.arity:
                raise ValueError(f"symbol {sym} has wrong arity for {key}")
        if not hidden <= keys:
            raise ValueError("hidden symbols not in signature")
        for eq in axioms:
            used = _equation_ops(eq)
            if not used <= keys:
                raise ValueError(
                    f"axiom {eq.name} uses symbols outside the signature: "
                    f"{sorted(used - keys)}"
                )
        return super().__new__(cls, name, symbols, hidden, axioms)

    @property
    def symbol_map(self) -> dict[str, Symbol]:
        return dict(self.symbols)

    @property
    def visible_keys(self) -> frozenset[str]:
        return frozenset(k for k, _ in self.symbols) - self.hidden

    @property
    def visible(self) -> frozenset[Symbol]:
        m = self.symbol_map
        return frozenset(m[k] for k in self.visible_keys)

    @property
    def hidden_symbols(self) -> frozenset[Symbol]:
        m = self.symbol_map
        return frozenset(m[k] for k in self.hidden)

    def equivalent(self, other: "Presentation") -> bool:
        """Same visible/hidden signature and the same set of equations."""
        return (
            self.visible == other.visible
            and self.hidden_symbols == other.hidden_symbols
            and {(e.lhs, e.rhs) for e in self.axioms}
            == {(e.lhs, e.rhs) for e in other.axioms}
        )


def _make(name: str, keys: dict[str, Symbol], hidden: set[str],
          axioms: list[Equation]) -> Presentation:
    return Presentation(
        name=name,
        symbols=tuple(sorted(keys.items())),
        hidden=frozenset(hidden),
        axioms=tuple(axioms),
    )


def _default_syms(*keys: str) -> dict[str, Symbol]:
    return {k: Symbol(DEFAULT_SYMBOLS[k], OP_ARITY[k]) for k in keys}


def _eqs(sig: Signature | None, pairs: list[tuple[str, str]]) -> list[Equation]:
    out = []
    for name, text in pairs:
        lhs, rhs = text.split("=")
        out.append(Equation(name, parse_term(lhs, sig), parse_term(rhs, sig)))
    return out


_CR_AXIOMS = [
    ("add_assoc", "(x + y) + z = x + (y + z)"),
    ("add_comm", "x + y = y + x"),
    ("add_zero", "x + 0 = x"),
    ("add_neg", "x + (-x) = 0"),
    ("mul_assoc", "(x * y) * z = x * (y * z)"),
    ("mul_comm", "x * y = y * x"),
    ("mul_one", "x * 1 = x"),
    ("distrib", "x * (y + z) = x * y + x * z"),
]

_INV_AXIOMS = [
    ("inv_inv", "(x^-1)^-1 = x"),
    ("restricted_inv", "x * (x * x^-1) = x"),
]

_DIV_AXIOMS = [
    ("div_of_div", "1 / (1 / x) = x"),
    ("square_div", "(x * x) / x = x"),
    ("div_as_mul", "x / y = x * (1 / y)"),
]

_RD_AXIOMS = [
    ("rd_add_assoc",
     "(x - ((1 - 1) - y)) - ((1 - 1) - z) = x - ((1 - 1) - (y - ((1 - 1) - z)))"),
    ("rd_add_comm", "x - ((1 - 1) - y) = y - ((1 - 1) - x)"),
    ("rd_add_zero", "x - (1 - 1) = x"),
    ("rd_sub_self", "x - x = 1 - 1"),
    ("rd_mul_assoc", "(x / (1 / y)) / (1 / z) = x / (1 / (y / (1 / z)))"),
    ("rd_mul_comm", "x / (1 / y) = y / (1 / x)"),
    ("rd_mul_one", "x / 1 = x"),
    ("rd_distrib",
     "x / (1 / (y - ((1 - 1) - z))) = x / (1 / y) - ((1 - 1) - (x / (1 / z)))"),
    ("rd_restricted_inv", "(x / (1 / x)) / x = x"),
]


@cache
def _builtins() -> dict[str, Presentation]:
    """Every builtin presentation by name; built once, never mutated."""
    cr_eqs = _eqs(Signature.CR, _CR_AXIOMS)
    inv_eqs = _eqs(Signature.IMD, _INV_AXIOMS)
    div_eqs = _eqs(Signature.DMD, _DIV_AXIOMS)
    rd_eqs = _eqs(Signature.RD, _RD_AXIOMS)
    acrz_eqs = [e for e in cr_eqs if e.name != "add_neg"]
    acr_eqs = [e for e in acrz_eqs if e.name != "add_zero"]
    iamd_extra = _eqs(Signature.IAMD, [("mul_inv_one", "x * x^-1 = 1")])
    damd_extra = _eqs(Signature.DAMD, [("div_self_one", "x / x = 1")])
    # Defining equations used by the hiding chains; these mix notations.
    divdef = [Equation("div_as_inv",
                       parse_term("x / y", None), parse_term("x * y^-1", None))]
    subdef = [Equation("sub_as_neg",
                       Sub(Var("x"), Var("y")), Add(Var("x"), Neg(Var("y"))))]
    table = {
        "cr": _make("cr", _default_syms("zero", "one", "add", "mul", "neg"),
                    set(), cr_eqs),
        "inv": _make("inv", _default_syms("mul", "inv"), set(), inv_eqs),
        "div": _make("div", _default_syms("one", "mul", "div"), set(), div_eqs),
        "rd": _make("rd", _default_syms("one", "sub", "div"), set(), rd_eqs),
        "imd": _make("imd",
                     _default_syms("zero", "one", "add", "mul", "neg", "inv"),
                     set(), cr_eqs + inv_eqs),
        "dmd": _make("dmd",
                     _default_syms("zero", "one", "add", "mul", "neg", "div"),
                     set(), cr_eqs + div_eqs),
        "acrz": _make("acrz", _default_syms("zero", "one", "add", "mul"),
                      set(), acrz_eqs),
        "acr": _make("acr", _default_syms("one", "add", "mul"), set(), acr_eqs),
        "iamd": _make("iamd", _default_syms("one", "add", "mul", "inv"),
                      set(), acr_eqs + iamd_extra),
        "damd": _make("damd", _default_syms("one", "add", "mul", "div"),
                      set(), acr_eqs + damd_extra),
        "iamdz": _make("iamdz", _default_syms("zero", "one", "add", "mul", "inv"),
                       set(), acrz_eqs + inv_eqs),
        "damdz": _make("damdz", _default_syms("zero", "one", "add", "mul", "div"),
                       set(), acrz_eqs + div_eqs),
        "divdef": _make("divdef", _default_syms("mul", "inv", "div"), set(), divdef),
        "subdef": _make("subdef", _default_syms("add", "neg", "sub"), set(), subdef),
    }
    # The hiding chains of the paper: divisive meadows hide the inverse,
    # reduced divisive meadows hide further down to 1, - and /.
    table["md_d"] = hide("inv", combine(table["imd"], table["divdef"]))
    rd = hide("-/1", combine(hide("mul", table["md_d"]), table["subdef"]))
    table["md_rd"] = hide("zero", hide("add", rd))
    return table


def builtin(name: str) -> Presentation:
    """Look up a builtin presentation by name (see builtin_names)."""
    try:
        return _builtins()[name]
    except KeyError:
        raise ValueError(f"unknown presentation {name!r}") from None


def builtin_names() -> list[str]:
    return sorted(_builtins())


def combine(p: Presentation, q: Presentation) -> Presentation:
    """Union of signatures and axiom lists; hidden symbols stay hidden."""
    keys = dict(p.symbols)
    for key, sym in q.symbols:
        if key in keys and keys[key] != sym:
            raise ValueError(
                f"conflicting names for {key}: {keys[key]} vs {sym}"
            )
        keys[key] = sym
    by_display: dict[tuple[str, int], str] = {}
    for key, sym in keys.items():
        clash = by_display.get((sym.name, sym.arity))
        if clash is not None and clash != key:
            raise ValueError(
                f"arity clash: {sym} denotes both {clash} and {key}"
            )
        by_display[(sym.name, sym.arity)] = key
    hidden = p.hidden | q.hidden
    for key in sorted(hidden):
        if key in p.visible_keys or key in q.visible_keys:
            raise ValueError(f"symbol {key} is hidden in one operand, visible in the other")
    axioms = list(p.axioms)
    seen = {(e.lhs, e.rhs) for e in axioms}
    for eq in q.axioms:
        if (eq.lhs, eq.rhs) not in seen:
            seen.add((eq.lhs, eq.rhs))
            axioms.append(eq)
    return _make(f"combine({p.name},{q.name})", keys, set(hidden), axioms)


def _resolve(p: Presentation, symbol) -> str:
    """Map a Symbol, op key, or display name to the op key it denotes."""
    symbols = p.symbol_map
    if isinstance(symbol, Symbol):
        matches = [k for k, s in symbols.items() if s == symbol]
    elif symbol in symbols:
        return symbol
    else:
        name, _, arity = str(symbol).partition("/")
        matches = [
            k for k, s in symbols.items()
            if s.name == name and (not arity or s.arity == int(arity))
        ]
    if not matches:
        raise ValueError(f"no symbol {symbol!r} in presentation {p.name}")
    if len(matches) > 1:
        raise ValueError(
            f"symbol {symbol!r} is ambiguous in {p.name}; qualify as name/arity"
        )
    return matches[0]


def hide(symbol, p: Presentation) -> Presentation:
    """Move a visible symbol to the hidden signature; axioms are unchanged."""
    key = _resolve(p, symbol)
    if key in p.hidden:
        raise ValueError(f"symbol {symbol!r} is not visible in {p.name}")
    return p._replace(name=f"hide({p.symbol_map[key]},{p.name})", hidden=p.hidden | {key})


def export(symbols, p: Presentation) -> Presentation:
    """Restrict the visible signature to the given symbols, hiding the rest."""
    keep = {_resolve(p, s) for s in symbols}
    missing = keep - p.visible_keys
    if missing:
        raise ValueError(f"cannot export non-visible symbols: {sorted(missing)}")
    all_keys = {k for k, _ in p.symbols}
    return p._replace(name=f"export({p.name})", hidden=frozenset(all_keys - keep))


def rename(old, new_name: str, p: Presentation) -> Presentation:
    """Give one symbol a new display name; equations render with the new name."""
    key = _resolve(p, old)
    symbols = p.symbol_map
    arity = symbols[key].arity
    for other_key, sym in symbols.items():
        if other_key != key and sym.name == new_name and sym.arity == arity:
            raise ValueError(
                f"renaming collision: {new_name}/{arity} already denotes {other_key}"
            )
    symbols[key] = Symbol(new_name, arity)
    return _make(f"rename({p.name})", symbols, set(p.hidden), list(p.axioms))


def md_d() -> Presentation:
    """Divisive meadows as inversive meadows plus x/y = x*y^-1, inverse hidden."""
    return builtin("md_d")


def md_rd() -> Presentation:
    """Reduced divisive meadows via the four-step hiding chain down to 1, -, /."""
    return builtin("md_rd")


class ExpansionReport(NamedTuple):
    """Outcome of searching hidden-symbol tables that satisfy all axioms."""

    satisfiable: bool
    expansions: list[dict[str, object]]
    failure: str | None = None

    def __str__(self):
        if not self.satisfiable:
            return f"unsatisfiable: {self.failure}"
        return f"satisfiable with {len(self.expansions)} expansion(s)"


def _table(arity: int, size: int, entries: dict):
    """The table of arity on 0..size-1 holding entries[slot] at each slot, None elsewhere."""
    if arity == 0:
        return entries.get(())
    if arity == 1:
        return tuple([entries.get((x,)) for x in range(size)])
    return tuple([tuple([entries.get((x, y)) for y in range(size)]) for x in range(size)])


def _axiom_holds_everywhere(lines, tables: LineTables) -> bool:
    """Does the equation compiled into lines (by equation_lines) hold at
    every assignment under tables?  An assignment at which either side is
    undecided (the value tables.size) does not count against it."""
    undecided = tables.size
    for _, lhs, rhs in lines(tables):
        if any(x != y and x != undecided != y for x, y in zip(lhs, rhs)):
            return False
    return True


#: The most candidate expansions visible_models_check enumerates after pruning.
MAX_CANDIDATES = 1_000_000


def visible_models_check(
    p: Presentation,
    model: FiniteMeadow | dict[str, object],
    size: int | None = None,
) -> ExpansionReport:
    """Search for hidden-symbol tables making every axiom of p hold in model.

    The model interprets p's visible symbols (a FiniteMeadow is reduced to
    them automatically); hidden symbols get all possible tables, pruned
    slot by slot before the full product is enumerated, so the result is
    the complete list of valid expansions.  An empty hidden signature makes
    this a plain exhaustive axiom check.  Raises ValueError when a table
    entry is not a carrier element, and, before any axiom is evaluated,
    when the visible check and the pruning trials (one per value of each
    hidden table slot) together need more than exhaustive.MAX_ASSIGNMENTS
    assignments, and when more than MAX_CANDIDATES candidates are left.
    """
    if isinstance(model, FiniteMeadow):
        size, encoded = model.size, model.line_tables
        available = encoded.tables
    elif size is None:
        raise ValueError("size is required for table-dict models")
    else:
        encoded, available = None, model
    missing = sorted(k for k in p.visible_keys if k not in available)
    if missing:
        raise ValueError(f"model does not interpret visible symbols {missing}")
    reduct = {k: available[k] for k in p.visible_keys}

    hidden = sorted(p.hidden)
    trials = size * sum(size ** OP_ARITY[k] for k in hidden)
    equations = capped_equations("searching expansions of", p, size, trials)
    # Each axiom is compiled once; the tables come per call.  The reduct
    # is encoded once (a FiniteMeadow's once per model), and each trial
    # adds its hidden tables to it.  An axiom that reads no hidden table
    # has the same outcome in every trial and candidate as on the reduct,
    # so it is decided here, once; the search runs the lines of the other
    # axioms.
    keys = reduct.keys() | p.hidden
    visible = encode_tables(reduct, size) if encoded is None else encoded._replace(tables=reduct)
    searched = []
    for eq, names in equations:
        lines = equation_lines(eq.lhs, eq.rhs, names, keys)
        if _equation_ops(eq) & p.hidden:
            searched.append(lines)
        elif not _axiom_holds_everywhere(lines, visible):
            return ExpansionReport(False, [], failure=f"axiom {eq.name} fails on visible reduct")

    # Candidate values per hidden table slot, pruned by the axioms that can
    # already be falsified when only that slot is decided.
    slot_candidates: list[tuple[str, object, list[int]]] = []
    blanks = {k: _table(OP_ARITY[k], size, {}) for k in hidden}
    undecided = visible.with_tables(blanks, partial=True)
    for key in hidden:
        arity = OP_ARITY[key]
        for slot in iter_product(range(size), repeat=arity):
            survivors = []
            for value in range(size):
                trial = undecided.with_tables(
                    {key: _table(arity, size, {slot: value})}, partial=True)
                if all(_axiom_holds_everywhere(lines, trial) for lines in searched):
                    survivors.append(value)
            if not survivors:
                return ExpansionReport(
                    False, [],
                    failure=f"no value for {key}{slot} satisfies the axioms",
                )
            slot_candidates.append((key, slot, survivors))

    total = 1
    for _, _, survivors in slot_candidates:
        total *= len(survivors)
        if total > MAX_CANDIDATES:
            raise ValueError(
                f"expansion search space exceeds {MAX_CANDIDATES} candidates"
            )

    expansions = []
    for choice in iter_product(*(s for _, _, s in slot_candidates)):
        entries: dict[str, dict] = {k: {} for k in hidden}
        for (key, slot, _), value in zip(slot_candidates, choice):
            entries[key][slot] = value
        expansion = {key: _table(OP_ARITY[key], size, entries[key]) for key in hidden}
        candidate = visible.with_tables(expansion)
        if all(_axiom_holds_everywhere(lines, candidate) for lines in searched):
            expansions.append(expansion)
    if not expansions:
        return ExpansionReport(False, [], failure="no expansion satisfies all axioms")
    return ExpansionReport(True, expansions)


# A tiny expression language over presentations:
#   combine(A,B)  hide(sym,A)  export({sym,...},A)  rename(old:=new,A)
# with builtin presentation names as atoms.  A token is punctuation or a
# run of other non-space characters; a ':' not starting ':=' matches the
# second group, which is an error.
_MODULE_TOKEN = re.compile(r"\s*(?:(:=|[(){},]|[^\s(){},:]+)|(\S))")
_PUNCTUATION = frozenset(("(", ")", "{", "}", ",", ":="))

# What an operator reads after its name: a string is a token to expect,
# _SYMBOL one symbol, _SYMBOLS symbols up to a '}' (the commas between
# them optional) and _OPERAND a module expression.
_SYMBOL, _SYMBOLS, _OPERAND = range(3)
_MODULE_OPERATORS = {
    "combine": (combine, ("(", _OPERAND, ",", _OPERAND, ")")),
    "hide": (hide, ("(", _SYMBOL, ",", _OPERAND, ")")),
    "export": (export, ("(", "{", _SYMBOLS, "}", ",", _OPERAND, ")")),
    "rename": (rename, ("(", _SYMBOL, ":=", _SYMBOL, ",", _OPERAND, ")")),
}


def parse_module_expression(text: str) -> Presentation:
    found = _MODULE_TOKEN.findall(text.rstrip())
    for _, bad in found:
        if bad:
            raise ValueError(f"bad character {bad!r} in module expression")
    tokens = [token for token, _ in found]
    i = 0
    # Operators reading their arguments, innermost last, each as
    # [operation, shape, position in shape, arguments read].  The bottom
    # frame reads the whole expression as its one operand.
    stack: list[list] = [[None, (_OPERAND,), 0, []]]
    while True:
        frame = stack[-1]
        operation, shape, at, args = frame
        if at == len(shape):
            stack.pop()
            if not stack:
                if i != len(tokens):
                    raise ValueError(f"unexpected {tokens[i]!r} in module expression")
                return args[0]
            stack[-1][3].append(operation(*args))
            continue
        frame[2] += 1
        item = shape[at]
        if item == _OPERAND:
            head = _word(_token(tokens, i), "a module expression")
            i += 1
            if head in _MODULE_OPERATORS:
                stack.append([*_MODULE_OPERATORS[head], 0, []])
            else:
                args.append(builtin(head))
        elif item == _SYMBOL:
            args.append(_word(_token(tokens, i), "a symbol"))
            i += 1
        elif item == _SYMBOLS:
            args.append([])
            while _token(tokens, i) != "}":
                args[-1].append(_word(tokens[i], "a symbol"))
                i += 1
                if _token(tokens, i) == ",":
                    i += 1
        else:
            _expect(tokens, i, item)
            i += 1


def _word(token: str, want: str) -> str:
    """token, unless it is punctuation where want is expected."""
    if token in _PUNCTUATION:
        raise ValueError(f"expected {want}, found {token!r} in module expression")
    return token


def _expect(tokens: list[str], i: int, want: str) -> None:
    if i >= len(tokens) or tokens[i] != want:
        found = tokens[i] if i < len(tokens) else "end of input"
        raise ValueError(f"expected {want!r}, found {found!r} in module expression")


def _token(tokens: list[str], i: int) -> str:
    if i >= len(tokens):
        raise ValueError("unexpected end of module expression")
    return tokens[i]
