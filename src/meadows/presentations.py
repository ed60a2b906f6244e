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

from dataclasses import dataclass
from itertools import product as iter_product

from .parsing import parse_term
from .terms import (
    Add, Neg, Sub, Term, Var,
    Signature, constructors, free_vars,
)
from .semantics import OP_KEY, FiniteMeadow, equation_lines

__all__ = [
    "Symbol", "Equation", "Presentation",
    "builtin", "builtin_names", "combine", "hide", "export", "rename",
    "ExpansionReport", "visible_models_check",
    "md_d", "md_rd", "parse_module_expression",
]


OP_ARITY = {
    "zero": 0, "one": 0, "add": 2, "mul": 2,
    "neg": 1, "inv": 1, "div": 2, "sub": 2,
}

DEFAULT_SYMBOLS = {
    "zero": ("0", 0),
    "one": ("1", 0),
    "add": ("+", 2),
    "mul": ("*", 2),
    "neg": ("-", 1),
    "inv": ("^-1", 1),
    "div": ("/", 2),
    "sub": ("-", 2),
}


@dataclass(frozen=True)
class Symbol:
    name: str
    arity: int

    def __str__(self):
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True)
class Equation:
    name: str
    lhs: Term
    rhs: Term


def _equation_ops(eq: Equation) -> frozenset[str]:
    """The operator keys occurring in either side of eq."""
    used = constructors(eq.lhs) | constructors(eq.rhs)
    return frozenset(OP_KEY[c] for c in used if c in OP_KEY)


@dataclass(frozen=True)
class Presentation:
    name: str
    symbols: tuple[tuple[str, Symbol], ...]   # (op key, display symbol), key-sorted
    hidden: frozenset[str]                    # op keys currently hidden
    axioms: tuple[Equation, ...]

    def __post_init__(self):
        keys = {k for k, _ in self.symbols}
        for key, sym in self.symbols:
            if OP_ARITY[key] != sym.arity:
                raise ValueError(f"symbol {sym} has wrong arity for {key}")
        if not self.hidden <= keys:
            raise ValueError("hidden symbols not in signature")
        for eq in self.axioms:
            used = _equation_ops(eq)
            if not used <= keys:
                raise ValueError(
                    f"axiom {eq.name} uses symbols outside the signature: "
                    f"{sorted(used - keys)}"
                )

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
    return {k: Symbol(*DEFAULT_SYMBOLS[k]) for k in keys}


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


def _builtins() -> dict[str, Presentation]:
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
    return table


_BUILTINS: dict[str, Presentation] | None = None


def builtin(name: str) -> Presentation:
    """Look up a builtin presentation by name (see builtin_names)."""
    global _BUILTINS
    if _BUILTINS is None:
        _BUILTINS = _builtins()
        _BUILTINS["md_d"] = _md_d(_BUILTINS)
        _BUILTINS["md_rd"] = _md_rd(_BUILTINS)
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown presentation {name!r}") from None


def builtin_names() -> list[str]:
    builtin("cr")
    assert _BUILTINS is not None
    return sorted(_BUILTINS)


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
    for key in hidden:
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
    return Presentation(
        name=f"hide({p.symbol_map[key]},{p.name})",
        symbols=p.symbols,
        hidden=p.hidden | {key},
        axioms=p.axioms,
    )


def export(symbols, p: Presentation) -> Presentation:
    """Restrict the visible signature to the given symbols, hiding the rest."""
    keep = {_resolve(p, s) for s in symbols}
    missing = keep - p.visible_keys
    if missing:
        raise ValueError(f"cannot export non-visible symbols: {sorted(missing)}")
    all_keys = {k for k, _ in p.symbols}
    return Presentation(
        name=f"export({p.name})",
        symbols=p.symbols,
        hidden=frozenset(all_keys - keep),
        axioms=p.axioms,
    )


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


def _md_d(table: dict[str, Presentation]) -> Presentation:
    return hide("inv", combine(table["imd"], table["divdef"]))


def _md_rd(table: dict[str, Presentation]) -> Presentation:
    rd1 = hide("mul", _md_d(table))
    rd2 = hide("-/1", combine(rd1, table["subdef"]))
    rd3 = hide("add", rd2)
    return hide("zero", rd3)


@dataclass
class ExpansionReport:
    """Outcome of searching hidden-symbol tables that satisfy all axioms."""

    satisfiable: bool
    expansions: list[dict[str, object]]
    failure: str | None = None

    def __str__(self):
        if not self.satisfiable:
            return f"unsatisfiable: {self.failure}"
        return f"satisfiable with {len(self.expansions)} expansion(s)"


def _blank_table(arity: int, size: int):
    if arity == 0:
        return None
    if arity == 1:
        return [None] * size
    return [[None] * size for _ in range(size)]


def _set_slot(table, arity: int, slot, value):
    if arity == 0:
        return value
    if arity == 1:
        table = list(table)
        table[slot[0]] = value
        return table
    table = [list(row) for row in table]
    table[slot[0]][slot[1]] = value
    return table


def _freeze_table(table, arity: int):
    if arity == 0:
        return table
    if arity == 1:
        return tuple(table)
    return tuple(tuple(row) for row in table)


def _axiom_holds_everywhere(lines, tables) -> bool:
    """Does the equation compiled into lines (by equation_lines) hold at
    every assignment under tables?  An assignment at which either side is
    undecided (None) does not count against it."""
    for _, lhs, rhs in lines(tables):
        if lhs != rhs and any(
            x is not None and y is not None and x != y for x, y in zip(lhs, rhs)
        ):
            return False
    return True


def visible_models_check(
    p: Presentation,
    model: FiniteMeadow | dict[str, object],
    size: int | None = None,
    max_candidates: int = 1_000_000,
) -> ExpansionReport:
    """Search for hidden-symbol tables making every axiom of p hold in model.

    The model interprets p's visible symbols (a FiniteMeadow is reduced to
    them automatically); hidden symbols get all possible tables, pruned
    slot by slot before the full product is enumerated, so the result is
    the complete list of valid expansions.  An empty hidden signature makes
    this a plain exhaustive axiom check.
    """
    if isinstance(model, FiniteMeadow):
        size = model.size
        available = model.ops()
    else:
        if size is None:
            raise ValueError("size is required for table-dict models")
        available = dict(model)
    missing = [k for k in p.visible_keys if k not in available]
    if missing:
        raise ValueError(f"model does not interpret visible symbols {missing}")
    reduct = {k: available[k] for k in p.visible_keys}

    hidden = sorted(p.hidden)
    # Each axiom is compiled once, in partial mode, which is exact on
    # tables without undecided entries too; the tables come per call.
    keys = reduct.keys() | p.hidden
    lines = {
        eq: equation_lines(eq.lhs, eq.rhs, sorted(free_vars(eq.lhs) | free_vars(eq.rhs)),
                           size, keys, partial=True)
        for eq in p.axioms
    }
    visible_only = [
        eq for eq in p.axioms
        if not _equation_ops(eq) & set(hidden)
    ]
    for eq in visible_only:
        if not _axiom_holds_everywhere(lines[eq], reduct):
            return ExpansionReport(False, [], failure=f"axiom {eq.name} fails on visible reduct")

    # Candidate values per hidden table slot, pruned by the axioms that can
    # already be falsified when only that slot is decided.
    slot_candidates: list[tuple[str, object, list[int]]] = []
    blanks = {k: _blank_table(OP_ARITY[k], size) for k in hidden}
    slots_of = {
        0: [()],
        1: [(i,) for i in range(size)],
        2: [(i, j) for i in range(size) for j in range(size)],
    }
    for key in hidden:
        arity = OP_ARITY[key]
        for slot in slots_of[arity]:
            survivors = []
            for value in range(size):
                trial = dict(reduct)
                for other in hidden:
                    trial[other] = blanks[other]
                trial[key] = _set_slot(blanks[key], arity, slot, value)
                ok = all(_axiom_holds_everywhere(lines[eq], trial) for eq in p.axioms)
                if ok:
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
        if total > max_candidates:
            raise ValueError(
                f"expansion search space exceeds {max_candidates} candidates"
            )

    expansions = []
    for choice in iter_product(*(s for _, _, s in slot_candidates)):
        tables = {k: _blank_table(OP_ARITY[k], size) for k in hidden}
        for (key, slot, _), value in zip(slot_candidates, choice):
            tables[key] = _set_slot(tables[key], OP_ARITY[key], slot, value)
        ops = dict(reduct)
        for key in hidden:
            ops[key] = _freeze_table(tables[key], OP_ARITY[key])
        if all(_axiom_holds_everywhere(lines[eq], ops) for eq in p.axioms):
            expansions.append({k: ops[k] for k in hidden})
    if not expansions:
        return ExpansionReport(False, [], failure="no expansion satisfies all axioms")
    return ExpansionReport(True, expansions)


# A tiny expression language over presentations:
#   combine(A,B)  hide(sym,A)  export({sym,...},A)  rename(old:=new,A)
# with builtin presentation names as atoms.

def parse_module_expression(text: str) -> Presentation:
    tokens = _lex_module_expr(text)
    i = 0
    # Operations waiting for their last operand: (operation, earlier operands).
    # A combine waits for its left operand as (None, ()).
    pending: list[tuple] = []
    while True:
        head = _token(tokens, i)
        if head in ("combine", "hide", "export", "rename"):
            _expect(tokens, i + 1, "(")
        if head == "combine":
            pending.append((None, ()))
            i += 2
        elif head == "hide":
            pending.append((hide, (_token(tokens, i + 2),)))
            _expect(tokens, i + 3, ",")
            i += 4
        elif head == "export":
            _expect(tokens, i + 2, "{")
            syms = []
            i += 3
            while _token(tokens, i) != "}":
                syms.append(tokens[i])
                i += 1
                if _token(tokens, i) == ",":
                    i += 1
            _expect(tokens, i + 1, ",")
            pending.append((export, (syms,)))
            i += 2
        elif head == "rename":
            old = _token(tokens, i + 2)
            _expect(tokens, i + 3, ":=")
            pending.append((rename, (old, _token(tokens, i + 4))))
            _expect(tokens, i + 5, ",")
            i += 6
        else:
            expr = builtin(head)
            i += 1
            # Apply the operations this operand completes, up to a combine
            # that now waits for its right operand.
            while pending and pending[-1][0] is not None:
                operation, operands = pending.pop()
                _expect(tokens, i, ")")
                expr = operation(*operands, expr)
                i += 1
            if not pending:
                if i != len(tokens):
                    raise ValueError(f"unexpected {tokens[i]!r} in module expression")
                return expr
            _expect(tokens, i, ",")
            pending[-1] = (combine, (expr,))
            i += 1


def _lex_module_expr(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "(){},":
            tokens.append(c)
            i += 1
        elif text.startswith(":=", i):
            tokens.append(":=")
            i += 2
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "(){},:":
                j += 1
            if j == i:
                raise ValueError(f"bad character {c!r} in module expression")
            tokens.append(text[i:j])
            i = j
    return tokens


def _expect(tokens: list[str], i: int, want: str) -> None:
    if i >= len(tokens) or tokens[i] != want:
        found = tokens[i] if i < len(tokens) else "end of input"
        raise ValueError(f"expected {want!r}, found {found!r} in module expression")


def _token(tokens: list[str], i: int) -> str:
    if i >= len(tokens):
        raise ValueError("unexpected end of module expression")
    return tokens[i]
