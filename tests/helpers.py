"""Shared test utilities: generators and independent oracles.

The evaluator here is deliberately a second implementation (structural
pattern matching over the node classes) so that value comparisons in
the tests are a genuine dual route, not the library checking itself.
"""

from __future__ import annotations

import random
from fractions import Fraction

from meadows.logic3 import And, Eq, Exists, Forall, Implies, Not, Or
from meadows.normalize import ZERO_NF, _QUOTIENT, _quotients, _sides_differ
from meadows.parsing import ParseError, render
from meadows.presentations import (
    Equation, Presentation, Symbol, builtin, combine, export, hide, rename,
)
from meadows.terms import (
    Add, Div, Inv, Mul, Neg, One, Sub, Term, Var, Zero, ONE, ZERO,
    Signature, fold,
)

VARS = ("x", "y", "z")


def oracle_eval(t: Term, a: dict | None = None) -> Fraction:
    """Independent zero-totalized rational evaluation."""
    a = a or {}
    match t:
        case Zero():
            return Fraction(0)
        case One():
            return Fraction(1)
        case Var(name=name):
            return Fraction(a[name])
        case Add(left=l, right=r):
            return oracle_eval(l, a) + oracle_eval(r, a)
        case Mul(left=l, right=r):
            return oracle_eval(l, a) * oracle_eval(r, a)
        case Sub(left=l, right=r):
            return oracle_eval(l, a) - oracle_eval(r, a)
        case Neg(arg=arg):
            return -oracle_eval(arg, a)
        case Inv(arg=arg):
            v = oracle_eval(arg, a)
            return Fraction(0) if v == 0 else Fraction(1) / v
        case Div(num=num, den=den):
            d = oracle_eval(den, a)
            return Fraction(0) if d == 0 else oracle_eval(num, a) / d
    raise TypeError(f"unknown node {t!r}")


def random_rational(rng: random.Random, nonneg: bool = False) -> Fraction:
    """Random rational with the singular points 0, 1, -1 at probability 1/8 each."""
    roll = rng.random()
    if roll < 1 / 8:
        return Fraction(0)
    if roll < 2 / 8:
        return Fraction(1)
    if roll < 3 / 8:
        return Fraction(1) if nonneg else Fraction(-1)
    num = rng.randint(1 if nonneg else -24, 24)
    return Fraction(num, rng.randint(1, 12))


def random_assignment(
    rng: random.Random, names, nonneg: bool = False
) -> dict[str, Fraction]:
    return {name: random_rational(rng, nonneg) for name in names}


def positive_assignment(rng: random.Random, names) -> dict[str, Fraction]:
    return {
        name: Fraction(rng.randint(1, 24), rng.randint(1, 12)) for name in names
    }


_LEAVES = {
    Signature.CR: ("zero", "one", "var"),
    Signature.IMD: ("zero", "one", "var"),
    Signature.DMD: ("zero", "one", "var"),
    Signature.IAMD: ("one", "var"),
    Signature.DAMD: ("one", "var"),
    Signature.IAMDZ: ("zero", "one", "var"),
    Signature.DAMDZ: ("zero", "one", "var"),
    Signature.RD: ("one", "var"),
}

_BRANCHES = {
    Signature.CR: ("add", "mul", "neg"),
    Signature.IMD: ("add", "mul", "neg", "inv"),
    Signature.DMD: ("add", "mul", "neg", "div"),
    Signature.IAMD: ("add", "mul", "inv"),
    Signature.DAMD: ("add", "mul", "div"),
    Signature.IAMDZ: ("add", "mul", "inv"),
    Signature.DAMDZ: ("add", "mul", "div"),
    Signature.RD: ("sub", "div"),
}


def random_term(
    rng: random.Random,
    sig: Signature,
    max_depth: int = 5,
    variables=VARS,
    leaf_bias: float = 0.3,
) -> Term:
    """Random term conforming to sig, at most max_depth constructors deep."""
    leaves = _LEAVES[sig] if variables else tuple(
        k for k in _LEAVES[sig] if k != "var"
    )
    if max_depth <= 0 or rng.random() < leaf_bias:
        kind = rng.choice(leaves)
        if kind == "zero":
            return Zero()
        if kind == "one":
            return One()
        return Var(rng.choice(variables))
    kind = rng.choice(_BRANCHES[sig])
    sub = lambda: random_term(rng, sig, max_depth - 1, variables, leaf_bias)
    if kind == "add":
        return Add(sub(), sub())
    if kind == "mul":
        return Mul(sub(), sub())
    if kind == "sub":
        return Sub(sub(), sub())
    if kind == "neg":
        return Neg(sub())
    if kind == "inv":
        return Inv(sub())
    return Div(sub(), sub())


def equivalent_variant(rng: random.Random, t: Term, moves: int = 4) -> Term:
    """Rewrite t by equalities valid in the arithmetical meadows.

    Commutes, reassociates, distributes, cancels double inverses, and
    multiplies by x * x^-1; the result is provably equal to t, which a
    sound decision procedure must confirm.
    """
    for _ in range(moves):
        t = _rewrite(rng, t)
    return t


def _rewrite(rng: random.Random, t: Term) -> Term:
    choice = rng.random()
    if isinstance(t, (Add, Mul)):
        kind = type(t)
        if choice < 0.25:
            return kind(t.right, t.left)
        if choice < 0.4 and isinstance(t.left, kind):
            return kind(t.left.left, kind(t.left.right, t.right))
        if choice < 0.55 and isinstance(t.right, kind):
            return kind(kind(t.left, t.right.left), t.right.right)
        if (
            choice < 0.65
            and isinstance(t, Mul)
            and isinstance(t.right, Add)
        ):
            return Add(Mul(t.left, t.right.left), Mul(t.left, t.right.right))
        return kind(_rewrite(rng, t.left), _rewrite(rng, t.right))
    if isinstance(t, Inv):
        if choice < 0.2:
            return Inv(Inv(Inv(t.arg)))
        return Inv(_rewrite(rng, t.arg))
    if choice < 0.15:
        v = Var(rng.choice(VARS))
        return Mul(t, Mul(v, Inv(v)))
    if choice < 0.25:
        return Inv(Inv(t))
    return t


def shapes_presentation() -> Presentation:
    """Equations over every operator whose sides take each shape the line
    evaluator distinguishes: closed, the last variable (z, or y when z is
    absent) on one side only, an operand before it (z * x), it squared, and
    sub and div, which a finite model tabulates from its own tables as
    x + -y and x * y^-1."""
    x, y, z = Var("x"), Var("y"), Var("z")
    symbols = {
        "zero": Symbol("0", 0), "one": Symbol("1", 0),
        "add": Symbol("+", 2), "mul": Symbol("*", 2), "neg": Symbol("-", 1),
        "inv": Symbol("^-1", 1), "div": Symbol("/", 2), "sub": Symbol("-", 2),
    }
    axioms = (
        Equation("closed", Div(ONE, Add(ONE, Mul(ONE, ONE))), Inv(Sub(ZERO, Neg(ONE)))),
        Equation("last_left_only", Add(Mul(x, y), Neg(z)), Mul(y, x)),
        Equation("last_right_only", Inv(x), Sub(Add(y, ONE), x)),
        Equation("operand_first", Add(z, x), Sub(Mul(z, y), Add(x, y))),
        Equation("squared", Mul(z, z), Add(Mul(Inv(z), x), z)),
        Equation("derived", Sub(x, Div(y, z)), Div(Sub(z, x), Neg(y))),
        Equation("lines", Mul(Add(Inv(y), y), Neg(Div(y, x))), Add(Add(x, y), Inv(Mul(y, y)))),
    )
    return Presentation("shapes", tuple(sorted(symbols.items())), frozenset(), axioms)


# ---------------------------------------------------------------------------
# Printing: a reference printer, plain recursion over children that walks
# numerals and their reduced divisive images node by node (small depth only).

_ORACLE_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Inv: 4}
_ORACLE_SYMBOL = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_ORACLE_HEAD = {Add: "+", Sub: "sub", Mul: "*", Div: "/", Neg: "neg", Inv: "inv"}


def oracle_render(t: Term, style: str = "infix", numerals: bool = False) -> str:
    """render(t, style, numerals) for style "infix" or "sexpr", and repr(t)
    for style "repr" (which also prints formulas)."""
    if style == "repr":
        if type(t) is Var:
            return f"Var({t.name!r})"
        return f"{type(t).__name__}({', '.join(oracle_render(k, 'repr') for k in t.children)})"
    if style == "sexpr":
        if not t.children:
            return _oracle_infix(t, False)[0]
        kids = " ".join(oracle_render(k, "sexpr") for k in t.children)
        return f"({_ORACLE_HEAD[type(t)]} {kids})"
    return _oracle_infix(t, numerals)[0]


def _oracle_natural(t: Term) -> int | None:
    """k when t is (...(1 + 1) + ...) + 1 with k ones, k >= 2, else None."""
    k = 1
    while type(t) is Add and type(t.right) is One:
        t, k = t.left, k + 1
    return k if k > 1 and type(t) is One else None


def _oracle_infix(t: Term, numerals: bool) -> tuple[str, int]:
    """(text, precedence) of t in minimally parenthesised infix."""
    match t:
        case Zero():
            return "0", 5
        case One():
            return "1", 5
        case Var(name=name):
            return name, 5
        case Neg(arg=arg):
            return "-" + _oracle_operand(arg, 3, numerals), 3
        case Inv(arg=arg):
            return _oracle_operand(arg, 5, numerals) + "^-1", 4
    if numerals and _oracle_natural(t):
        return str(_oracle_natural(t)), 5
    left, right = t.children
    prec = _ORACLE_PREC[type(t)]
    text = (f"{_oracle_operand(left, prec, numerals)} {_ORACLE_SYMBOL[type(t)]} "
            f"{_oracle_operand(right, prec + 1, numerals)}")
    return text, prec


def _oracle_operand(t: Term, least: int, numerals: bool) -> str:
    """t's text, parenthesised unless it binds at least as tightly as least."""
    text, prec = _oracle_infix(t, numerals)
    return text if prec >= least else f"({text})"


# ---------------------------------------------------------------------------
# Formulas: a printer that parse_formula reads back, and a reference
# evaluator written from the truth tables, independent of logic3.


def formula_text(f) -> str:
    """Text that parse_formula reads back as f: a connective's or negation's
    operand is parenthesised unless it is an atom, and a quantifier's body
    runs to the end of the text it is in."""
    match f:
        case Eq(lhs=lhs, rhs=rhs):
            return f"{render(lhs)} = {render(rhs)}"
        case Not(body=body):
            return "~" + _operand_text(body)
        case Forall(var=var, body=body):
            return f"forall {var}. {formula_text(body)}"
        case Exists(var=var, body=body):
            return f"exists {var}. {formula_text(body)}"
        case And(left=left, right=right):
            return f"{_operand_text(left)} & {_operand_text(right)}"
        case Or(left=left, right=right):
            return f"{_operand_text(left)} | {_operand_text(right)}"
        case Implies(left=left, right=right):
            return f"{_operand_text(left)} -> {_operand_text(right)}"
    raise TypeError(f"not a formula: {f!r}")


def _operand_text(f) -> str:
    return formula_text(f) if isinstance(f, Eq) else f"({formula_text(f)})"


_ORACLE_TERM_OPS = ("^", "+", "-", "*", "/", "(", ")")
_ORACLE_FORMULA_OPS = ("->", "!=", "=", "~", "&", "|", ".")


def oracle_tokenize(text: str, formula_ops: bool = False) -> list[tuple[str, int]]:
    """An independent scanner, one character at a time: (token, position)
    pairs ending with ("", len(text)); ParseError at the first character
    that starts no token."""
    ops = (_ORACLE_FORMULA_OPS + _ORACLE_TERM_OPS) if formula_ops else _ORACLE_TERM_OPS
    tokens: list[tuple[str, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        j = i
        if "0" <= c <= "9":
            while j < n and "0" <= text[j] <= "9":
                j += 1
        elif "a" <= c <= "z":
            while j < n and ("a" <= text[j] <= "z" or "0" <= text[j] <= "9"
                             or text[j] == "_"):
                j += 1
        else:
            op = next((op for op in ops if text.startswith(op, i)), None)
            if op is None:
                raise ParseError(f"unexpected character {c!r}", i)
            j = i + len(op)
        tokens.append((text[i:j], i))
        i = j
    tokens.append(("", n))
    return tokens


def oracle_punched(t: Term, variant: str, modulus: int | None = None, a: dict | None = None):
    """Value of t in the punched rationals (modulus None) or the punched
    Z_modulus of a prime modulus, or None where t is undefined.

    variant is "inv0" (0^-1 undefined), "div0" (q/0 undefined) or
    "div0lib" (q/0 undefined for q != 0, and 0/0 = 0); an undefined
    subterm leaves the whole term undefined."""
    a = a or {}
    number = Fraction if modulus is None else int
    reduce = (lambda v: v) if modulus is None else (lambda v: v % modulus)

    def inverse(v):
        return 1 / v if modulus is None else pow(v, -1, modulus)

    def value(t):
        match t:
            case Zero():
                return number(0)
            case One():
                return number(1)
            case Var(name=name):
                return reduce(number(a[name]))
        parts = [value(kid) for kid in t.children]
        if None in parts:
            return None
        match t:
            case Add():
                return reduce(parts[0] + parts[1])
            case Mul():
                return reduce(parts[0] * parts[1])
            case Neg():
                return reduce(-parts[0])
            case Inv():
                return None if parts[0] == 0 else inverse(parts[0])
            case Div():
                num, den = parts
                if den != 0:
                    return reduce(num * inverse(den))
                return 0 if variant == "div0lib" and num == 0 else None
        raise TypeError(f"unexpected node {t!r}")

    return value(t)


# Truth tables, one string per left operand T, F, U, one letter per right
# operand T, F, U.
_AND = {
    "bochvar": ("TFU", "FFU", "UUU"),
    "mccarthy": ("TFU", "FFF", "UUU"),
    "mccarthy-rev": ("TFU", "FFU", "UFU"),
    "kleene": ("TFU", "FFF", "UFU"),
}
_OR = {
    "bochvar": ("TTU", "TFU", "UUU"),
    "mccarthy": ("TTT", "TFU", "UUU"),
    "mccarthy-rev": ("TTU", "TFU", "TUU"),
    "kleene": ("TTT", "TFU", "TUU"),
}
_NEGATION = {"T": "F", "F": "T", "U": "U"}


def oracle_truth(f, eq: str, conn: str, quant: str, domain, variant: str,
                 modulus: int | None = None, a: dict | None = None) -> str:
    """Reference truth value, "T", "F" or "U", of formula f.

    eq, conn and quant name the equality mode, connective suite and
    quantifier suite by their CLI values; quantifiers range over domain."""
    a = a or {}

    def truth(f, a):
        match f:
            case Eq(lhs=lhs, rhs=rhs):
                left = oracle_punched(lhs, variant, modulus, a)
                right = oracle_punched(rhs, variant, modulus, a)
                if left is not None and right is not None:
                    return "T" if left == right else "F"
                if eq == "strong":
                    return "T" if left is None and right is None else "F"
                return "U" if eq == "weak" else "F"
            case Not(body=body):
                return _NEGATION[truth(body, a)]
            case And(left=left, right=right):
                return _AND[conn]["TFU".index(truth(left, a))]["TFU".index(truth(right, a))]
            case Or(left=left, right=right):
                return _OR[conn]["TFU".index(truth(left, a))]["TFU".index(truth(right, a))]
            case Implies(left=left, right=right):
                premise = _NEGATION[truth(left, a)]
                return _OR[conn]["TFU".index(premise)]["TFU".index(truth(right, a))]
        instances = {truth(f.body, {**a, f.var: d}) for d in domain}
        return oracle_quantifier(isinstance(f, Forall), quant, instances)

    return truth(f, a)


def oracle_quantifier(forall: bool, quant: str, instances: set[str]) -> str:
    """Reference value of a quantifier over a nonempty domain whose instances
    take the truth values in instances."""
    # Bochvar: an undefined instance makes the quantifier undefined.
    # Kleene: one F instance decides forall, one T instance decides exists.
    if forall:
        if quant == "bochvar":
            return "U" if "U" in instances else ("T" if instances == {"T"} else "F")
        return "F" if "F" in instances else ("U" if "U" in instances else "T")
    if quant == "bochvar":
        return "U" if "U" in instances else ("T" if "T" in instances else "F")
    return "T" if "T" in instances else ("U" if "U" in instances else "F")


# ---------------------------------------------------------------------------
# Module expressions: a reference reader with a character-loop lexer and
# one hand-written branch per operator.  It takes a punctuation token where
# a name or symbol is expected, so it reads some texts the library refuses.


def oracle_parse_module_expression(text: str) -> Presentation:
    tokens = _oracle_lex_module_expr(text)
    i = 0
    # Operations waiting for their last operand: (operation, earlier operands).
    # A combine waits for its left operand as (None, ()).
    pending: list[tuple] = []
    while True:
        head = _oracle_token(tokens, i)
        if head in ("combine", "hide", "export", "rename"):
            _oracle_expect(tokens, i + 1, "(")
        if head == "combine":
            pending.append((None, ()))
            i += 2
        elif head == "hide":
            pending.append((hide, (_oracle_token(tokens, i + 2),)))
            _oracle_expect(tokens, i + 3, ",")
            i += 4
        elif head == "export":
            _oracle_expect(tokens, i + 2, "{")
            syms = []
            i += 3
            while _oracle_token(tokens, i) != "}":
                syms.append(tokens[i])
                i += 1
                if _oracle_token(tokens, i) == ",":
                    i += 1
            _oracle_expect(tokens, i + 1, ",")
            pending.append((export, (syms,)))
            i += 2
        elif head == "rename":
            old = _oracle_token(tokens, i + 2)
            _oracle_expect(tokens, i + 3, ":=")
            pending.append((rename, (old, _oracle_token(tokens, i + 4))))
            _oracle_expect(tokens, i + 5, ",")
            i += 6
        else:
            expr = builtin(head)
            i += 1
            # Apply the operations this operand completes, up to a combine
            # that now waits for its right operand.
            while pending and pending[-1][0] is not None:
                operation, operands = pending.pop()
                _oracle_expect(tokens, i, ")")
                expr = operation(*operands, expr)
                i += 1
            if not pending:
                if i != len(tokens):
                    raise ValueError(f"unexpected {tokens[i]!r} in module expression")
                return expr
            _oracle_expect(tokens, i, ",")
            pending[-1] = (combine, (expr,))
            i += 1


def _oracle_lex_module_expr(text: str) -> list[str]:
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


def _oracle_expect(tokens: list[str], i: int, want: str) -> None:
    if i >= len(tokens) or tokens[i] != want:
        found = tokens[i] if i < len(tokens) else "end of input"
        raise ValueError(f"expected {want!r}, found {found!r} in module expression")


def _oracle_token(tokens: list[str], i: int) -> str:
    if i >= len(tokens):
        raise ValueError("unexpected end of module expression")
    return tokens[i]


def oracle_gil_walk(t: Term, u: Term, gil: bool):
    """normalize._walk as a breadth-first walk over every zero set reached
    by adding, one at a time, a variable under an inverse that the pair
    keeps; the first zero set at which the sides differ is its reason.
    Returns what normalize._walk returns: None or the sorted names of that
    zero set, and the two sides there (with nothing zeroed when equal)."""
    bits: dict[str, int] = {}
    algebra = _quotients(bits)
    base: dict = {}
    left, right = fold(t, algebra, base), fold(u, algebra, base)
    memo: dict = {}  # (node, zero set & mask) -> side
    queue, seen = [0], {0}
    for zs in queue:  # grows while it is walked
        if zs:
            for node, mask in live:  # in post-order
                sub = zs & mask
                if sub and (node, sub) not in memo:
                    memo[node, sub] = ZERO_NF if type(node) is Var else _QUOTIENT[type(node)](
                        node, *[memo[kid, s] if (s := zs & masks[kid]) else base[kid]
                                for kid in node.children])
            left = memo[t, s] if (s := zs & masks[t]) else base[t]
            right = memo[u, s] if (s := zs & masks[u]) else base[u]
        if _sides_differ(left, right):
            return sorted(name for name, bit in bits.items() if zs & bit), left, right
        if left is ZERO_NF or not gil:
            continue
        if not zs:
            under_inv = 0
            for node, side in base.items():
                if type(node) is Inv and side is not ZERO_NF:
                    under_inv |= side[2]
            masks = {node: 0 if side is ZERO_NF else side[2] & under_inv
                     for node, side in base.items()}
            live = [(node, mask) for node, mask in masks.items() if mask]
        free = (left[2] | right[2]) & under_inv
        while free:
            bit = free & -free
            free ^= bit
            if zs | bit not in seen:
                seen.add(zs | bit)
                queue.append(zs | bit)
    return None, base[t], base[u]
