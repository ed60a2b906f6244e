"""Parsing and printing of meadow terms.

Grammar (ASCII):

    term    :=  sum
    sum     :=  product (('+' | '-') product)*      left associative
    product :=  unary (('*' | '/') unary)*          left associative
    unary   :=  '-' unary | postfix
    postfix :=  atom ('^-1')*
    atom    :=  '0' | '1' | <natural> | <ident> | 'inv' '(' term ')'
            |   '(' term ')'

Identifiers match [a-z][a-z0-9_]*.  Natural-number literals are sugar
for the canonical numeral terms, and `p - q` is sugar for `p + (-q)`
except under the reduced divisive signature, where '-' is a primitive
binary constructor.  Infix rendering inserts the minimal parentheses
needed to reparse to a structurally equal term.
"""

from __future__ import annotations

from .terms import (
    CONSTRUCTORS, Add, Div, Inv, Mul, Neg, One, Sub, Term, Var, Zero,
    Signature, _join, check_conforms, fold, numeral,
)

__all__ = ["ParseError", "Token", "tokenize", "parse_term", "parse_term_prefix", "render"]

# Multi-character operators first so the scanner prefers them.
_FORMULA_OPS = ("->", "!=", "=", "~", "&", "|", ".")
_TERM_OPS = ("^", "+", "-", "*", "/", "(", ")")


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind      # "nat" | "ident" | "op" | "end"
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.pos})"


def tokenize(text: str, formula_ops: bool = False) -> list[Token]:
    """Scan text into tokens; formula_ops additionally admits the logic symbols."""
    ops = (_FORMULA_OPS + _TERM_OPS) if formula_ops else _TERM_OPS
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if "0" <= c <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(Token("nat", text[i:j], i))
            i = j
            continue
        if "a" <= c <= "z":
            j = i
            while j < n and ("a" <= text[j] <= "z" or "0" <= text[j] <= "9"
                             or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], i))
            i = j
            continue
        for op in ops:
            if text.startswith(op, i):
                tokens.append(Token("op", op, i))
                i += len(op)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(Token("end", "", n))
    return tokens


# Precedence levels, used both for parsing and for minimal-parenthesis
# rendering.  Prefix minus binds tighter than the binary operators and
# looser than a postfix inverse.
_SUM, _PRODUCT, _UNARY, _POSTFIX, _ATOM = 1, 2, 3, 4, 5
_BINDING = {"+": _SUM, "-": _SUM, "*": _PRODUCT, "/": _PRODUCT, "neg": _UNARY}
_CONSTRUCTOR = {"+": Add, "*": Mul, "/": Div}


def _reduce(vals: list[Term], ops: list[str], binding: int, sig: Signature | None) -> None:
    """Apply the pending operators that bind at least as tightly as binding."""
    while ops and _BINDING.get(ops[-1], 0) >= binding:
        op = ops.pop()
        if op == "neg":
            vals.append(Neg(vals.pop()))
            continue
        rhs = vals.pop()
        lhs = vals.pop()
        if op in _CONSTRUCTOR:
            vals.append(_CONSTRUCTOR[op](lhs, rhs))
        elif sig is Signature.RD:
            vals.append(Sub(lhs, rhs))
        else:
            vals.append(Add(lhs, Neg(rhs)))


def _is_op(tok: Token, text: str) -> bool:
    return tok.kind == "op" and tok.text == text


def parse_term_prefix(
    tokens: list[Token], start: int, sig: Signature | None
) -> tuple[Term, int]:
    """Parse a term starting at token index start; return (term, next index).

    Signature conformance is checked on the result; sig=None skips the
    check and admits every symbol, with '-' still desugaring to + and
    unary minus.  Used directly by the formula parser, which interleaves
    terms with logic symbols.  The parser keeps its own operator stack,
    so nesting depth is not bounded by recursion.
    """
    i = start
    vals: list[Term] = []
    ops: list[str] = []   # pending "+", "-", "*", "/", "neg", and open "(" groups
    open_groups = 0
    while True:
        # An operand is expected: prefix minus, an opening group, or an atom.
        tok = tokens[i]
        if _is_op(tok, "-"):
            ops.append("neg")
            i += 1
            continue
        if _is_op(tok, "(") or (tok.text == "inv" and tok.kind == "ident"
                                and _is_op(tokens[i + 1], "(")):
            ops.append(tok.text)
            open_groups += 1
            i += 1 if tok.text == "(" else 2
            continue
        if tok.kind == "nat":
            vals.append(numeral(int(tok.text)))
        elif tok.kind == "ident":
            vals.append(Var(tok.text))
        else:
            raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}", tok.pos)
        i += 1
        # An operator is expected: postfix inverses and closing parentheses,
        # then a binary operator or the end of the term.
        while True:
            tok = tokens[i]
            if _is_op(tok, "^"):
                if not (_is_op(tokens[i + 1], "-") and tokens[i + 2].kind == "nat"
                        and tokens[i + 2].text == "1"):
                    raise ParseError("expected '^-1'", tok.pos)
                vals.append(Inv(vals.pop()))
                i += 3
            elif open_groups and _is_op(tok, ")"):
                _reduce(vals, ops, _SUM, sig)
                if ops.pop() == "inv":
                    vals.append(Inv(vals.pop()))
                open_groups -= 1
                i += 1
            else:
                break
        if tok.kind == "op" and tok.text in ("+", "-", "*", "/"):
            _reduce(vals, ops, _BINDING[tok.text], sig)
            ops.append(tok.text)
            i += 1
            continue
        if open_groups:
            raise ParseError(f"expected ')', found {tok.text or 'end of input'!r}", tok.pos)
        _reduce(vals, ops, _SUM, sig)
        (t,) = vals
        if sig is not None:
            check_conforms(t, sig)
        return t, i


def parse_term(text: str, sig: Signature | None) -> Term:
    """Parse text into a term conforming to sig (None admits all symbols)."""
    tokens = tokenize(text)
    t, i = parse_term_prefix(tokens, 0, sig)
    tail = tokens[i]
    if tail.kind != "end":
        raise ParseError(f"unexpected {tail.text!r} after term", tail.pos)
    return t


def _operand(kid: tuple, min_prec: int):
    rope, prec, _ = kid
    return rope if prec >= min_prec else ("(", rope, ")")


def _infix_algebra(numerals: bool) -> dict:
    # Each node folds to (rope, precedence, n): rope is its text as a string
    # or a tuple of ropes, joined once at the end, and n is the natural it
    # denotes when it is exactly a canonical numeral.
    def binary(t, left, right):
        prec = _PREC[type(t)]
        rope = (_operand(left, prec), _SYMBOL[type(t)], _operand(right, prec + 1))
        return rope, prec, None

    def add(t, left, right):
        n = left[2] + 1 if left[2] and right[2] == 1 else None
        if numerals and n:
            return str(n), _ATOM, n
        return binary(t, left, right)[0], _SUM, n

    return {
        Zero: lambda t: ("0", _ATOM, 0),
        One: lambda t: ("1", _ATOM, 1),
        Var: lambda t: (t.name, _ATOM, None),
        Add: add, Sub: binary, Mul: binary, Div: binary,
        Neg: lambda t, arg: (("-", _operand(arg, _UNARY)), _UNARY, None),
        Inv: lambda t, arg: ((_operand(arg, _ATOM), "^-1"), _POSTFIX, None),
    }


_PREC = {Add: _SUM, Sub: _SUM, Mul: _PRODUCT, Div: _PRODUCT}
_SYMBOL = {Add: " + ", Sub: " - ", Mul: " * ", Div: " / "}
_INFIX = {numerals: _infix_algebra(numerals) for numerals in (False, True)}

_SEXPR_HEAD = {Add: "(+ ", Mul: "(* ", Sub: "(sub ", Div: "(/ ", Neg: "(neg ", Inv: "(inv "}


def _sexpr_node(t: Term, *kids):
    if type(t) is Var:
        return t.name
    if not kids:
        return "0" if type(t) is Zero else "1"
    if len(kids) == 1:
        return _SEXPR_HEAD[type(t)], kids[0], ")"
    return _SEXPR_HEAD[type(t)], kids[0], " ", kids[1], ")"


_SEXPR = dict.fromkeys(CONSTRUCTORS, _sexpr_node)


def render(t: Term, style: str = "infix", numerals: bool = False) -> str:
    """Print a term.

    Infix output reparses to a structurally equal term.  With numerals=True
    canonical numeral subterms print as decimal literals instead of fully
    expanded sums; literals reparse to the canonical numerals, so the
    round-trip still holds, but the default stays expanded so that printed
    terms show their exact structure.
    """
    if style == "infix":
        return _join(fold(t, _INFIX[bool(numerals)])[0])
    if style == "sexpr":
        return _join(fold(t, _SEXPR))
    raise ValueError(f"unknown render style: {style!r}")
