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
for the canonical numeral terms, each one node whatever its value
(terms.numeral); `p - q` is sugar for `p + (-q)`
except under the reduced divisive signature, where '-' is a primitive
binary constructor.  Infix rendering inserts the minimal parentheses
needed to reparse to a structurally equal term.  Every printer, repr
included, is one walk in text order with its own stack that appends each
piece of text to one list, a numeral's chain being one piece.

A token is the string it spells, and "" ends the list: tokenize is one
findall of a compiled pattern, in time linear in the text.  The parsers
work on token indices; a syntax error is reported as a ParseError at a
character position, found by scanning the text again only then.
"""

from __future__ import annotations

import re
from functools import cache

from .terms import (
    CONSTRUCTORS, NUMERAL, ONE, ZERO, Add, Div, Inv, Mul, Neg, One, Sub, Term, Var, Zero,
    Signature, _CALL_SHAPES, _decimal, _integer, _spellable, check_conforms, fold, numeral,
)

__all__ = ["ParseError", "tokenize", "parse_term", "parse_term_prefix", "render"]

# Multi-character operators first so the scanner prefers them.
_FORMULA_OPS = ("->", "!=", "=", "~", "&", "|", ".")
_TERM_OPS = ("^", "+", "-", "*", "/", "(", ")")
# The most digits a literal may have: Python 3.11's default limit on int
# string conversion, applied on every interpreter so that all refuse the
# same texts, each with a ParseError at the literal.
_MAX_DIGITS = 4300


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


class _TokenError(Exception):
    """A parse error at a token index, turned into a ParseError at its
    character position by the entry point that holds the text."""

    def __init__(self, message: str, index: int):
        super().__init__(message, index)
        self.message = message
        self.index = index

    def at(self, text: str, formula_ops: bool = False) -> ParseError:
        return ParseError(self.message, _positions(text, formula_ops)[self.index])


@cache
def _scanner(formula_ops: bool) -> re.Pattern:
    """The pattern of one token, after any whitespace, in group 1.

    A character that starts no token matches the last branch, which
    leaves group 1 unmatched.  Some branch matches whatever character
    follows the whitespace, so on text that does not end in whitespace
    no match backtracks, and a scan is linear in the text.
    """
    ops = (_FORMULA_OPS + _TERM_OPS) if formula_ops else _TERM_OPS
    token = "|".join(["[0-9]+", "[a-z][a-z0-9_]*", *map(re.escape, ops)])
    return re.compile(rf"\s*(?:({token})|.)", re.DOTALL)


def tokenize(text: str, formula_ops: bool = False) -> list[str]:
    """Scan text into tokens; formula_ops additionally admits the logic symbols.

    A token is the string it spells, and the list ends with "" for the end
    of input.  A number is a string of digits and an identifier starts
    with a letter, so a token's first character tells its kind.
    """
    # Without trailing whitespace the last match ends the text: a failed
    # match would be retried at each position after it.
    tokens = _scanner(formula_ops).findall(text.rstrip())
    if "" in tokens:  # a character that starts no token
        _positions(text, formula_ops)
    tokens.append("")
    return tokens


def _positions(text: str, formula_ops: bool) -> list[int]:
    """The position of each token of text and of its end, as tokenize finds them.

    Raises ParseError at the first character that starts no token.  Only
    errors need positions, so the scanner does not record them.
    """
    positions = []
    for m in _scanner(formula_ops).finditer(text.rstrip()):
        if m.lastindex is None:
            raise ParseError(f"unexpected character {m.group()[-1]!r}", m.end() - 1)
        positions.append(m.start(1))
    positions.append(len(text))
    return positions


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


_BINARY = ("+", "-", "*", "/")


def parse_term_prefix(
    tokens: list[str], start: int, sig: Signature | None
) -> tuple[Term, int]:
    """Parse a term starting at token index start; return (term, next index).

    tokens is a list that tokenize returned.  Signature conformance is
    checked on the result; sig=None skips the check and admits every
    symbol, with '-' still desugaring to + and unary minus.  Used
    directly by the formula parser, which interleaves terms with logic
    symbols; a syntax error raises _TokenError at the index of the token
    where it is found.  The parser keeps its own operator stack, so
    nesting depth is not bounded by recursion.
    """
    i = start
    vals: list[Term] = []
    ops: list[str] = []   # pending "+", "-", "*", "/", "neg", and open "(" groups
    open_groups = 0
    while True:
        # An operand is expected: prefix minus, an opening group, or an atom.
        tok = tokens[i]
        if tok == "-":
            ops.append("neg")
            i += 1
            continue
        if tok == "(" or (tok == "inv" and tokens[i + 1] == "("):
            ops.append(tok)
            open_groups += 1
            i += 1 if tok == "(" else 2
            continue
        if tok.isdigit():
            if len(tok) > _MAX_DIGITS:
                raise _TokenError(f"literal has more than {_MAX_DIGITS} digits", i)
            vals.append(numeral(_integer(tok)))
        elif tok.isidentifier():
            vals.append(Var(tok))
        else:
            raise _TokenError(f"expected a term, found {tok or 'end of input'!r}", i)
        i += 1
        # An operator is expected: postfix inverses and closing parentheses,
        # then a binary operator or the end of the term.
        while True:
            tok = tokens[i]
            if tok == "^":
                if tokens[i + 1] != "-" or tokens[i + 2] != "1":
                    raise _TokenError("expected '^-1'", i)
                vals.append(Inv(vals.pop()))
                i += 3
            elif open_groups and tok == ")":
                _reduce(vals, ops, _SUM, sig)
                if ops.pop() == "inv":
                    vals.append(Inv(vals.pop()))
                open_groups -= 1
                i += 1
            else:
                break
        if tok in _BINARY:
            _reduce(vals, ops, _BINDING[tok], sig)
            ops.append(tok)
            i += 1
            continue
        if open_groups:
            raise _TokenError(f"expected ')', found {tok or 'end of input'!r}", i)
        _reduce(vals, ops, _SUM, sig)
        (t,) = vals
        if sig is not None:
            check_conforms(t, sig)
        return t, i


def parse_term(text: str, sig: Signature | None) -> Term:
    """Parse text into a term conforming to sig (None admits all symbols)."""
    tokens = tokenize(text)
    try:
        t, i = parse_term_prefix(tokens, 0, sig)
        if tokens[i]:
            raise _TokenError(f"unexpected {tokens[i]!r} after term", i)
    except _TokenError as exc:
        raise exc.at(text) from None
    return t


# A style gives each class of node a shape (open, sep, close, first_need,
# last_need): the node prints as open, its children with sep between them, and
# close; a child goes in parentheses when its precedence is below its slot's
# need (0: never).
_PREC = {Zero: _ATOM, One: _ATOM, Var: _ATOM, Neg: _UNARY, Inv: _POSTFIX,
         Add: _SUM, Sub: _SUM, Mul: _PRODUCT, Div: _PRODUCT}


def _spell(t: Term, style: tuple) -> str:
    """The text of t in style (shapes, decimal, leaves, var, links).

    leaves[node] is the text of 0 and 1, var(name) that of a variable.
    A chain node of class decimal is its decimal literal, an atom; any other
    chain of k is k - 1 opens of its class, 1 and k - 1 links[class].
    """
    shapes, decimal, leaves, var, links = style
    out: list[str] = []
    emit = out.append
    texts = dict(leaves)  # the text of each leaf and chain met so far
    todo: list = [texts.get(t, t)]  # the next piece last
    push, pop = todo.append, todo.pop
    while todo:
        node = pop()
        if type(node) is str:
            emit(node)
            continue
        k = node._numeral
        kids = () if k else node.children
        if not kids:  # a variable or a chain
            cls = type(node)
            emit(var(node.name) if cls is Var else _decimal(k) if cls is decimal else
                 shapes[cls][0] * (_spellable(k) - 1) + leaves[ONE] + links[cls] * (k - 1))
            texts[node] = out[-1]
            continue
        open_, sep, close, first_need, last_need = shapes[type(node)]
        # The text between two children, or after the last, is one piece.
        last, before = kids[-1], ""
        if last_need and _PREC[type(last)] < last_need and not (
                last._numeral and type(last) is decimal):
            before, close = "(", ")" + close
        if close:
            push(close)
        push(texts.get(last, last))
        if sep:
            first = kids[0]
            if first_need and _PREC[type(first)] < first_need and not (
                    first._numeral and type(first) is decimal):
                open_, sep = open_ + "(", ")" + sep
            push(sep + before)
            push(texts.get(first, first))
            if open_:
                emit(open_)
        else:
            emit(open_ + before)
    return "".join(out)


# A left operand binds at least as tightly as its operator, a right one more.
_EXPANDED = ({
    Add: ("", " + ", "", _SUM, _SUM + 1), Sub: ("", " - ", "", _SUM, _SUM + 1),
    Mul: ("", " * ", "", _PRODUCT, _PRODUCT + 1), Div: ("", " / ", "", _PRODUCT, _PRODUCT + 1),
    Neg: ("-", "", "", 0, _UNARY), Inv: ("", "", "^-1", 0, _ATOM),
}, None, {ZERO: "0", ONE: "1"}, str, {Add: " + 1", Sub: " - (1 - 1 - 1)"})
# Literals reparse to numerals only: a reduced divisive chain stays spelled out.
_LITERALS = (_EXPANDED[0], Add, *_EXPANDED[2:])
_LISP = ({cls: (f"({head} ", " " * (len(cls._fields) == 2), ")", 0, 0)
          for cls, head in ((Add, "+"), (Mul, "*"), (Sub, "sub"), (Div, "/"), (Neg, "neg"),
                            (Inv, "inv"))},
         None, _EXPANDED[2], str, {Add: " 1)", Sub: " (sub (sub 1 1) 1))"})
_CALLS = (_CALL_SHAPES, None, {ZERO: "Zero()", ONE: "One()"}, "Var({!r})".format,
          {Add: ", One())", Sub: ", Sub(Sub(One(), One()), One()))"})


def render(t: Term, style: str = "infix", numerals: bool = False) -> str:
    """Print a term.

    Infix output reparses to a structurally equal term.  With numerals=True
    canonical numeral subterms print as decimal literals instead of fully
    expanded sums; literals reparse to the canonical numerals, so the
    round-trip still holds, but the default stays expanded so that printed
    terms show their exact structure.
    """
    if style == "infix":
        spelling = _LITERALS if numerals else _EXPANDED
    elif style == "sexpr":
        spelling = _LISP
    else:
        raise ValueError(f"unknown render style: {style!r}")
    try:
        return _spell(t, spelling)
    except KeyError:
        # A node outside CONSTRUCTORS (a formula): fail where a fold would.
        fold(t, {**dict.fromkeys(CONSTRUCTORS, lambda node, *kids: None),
                 NUMERAL: lambda node, k: _spell(node, spelling)})
        raise
