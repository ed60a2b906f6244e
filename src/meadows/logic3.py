"""Three-valued first-order logic over punched meadows.

Atoms are equations between terms evaluated in a punched model, so a
side of an equation may fail to denote.  Three equality modes decide
what a non-denoting side means (undefined / equal-iff-both-undefined /
never equal), four connective suites extend the classical connectives
(Bochvar's strict ones, McCarthy's left-sequential ones and their
right-sequential mirror, Kleene's monotone ones), and two quantifier
suites fold instances over an explicit finite domain (Bochvar: any
undefined instance poisons the quantifier; Kleene: a witness decides).

The combination weak equality + McCarthy connectives + Bochvar
quantifiers is the configuration that tracks everyday mathematical
usage most closely, available as the lpmd preset.

Formula grammar: atoms `t = u` and `t != u` over the term grammar,
`~` (not), `&`, `|`, `->`, `forall x. phi`, `exists x. phi`; negation
binds tightest, then conjunction, disjunction, implication (right
associative), and quantifiers reach as far right as possible.

Formulas are interned Term nodes outside terms.CONSTRUCTORS, and every
walk over them keeps an explicit stack, so formula depth is bounded by
memory, not by Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Sequence

from .parsing import ParseError, Token, parse_term_prefix, tokenize
from .partial import Defined, PunchVariant, UNDEFINED, punch_eval
from .semantics import Assignment, FiniteMeadow, Value
from .terms import Signature, Term, Var, _FREE_VARS, _union, fold

__all__ = [
    "TruthValue3", "Formula", "Eq", "Neq", "Not", "And", "Or", "Implies",
    "Forall", "Exists",
    "Equality", "Connectives", "Quantifiers", "LogicConfig", "lpmd",
    "eval_formula", "formula_free_vars",
    "ConventionReport", "two_valued_convention_check",
    "parse_formula",
]


class TruthValue3(Enum):
    T = "T"
    F = "F"
    U = "U"

    def __str__(self):
        return self.value


T, F, U = TruthValue3.T, TruthValue3.F, TruthValue3.U


class Formula(Term):
    """A formula: a node outside CONSTRUCTORS, interned and folded like terms."""

    __slots__ = ()


class Eq(Formula):
    __slots__ = ()
    _fields = ("lhs", "rhs")


class Not(Formula):
    __slots__ = ()
    _fields = ("body",)


class And(Formula):
    __slots__ = ()
    _fields = ("left", "right")


class Or(Formula):
    __slots__ = ()
    _fields = ("left", "right")


class Implies(Formula):
    __slots__ = ()
    _fields = ("left", "right")


class _Quantifier(Formula):
    __slots__ = ()
    _fields = ("bound", "body")

    def __new__(cls, var: str, body: Formula) -> "_Quantifier":
        return Term.__new__(cls, Var(var), body)

    @property
    def var(self) -> str:
        return self.children[0].name


class Forall(_Quantifier):
    __slots__ = ()


class Exists(_Quantifier):
    __slots__ = ()


def Neq(lhs: Term, rhs: Term) -> Formula:
    """Disequations are sugar for negated equations."""
    return Not(Eq(lhs, rhs))


class Equality(Enum):
    WEAK = "weak"            # a non-denoting side makes the atom U
    STRONG = "strong"        # equal iff both sides denote the same or neither denotes
    EXISTENTIAL = "exist"    # a non-denoting side makes the atom F


class Connectives(Enum):
    BOCHVAR = "bochvar"            # strict: any U operand gives U
    MCCARTHY = "mccarthy"          # left-sequential
    MCCARTHY_REV = "mccarthy-rev"  # right-sequential
    KLEENE = "kleene"              # strong monotone


class Quantifiers(Enum):
    BOCHVAR = "bochvar"
    KLEENE = "kleene"


@dataclass(frozen=True)
class LogicConfig:
    equality: Equality
    connectives: Connectives
    quantifiers: Quantifiers
    domain: tuple[Value, ...]

    def __post_init__(self):
        if not self.domain:
            raise ValueError("quantifier domain must be nonempty")


def lpmd(domain: Sequence[Value] = (0, 1, 2)) -> LogicConfig:
    """Weak equality, McCarthy's connectives, Bochvar's quantifiers."""
    return LogicConfig(
        Equality.WEAK, Connectives.MCCARTHY, Quantifiers.BOCHVAR, tuple(domain)
    )


def _not3(v: TruthValue3) -> TruthValue3:
    if v is T:
        return F
    if v is F:
        return T
    return U


def _and3(suite: Connectives, a: TruthValue3, b: TruthValue3) -> TruthValue3:
    if suite is Connectives.BOCHVAR:
        if a is U or b is U:
            return U
        return T if (a is T and b is T) else F
    if suite is Connectives.MCCARTHY:
        if a is F:
            return F
        if a is U:
            return U
        return b
    if suite is Connectives.MCCARTHY_REV:
        if b is F:
            return F
        if b is U:
            return U
        return a
    # Kleene: false dominates, truth requires both.
    if a is F or b is F:
        return F
    if a is T and b is T:
        return T
    return U


def _or3(suite: Connectives, a: TruthValue3, b: TruthValue3) -> TruthValue3:
    # Every suite satisfies De Morgan's laws.
    return _not3(_and3(suite, _not3(a), _not3(b)))


def _fold_forall(suite: Quantifiers, values: Sequence[TruthValue3]) -> TruthValue3:
    # Bochvar: an undefined instance decides.  Kleene: a false one decides first.
    if U in values and (suite is Quantifiers.BOCHVAR or F not in values):
        return U
    return F if F in values else T


def _fold_exists(suite: Quantifiers, values: Sequence[TruthValue3]) -> TruthValue3:
    # Each suite's exists is the De Morgan dual of its forall.
    return _not3(_fold_forall(suite, [_not3(v) for v in values]))


def _atom(
    lhs: Term, rhs: Term, cfg: LogicConfig, variant: PunchVariant,
    model: FiniteMeadow | None, a: Assignment,
) -> TruthValue3:
    left = punch_eval(lhs, variant, model, a)
    right = punch_eval(rhs, variant, model, a)
    if isinstance(left, Defined) and isinstance(right, Defined):
        return T if left.value == right.value else F
    if cfg.equality is Equality.WEAK:
        return U
    if cfg.equality is Equality.STRONG:
        return T if (left is UNDEFINED and right is UNDEFINED) else F
    return F


def eval_formula(
    f: Formula,
    cfg: LogicConfig,
    variant: PunchVariant,
    model: FiniteMeadow | None = None,
    a: Assignment | None = None,
) -> TruthValue3:
    """Evaluate a formula to T, F, or U.

    Terms evaluate through the punched model; quantifiers range over
    cfg.domain, with bound variables shadowing the assignment.  The
    implication a -> b is ~a | b in the active connective suite.  Every
    part is evaluated, left to right and each quantifier instance in
    domain order, before a connective or quantifier combines the values.
    """
    values: list[TruthValue3] = []
    # Frames (formula, environment) still to evaluate.  A formula comes back
    # with environment None once its parts are evaluated, to combine their
    # values, the last ones on values.
    stack: list[tuple[Formula, dict | None]] = [(f, dict(a or {}))]
    while stack:
        g, env = stack.pop()
        if type(g) is Eq:
            values.append(_atom(*g.children, cfg, variant, model, env))
        elif env is not None:
            stack.append((g, None))
            if isinstance(g, _Quantifier):
                bound, body = g.children
                stack += [(body, {**env, bound.name: d}) for d in reversed(cfg.domain)]
            else:
                for part in reversed(g.children):
                    stack.append((part, env))
        elif type(g) is Not:
            values.append(_not3(values.pop()))
        elif isinstance(g, _Quantifier):
            n = len(cfg.domain)
            fold_instances = _fold_forall if type(g) is Forall else _fold_exists
            values[-n:] = [fold_instances(cfg.quantifiers, values[-n:])]
        else:
            right = values.pop()
            left = _not3(values.pop()) if type(g) is Implies else values.pop()
            connective = _and3 if type(g) is And else _or3
            values.append(connective(cfg.connectives, left, right))
    return values[0]


def _bind(f: _Quantifier, _bound, body: frozenset[str]) -> frozenset[str]:
    return body - {f.var}


_FORMULA_FREE_VARS = {**_FREE_VARS, Eq: _union, Not: _union, And: _union, Or: _union,
                      Implies: _union, Forall: _bind, Exists: _bind}


def formula_free_vars(f: Formula) -> frozenset[str]:
    """The variables occurring in f outside the scope of a quantifier binding them."""
    return fold(f, _FORMULA_FREE_VARS)


@dataclass(frozen=True)
class ConventionReport:
    """Whether a sentence's truth value is usable under two-valued logic."""

    compliant: bool
    value: TruthValue3

    def __str__(self):
        status = "Compliant" if self.compliant else "Violation"
        return f"{status} (value {self.value})"


def two_valued_convention_check(
    f: Formula,
    cfg: LogicConfig,
    variant: PunchVariant,
    model: FiniteMeadow | None = None,
) -> ConventionReport:
    """A sentence complies with the two-valued logic convention iff it is T or F."""
    if formula_free_vars(f):
        raise ValueError(f"formula is not a sentence: free {sorted(formula_free_vars(f))}")
    value = eval_formula(f, cfg, variant, model)
    return ConventionReport(value is not U, value)


# Formula parsing.  Terms are parsed by the term parser starting at the
# current token; a '(' may open either a term or a formula, so an atom
# tries the term reading first and opens a formula group when that fails.
# Quantifiers start only a whole formula: the input, a quantifier's body,
# or a parenthesised formula.
_QUANTIFIER = {"forall": Forall, "exists": Exists}
# Binding strengths: ~ 5, & 4, | 3, -> 2, quantifiers 1 (they reach as far
# right as possible), open groups 0.  Pending operators that bind at least
# as tightly as an incoming connective apply first; '->' is right associative.
_CONNECTIVE = {"&": (4, And), "|": (3, Or), "->": (2, Implies)}


def _reduce(ops: list[tuple], f: Formula, binding: int) -> Formula:
    """f as the operand of the pending operators that bind at least as tightly as binding."""
    while ops and ops[-1][0] >= binding:
        f = ops.pop()[1](f)
    return f


def _expect(tok: Token, op: str) -> None:
    if tok.text != op:
        raise ParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.pos)


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse a formula whose terms conform to sig."""
    tokens = tokenize(text, formula_ops=True)
    i = 0
    # Pending operators: (binding, constructor awaiting its last operand),
    # with the left operand of a connective already applied.
    ops: list[tuple] = []
    whole = True  # whether a whole formula starts at token i
    while True:
        tok = tokens[i]
        if whole and tok.text in _QUANTIFIER:
            var = tokens[i + 1]
            if var.kind != "ident":
                raise ParseError("expected a variable after quantifier", var.pos)
            _expect(tokens[i + 2], ".")
            ops.append((1, partial(_QUANTIFIER[tok.text], var.text)))
            i += 3
            continue
        whole = tok.text == "("
        if tok.text == "~":
            ops.append((5, Not))
            i += 1
            continue
        try:
            lhs, j = parse_term_prefix(tokens, i, sig)
        except ParseError:
            if not whole:
                raise
            j = i
        if tokens[j].text in ("=", "!="):
            rhs, i = parse_term_prefix(tokens, j + 1, sig)
            f = Eq(lhs, rhs) if tokens[j].text == "=" else Neq(lhs, rhs)
        elif whole:
            # Not a term, or a term without '=': the '(' opens a formula.
            ops.append((0, None))
            i += 1
            continue
        else:
            raise ParseError("expected '=' or '!=' after term", tokens[j].pos)
        # Close groups until a connective follows.
        while tokens[i].text not in _CONNECTIVE:
            tok = tokens[i]
            f = _reduce(ops, f, 1)
            if not ops:
                if tok.kind != "end":
                    raise ParseError(f"unexpected {tok.text!r} after formula", tok.pos)
                return f
            _expect(tok, ")")
            ops.pop()
            i += 1
        binding, cls = _CONNECTIVE[tokens[i].text]
        ops.append((binding, partial(cls, _reduce(ops, f, binding + (cls is Implies)))))
        i += 1
        whole = False
