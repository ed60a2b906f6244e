"""Three-valued first-order logic over punched meadows.

Atoms are equations between terms folded in the punched algebra of a
model (meadows.partial.punched_algebra), built once per evaluation, so
a side of an equation may fail to denote.  Three equality modes decide
what a non-denoting side means (undefined / equal-iff-both-undefined /
never equal).  Four connective suites extend the classical connectives
(Bochvar's strict ones, McCarthy's left-sequential ones and their
right-sequential mirror, Kleene's monotone ones); each suite is one
conjunction table, and its disjunction is the De Morgan dual.  Two
quantifier suites fold instances over an explicit finite domain: each
iterates the conjunction (forall) or disjunction (exists) of the
connective suite of the same name, so a Bochvar quantifier is undefined
when any instance is, and a Kleene quantifier is decided by a witness.

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

from collections import namedtuple
from enum import Enum
from functools import partial, reduce
from typing import NamedTuple, Sequence

from .parsing import _TokenError, parse_term_prefix, tokenize
from .partial import _VARIANT_SIG, PunchVariant, Violation, _fold_punched, punched_algebra
from .semantics import Q0, Assignment, Model, Value
from .terms import Signature, Term, Var, _FREE_VARS, _union, check_conforms, fold

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


class LogicConfig(namedtuple("LogicConfig", "equality connectives quantifiers domain")):
    __slots__ = ()

    def __new__(cls, equality: Equality, connectives: Connectives, quantifiers: Quantifiers,
                domain: tuple[Value, ...]):
        if not domain:
            raise ValueError("quantifier domain must be nonempty")
        return super().__new__(cls, equality, connectives, quantifiers, domain)


def lpmd(domain: Sequence[Value] = (0, 1, 2)) -> LogicConfig:
    """Weak equality, McCarthy's connectives, Bochvar's quantifiers."""
    return LogicConfig(
        Equality.WEAK, Connectives.MCCARTHY, Quantifiers.BOCHVAR, tuple(domain)
    )


# A suite's conjunction of a and b is its table's entry 3a + b, with T, F
# and U coded 0, 1 and 2: one row of three per left operand.
_CODE = {T: 0, F: 1, U: 2}
_NOT = {T: F, F: T, U: U}
_AND = {
    Connectives.BOCHVAR: (T, F, U, F, F, U, U, U, U),
    Connectives.MCCARTHY: (T, F, U, F, F, F, U, U, U),
    Connectives.MCCARTHY_REV: (T, F, U, F, F, U, U, F, U),
    Connectives.KLEENE: (T, F, U, F, F, F, U, F, U),
}


def _not3(v: TruthValue3) -> TruthValue3:
    return _NOT[v]


def _and3(suite: Connectives, a: TruthValue3, b: TruthValue3) -> TruthValue3:
    return _AND[suite][3 * _CODE[a] + _CODE[b]]


def _or3(suite: Connectives, a: TruthValue3, b: TruthValue3) -> TruthValue3:
    # Every suite satisfies De Morgan's laws.
    return _not3(_and3(suite, _not3(a), _not3(b)))


def _fold_forall(suite: Quantifiers, values: Sequence[TruthValue3]) -> TruthValue3:
    return reduce(partial(_and3, Connectives[suite.name]), values, T)


def _fold_exists(suite: Quantifiers, values: Sequence[TruthValue3]) -> TruthValue3:
    return reduce(partial(_or3, Connectives[suite.name]), values, F)


def _atom(
    lhs: Term, rhs: Term, cfg: LogicConfig, sig: Signature, model: Model,
    algebra: dict, env: Assignment,
) -> TruthValue3:
    # Punched evaluation of lhs, then of rhs: each checks its signature
    # first.  The environment is checked once, before the first fold.  The
    # sides compare as the model's fold results: Q0's canonical pairs are
    # equal exactly when their rationals are.
    check_conforms(lhs, sig)
    algebra[Var] = model.var_case(model.check_assignment(env))
    left = _fold_punched(lhs, algebra)
    check_conforms(rhs, sig)
    right = _fold_punched(rhs, algebra)
    if type(left) is not Violation and type(right) is not Violation:
        return T if left == right else F
    if cfg.equality is Equality.WEAK:
        return U
    if cfg.equality is Equality.STRONG:
        return T if type(left) is Violation and type(right) is Violation else F
    return F


def eval_formula(
    f: Formula,
    cfg: LogicConfig,
    variant: PunchVariant,
    model: Model | None = Q0,
    a: Assignment | None = None,
) -> TruthValue3:
    """Evaluate a formula to T, F, or U.

    Terms evaluate through the punched version of model, by default Q0
    (None is accepted as Q0); quantifiers range over cfg.domain, with
    bound variables shadowing the assignment.  The
    implication a -> b is ~a | b in the active connective suite.  Every
    part is evaluated, left to right and each quantifier instance in
    domain order, before a connective or quantifier combines the values.
    """
    model = Q0 if model is None else model
    sig, algebra = _VARIANT_SIG[variant], punched_algebra(variant, model)
    values: list[TruthValue3] = []
    # Frames (formula, environment) still to evaluate.  A formula comes back
    # with environment None once its parts are evaluated, to combine their
    # values, the last ones on values.
    stack: list[tuple[Formula, dict | None]] = [(f, dict(a or {}))]
    while stack:
        g, env = stack.pop()
        if type(g) is Eq:
            values.append(_atom(*g.children, cfg, sig, model, algebra, env))
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


class ConventionReport(NamedTuple):
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
    model: Model | None = Q0,
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
#
# A term reading from a '(' inside another reading goes the same way as
# the outer one until the group around that '(' closes.  So when a reading
# fails, it fails at the same token from every '(' it opened whose group is
# still open there; and when it ends without '=' or '!=' after it, the
# reading from every '(' inside it ends at a ')' or at that same token.  An
# atom starts at none of those '(', and marking them once makes n nested
# '(' cost one reading, not n.
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


def _expect(tokens: list[str], i: int, op: str) -> None:
    if tokens[i] != op:
        raise _TokenError(f"expected {op!r}, found {tokens[i] or 'end of input'!r}", i)


def _open_groups(tokens: list[str], start: int, end: int) -> list[int]:
    """The indices of the '(' tokens from start on still open at token index end."""
    groups: list[int] = []
    for k in range(start, end):
        if tokens[k] == "(":
            groups.append(k)
        elif tokens[k] == ")":
            groups.pop()
    return groups


def parse_formula(text: str, sig: Signature | None) -> Formula:
    """Parse a formula whose terms conform to sig (None admits all symbols)."""
    tokens = tokenize(text, formula_ops=True)
    try:
        return _parse_formula(tokens, sig)
    except _TokenError as exc:
        raise exc.at(text, formula_ops=True) from None


def _parse_formula(tokens: list[str], sig: Signature | None) -> Formula:
    no_atom: set[int] = set()  # '(' from which the term reading gives no atom
    i = 0
    # Pending operators: (binding, constructor awaiting its last operand),
    # with the left operand of a connective already applied.
    ops: list[tuple] = []
    whole = True  # whether a whole formula starts at token i
    while True:
        tok = tokens[i]
        if whole and tok in _QUANTIFIER:
            var = tokens[i + 1]
            if not var.isidentifier():
                raise _TokenError("expected a variable after quantifier", i + 1)
            _expect(tokens, i + 2, ".")
            ops.append((1, partial(_QUANTIFIER[tok], var)))
            i += 3
            continue
        whole = tok == "("
        if tok == "~":
            ops.append((5, Not))
            i += 1
            continue
        j = i
        if i not in no_atom:
            try:
                lhs, j = parse_term_prefix(tokens, i, sig)
            except _TokenError as exc:
                if not whole:
                    raise
                no_atom.update(_open_groups(tokens, i, exc.index))
        if tokens[j] == "=" or tokens[j] == "!=":
            rhs, i = parse_term_prefix(tokens, j + 1, sig)
            f = Eq(lhs, rhs) if tokens[j] == "=" else Neq(lhs, rhs)
        elif whole:
            # Not a term, or a term without '=': the '(' opens a formula.
            no_atom.update(k for k in range(i + 1, j) if tokens[k] == "(")
            ops.append((0, None))
            i += 1
            continue
        else:
            raise _TokenError("expected '=' or '!=' after term", j)
        # Close groups until a connective follows.
        while tokens[i] not in _CONNECTIVE:
            tok = tokens[i]
            f = _reduce(ops, f, 1)
            if not ops:
                if tok:
                    raise _TokenError(f"unexpected {tok!r} after formula", i)
                return f
            _expect(tokens, i, ")")
            ops.pop()
            i += 1
        binding, cls = _CONNECTIVE[tokens[i]]
        ops.append((binding, partial(cls, _reduce(ops, f, binding + (cls is Implies)))))
        i += 1
        whole = False
