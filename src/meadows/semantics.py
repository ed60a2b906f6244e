"""Exact and finite-model semantics for meadow terms.

Two families of models are provided, each a model object with
algebra() and check_assignment(a), so eval_model evaluates in either.
Q0, the zero-totalized rationals, evaluates terms exactly with
arbitrary-precision rationals, where the multiplicative inverse of
zero is zero and division by zero yields zero.  Finite meadows live on
a carrier 0..n-1.  Z_n is modular arithmetic: the prime ones are the
zero-totalized prime fields Z_p, and Z_n with n squarefree is the
unique meadow expansion of a commutative von Neumann regular ring,
with inv(x) = x^(2*lambda(n)-1) mod n (lambda is Carmichael's
function).  Evaluating at one assignment computes each operation
arithmetically, so it costs O(term) whatever n is; the n x n operation
tables are built, once per model, only when an exhaustive check reads
them.  Other finite meadows carry explicit tables, and any finite
commutative regular ring given by tables expands to a meadow by a
pointwise search for weak inverses.

check_axioms checks a presentation against a finite model on
meadows.exhaustive, imported only when a check runs.  two_squares and
corollary_witness live in meadows.numbers and are importable from here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from math import lcm
from operator import ne
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence, Union

from .numbers import corollary_witness, is_prime, two_squares
from .terms import NUMERAL, Add, Div, Inv, Mul, Neg, One, Sub, Term, Var, Zero, _decimal, fold

if TYPE_CHECKING:
    from .exhaustive import LineTables

__all__ = [
    "Q0", "Value", "Assignment", "MissingAssignment",
    "q0_inv", "q0_div", "eval_q0",
    "FiniteMeadow", "ModularMeadow", "NotRegular", "NotUnique",
    "zp_meadow", "zn_ring", "zn_meadow", "eval_model",
    "AxiomFailure", "check_axioms", "two_squares", "corollary_witness",
]

Value = Union[Fraction, int]
Assignment = Mapping[str, Value]

class MissingAssignment(ValueError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no value assigned to variable {name!r}")


# Fractions are immutable, so one 0 and one 1 serve every evaluation.
_Q0_ZERO = Fraction(0)
_Q0_ONE = Fraction(1)


def q0_inv(x: Fraction) -> Fraction:
    """Total multiplicative inverse on the rationals: the inverse of 0 is 0."""
    return _Q0_ZERO if x == 0 else 1 / x


def q0_div(x: Fraction, y: Fraction) -> Fraction:
    """Total division on the rationals: x / 0 = 0."""
    return _Q0_ZERO if y == 0 else x / y


#: The fold algebra of Q0 on closed terms.
Q0_ALGEBRA = {
    Zero: lambda t: _Q0_ZERO,
    One: lambda t: _Q0_ONE,
    Add: lambda t, x, y: x + y,
    Mul: lambda t, x, y: x * y,
    Sub: lambda t, x, y: x - y,
    Neg: lambda t, x: -x,
    Inv: lambda t, x: q0_inv(x),
    Div: lambda t, x, y: q0_div(x, y),
    NUMERAL: lambda t, k: Fraction(k),
}


class ZeroTotalizedRationals:
    """The zero-totalized rationals; Q0, its one instance, pickles and copies to itself."""

    def __repr__(self) -> str:
        return "Q0"

    def __reduce__(self) -> str:
        return "Q0"

    def algebra(self) -> dict:
        """The fold algebra of closed terms in the rationals."""
        return Q0_ALGEBRA

    def check_assignment(self, a: Assignment) -> dict[str, Fraction]:
        """a with each value converted to a Fraction."""
        return {name: v if type(v) is Fraction else Fraction(v) for name, v in a.items()}


#: The zero-totalized rationals, the model an API defaults to.
Q0 = ZeroTotalizedRationals()


def eval_q0(t: Term, a: Assignment | None = None) -> Fraction:
    """Evaluate t in the zero-totalized rationals under assignment a.

    Subtraction nodes (reduced divisive terms) evaluate by the derived
    reading x - y; division and inverse are total per q0_div and q0_inv.
    """
    return eval_model(t, Q0, a)


def assigned(a: Assignment, node: Var) -> Value:
    """The value of the variable node in a, or MissingAssignment; a fold's
    Var case is partial(assigned, a)."""
    if node.name not in a:
        raise MissingAssignment(node.name)
    return a[node.name]


class NotRegular(ValueError):
    """Some element has no weak inverse, so no meadow expansion exists."""

    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} has no weak inverse; ring is not regular")


class NotUnique(RuntimeError):
    """Two distinct weak inverses found; impossible over a commutative ring."""

    def __init__(self, element: int, candidates: Sequence[int]):
        self.element = element
        self.candidates = tuple(candidates)
        super().__init__(
            f"element {element} has multiple weak inverses {self.candidates}; "
            "the input does not satisfy the commutative ring axioms"
        )


class FiniteMeadow:
    """A finite carrier 0..size-1 with explicit operation tables.

    The inverse table may be None, in which case the structure is a bare
    commutative ring awaiting expansion.  Division and subtraction are
    derived: x / y = x * inv(y) and x - y = x + neg(y), tabulated once per
    model by line_tables, which ops() reads back.  A model is immutable:
    assigning or deleting an attribute raises AttributeError.
    """

    def __init__(self, size: int, add: tuple[tuple[int, ...], ...],
                 mul: tuple[tuple[int, ...], ...], neg: tuple[int, ...],
                 inv: tuple[int, ...] | None, zero: int = 0, one: int = 1):
        vars(self).update(size=size, add=add, mul=mul, neg=neg, inv=inv, zero=zero, one=one)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} models are immutable")

    __delattr__ = __setattr__

    @property
    def carrier(self) -> range:
        return range(self.size)

    def div(self, x: int, y: int) -> int:
        return self.algebra()[Div](None, x, y)

    def check_assignment(self, a: Assignment) -> Assignment:
        """a itself; raises ValueError unless every value in it is a carrier element."""
        for name, value in a.items():
            if not (isinstance(value, int) and 0 <= value < self.size):
                shown = _decimal(value) if type(value) is int else repr(value)
                raise ValueError(
                    f"value {shown} of {name} is outside the carrier 0..{self.size - 1}")
        return a

    def algebra(self) -> dict:
        """The fold algebra of closed terms in this model, one value at a time.

        A numeral is one leaf, whose value takes at most size additions.
        """
        add, mul, neg, inv = self.add, self.mul, self.neg, self.inv
        algebra = {
            Zero: lambda t: self.zero,
            One: lambda t: self.one,
            Add: lambda t, x, y: add[x][y],
            Mul: lambda t, x, y: mul[x][y],
            Sub: lambda t, x, y: add[x][neg[y]],
            Neg: lambda t, x: neg[x],
            Inv: _no_inverse,
            Div: _no_inverse,
            NUMERAL: self._numeral,
        }
        if inv is not None:
            algebra[Inv] = lambda t, x: inv[x]
            algebra[Div] = lambda t, x, y: mul[x][inv[y]]
        return algebra

    def _numeral(self, t: Term, k: int) -> int:
        # numeral(k) is (...((1 + 1) + 1) ...) + 1, the (k - 1)-th iterate of
        # x -> x + 1 from one, added in that order: a table under test need
        # not be associative.  Its reduced divisive image iterates x -> x - m,
        # that is x + neg(m), with m the value of 1 - 1 - 1: nor need the
        # table be a ring.  The iterates repeat within size steps, and the
        # steps left after the first repeat go round its cycle.
        add, neg, one = self.add, self.neg, self.one
        step = one if type(t) is Add else neg[add[add[one][neg[one]]][neg[one]]]
        seen: dict[int, int] = {}  # iterate -> steps left when first reached
        x, steps = one, k - 1
        while steps and x not in seen:
            seen[x] = steps
            x = add[x][step]
            steps -= 1
        if steps:
            for _ in range(steps % (seen[x] - steps)):
                x = add[x][step]
        return x

    def ops(self) -> dict[str, object]:
        """line_tables read back as tuples: every operation, sub and div included."""
        from .exhaustive import OP_ARITY
        ops: dict[str, object] = {}
        for key, code in self.line_tables.tables.items():
            if OP_ARITY[key] == 2:
                code = tuple(map(tuple, code[0][:self.size]))
            elif OP_ARITY[key] == 1:
                code = tuple(code[0])
            ops[key] = code
        return ops

    @cached_property
    def line_tables(self) -> LineTables:
        """The model's tables, checked and encoded once for exhaustive checks,
        with sub, and div when there is an inverse, tabulated from them."""
        from .exhaustive import encode_tables
        tables = {"zero": self.zero, "one": self.one,
                  "add": self.add, "mul": self.mul, "neg": self.neg}
        if self.inv is not None:
            tables["inv"] = self.inv
        encoded = encode_tables(tables, self.size)
        codes, read = encoded.tables, encoded.read
        return encoded.with_tables({
            key: [read(codes[inner][0], row) for row in codes[outer][1][:self.size]]
            for key, outer, inner in (("sub", "add", "neg"), ("div", "mul", "inv"))
            if inner in codes}, checked=True)


def _no_inverse(t: Term, *args: int) -> int:
    raise ValueError("model provides no interpretation for 'inv'")


class ModularMeadow(FiniteMeadow):
    """Z_n by modular arithmetic; a meadow when given an inverse exponent.

    Build it with zn_ring, zp_meadow or zn_meadow.  inv(x) is
    pow(x, exponent, n), and exponent is None for the bare ring.
    algebra() computes each operation with %, so evaluating a term at one
    assignment builds no table.  Exhaustive evaluation looks values up
    faster than it computes them, so it reads line_tables, encoded from
    the tables add, mul, neg and inv, each built on first read and
    cached.  Every table is built from lists: tuple(<generator>) grows a
    10-tuple to size, which would leave the tuples of each small size in
    the interpreter's free list for that size when the model dies.
    """

    def __init__(self, n: int, exponent: int | None = None):
        vars(self).update(size=n, exponent=exponent, zero=0, one=1 % n)

    def __repr__(self) -> str:
        kind = "zn_ring" if self.exponent is None else "zn_meadow"
        return f"{kind}({self.size})"

    def __eq__(self, other) -> bool:
        if type(other) is not ModularMeadow:
            return NotImplemented
        return (self.size, self.exponent) == (other.size, other.exponent)

    def __hash__(self) -> int:
        return hash((self.size, self.exponent))

    @cached_property
    def add(self) -> tuple[tuple[int, ...], ...]:
        row = tuple(range(self.size))
        return tuple([row[x:] + row[:x] for x in row])

    @cached_property
    def mul(self) -> tuple[tuple[int, ...], ...]:
        n = self.size
        return tuple([tuple([x * y % n for y in range(n)]) for x in range(n)])

    @cached_property
    def neg(self) -> tuple[int, ...]:
        n = self.size
        return tuple([-x % n for x in range(n)])

    @cached_property
    def inv(self) -> tuple[int, ...] | None:
        n, e = self.size, self.exponent
        return None if e is None else tuple([pow(x, e, n) for x in range(n)])

    def algebra(self) -> dict:
        n, e, one = self.size, self.exponent, self.one
        algebra = {
            Zero: lambda t: 0,
            One: lambda t: one,
            Add: lambda t, x, y: (x + y) % n,
            Mul: lambda t, x, y: x * y % n,
            Sub: lambda t, x, y: (x - y) % n,
            Neg: lambda t, x: -x % n,
            Inv: _no_inverse,
            Div: _no_inverse,
            NUMERAL: lambda t, k: k % n,
        }
        if e is not None:
            algebra[Inv] = lambda t, x: pow(x, e, n)
            algebra[Div] = lambda t, x, y: x * pow(y, e, n) % n
        return algebra


def zn_ring(n: int) -> ModularMeadow:
    """The commutative ring Z_n, with no inverse."""
    if n < 1:
        raise ValueError("modulus must be positive")
    return ModularMeadow(n)


def zp_meadow(p: int) -> ModularMeadow:
    """The zero-totalized prime field Z_p: inv(0) = 0, inv(x) = x^(p-2) otherwise."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return zn_meadow(p)


def expand_regular_ring(ring: FiniteMeadow) -> FiniteMeadow:
    """Expand a commutative von Neumann regular ring to a meadow.

    For each element x the unique y with x*y*x = x and y*x*y = y is found
    by exhaustive search and becomes inv(x).  Raises NotRegular when some
    element admits no such y and NotUnique when two are found (which
    cannot happen if the input really satisfies the ring axioms).
    """
    mul = ring.mul
    inv = []
    for x in ring.carrier:
        candidates = [
            y for y in ring.carrier
            if mul[x][mul[x][y]] == x and mul[y][mul[y][x]] == y
        ]
        if not candidates:
            raise NotRegular(x)
        if len(candidates) > 1:
            raise NotUnique(x, candidates)
        inv.append(candidates[0])
    return FiniteMeadow(
        ring.size, ring.add, ring.mul, ring.neg, tuple(inv), ring.zero, ring.one
    )


def zn_meadow(n: int) -> ModularMeadow:
    """The meadow expansion of Z_n; defined exactly when n is squarefree.

    Over Z_n, x^(2*lambda(n)-1) is the unique weak inverse of x: modulo
    each prime q dividing n it is 0 for x = 0 mod q and x^-1 otherwise,
    because q - 1 divides lambda(n).  When q^2 divides n, q has no weak
    inverse; NotRegular names the least such q, which is also the least
    element without one.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    carmichael, rest, q = 1, n, 2
    while q * q <= rest:
        if rest % q == 0:
            rest //= q
            if rest % q == 0:
                raise NotRegular(q)
            carmichael = lcm(carmichael, q - 1)
        q += 1
    if rest > 1:
        carmichael = lcm(carmichael, rest - 1)
    return ModularMeadow(n, 2 * carmichael - 1)


#: A model of the meadow signatures: Q0 or a finite meadow.
Model = Union[ZeroTotalizedRationals, FiniteMeadow]


def eval_model(t: Term, m: Model, a: Assignment | None = None) -> Value:
    """Evaluate t in the model m under assignment a.

    One value per node, from m.algebra(): Z_n computes it, so no table is
    built whatever n is.  In a finite model every value assigned must be
    a carrier element (ValueError).
    """
    a = m.check_assignment(a or {})
    return fold(t, {**m.algebra(), Var: partial(assigned, a)})


class AxiomFailure(NamedTuple):
    """First failing assignment for one axiom, plus how many assignments fail."""

    axiom: str
    witness: tuple[tuple[str, int], ...]
    lhs_value: int
    rhs_value: int
    failing_assignments: int

    def __str__(self):
        binding = ", ".join(f"{v}={x}" for v, x in self.witness)
        return (
            f"{self.axiom} fails at {binding or '(closed)'}: "
            f"{self.lhs_value} != {self.rhs_value} "
            f"({self.failing_assignments} failing assignment(s))"
        )


def check_axioms(m: FiniteMeadow, axioms) -> list[AxiomFailure]:
    """Exhaustively check every equation of a presentation against m.

    axioms is a Presentation or a builtin presentation name.  Every
    equation is evaluated at every assignment of carrier values to its
    variables, one line of assignments (all values of its last variable)
    at a time; an empty report means m is a model of the axioms.
    Failures are deterministic: axioms in presentation order, witnesses
    in row-major assignment order.  Raises ValueError, before any table
    is built, when the check needs more than exhaustive.MAX_ASSIGNMENTS
    assignments.
    """
    from .exhaustive import capped_equations, equation_lines
    if isinstance(axioms, str):
        from .presentations import builtin

        axioms = builtin(axioms)
    equations = capped_equations("checking", axioms, m.size)
    tables = m.line_tables
    keys = frozenset(tables.tables)
    failures = []
    for eq, names in equations:
        lines = equation_lines(eq.lhs, eq.rhs, names, keys)
        first = None
        count = 0
        for outer, lhs, rhs in lines(tables):
            count += sum(map(ne, lhs, rhs))
            if first is None:
                i = next(i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
                first = (tuple(zip(names, outer + (i,))), lhs[i], rhs[i])
        if first is not None:
            failures.append(AxiomFailure(eq.name, first[0], first[1], first[2], count))
    return failures
