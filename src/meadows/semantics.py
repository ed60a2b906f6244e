"""Exact and finite-model semantics for meadow terms.

Two families of models are provided.  The zero-totalized rationals
evaluate terms exactly with arbitrary-precision rationals, where the
multiplicative inverse of zero is zero and division by zero yields
zero.  Finite meadows live on a carrier 0..n-1.  Z_n is modular
arithmetic: the prime ones are the zero-totalized prime fields Z_p,
and Z_n with n squarefree is the unique meadow expansion of a
commutative von Neumann regular ring, with inv(x) = x^(2*lambda(n)-1)
mod n (lambda is Carmichael's function).  Evaluating at one assignment
computes each operation arithmetically, so it costs O(term) whatever
n is; the n x n operation tables are built, once per model, only when
an exhaustive check reads them.  Other finite meadows carry explicit
tables, and any finite commutative regular ring given by tables
expands to a meadow by a pointwise search for weak inverses.

Also here: exhaustive axiom checking of a presentation against a
finite model, and the two number-theoretic witness searches (every
residue mod p is a sum of two squares; some w*p equals u^2 + v^2 + 1)
that underpin the initial-algebra characterization of the rationals.
An exhaustive check evaluates each equation one line of assignments at
a time, a line being every value of the last variable: each side is
compiled once into a function of the other variables' values, which
computes a subterm without the last variable once per line, takes a
table row or unary table as it is where an operation is applied to the
bare last variable, and reads a table entry per value only where both
operands vary along the line.  check_axioms refuses more than
MAX_ASSIGNMENTS assignments before it builds a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import lcm
from operator import ne
from typing import Callable, Collection, Iterator, Mapping, Sequence, Union

from .terms import (
    Add, Div, Inv, Mul, Neg, One, Sub, Term, Var, Zero,
    fold, free_vars,
)

__all__ = [
    "Q0", "Value", "Assignment", "MissingAssignment",
    "q0_inv", "q0_div", "eval_q0",
    "FiniteMeadow", "ModularMeadow", "NotRegular", "NotUnique",
    "zp_meadow", "zn_ring", "zn_meadow", "eval_model", "equation_lines",
    "AxiomFailure", "MAX_ASSIGNMENTS", "check_axioms", "is_prime",
    "two_squares", "corollary_witness",
]

Value = Union[Fraction, int]
Assignment = Mapping[str, Value]

#: Marker for the zero-totalized rationals when an API accepts a model choice.
Q0 = None


class MissingAssignment(ValueError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no value assigned to variable {name!r}")


def q0_inv(x: Fraction) -> Fraction:
    """Total multiplicative inverse on the rationals: the inverse of 0 is 0."""
    return Fraction(0) if x == 0 else 1 / x


def q0_div(x: Fraction, y: Fraction) -> Fraction:
    """Total division on the rationals: x / 0 = 0."""
    return Fraction(0) if y == 0 else x / y


#: The fold algebra of eval_q0 on closed terms.
Q0_ALGEBRA = {
    Zero: lambda t: Fraction(0),
    One: lambda t: Fraction(1),
    Add: lambda t, x, y: x + y,
    Mul: lambda t, x, y: x * y,
    Sub: lambda t, x, y: x - y,
    Neg: lambda t, x: -x,
    Inv: lambda t, x: q0_inv(x),
    Div: lambda t, x, y: q0_div(x, y),
}


def eval_q0(t: Term, a: Assignment | None = None) -> Fraction:
    """Evaluate t in the zero-totalized rationals under assignment a.

    Subtraction nodes (reduced divisive terms) evaluate by the derived
    reading x - y; division and inverse are total per q0_div and q0_inv.
    """
    a = a or {}

    def var(t: Var) -> Fraction:
        if t.name not in a:
            raise MissingAssignment(t.name)
        return Fraction(a[t.name])

    return fold(t, {**Q0_ALGEBRA, Var: var})


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


@dataclass(frozen=True)
class FiniteMeadow:
    """A finite carrier 0..size-1 with explicit operation tables.

    The inverse table may be None, in which case the structure is a bare
    commutative ring awaiting expansion.  Division and subtraction are
    derived: x / y = x * inv(y) and x - y = x + neg(y).
    """

    size: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    neg: tuple[int, ...]
    inv: tuple[int, ...] | None
    zero: int = 0
    one: int = 1

    @property
    def carrier(self) -> range:
        return range(self.size)

    def div(self, x: int, y: int) -> int:
        return self.algebra()[Div](None, x, y)

    def check_assignment(self, a: Assignment) -> None:
        """Raise ValueError unless every value assigned in a is a carrier element."""
        for name, value in a.items():
            if not (isinstance(value, int) and 0 <= value < self.size):
                raise ValueError(
                    f"value {value!r} of {name} is outside the carrier 0..{self.size - 1}"
                )

    def algebra(self) -> dict:
        """The fold algebra of closed terms in this model, one value at a time."""
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
        }
        if inv is not None:
            algebra[Inv] = lambda t, x: inv[x]
            algebra[Div] = lambda t, x, y: mul[x][inv[y]]
        return algebra

    def tables(self) -> dict[str, object]:
        """The tabulated operations keyed by symbol; inv only when present."""
        table: dict[str, object] = {
            "zero": self.zero,
            "one": self.one,
            "add": self.add,
            "mul": self.mul,
            "neg": self.neg,
        }
        if self.inv is not None:
            table["inv"] = self.inv
        return table

    def ops(self) -> dict[str, object]:
        """tables() plus the derived n x n subtraction and division tables."""
        table = self.tables()
        table["sub"] = tuple(
            tuple(self.add[x][self.neg[y]] for y in self.carrier)
            for x in self.carrier
        )
        if self.inv is not None:
            table["div"] = tuple(
                tuple(self.mul[x][self.inv[y]] for y in self.carrier)
                for x in self.carrier
            )
        return table


def _no_inverse(t: Term, *args: int) -> int:
    raise ValueError("model provides no interpretation for 'inv'")


class ModularMeadow(FiniteMeadow):
    """Z_n by modular arithmetic; a meadow when given an inverse exponent.

    Build it with zn_ring, zp_meadow or zn_meadow.  inv(x) is
    pow(x, exponent, n), and exponent is None for the bare ring.
    algebra() computes each operation with %, so evaluating a term at one
    assignment builds no table.  The tables add, mul, neg and inv hold
    the same values for exhaustive evaluation, which looks them up faster
    than it computes them; each is built on first read and cached.
    """

    def __init__(self, n: int, exponent: int | None = None):
        object.__setattr__(self, "size", n)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "zero", 0)
        object.__setattr__(self, "one", 1 % n)

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
        return tuple(row[x:] + row[:x] for x in row)

    @cached_property
    def mul(self) -> tuple[tuple[int, ...], ...]:
        n = self.size
        return tuple(tuple(x * y % n for y in range(n)) for x in range(n))

    @cached_property
    def neg(self) -> tuple[int, ...]:
        n = self.size
        return tuple(-x % n for x in range(n))

    @cached_property
    def inv(self) -> tuple[int, ...] | None:
        n, e = self.size, self.exponent
        return None if e is None else tuple(pow(x, e, n) for x in range(n))

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
        }
        if e is not None:
            algebra[Inv] = lambda t, x: pow(x, e, n)
            algebra[Div] = lambda t, x, y: x * pow(y, e, n) % n
        return algebra


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


#: The key of each operator constructor in a model's tables.
OP_KEY = {
    Zero: "zero", One: "one", Add: "add", Mul: "mul",
    Neg: "neg", Inv: "inv", Div: "div", Sub: "sub",
}
# Symbols a FiniteMeadow does not tabulate, read per entry instead:
# x - y = add[x][neg[y]] and x / y = mul[x][inv[y]].  Only total tables
# lack them: the expansion search always passes sub and div when used.
_DERIVED = {"sub": ("add", "neg"), "div": ("mul", "inv")}

# A compiled node is (shape, f): f(T, o) gives its values along the line
# at the outer values o, reading the tables T.  The shapes: one value for
# the whole line, the bare last variable (0..n-1, no f), a list, or a
# table row or unary table read as it is, which becomes a list only when
# it is a whole side, so that the two sides of an equation compare with ==.
_SCALAR, _BARE, _LINE, _ROW = range(4)


def _require(keys: Collection[str], key: str) -> str:
    if key not in keys:
        raise ValueError(f"model provides no interpretation for {key!r}")
    return key


def _unary(key: str, arg: tuple, partial: bool) -> tuple:
    """The compiled node key(arg)."""
    shape, f = arg
    if shape == _BARE:
        return _ROW, lambda T, o: T[key]
    if shape == _SCALAR:
        def scalar(T, o):
            x = f(T, o)
            return None if x is None else T[key][x]
        return _SCALAR, scalar

    def line(T, o):
        table = T[key]
        if partial:
            return [None if x is None else table[x] for x in f(T, o)]
        return [table[x] for x in f(T, o)]
    return _LINE, line


def _binary(key: str, left: tuple, right: tuple, ident: list, partial: bool) -> tuple:
    """The compiled node key(left, right); ident is the bare variable's line.

    An undecided scalar (None) costs one test per line, so it is handled
    in both modes; only partial mode tests each entry of a line.
    """
    (sx, fx), (sy, fy) = left, right
    nones = [None] * len(ident)
    if sx == _SCALAR and sy == _SCALAR:
        def scalar(T, o):
            x, y = fx(T, o), fy(T, o)
            return None if x is None or y is None else T[key][x][y]
        return _SCALAR, scalar
    if sx == _SCALAR and sy == _BARE:
        def row(T, o):
            x = fx(T, o)
            return nones if x is None else T[key][x]
        return _ROW, row
    # Otherwise the bare variable is just another line.
    if sx == _BARE:
        fx = lambda T, o: ident  # noqa: E731
    if sy == _BARE:
        fy = lambda T, o: ident  # noqa: E731
    if sx == _SCALAR:
        def scalar_left(T, o):
            x = fx(T, o)
            if x is None:
                return nones
            table = T[key][x]
            if partial:
                return [None if y is None else table[y] for y in fy(T, o)]
            return [table[y] for y in fy(T, o)]
        return _LINE, scalar_left
    if sy == _SCALAR:
        def scalar_right(T, o):
            y = fy(T, o)
            if y is None:
                return nones
            table = T[key]
            if partial:
                return [None if x is None else table[x][y] for x in fx(T, o)]
            return [table[x][y] for x in fx(T, o)]
        return _LINE, scalar_right

    def lines(T, o):
        table = T[key]
        if partial:
            return [None if x is None or y is None else table[x][y]
                    for x, y in zip(fx(T, o), fy(T, o))]
        return [table[x][y] for x, y in zip(fx(T, o), fy(T, o))]
    return _LINE, lines


def _compile_line(t: Term, names: Sequence[str], width: int, keys: Collection[str],
                  partial: bool) -> Callable:
    """Compile t into line(tables, outer): its values along one line.

    outer holds the values of all names but the last, which takes every
    value 0..width-1 along the line.  A subterm without the last variable
    is computed once per line, and tables are read when line runs.
    """
    index = {name: j for j, name in enumerate(names[:-1])}
    last = names[-1] if names else None
    ident = list(range(width))

    def var(node: Var) -> tuple:
        if node.name == last:
            return _BARE, None
        if node.name not in index:
            raise MissingAssignment(node.name)
        j = index[node.name]
        return _SCALAR, lambda T, o: o[j]

    def constant(node: Term) -> tuple:
        key = _require(keys, OP_KEY[type(node)])
        return _SCALAR, lambda T, o: T[key]

    def unary(node: Term, arg: tuple) -> tuple:
        return _unary(_require(keys, OP_KEY[type(node)]), arg, partial)

    def binary(node: Term, left: tuple, right: tuple) -> tuple:
        key = OP_KEY[type(node)]
        if key in keys or key not in _DERIVED:
            return _binary(_require(keys, key), left, right, ident, partial)
        outer, inner = (_require(keys, k) for k in _DERIVED[key])
        return _binary(outer, left, _unary(inner, right, partial), ident, partial)

    shape, f = fold(t, {
        Var: var, Zero: constant, One: constant, Neg: unary, Inv: unary,
        Add: binary, Mul: binary, Sub: binary, Div: binary,
    })
    if shape == _SCALAR:
        return lambda T, o: [f(T, o)] * width
    if shape == _BARE:
        return lambda T, o: ident
    if shape == _ROW:
        return lambda T, o: list(f(T, o))
    return f


def equation_lines(
    lhs: Term,
    rhs: Term,
    names: Sequence[str],
    size: int,
    keys: Collection[str],
    partial: bool = False,
) -> Callable[[Mapping[str, object]], Iterator[tuple[tuple[int, ...], list, list]]]:
    """Compile lhs = rhs for evaluation one line of assignments at a time.

    names are the variables, sorted, and keys the operator keys (zero,
    one, add, mul, neg, inv, div, sub) the tables will hold; sub and div
    fall back to _DERIVED when absent, and a missing key raises
    ValueError.  The result maps tables to an iterator over the
    assignments of 0..size-1 to names in row-major order, one line per
    value of all names but the last: it yields (outer, lhs values, rhs
    values), outer being those values and each list holding one value
    per value of the last name (a single value when names is empty).
    In partial mode a table entry may be None (not yet decided), and
    None propagates.
    """
    width = size if names else 1
    left, right = (_compile_line(t, names, width, keys, partial) for t in (lhs, rhs))
    outer = max(len(names) - 1, 0)

    def lines(tables: Mapping[str, object]):
        for o in product(range(size), repeat=outer):
            yield o, left(tables, o), right(tables, o)
    return lines


def eval_model(t: Term, m: FiniteMeadow, a: Assignment | None = None) -> int:
    """Evaluate t in the finite meadow m under assignment a.

    One value per node, from m.algebra(): Z_n computes it, so no table is
    built whatever n is.
    """
    a = a or {}
    m.check_assignment(a)

    def var(node: Var) -> int:
        if node.name not in a:
            raise MissingAssignment(node.name)
        return a[node.name]

    return fold(t, {**m.algebra(), Var: var})


@dataclass(frozen=True)
class AxiomFailure:
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


#: The most assignments check_axioms enumerates in one call (about 15 s
#: at the 7 million a second measured on a 2-vCPU machine): it refuses
#: (ValueError) a presentation and model that need more instead of running
#: for hours.  imd, whose three 3-variable axioms dominate its count, is
#: checked in Z_p up to p = 321.
MAX_ASSIGNMENTS = 10**8


def check_axioms(m: FiniteMeadow, axioms) -> list[AxiomFailure]:
    """Exhaustively check every equation of a presentation against m.

    axioms is a Presentation or a builtin presentation name.  Every
    equation is evaluated at every assignment of carrier values to its
    variables, one line of assignments (all values of its last variable)
    at a time; an empty report means m is a model of the axioms.
    Failures are deterministic: axioms in presentation order, witnesses
    in row-major assignment order.  Raises ValueError, before any table
    is built, when the check needs more than MAX_ASSIGNMENTS assignments.
    """
    if isinstance(axioms, str):
        from .presentations import builtin

        axioms = builtin(axioms)
    equations = [(eq, sorted(free_vars(eq.lhs) | free_vars(eq.rhs)))
                 for eq in axioms.axioms]
    total = sum(m.size ** len(names) for _, names in equations)
    if total > MAX_ASSIGNMENTS:
        raise ValueError(
            f"checking {axioms.name} in a model of size {m.size} needs {total} "
            f"assignments, more than the cap of {MAX_ASSIGNMENTS}"
        )
    tables = m.tables()
    failures = []
    for eq, names in equations:
        lines = equation_lines(eq.lhs, eq.rhs, names, m.size, tables.keys())
        first = None
        count = 0
        for outer, lhs, rhs in lines(tables):
            if lhs == rhs:
                continue
            count += sum(map(ne, lhs, rhs))
            if first is None:
                i = next(i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
                first = (tuple(zip(names, outer + (i,))), lhs[i], rhs[i])
        if first is not None:
            failures.append(AxiomFailure(eq.name, first[0], first[1], first[2], count))
    return failures


@lru_cache(maxsize=8)
def _sqrt_table(p: int) -> dict[int, int]:
    """Map each square mod the prime p to its smallest square root.

    Cached, so a sweep over the residues of one prime checks primality
    and builds the table once.  Callers must not mutate the result.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    table: dict[int, int] = {}
    for w in range(p - 1, -1, -1):
        table[w * w % p] = w
    return table


def two_squares(p: int, u: int) -> tuple[int, int]:
    """Find (v, w) with v^2 + w^2 = u in Z_p, smallest v first.

    Such a pair exists for every residue u of every prime p.  The search
    is equivalent to scanning pairs (v, w) in row-major order.
    """
    roots = _sqrt_table(p)
    if not 0 <= u < p:
        raise ValueError(f"{u} is not a residue mod {p}")
    for v in range(p):
        w = roots.get((u - v * v) % p)
        if w is not None:
            return v, w
    raise AssertionError(f"no two-square decomposition of {u} mod {p}")


def corollary_witness(p: int) -> tuple[int, int, int]:
    """Find naturals (u, v, w) with u, v < p and u^2 + v^2 + 1 = w * p.

    Exists for every prime p because -1 is a sum of two squares mod p.
    """
    roots = _sqrt_table(p)
    for u in range(p):
        v = roots.get((-1 - u * u) % p)
        if v is not None:
            total = u * u + v * v + 1
            return u, v, total // p
    raise AssertionError(f"no witness for prime {p}")
