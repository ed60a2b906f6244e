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

Also here: exhaustive axiom checking of a presentation against a
finite model, and the two number-theoretic witness searches (every
residue mod p is a sum of two squares; some w*p equals u^2 + v^2 + 1)
that underpin the initial-algebra characterization of the rationals.
An exhaustive check evaluates each equation one line of assignments at
a time, a line being every value of the last variable.  Each equation
is compiled once per process into generated straight-line Python: one
for loop per other variable, each subterm computed in the outermost
loop where its operands are known, a table row or unary table taken as
it is where an operation is applied to the bare last variable, and the
code yields only the lines whose two sides differ.  On a carrier of at
most 255 elements a line is a bytes object and each table read along
it is one bytes.translate, in C; a model's tables, sub and div derived
from them included, are checked and encoded for this once
(FiniteMeadow.line_tables).  Larger carriers run the same code on
tuples.  An undecided table entry, in the expansion search, is the
value size, which every table maps to itself, so it propagates through
the reads with no test of its own.  check_axioms refuses more than
MAX_ASSIGNMENTS assignments before it builds a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import chain
from math import lcm
from operator import getitem, index, itemgetter, ne
from typing import Callable, Collection, Iterator, Mapping, NamedTuple, Sequence, Union

from .terms import (
    NUMERAL, Add, Div, Inv, Mul, Neg, One, Sub, Term, Var, Zero,
    fold, free_vars,
)

__all__ = [
    "Q0", "Value", "Assignment", "MissingAssignment",
    "q0_inv", "q0_div", "eval_q0",
    "FiniteMeadow", "ModularMeadow", "NotRegular", "NotUnique",
    "zp_meadow", "zn_ring", "zn_meadow", "eval_model", "equation_lines",
    "LineTables", "encode_tables",
    "AxiomFailure", "MAX_ASSIGNMENTS", "check_axioms", "is_prime",
    "two_squares", "corollary_witness",
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


@dataclass(frozen=True)
class FiniteMeadow:
    """A finite carrier 0..size-1 with explicit operation tables.

    The inverse table may be None, in which case the structure is a bare
    commutative ring awaiting expansion.  Division and subtraction are
    derived: x / y = x * inv(y) and x - y = x + neg(y), tabulated once per
    model by line_tables, which ops() reads back.
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

    def check_assignment(self, a: Assignment) -> Assignment:
        """a itself; raises ValueError unless every value in it is a carrier element."""
        for name, value in a.items():
            if not (isinstance(value, int) and 0 <= value < self.size):
                raise ValueError(
                    f"value {value!r} of {name} is outside the carrier 0..{self.size - 1}"
                )
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
        # not be associative.  The iterates repeat within size steps, and
        # the steps left after the first repeat go round its cycle.
        add, one = self.add, self.one
        seen: dict[int, int] = {}  # iterate -> steps left when first reached
        x, steps = one, k - 1
        while steps and x not in seen:
            seen[x] = steps
            x = add[x][one]
            steps -= 1
        if steps:
            for _ in range(steps % (seen[x] - steps)):
                x = add[x][one]
        return x

    def ops(self) -> dict[str, object]:
        """line_tables read back as tuples: every operation, sub and div included."""
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
        tables = {"zero": self.zero, "one": self.one,
                  "add": self.add, "mul": self.mul, "neg": self.neg}
        if self.inv is not None:
            tables["inv"] = self.inv
        encoded = encode_tables(tables, self.size)
        codes, read = encoded.tables, encoded.read
        return encoded.with_tables({
            key: [read(codes[inner][0], row) for row in codes[outer][1][:self.size]]
            for key, outer, inner in (("sub", "add", "neg"), ("div", "mul", "inv"))
            if inner in codes})


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
#: The number of operands of each operator key.
OP_ARITY = {key: len(constructor._fields) for constructor, key in OP_KEY.items()}

# The shapes of a subterm's values along a line: one value for the whole
# line, the bare last variable (ident, 0..n-1), or a computed line.
_SCALAR, _BARE, _LINE = range(3)


class LineTables(NamedTuple):
    """Operation tables in the form the code of equation_lines reads.

    A line is a bytes object when size is at most 255 and a tuple
    otherwise; seq builds one from values and read(line, table) gives
    table[v] for each value v of line.  The value size stands for an
    undecided entry, and every table maps it to itself.  tables maps
    each key to its constant, to (line, padded) for a unary table, or to
    (rows, padded rows, padded columns) for a binary one.  A padded
    table maps size, and every value above it, to size, so on bytes it
    is a bytes.translate table; rows[size] and the padded row and column
    at size hold only size.
    """

    size: int
    ident: Sequence[int]
    read: Callable
    seq: Callable
    tables: dict[str, object]

    def with_tables(self, tables: Mapping[str, object], partial: bool = False) -> LineTables:
        """These tables with those of tables encoded and added or replaced."""
        more = encode_tables(tables, self.size, partial).tables
        return self._replace(tables={**self.tables, **more})


def _read_tuple(line: tuple, table: Sequence) -> tuple:
    return itemgetter(*line)(table)


def encode_tables(tables: Mapping[str, object], size: int, partial: bool = False) -> LineTables:
    """Encode operation tables on the carrier 0..size-1 for equation_lines.

    tables maps operator keys to a constant, a unary table or a binary
    table (a sequence of rows).  In partial mode an entry may be None,
    not yet decided, and is encoded as size.  Raises ValueError for a
    table of the wrong shape and for any other entry that is not an
    integer in 0..size-1.
    """
    small = size < 256
    seq = bytes if small else tuple
    ident = seq(range(size))
    fill = seq((size,)) * (256 if small else size + 1)
    pad = fill[size:]

    def entries(key: str, table) -> Sequence[int]:
        # The entries of table in row-major order, each checked.
        arity = OP_ARITY[key]
        try:
            values = [table] if arity == 0 else [*table]
            if arity == 2 and any(len(row) != size for row in values):
                raise TypeError
            values = [*chain.from_iterable(values)] if arity == 2 else values
        except TypeError:
            values = None
        if values is None or len(values) != size ** arity:
            raise ValueError(f"table {key!r} is not a table of arity {arity} on {size} elements")
        undecided = values.count(None) if partial else 0
        if undecided:
            values = [size if v is None else v for v in values]
        try:
            flat = bytes(values) if small else tuple(map(index, values))
        except (TypeError, ValueError):  # not an integer, or not a byte
            flat = None
        # Entries other than 0..size-1 are the undecided ones, or wrong.
        if flat is None or undecided != len(
            flat.translate(None, ident) if small else [v for v in flat if not 0 <= v < size]
        ):
            raise ValueError(f"table {key!r} holds a value outside the carrier 0..{size - 1}")
        return flat

    codes: dict[str, object] = {}
    for key, table in tables.items():
        if key not in OP_ARITY:
            raise ValueError(f"unknown operator key {key!r}")
        flat = entries(key, table)
        if OP_ARITY[key] == 0:
            codes[key] = flat[0]
        elif OP_ARITY[key] == 1:
            codes[key] = flat, flat + pad
        else:
            rows = [flat[x * size:(x + 1) * size] for x in range(size)] + [fill[:size]]
            codes[key] = (rows, [row + pad for row in rows],
                          [flat[y::size] + pad for y in range(size)] + [fill])
    return LineTables(size, ident, bytes.translate if small else _read_tuple, seq, codes)


@lru_cache(maxsize=512)
def _generate(lhs: Term, rhs: Term, names: tuple[str, ...], keys: frozenset[str]) -> Callable:
    """Compile lhs = rhs into the generator lines(E) equation_lines returns.

    Its source is a nest of for loops over the values o0, o1, ... of all
    names but the last, and each subterm is computed in the outermost loop
    where its operands are known.  A node is (shape, name, depth): its
    values, a local of the generated code bound in the loop at depth.  The
    source holds only these fixed identifiers and the table keys of
    OP_KEY, and it is the same for every LineTables encoding.
    """
    index = {name: j for j, name in enumerate(names[:-1])}
    body: list[list[str]] = [[] for _ in range(max(len(names), 1))]
    read: set[str] = set()
    bound: dict[str, tuple] = {}  # by expression, so each is computed once

    def bind(shape: int, depth: int, expr: str) -> tuple:
        if expr not in bound:
            bound[expr] = shape, f"t{len(bound)}", depth
            body[depth].append(f"t{len(bound) - 1} = {expr}")
        return bound[expr]

    def table(key: str) -> str:
        if key not in keys:
            # div is tabulated exactly when inv is: name the pair inv, as evaluation does.
            missing = "inv" if key == "div" and "inv" not in keys else key
            raise ValueError(f"model provides no interpretation for {missing!r}")
        read.add(key)
        return key

    def apply(key: str, *args: tuple) -> tuple:
        depth = max(a[2] for a in args)
        shapes = tuple(a[0] for a in args)
        x, y = args[0][1], args[-1][1]

        def part(table: str, a: tuple) -> str:
            # table[a], bound in a's loop when that is outside this one
            expr = f"{table}[{a[1]}]"
            return bind(None, a[2], expr)[1] if a[2] < depth else expr

        if shapes == (_SCALAR,):
            return bind(_SCALAR, depth, f"{key}_p[{x}]")
        if shapes == (_SCALAR, _SCALAR):
            return bind(_SCALAR, depth, f"{part(key + '_p', args[0])}[{y}]")
        if shapes == (_BARE,):
            return _LINE, key, 0
        if shapes == (_SCALAR, _BARE):
            return bind(_LINE, depth, f"{key}[{x}]")
        if len(args) == 1:
            return bind(_LINE, depth, f"read({x}, {key}_p)")
        if shapes[0] == _SCALAR:
            return bind(_LINE, depth, f"read({y}, {part(key + '_p', args[0])})")
        if shapes[1] == _SCALAR:
            return bind(_LINE, depth, f"read({x}, {part(key + '_c', args[1])})")
        return bind(_LINE, depth, f"seq(map(getitem, map({key}_p.__getitem__, {x}), {y}))")

    def var(node: Var) -> tuple:
        if names and node.name == names[-1]:
            return _BARE, "ident", 0
        if node.name not in index:
            raise MissingAssignment(node.name)
        j = index[node.name]
        return _SCALAR, f"o{j}", j + 1

    def operation(node: Term, *args: tuple) -> tuple:
        key = table(OP_KEY[type(node)])
        return apply(key, *args) if args else (_SCALAR, key, 0)

    def side(t: Term) -> str:
        shape, name, depth = fold(t, algebra, memo)
        if shape == _SCALAR:
            return bind(_LINE, depth, f"seq(({name},))" + (" * size" if names else ""))[1]
        return name

    algebra = dict.fromkeys(OP_KEY, operation)
    algebra[Var] = var
    memo: dict[Term, tuple] = {}
    left, right = side(lhs), side(rhs)
    source = ["def lines(E):", "    size, ident, read, seq, T = E", "    R = range(size)"]
    for key in sorted(read):
        targets = ", ".join([key, f"{key}_p", f"{key}_c"][:OP_ARITY[key] + 1])
        source.append(f"    {targets} = T[{key!r}]")
    for depth, statements in enumerate(body):
        indent = "    " * (depth + 1)
        if depth:
            source.append(f"{indent[4:]}for o{depth - 1} in R:")
        source += [indent + s for s in statements]
    outer = "".join(f"o{j}, " for j in range(len(body) - 1))
    source += [f"{indent}if {left} != {right}:", f"{indent}    yield ({outer}), {left}, {right}"]
    namespace = {"getitem": getitem}
    exec(compile("\n".join(source), "<equation_lines>", "exec"), namespace)
    return namespace["lines"]


@lru_cache(maxsize=512)
def equation_names(lhs: Term, rhs: Term) -> tuple[str, ...]:
    """The variables of lhs = rhs, sorted: the names equation_lines takes."""
    return tuple(sorted(free_vars(lhs) | free_vars(rhs)))


def equation_lines(
    lhs: Term,
    rhs: Term,
    names: Sequence[str],
    keys: Collection[str],
) -> Callable[[LineTables], Iterator[tuple[tuple[int, ...], Sequence[int], Sequence[int]]]]:
    """Compile lhs = rhs for evaluation one line of assignments at a time.

    names are the variables, sorted, and keys the operator keys (zero,
    one, add, mul, neg, inv, div, sub) the tables will hold; each
    operation reads its own table, and one whose key is missing raises
    ValueError.  The result maps tables encoded by encode_tables to an
    iterator over the lines of assignments of 0..size-1 to names, in
    row-major order, one line per value of all names but the last, on
    which the two sides differ: it yields (outer, lhs values, rhs
    values), outer being those values and each side holding one value
    per value of the last name (a single value when names is empty) as a
    line of the encoding.  The value size is an undecided entry; it
    propagates through every table read, so a side holds size wherever
    its value reads an undecided entry.  A line not yielded holds equal
    sides at every assignment.  Each
    equation is compiled once per process (see _generate), whatever the
    size, encoding and tables.
    """
    return _generate(lhs, rhs, tuple(names), frozenset(keys))


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


#: The most assignments check_axioms enumerates in one call: it refuses
#: (ValueError) a presentation and model that need more instead of
#: running for minutes.  On a 2-vCPU machine imd runs at 355 million
#: assignments a second in Z_211, where lines are bytes, and at 34
#: million in Z_257, where they are tuples, so the cap is about 0.3 s and
#: 3 s of work.  imd, whose three 3-variable axioms dominate its count,
#: is checked in Z_p up to p = 321.
MAX_ASSIGNMENTS = 10**8


def capped_equations(action: str, p, size: int, trials: int = 0) -> list[tuple]:
    """The pairs (equation, equation_names) of presentation p; ValueError
    when evaluating each one at every assignment of 0..size-1 to its
    variables, 1 + trials times, takes more than MAX_ASSIGNMENTS."""
    equations = [(eq, equation_names(eq.lhs, eq.rhs)) for eq in p.axioms]
    work = (1 + trials) * sum(size ** len(names) for _, names in equations)
    if work > MAX_ASSIGNMENTS:
        raise ValueError(
            f"{action} {p.name} in a model of size {size} needs {work} "
            f"assignments, more than the cap of {MAX_ASSIGNMENTS}"
        )
    return equations


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

    Exists for every prime p because -1 is a sum of two squares mod p;
    (u, v) is two_squares(p, p - 1), so the smallest u comes first.
    """
    u, v = two_squares(p, p - 1)
    return u, v, (u * u + v * v + 1) // p
