"""The exhaustive engine: each equation of a finite specification checked
at every assignment of carrier values to its variables.

equation_lines compiles an equation, once per process, into generated
straight-line Python that evaluates it one line of assignments at a
time, a line being every value of its last variable, and yields only
the lines whose two sides differ.  On a carrier of at most 255 elements
a line is a bytes object and each table read along it is one
bytes.translate, in C; larger carriers run the same code on tuples.
encode_tables checks and encodes the tables the code reads, and
capped_equations refuses more than MAX_ASSIGNMENTS assignments before a
table is built.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import getitem, index, itemgetter
from typing import Callable, Collection, Iterator, Mapping, NamedTuple, Sequence

from .semantics import MissingAssignment
from .terms import Add, Div, Inv, Mul, Neg, One, Sub, Term, Var, Zero, fold, free_vars

__all__ = [
    "OP_KEY", "OP_ARITY", "LineTables", "encode_tables", "equation_names", "equation_lines",
    "MAX_ASSIGNMENTS", "capped_equations",
]

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

    def with_tables(self, tables: Mapping[str, object], partial: bool = False,
                    checked: bool = False) -> LineTables:
        """These tables with those of tables encoded and added or replaced."""
        more = encode_tables(tables, self.size, partial, checked).tables
        return self._replace(tables={**self.tables, **more})


def _read_tuple(line: tuple, table: Sequence) -> tuple:
    return itemgetter(*line)(table)


def encode_tables(tables: Mapping[str, object], size: int, partial: bool = False,
                  checked: bool = False) -> LineTables:
    """Encode operation tables on the carrier 0..size-1 for equation_lines.

    tables maps operator keys to a constant, a unary table or a binary
    table (a sequence of rows).  In partial mode an entry may be None,
    not yet decided, and is encoded as size.  Raises ValueError for a
    table of the wrong shape and for any other entry that is not an
    integer in 0..size-1.  The entries of checked tables, such as tables
    derived from encoded ones, are known to lie in 0..size-1 and are not
    checked again.
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
        if flat is None or not checked and (
            undecided != len(flat.translate(None, ident)) if small
            else not 0 <= min(flat) <= max(flat) <= size or flat.count(size) != undecided
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
