"""Term syntax for meadows.

A meadow term is a finite tree over the constants 0 and 1, variables,
addition, multiplication, additive inverse, and either a unary
multiplicative inverse (inversive notation) or a binary division
(divisive notation).  Binary subtraction is surface syntax everywhere
except in the reduced divisive signature, where it is a primitive
constructor of its own.

Terms are immutable and interned (hash-consed): building a term returns
the one live object with that constructor and those children.  Two terms
are structurally equal -- the equality meant whenever two terms are
called "syntactically equal" -- exactly when they are the same object,
so == and hash take constant time at any depth.  The intern tables hold
their terms weakly and shrink as terms are dropped.

A numeral k >= 2, the term (...(1 + 1) + ...) + 1, is one interned Add
node that carries k: numeral(k) and Add(numeral(k - 1), 1) both return
it in constant time, and its children (numeral(k - 1), 1) are built only
when something reads them.  Its image in the reduced divisive notation,
the chain (...(1 - (1 - 1 - 1)) - ...) - (1 - 1 - 1) of k - 1
subtractions, is likewise one interned Sub node that carries k.

Every walk over a term but printing is a fold: fold(t, algebra)
combines child results bottom-up with an explicit stack, visiting each
distinct subterm once, so term depth is bounded by memory, not by
Python's recursion limit.  An algebra with a NUMERAL entry takes each
chain node of either kind as one leaf, given the node (whose type tells
the kind) and k; any other algebra walks the chain through its children.
"""

from __future__ import annotations

import re
import sys
import threading
import weakref
from _weakref import _remove_dead_weakref
from collections import defaultdict
from enum import Enum
from operator import index
from typing import Callable, Mapping, TypeVar

__all__ = [
    "Term", "Zero", "One", "Var", "Add", "Mul", "Neg", "Inv", "Div", "Sub",
    "ZERO", "ONE", "CONSTRUCTORS", "NUMERAL", "Signature", "SignatureError",
    "fold", "rebuild", "constructors",
    "numeral", "power", "conforms", "check_conforms", "subst", "free_vars",
]

_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

R = TypeVar("R")


class SignatureError(ValueError):
    """A term uses a symbol outside the signature it is checked against."""

    def __init__(self, symbol: str, sig: "Signature"):
        self.symbol = symbol
        self.sig = sig
        super().__init__(f"{symbol} not in signature {sig.value}")


class _Ref(weakref.ref):
    """A weak reference to an interned term that remembers where it is stored."""

    __slots__ = ("table", "key")


# Each constructor interns its terms in its own table, which maps the
# constructor arguments to a weak reference to the live term built from
# them.  A key gains a reference only atomically (setdefault), loses it
# only once it is dead (atomically, as in weakref.WeakValueDictionary),
# and a dead one is replaced only under the lock, so two threads building
# the same term get the same object.
_REPLACE_LOCK = threading.Lock()


def _forget(ref: _Ref, remove=_remove_dead_weakref) -> None:
    # Bound as a default so that it survives module teardown at exit.
    remove(ref.table, ref.key)


def _intern(table: dict, key, node: "Term") -> "Term":
    """The live term stored under key: node, unless one was stored first."""
    ref = _Ref(node, _forget)
    ref.table = table
    ref.key = key
    while True:
        stored = table.setdefault(key, ref)
        if stored is ref:
            return node
        live = stored()
        if live is not None:
            return live
        with _REPLACE_LOCK:
            if table.get(key) is stored:
                table[key] = ref
                return node


_CALL_SHAPES: dict[type, tuple] = {}


class Term:
    """A meadow term.  Each subclass is one constructor.

    children holds the subterms in order (none for 0, 1 and variables),
    and a constructor's _fields name them.  _symbols has the bit of every
    constructor occurring in the term, so signature checks that pass take
    constant time.  _numeral is k for the chain node of k >= 2, a
    numeral (Add) or its reduced divisive image (Sub), and 0 for every
    other term.
    """

    __slots__ = ("children", "_symbols", "_numeral", "__weakref__")
    _fields: tuple[str, ...] = ()
    _bit = 0
    _interned: dict = {}
    _step: "Term | None" = None  # the right child of each link of a chain

    def __new__(cls, *children: "Term") -> "Term":
        table = cls._interned
        ref = table.get(children)
        node = None if ref is None else ref()
        if node is None:
            if len(children) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes {len(cls._fields)} subterm(s)")
            if cls._step is not None and children[1] is cls._step:
                left = children[0]
                if left is ONE or type(left) is cls and left._numeral:
                    return _chain(cls, (left._numeral or 1) + 1)
            symbols = cls._bit
            for kid in children:
                symbols |= kid._symbols
            node = object.__new__(cls)
            _SET_CHILDREN(node, children)
            _SET_SYMBOLS(node, symbols)
            _SET_NUMERAL(node, 0)
            node = _intern(table, children, node)
        return node

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._interned = {}
        # repr prints a node as a call of its constructor (parsing._spell).
        _CALL_SHAPES[cls] = (f"{cls.__name__}(", ", " * (len(cls._fields) == 2), ")", 0, 0)
        for i, field in enumerate(cls._fields):
            setattr(cls, field, property(lambda t, i=i: t.children[i]))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} terms are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # A flat post-order list, so pickling and deep copies of a term of
        # any depth do not recurse.
        return _unflatten, (_flatten(self),)

    def __repr__(self) -> str:
        from .parsing import _CALLS, _spell
        return _spell(self, _CALLS)


_SET_CHILDREN = Term.children.__set__
_SET_SYMBOLS = Term._symbols.__set__
_SET_NUMERAL = Term._numeral.__set__


class Zero(Term):
    __slots__ = ()


class One(Term):
    __slots__ = ()


class Var(Term):
    __slots__ = ("name",)
    children = ()

    def __new__(cls, name: str) -> "Var":
        ref = cls._interned.get(name)
        node = None if ref is None else ref()
        if node is None:
            if not _IDENT_RE.match(name):
                raise ValueError(f"invalid variable name: {name!r}")
            node = object.__new__(cls)
            Var.name.__set__(node, name)
            _SET_SYMBOLS(node, cls._bit)
            _SET_NUMERAL(node, 0)
            node = _intern(cls._interned, name, node)
        return node


def _chain_children(self: Term, name: str):
    """The __getattr__ of Add and Sub, called only for an unset slot: a
    chain node builds its children when they are first read.  (On Term it
    would slow every attribute read of every term.)"""
    if name == "children" and self._numeral:
        children = (_chain(type(self), self._numeral - 1), self._step)
        _SET_CHILDREN(self, children)
        return children
    raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")


class Add(Term):
    __slots__ = ()
    _fields = ("left", "right")
    __getattr__ = _chain_children


class Mul(Term):
    __slots__ = ()
    _fields = ("left", "right")


class Neg(Term):
    __slots__ = ()
    _fields = ("arg",)


class Inv(Term):
    __slots__ = ()
    _fields = ("arg",)


class Div(Term):
    __slots__ = ()
    _fields = ("num", "den")


class Sub(Term):
    """Binary subtraction, primitive only in the reduced divisive signature."""

    __slots__ = ()
    _fields = ("left", "right")
    __getattr__ = _chain_children


CONSTRUCTORS = (Zero, One, Var, Add, Mul, Neg, Inv, Div, Sub)
for _i, _cls in enumerate(CONSTRUCTORS):
    _cls._bit = 1 << _i

ZERO = Zero()
ONE = One()
Add._step = ONE
Sub._step = Sub(Sub(ONE, ONE), ONE)  # -1 in the reduced divisive notation

#: The algebra key of the chain case of a fold: algebra[NUMERAL](node, k).
NUMERAL = "numeral"


def _chain(cls: type, k: int) -> Term:
    """1 for k = 1, else cls(_chain(cls, k - 1), cls._step): the numeral k
    for Add, its reduced divisive image for Sub.

    Above 1 it is one cls node that carries k, found or built in constant
    time; its children are built when first read.
    """
    if k < 2:
        return ONE
    # The intern table keys a chain node by k, every other by its children.
    table = cls._interned
    ref = table.get(k)
    node = None if ref is None else ref()
    if node is None:
        node = object.__new__(cls)
        _SET_SYMBOLS(node, One._bit | cls._bit)
        _SET_NUMERAL(node, k)
        node = _intern(table, k, node)
    return node


def numeral(n: int) -> Term:
    """The canonical term for the natural number n: 0, 1, 1+1, (1+1)+1, ...

    Above 1 it is one Add node that carries n, found or built in constant
    time; its children (numeral(n - 1), 1) are built when first read.
    """
    n = index(n)
    if n < 0:
        raise ValueError("numerals are defined for naturals only")
    return _chain(Add, n) if n else ZERO


def _spellable(k: int) -> int:
    """k, or ValueError above sys.maxsize // 8, where numeral k spelled out
    (at least four bytes of text per unit) could not exist."""
    if k > sys.maxsize // 8:
        raise ValueError(f"numeral {_decimal(k)} is too large to spell out")
    return k


# The interpreter's lowest limit on the digits of an int converted from or to
# text (PYTHONINTMAXSTRDIGITS): longer numbers are converted in chunks of as
# many digits, so that every setting of the limit admits the same numbers.
_CHUNK_DIGITS = 640
_CHUNK = 10 ** _CHUNK_DIGITS


def _integer(digits: str) -> int:
    """int(digits) of a string of decimal digits."""
    if len(digits) <= _CHUNK_DIGITS:
        return int(digits)
    return _integer(digits[:-_CHUNK_DIGITS]) * _CHUNK + int(digits[-_CHUNK_DIGITS:])


def _decimal(n: int) -> str:
    """str(n) of an int."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    rest, chunks = abs(n), []
    while rest >= _CHUNK:
        rest, chunk = divmod(rest, _CHUNK)
        chunks.append(f"{chunk:0{_CHUNK_DIGITS}}")
    return "-" * (n < 0) + str(rest) + "".join(reversed(chunks))


def fold(t: Term, algebra: Mapping[type | str, Callable[..., R]],
         memo: dict[Term, R] | None = None) -> R:
    """Fold t bottom-up: a node's result is algebra[type(node)](node, *child results).

    Children are folded left to right before their parent, each distinct
    subterm once (shared subterms are one object, so their result is
    reused).  When algebra has a NUMERAL entry, a chain node that carries
    k >= 2 (numeral k, or its reduced divisive image) is a leaf whose
    result is algebra[NUMERAL](node, k); otherwise its children are folded
    like any others.  memo, when given, holds the results of
    earlier folds with the same algebra, which are reused, and receives
    this fold's.  The walk keeps its own stack, so any depth that fits in
    memory works.
    """
    done: dict[Term, R] = {} if memo is None else memo
    if t in done:
        return done[t]
    numeral_case = algebra.get(NUMERAL)
    if numeral_case and t._numeral:
        done[t] = numeral_case(t, t._numeral)
        return done[t]
    result = done.__getitem__
    stack = [t]  # the path from t down to the node being worked on
    while stack:
        node = stack[-1]
        for kid in node.children:
            if kid not in done:
                if numeral_case and kid._numeral:
                    done[kid] = numeral_case(kid, kid._numeral)
                elif kid.children:
                    stack.append(kid)
                    break
                else:
                    done[kid] = algebra[type(kid)](kid)
        else:
            stack.pop()
            done[node] = algebra[type(node)](node, *map(result, node.children))
    return done[t]


def _flatten(t: Term) -> tuple[tuple, ...]:
    """t's distinct subterms in post-order: (Var, name) for a variable,
    (_chain, Add or Sub, k) for a chain node, else the constructor and the
    positions of its children in the list."""
    nodes: list[tuple] = []

    def visit(node: Term, *kids: int) -> int:
        nodes.append((Var, node.name) if type(node) is Var else (type(node), *kids))
        return len(nodes) - 1

    def visit_chain(node: Term, k: int) -> int:
        nodes.append((_chain, type(node), k))
        return len(nodes) - 1

    fold(t, defaultdict(lambda: visit, {NUMERAL: visit_chain}))
    return tuple(nodes)


def _unflatten(nodes: tuple[tuple, ...]) -> Term:
    """The term _flatten encoded: the last of its nodes."""
    out: list[Term] = []
    for cls, *args in nodes:
        # Term.__new__ takes the children, whatever cls's own constructor takes.
        out.append(cls(*args) if cls is Var or cls is _chain
                   else Term.__new__(cls, *map(out.__getitem__, args)))
    return out[-1]


def rebuild(node: Term, *children: Term) -> Term:
    """node with its children replaced; node itself when they are unchanged."""
    return node if children == node.children else type(node)(*children)


class Signature(Enum):
    """The eight symbol sets terms are checked against."""

    CR = "cr"          # 0 1 + * -(unary)
    IMD = "imd"        # CR plus ^-1
    DMD = "dmd"        # CR plus /
    IAMD = "iamd"      # 1 + * ^-1
    DAMD = "damd"      # 1 + * /
    IAMDZ = "iamdz"    # 0 1 + * ^-1
    DAMDZ = "damdz"    # 0 1 + * /
    RD = "rd"          # 1 -(binary) /


_CR_NODES = frozenset({Zero, One, Var, Add, Mul, Neg})

_ALLOWED: dict[Signature, frozenset[type]] = {
    Signature.CR: _CR_NODES,
    Signature.IMD: _CR_NODES | {Inv},
    Signature.DMD: _CR_NODES | {Div},
    Signature.IAMDZ: frozenset({Zero, One, Var, Add, Mul, Inv}),
    Signature.DAMDZ: frozenset({Zero, One, Var, Add, Mul, Div}),
    Signature.IAMD: frozenset({One, Var, Add, Mul, Inv}),
    Signature.DAMD: frozenset({One, Var, Add, Mul, Div}),
    Signature.RD: frozenset({One, Var, Sub, Div}),
}

# The bits of the constructors outside each signature.
_FORBIDDEN = {
    sig: sum(c._bit for c in CONSTRUCTORS if c not in allowed)
    for sig, allowed in _ALLOWED.items()
}

# Display names used in error messages, one per constructor.
_SYMBOL_NAME: dict[type, str] = {
    Zero: "0",
    One: "1",
    Add: "+",
    Mul: "*",
    Neg: "- (unary)",
    Inv: "^-1",
    Div: "/",
    Sub: "- (binary)",
}


def power(t: Term, n: int) -> Term:
    """Exponentiation by a natural number: t^0 = 1 and t^(n+1) = t^n * t."""
    if n < 0:
        raise ValueError("exponents are naturals only")
    out: Term = ONE
    for _ in range(n):
        out = Mul(out, t)
    return out


def constructors(t: Term) -> frozenset[type]:
    """The constructors occurring in t."""
    return frozenset(c for c in CONSTRUCTORS if t._symbols & c._bit)


def conforms(t: Term, sig: Signature) -> bool:
    """True iff every constructor occurring in t belongs to sig's symbol set."""
    return not t._symbols & _FORBIDDEN[sig]


def check_conforms(t: Term, sig: Signature) -> None:
    """Like conforms, but raises SignatureError naming the offending symbol."""
    forbidden = _FORBIDDEN[sig]
    if t._symbols & forbidden:
        # The offender named is the first met visiting each node before its
        # children and the right child before the left.
        node = t
        while not node._bit & forbidden:
            node = next(kid for kid in reversed(node.children) if kid._symbols & forbidden)
        raise SignatureError(_SYMBOL_NAME[type(node)], sig)


def subst(t: Term, v: str, replacement: Term) -> Term:
    """Replace every occurrence of the variable v in t by replacement."""
    algebra = dict.fromkeys(CONSTRUCTORS, rebuild)
    algebra[Var] = lambda node: replacement if node.name == v else node
    algebra[NUMERAL] = _itself
    return fold(t, algebra)


def _itself(node: Term, k: int) -> Term:
    """The numeral case of a fold that rebuilds terms: a closed term stays."""
    return node


def _union(node: Term, *kids: frozenset[str]) -> frozenset[str]:
    names = _NO_VARS
    for other in kids:
        if not other <= names:
            names = names | other
    return names


_NO_VARS: frozenset[str] = frozenset()
_FREE_VARS = dict.fromkeys(CONSTRUCTORS, _union)
_FREE_VARS[Var] = lambda node: frozenset((node.name,))
_FREE_VARS[NUMERAL] = lambda node, k: _NO_VARS


def free_vars(t: Term) -> frozenset[str]:
    """The set of variable names occurring in t."""
    return fold(t, _FREE_VARS)
