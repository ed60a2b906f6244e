"""Normal forms and decision procedures for arithmetical meadows.

Every arithmetical term (built from 1, variables, +, *, and inverse)
is equal to a quotient of two inverse-free terms, and inverse-free
terms expand to multivariate polynomials with positive integer
coefficients.  Two terms are provably equal exactly when their
cross-multiplied polynomial expansions coincide, which makes equality
decidable by comparing canonical forms.

With zero in the signature, zero elimination rewrites every term to 0
or to a zero-free term, closed terms normalize to 0 or to a coprime
fraction of numerals, and equality under the general inverse law
(x != 0 implies x * x^-1 = 1) is decided by a walk over
zero-substitutions: one comparison of quotients for the minimal zero set
of each vanishing pattern of the variables under an inverse, found from
bit-parallel truth tables and refused above 20 such variables, computed
on the polynomial kernel without rebuilding terms.

Divisive counterparts are decided through the projection into the
inversive notation.  One table gives each decided theory (iamd,
iamdz-gil, damd, damdz-gil) the signature of its terms, whether they are
projected first, and whether equality is under the general inverse law.
One quotient fold serves to_polyfrac, expand_poly and the deciders, and
one walk decides every theory: it returns the verdict with its reason,
the first zero set at which the sides differ and the two sides there.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from typing import NamedTuple, Union

from .projection import Projection, project
from .terms import (
    NUMERAL, Add, Inv, Mul, One, Term, Var, Zero,
    Signature, SignatureError, _decimal, _itself, check_conforms, conforms, fold, free_vars,
    rebuild,
)

__all__ = [
    "Monomial", "Polynomial", "PolyFrac",
    "ZeroNF", "Frac", "ZERO_NF", "NormalForm",
    "to_polyfrac", "expand_poly", "decide_iamd",
    "normal_form_closed", "zero_eliminate", "decide_iamdz_gil",
    "decide_divisive", "UnsupportedTheory", "TooManyInverseVariables", "decide_by_theory",
]


# The polynomial kernel: a monomial is a sorted tuple of (variable,
# exponent) pairs, () being the unit, and a polynomial is a dict from
# monomials to positive coefficients.  Kernel dicts are never mutated
# once built, so a result may share its argument.

_UNIT = {(): 1}


def _mono_mul(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return out


def _poly_mul(p: dict, q: dict) -> dict:
    if q is _UNIT:
        return p
    if p is _UNIT:
        return q
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return out


class Monomial(namedtuple("Monomial", "exponents")):
    """A product of variables with positive exponents; () is the unit."""

    __slots__ = ()

    def __new__(cls, exponents: tuple[tuple[str, int], ...] = ()):
        names = [v for v, _ in exponents]
        if names != sorted(names) or len(set(names)) != len(names):
            raise ValueError("monomial variables must be sorted and distinct")
        if any(e < 1 for _, e in exponents):
            raise ValueError("monomial exponents must be positive")
        return super().__new__(cls, exponents)

    @staticmethod
    def variable(name: str) -> "Monomial":
        return Monomial(((name, 1),))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(_mono_mul(self.exponents, other.exponents))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exponents)

    def sort_key(self):
        # Degree first, then variables alphabetically; total and canonical.
        return (self.degree, self.exponents)

    def __str__(self):
        if not self.exponents:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.exponents)


UNIT_MONOMIAL = Monomial()


class Polynomial(namedtuple("Polynomial", "terms")):
    """Sum of monomials with positive integer coefficients, canonically ordered."""

    __slots__ = ()

    def __new__(cls, terms: tuple[tuple[Monomial, int], ...]):
        if not terms:
            raise ValueError("polynomials here have at least one term")
        if any(c < 1 for _, c in terms):
            raise ValueError("coefficients must be positive integers")
        keys = [m.sort_key() for m, _ in terms]
        if keys != sorted(keys, reverse=True):
            raise ValueError("polynomial terms must be in canonical order")
        return super().__new__(cls, terms)

    @staticmethod
    def constant(k: int) -> "Polynomial":
        return Polynomial(((UNIT_MONOMIAL, k),))

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return Polynomial(((Monomial.variable(name), 1),))

    @staticmethod
    def _from_kernel(coeffs: dict) -> "Polynomial":
        terms = [(Monomial(m), c) for m, c in coeffs.items()]
        return Polynomial(tuple(sorted(terms, key=lambda mc: mc[0].sort_key(), reverse=True)))

    def _kernel(self) -> dict:
        return {m.exponents: c for m, c in self.terms}

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial._from_kernel(_poly_add(self._kernel(), other._kernel()))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial._from_kernel(_poly_mul(self._kernel(), other._kernel()))

    def __str__(self):
        parts = []
        for m, c in self.terms:
            if m == UNIT_MONOMIAL:
                parts.append(_decimal(c))
            elif c == 1:
                parts.append(str(m))
            else:
                parts.append(f"{_decimal(c)}*{m}")
        return " + ".join(parts)


class PolyFrac(NamedTuple):
    """A term presented as numerator * denominator^-1, both inverse-free."""

    num: Polynomial
    den: Polynomial

    def __str__(self):
        return f"({self.num}) / ({self.den})"


def to_polyfrac(t: Term) -> PolyFrac:
    """Rewrite an arithmetical term as a quotient of two polynomials.

    Inverses distribute over products and cancel pairwise, so the
    fold pushes every inverse to the top: a quotient is inverted by
    swapping its components, and sums and products combine component-wise.
    """
    check_conforms(t, Signature.IAMD)
    return _polyfrac(fold(t, _quotients({})))


def _polyfrac(quotient: tuple) -> PolyFrac:
    """The PolyFrac of (num, den, ...) kernel dicts."""
    return PolyFrac(Polynomial._from_kernel(quotient[0]), Polynomial._from_kernel(quotient[1]))


# The one quotient fold, of to_polyfrac, expand_poly and the decision walk.
# A term folds to ZERO_NF, or to the (num, den) kernel dicts of its quotient
# and the bits of the variables it keeps.  The zero rules of zero_eliminate
# apply on the way, so a term with 0 folds to the quotient of its
# zero-eliminated form; the variable case depends on the bits of a call.
_QUOTIENT = {
    Zero: lambda t: ZERO_NF,
    One: lambda t: (_UNIT, _UNIT, 0),
    Add: lambda t, l, r: r if l is ZERO_NF else l if r is ZERO_NF else (
        _poly_add(_poly_mul(l[0], r[1]), _poly_mul(r[0], l[1])),
        _poly_mul(l[1], r[1]), l[2] | r[2]),
    Mul: lambda t, l, r: ZERO_NF if l is ZERO_NF or r is ZERO_NF else (
        _poly_mul(l[0], r[0]), _poly_mul(l[1], r[1]), l[2] | r[2]),
    Inv: lambda t, arg: ZERO_NF if arg is ZERO_NF else (arg[1], arg[0], arg[2]),
    NUMERAL: lambda t, k: ({(): k}, _UNIT, 0),
}


def _quotients(bits: dict[str, int]) -> dict:
    """The quotient fold algebra in which each new variable takes the next bit of bits."""
    return {**_QUOTIENT, Var: lambda v: (
        {((v.name, 1),): 1}, _UNIT, bits.setdefault(v.name, 1 << len(bits)))}


def expand_poly(t: Term) -> Polynomial:
    """Fully expand an inverse-free arithmetical term to a canonical polynomial."""
    check_conforms(t, Signature.IAMD)
    # Inverse-free arithmetical terms are those conforming to iamd and damd;
    # their quotient has the unit denominator.
    if not conforms(t, Signature.DAMD):
        raise SignatureError("^-1", Signature.IAMD)
    return Polynomial._from_kernel(fold(t, _quotients({}))[0])


def decide_iamd(t: Term, u: Term) -> bool:
    """Equality of arithmetical terms: cross-multiplied expansions must match."""
    return _decide(_THEORIES["iamd"], t, u)[0] is None


def _same_quotient(p: tuple, q: tuple) -> bool:
    """Whether the quotients p and q, each (num, den, ...) kernel dicts, are equal."""
    return _poly_mul(p[0], q[1]) == _poly_mul(q[0], p[1])


class ZeroNF:
    """The normal form 0; ZERO_NF is its one instance."""

    __slots__ = ()

    def __repr__(self):
        return "ZERO_NF"

    def __str__(self):
        return "0"


class Frac(namedtuple("Frac", "num den")):
    """A positive rational in lowest terms, the normal form n * m^-1."""

    __slots__ = ()

    def __new__(cls, num: int, den: int):
        if num < 1 or den < 1:
            raise ValueError("normal-form components are positive")
        if gcd(num, den) != 1:
            raise ValueError("normal-form components are coprime")
        return super().__new__(cls, num, den)

    def __str__(self):
        num = _decimal(self.num)
        return f"{num}/{_decimal(self.den)}" if self.den != 1 else num


ZERO_NF = ZeroNF()
NormalForm = Union[ZeroNF, Frac]


def normal_form_closed(t: Term, sig: Signature) -> NormalForm:
    """Normalize a closed arithmetical term to 0 or a coprime fraction.

    Exact evaluation in the zero-totalized rationals realizes the normal
    form directly: without zero in the signature the value is a positive
    rational n/m, and with zero it may also be 0.
    """
    if sig not in (Signature.IAMD, Signature.IAMDZ):
        raise ValueError("normal forms are defined for iamd/iamdz terms")
    if t._symbols & Var._bit:
        raise ValueError(f"term is not closed: {sorted(free_vars(t))}")
    check_conforms(t, sig)
    # Imported here, so that deciding equality does not load the evaluators.
    from .semantics import eval_q0
    value = eval_q0(t, {})
    if value == 0:
        assert sig is Signature.IAMDZ, "zero is unreachable without 0 in the signature"
        return ZERO_NF
    return Frac(value.numerator, value.denominator)


def zero_eliminate(t: Term) -> Union[ZeroNF, Term]:
    """Rewrite an arithmetical-with-zero term to a zero-free term or to 0.

    Applies 0*x = 0, x+0 = x (in both argument orders), and 0^-1 = 0
    bottom-up to a fixed point; the rules only erase subterms, so the
    result does not depend on application order.
    """
    check_conforms(t, Signature.IAMDZ)
    return fold(t, _ZERO_ELIMINATE)


_ZERO_ELIMINATE = {
    Zero: lambda t: ZERO_NF,
    One: lambda t: t,
    Var: lambda t: t,
    Add: lambda t, l, r: r if l is ZERO_NF else l if r is ZERO_NF else rebuild(t, l, r),
    Mul: lambda t, l, r: ZERO_NF if l is ZERO_NF or r is ZERO_NF else rebuild(t, l, r),
    Inv: lambda t, arg: ZERO_NF if arg is ZERO_NF else rebuild(t, arg),
    NUMERAL: _itself,
}


def decide_iamdz_gil(t: Term, u: Term) -> bool:
    """Equality of arithmetical-with-zero terms under the general inverse law.

    A walk over zero-substitutions: both sides are zero-eliminated, a lone
    zero decides, and zero-free sides must agree both as quotients of
    polynomials and after substituting 0 for any further set of the
    variables that occur under an inverse.  The cost is one decision per
    minimal zero set of each vanishing pattern; more than
    MAX_INVERSE_VARIABLES (20) variables under an inverse are refused with
    TooManyInverseVariables.
    """
    return _decide(_THEORIES["iamdz-gil"], t, u)[0] is None


# The zero-substitution walk computes quotients, never terms.  A zero set is
# a bit set of variables, and a side is the zero-eliminated form of a
# subterm with those variables zeroed, as the quotient fold (_QUOTIENT) gives
# it: ZERO_NF, or the kernel dicts of a quotient and the bits it keeps.  Zero
# elimination is confluent and commutes with substituting 0, so a subterm's
# side depends only on the zero set's bits among its mask, the variables it
# keeps with nothing zeroed; memo keys (node, zero set & mask) share one
# side between all the zero sets that agree on the mask.
#
# Only the variables under an inverse (V_inv, those some inverse argument
# keeps) are zeroed.  Take a zero set Z and let W be its variables outside
# V_inv.  The pair for Z is the pair for Z - W with W zeroed afterwards,
# and zeroing W never changes an inverse argument: every denominator stays
# as it is, and nonzero, and a numerator P becomes P[W:=0].  If the pair for
# Z - W is equal as quotients P/Q and P'/Q', the identity P*Q' = P'*Q
# survives substituting 0 for W; Q and Q' are nonzero and all coefficients
# positive, so P[W:=0] is zero exactly when P'[W:=0] is: one side
# zero-eliminates to 0 exactly when the other does, and otherwise the
# quotients stay equal.  A pair that is ZERO_NF on both sides stays so.
# Zeroing a variable that neither side keeps leaves a pair as it is.
#
# Nor is each zero set of V_inv decided.  An inverse argument vanishes at Z
# when it zero-eliminates to 0 there; the pattern of Z is the set of those
# that do.  If Z' within Z has Z's pattern, no inverse argument starts to
# vanish from Z' to Z, and as for W above, equality at Z' survives zeroing
# Z - Z'.  So the cost is one decision per minimal zero set of each
# vanishing pattern (dropping any one of its variables changes the pattern).
# A differing set with the fewest variables is minimal; decided fewest first,
# then in lexicographic order of bits, as a breadth-first walk meets them.


def _sides_differ(left, right) -> bool:
    if left is ZERO_NF or right is ZERO_NF:
        return left is not right
    return not _same_quotient(left, right)


#: The most variables under an inverse for which the zero sets are tabulated.
MAX_INVERSE_VARIABLES = 20


class TooManyInverseVariables(ValueError):
    pass


# Vanishing at all 2^k zero sets of k variables, as truth tables in bit
# vectors (Knuth, TAOCP 4A, 7.1.1 and 7.1.3): bit z of a node's table is set
# when the node vanishes once the variables of the bits of z are zeroed.  A
# node keeping none of them vanishes everywhere (-1) if ZERO_NF, else nowhere.
_VANISHING = {Add: lambda l, r: l & r, Mul: lambda l, r: l | r, Inv: lambda a: a}


def _zero_sets(base: dict, live: list, zeroed: list[int]) -> list[int]:
    """The minimal zero sets over the bits zeroed (rising), fewest variables
    first and then in lexicographic order of bits.  base holds each node's
    side with nothing zeroed, and live, in post-order, each node that keeps
    any of zeroed with the bits of zeroed it keeps."""
    k = len(zeroed)
    if k > MAX_INVERSE_VARIABLES:
        raise TooManyInverseVariables(f"{k} variables occur under an inverse; the general "
                                      f"inverse law is decided for at most {MAX_INVERSE_VARIABLES}")
    minimal = (1 << (1 << k)) - 1
    if k > 1:  # one variable's zero set costs less to decide than to tabulate
        columns = []  # a variable's table, doubled in width with each new one
        for i in range(k):
            columns = [c | c << (1 << i) for c in columns] + [((1 << (1 << i)) - 1) << (1 << i)]
        column, tables = dict(zip(zeroed, columns)), {}
        for node, mask in live:
            tables[node] = column[mask] if type(node) is Var else _VANISHING[type(node)](*[
                tables[kid] if kid in tables else -1 if base[kid] is ZERO_NF else 0
                for kid in node.children])
        args = {tables[node] for node, _ in live if type(node) is Inv}
        for i, column in enumerate(columns):
            changed = 0  # where dropping variable i changes the pattern
            for table in args:
                changed |= table ^ table << (1 << i)
            minimal &= ~column | changed
    # The set bits of minimal, lowest first: one scan of its binary text,
    # where taking them one at a time off a 2^k-bit int would be quadratic.
    found, digits = [], bin(minimal)[:1:-1]
    z = digits.find("1")
    while z >= 0:
        found.append([bit for i, bit in enumerate(zeroed) if z >> i & 1])
        z = digits.find("1", z + 1)
    return [sum(bits) for bits in sorted(found, key=lambda bits: (len(bits), bits))]


def _walk(t: Term, u: Term, gil: bool):
    """Decide t = u on quotients of polynomials, with the reason.

    Returns None when the sides are equal, else the sorted names of the
    first zero set at which they differ; and the two sides there, or with
    nothing zeroed when they are equal.  Without the general inverse law
    (gil false) only the pair with nothing zeroed is decided.  Zero sets
    are decided fewest variables first, so no smaller zero set differs.
    """
    bits: dict[str, int] = {}
    algebra = _quotients(bits)
    # The sides with nothing zeroed, in post-order (a node after its
    # children); the same fold gives each variable the next bit.
    base: dict = {}
    left, right = fold(t, algebra, base), fold(u, algebra, base)
    if _sides_differ(left, right):
        return [], left, right
    under_inv = 0
    if gil and left is not ZERO_NF:
        # Only the variables under an inverse that the sides keep are zeroed.
        for node, side in base.items():
            if type(node) is Inv and side is not ZERO_NF:
                under_inv |= side[2]
        under_inv &= left[2] | right[2]
    if not under_inv:
        return None, left, right
    masks = {node: 0 if side is ZERO_NF else side[2] & under_inv for node, side in base.items()}
    live = [(node, mask) for node, mask in masks.items() if mask]
    memo: dict = {}  # (node, zero set & mask) -> side
    zeroed = [bit for bit in bits.values() if bit & under_inv]
    for zs in _zero_sets(base, live, zeroed)[1:]:  # the empty set is decided
        for node, mask in live:  # in post-order
            sub = zs & mask
            if sub and (node, sub) not in memo:
                memo[node, sub] = ZERO_NF if type(node) is Var else _QUOTIENT[type(node)](
                    node, *[memo[kid, s] if (s := zs & masks[kid]) else base[kid]
                            for kid in node.children])
        zl = memo[t, s] if (s := zs & masks[t]) else left
        zr = memo[u, s] if (s := zs & masks[u]) else right
        if _sides_differ(zl, zr):
            return sorted(name for name, bit in bits.items() if zs & bit), zl, zr
    return None, left, right


def decide_divisive(t: Term, u: Term, theory: str) -> bool:
    """Divisive counterparts of the two decision procedures.

    theory is "damd" or "damdz-gil"; both sides are translated into the
    inversive notation and decided there.
    """
    entry = _THEORIES.get(theory)
    if entry is None or not entry.divisive:
        raise ValueError(f"unknown divisive theory {theory!r}")
    return _decide(entry, t, u)[0] is None


class UnsupportedTheory(ValueError):
    pass


class _Theory(NamedTuple):
    """How the equations of a decided theory are decided."""

    sig: Signature  # the signature of its terms
    divisive: bool  # both sides are projected by Projection.DMN_TO_IMN first
    gil: bool  # equality under the general inverse law


# What is known of each decided theory; the CLI parses a theory's terms in
# its signature.  Plain iamdz and damdz are refused by _theory.
_THEORIES = {
    "iamd": _Theory(Signature.IAMD, divisive=False, gil=False),
    "iamdz-gil": _Theory(Signature.IAMDZ, divisive=False, gil=True),
    "damd": _Theory(Signature.DAMD, divisive=True, gil=False),
    "damdz-gil": _Theory(Signature.DAMDZ, divisive=True, gil=True),
}


def _theory(name: str) -> _Theory:
    """The table entry of a theory by name; theories not decided here are refused."""
    if name in ("iamdz", "damdz"):
        raise UnsupportedTheory(
            f"equality under {name} without the general inverse law is an "
            "open problem; use iamdz-gil or damdz-gil"
        )
    if name not in _THEORIES:
        raise ValueError(f"unknown theory {name!r}")
    return _THEORIES[name]


def decide_by_theory(theory: str, t: Term, u: Term) -> bool:
    """Dispatch an equality decision by theory name.

    Supported: iamd, iamdz-gil, damd, damdz-gil.  One table gives each
    its signature, whether its terms are decided through the projection
    into the inversive notation, and whether equality is under the general
    inverse law; one walk over quotients of polynomials then decides all
    four.  Plain iamdz/damdz (without the general inverse law) are
    refused: whether equality under those axioms alone is decidable is an
    open problem.
    """
    return _decide(_theory(theory), t, u)[0] is None


def _decide(theory: _Theory, t: Term, u: Term):
    """_walk of t and u, checked against the theory's signature and
    projected into the inversive notation when the theory is divisive."""
    check_conforms(t, theory.sig)
    check_conforms(u, theory.sig)
    if theory.divisive:
        t, u = project(t, Projection.DMN_TO_IMN), project(u, Projection.DMN_TO_IMN)
    return _walk(t, u, theory.gil)


def _reason(theory: _Theory, t: Term, u: Term):
    """The result of _decide with each side as ZERO_NF or a PolyFrac: None
    when t = u, else the names of the first zero set at which the sides
    differ; and the two sides there, or with nothing zeroed when equal."""
    zeroed, *sides = _decide(theory, t, u)
    return (zeroed, *(side if side is ZERO_NF else _polyfrac(side) for side in sides))
