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
(x != 0 implies x * x^-1 = 1) is decided by recursion over
zero-substitutions: one zero-free comparison for each set of variables
substituted by 0.

Divisive counterparts are decided through the projection into the
inversive notation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Union

from .projection import Projection, project
from .semantics import eval_q0
from .terms import (
    Add, Inv, Mul, One, Term, Var, Zero,
    Signature, SignatureError, check_conforms, conforms, fold, free_vars, rebuild,
)

__all__ = [
    "Monomial", "Polynomial", "PolyFrac",
    "ZeroNF", "Frac", "ZERO_NF", "NormalForm",
    "to_polyfrac", "expand_poly", "decide_iamd",
    "normal_form_closed", "zero_eliminate", "decide_iamdz_gil",
    "decide_divisive", "UnsupportedTheory", "decide_by_theory",
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


@dataclass(frozen=True)
class Monomial:
    """A product of variables with positive exponents; () is the unit."""

    exponents: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        names = [v for v, _ in self.exponents]
        if names != sorted(names) or len(set(names)) != len(names):
            raise ValueError("monomial variables must be sorted and distinct")
        if any(e < 1 for _, e in self.exponents):
            raise ValueError("monomial exponents must be positive")

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


@dataclass(frozen=True)
class Polynomial:
    """Sum of monomials with positive integer coefficients, canonically ordered."""

    terms: tuple[tuple[Monomial, int], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("polynomials here have at least one term")
        if any(c < 1 for _, c in self.terms):
            raise ValueError("coefficients must be positive integers")
        keys = [m.sort_key() for m, _ in self.terms]
        if keys != sorted(keys, reverse=True):
            raise ValueError("polynomial terms must be in canonical order")

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

    def degree_in(self, name: str) -> int:
        best = 0
        for m, _ in self.terms:
            for v, e in m.exponents:
                if v == name:
                    best = max(best, e)
        return best

    def __str__(self):
        parts = []
        for m, c in self.terms:
            if m == UNIT_MONOMIAL:
                parts.append(str(c))
            elif c == 1:
                parts.append(str(m))
            else:
                parts.append(f"{c}*{m}")
        return " + ".join(parts)


@dataclass(frozen=True)
class PolyFrac:
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
    num, den = fold(t, _POLYFRAC)
    return PolyFrac(Polynomial._from_kernel(num), Polynomial._from_kernel(den))


_POLYFRAC = {
    One: lambda t: (_UNIT, _UNIT),
    Var: lambda t: ({((t.name, 1),): 1}, _UNIT),
    Add: lambda t, l, r: (_poly_add(_poly_mul(l[0], r[1]), _poly_mul(r[0], l[1])),
                          _poly_mul(l[1], r[1])),
    Mul: lambda t, l, r: (_poly_mul(l[0], r[0]), _poly_mul(l[1], r[1])),
    Inv: lambda t, arg: (arg[1], arg[0]),
}


def expand_poly(t: Term) -> Polynomial:
    """Fully expand an inverse-free arithmetical term to a canonical polynomial."""
    check_conforms(t, Signature.IAMD)
    # Inverse-free arithmetical terms are those conforming to iamd and damd;
    # their quotient has the unit denominator.
    if not conforms(t, Signature.DAMD):
        raise SignatureError("^-1", Signature.IAMD)
    return Polynomial._from_kernel(fold(t, _POLYFRAC)[0])


def decide_iamd(t: Term, u: Term) -> bool:
    """Equality of arithmetical terms: cross-multiplied expansions must match."""
    check_conforms(t, Signature.IAMD)
    check_conforms(u, Signature.IAMD)
    return _decide_iamd(t, u)


def _decide_iamd(t: Term, u: Term, memo: dict | None = None) -> bool:
    """decide_iamd on terms already known to be arithmetical."""
    (tn, td), (un, ud) = fold(t, _POLYFRAC, memo), fold(u, _POLYFRAC, memo)
    return _poly_mul(tn, ud) == _poly_mul(un, td)


@dataclass(frozen=True)
class ZeroNF:
    def __str__(self):
        return "0"


@dataclass(frozen=True)
class Frac:
    """A positive rational in lowest terms, the normal form n * m^-1."""

    num: int
    den: int

    def __post_init__(self):
        if self.num < 1 or self.den < 1:
            raise ValueError("normal-form components are positive")
        if gcd(self.num, self.den) != 1:
            raise ValueError("normal-form components are coprime")

    def __str__(self):
        return f"{self.num}/{self.den}" if self.den != 1 else str(self.num)


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
    if free_vars(t):
        raise ValueError(f"term is not closed: {sorted(free_vars(t))}")
    check_conforms(t, sig)
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
}


def _zeroing(v: str) -> dict:
    """Zero elimination of a zero-free term with the variable v zeroed."""
    return {**_ZERO_ELIMINATE, Var: lambda t: ZERO_NF if t.name == v else t}


def decide_iamdz_gil(t: Term, u: Term) -> bool:
    """Equality of arithmetical-with-zero terms under the general inverse law.

    Recursion over zero-substitutions: both sides are zero-eliminated, a
    lone zero decides, and zero-free sides must agree both as arithmetical
    terms (for closed sides, in value) and after substituting 0 for any
    further set of their variables.  Each set of zeroed variables is
    decided once, so n variables cost at most 2^n arithmetical decisions.
    """
    check_conforms(t, Signature.IAMDZ)
    check_conforms(u, Signature.IAMDZ)
    # Zero elimination is confluent and commutes with substituting 0, so the
    # pair for a set of zeroed variables does not depend on the order they
    # were zeroed in.  Each set is therefore decided once, and a child pair
    # is its parent's zero-eliminated pair with one more variable zeroed.
    # The pairs share most subterms, so each fold reuses the results of the
    # earlier folds of this call with the same algebra.
    seen = {frozenset()}
    work = [(frozenset(), fold(t, _ZERO_ELIMINATE), fold(u, _ZERO_ELIMINATE))]
    polyfracs: dict = {}
    zeroings: dict = {}
    while work:
        zeroed, s, s2 = work.pop()
        if s is ZERO_NF or s2 is ZERO_NF:
            if s is not s2:
                return False
            continue
        if not _decide_iamd(s, s2, polyfracs):
            return False
        for v in sorted(free_vars(s) | free_vars(s2)):
            child = zeroed | {v}
            if child not in seen:
                seen.add(child)
                algebra, memo = zeroings.setdefault(v, (_zeroing(v), {}))
                work.append((child, fold(s, algebra, memo), fold(s2, algebra, memo)))
    return True


def decide_divisive(t: Term, u: Term, theory: str) -> bool:
    """Divisive counterparts of the two decision procedures.

    theory is "damd" or "damdz-gil"; both sides are translated into the
    inversive notation and decided there.
    """
    if theory == "damd":
        check_conforms(t, Signature.DAMD)
        check_conforms(u, Signature.DAMD)
        return decide_iamd(
            project(t, Projection.DMN_TO_IMN), project(u, Projection.DMN_TO_IMN)
        )
    if theory == "damdz-gil":
        check_conforms(t, Signature.DAMDZ)
        check_conforms(u, Signature.DAMDZ)
        return decide_iamdz_gil(
            project(t, Projection.DMN_TO_IMN), project(u, Projection.DMN_TO_IMN)
        )
    raise ValueError(f"unknown divisive theory {theory!r}")


class UnsupportedTheory(ValueError):
    pass


def decide_by_theory(theory: str, t: Term, u: Term) -> bool:
    """Dispatch an equality decision by theory name.

    Supported: iamd, iamdz-gil, damd, damdz-gil.  Plain iamdz/damdz
    (without the general inverse law) are refused: whether equality under
    those axioms alone is decidable is an open problem.
    """
    if theory == "iamd":
        check_conforms(t, Signature.IAMD)
        check_conforms(u, Signature.IAMD)
        return decide_iamd(t, u)
    if theory == "iamdz-gil":
        return decide_iamdz_gil(t, u)
    if theory in ("damd", "damdz-gil"):
        return decide_divisive(t, u, theory)
    if theory in ("iamdz", "damdz"):
        raise UnsupportedTheory(
            f"equality under {theory} without the general inverse law is an "
            "open problem; use iamdz-gil or damdz-gil"
        )
    raise ValueError(f"unknown theory {theory!r}")
