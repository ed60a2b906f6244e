"""Usage conventions for total meadows, and a syntactic definedness check.

An imperative meadow is a total meadow together with the convention
that inverses or divisions of zero are simply never written: q^-1 not
used with q = 0 (relevant inversive convention), p/q not used with
q = 0 (relevant division convention), or p/q not used with q = 0
unless p = 0 too (the liberal variant).  A closed term complies with a
convention exactly when it is defined in the punched meadow that leaves
the forbidden applications undefined, so a convention is its punch
variant: ConventionId is meadows.partial.PunchVariant, whose alias
members name the conventions, and closed compliance is punched
evaluation in Q0.
For open terms it is undecidable in general, but over the non-negative
arithmetical fragment there is a sound syntactic criterion: the
inductively defined sets Nz (certainly nonzero) and Def (certainly
defined) classify terms bottom-up.

The literal Nz rules place x + y in Nz as soon as one operand is,
which over-approximates when the other operand is itself undefined
(1 + 0^-1 would count as nonzero).  Strict mode therefore also
requires the unconstrained operand to be in Def; it is the default and
the mode that is sound against punched evaluation.  Neither mode puts
bare variables in Def; vars_defined=True adds them, for readings where
variables range over defined values only.
"""

from __future__ import annotations

from enum import Enum
from typing import Union

from .partial import _VARIANT_SIG, PunchVariant, Violation, punched_value
from .semantics import Q0
from .terms import (
    NUMERAL, Add, Inv, Mul, One, Term, Var, Zero,
    Signature, check_conforms, fold,
)

__all__ = [
    "DefNzClass", "ConventionId",
    "classify", "Violation", "COMPLIANT", "closed_compliance",
    "open_compliance_sufficient", "Sufficiency",
]


class DefNzClass(Enum):
    IN_NZ = "InNz"        # provably defined and nonzero
    IN_DEF = "InDef"      # provably defined
    NEITHER = "Neither"

    def __str__(self):
        return self.value


# ConventionId.RELEVANT_INVERSIVE is PunchVariant.INV_ZERO, and so on.
ConventionId = PunchVariant


def _is_strict(mode: str) -> bool:
    if mode not in ("strict", "literal"):
        raise ValueError(f"unknown classifier mode {mode!r}")
    return mode == "strict"


def _defnz(t: Term, strict: bool, vars_defined: bool) -> tuple[bool, bool, bool]:
    """(in Nz, in Def, every inverse argument in Nz) for t, in one bottom-up pass."""
    def add(node, left, right):
        (lnz, ldef, linv), (rnz, rdef, rinv) = left, right
        nz = (lnz and (rdef or not strict)) or (rnz and (ldef or not strict))
        return nz, nz or (ldef and rdef), linv and rinv

    def mul(node, left, right):
        (lnz, ldef, linv), (rnz, rdef, rinv) = left, right
        nz = lnz and rnz
        return nz, nz or (ldef and rdef), linv and rinv

    return fold(t, {
        Zero: lambda node: (False, True, True),
        One: lambda node: (True, True, True),
        Var: lambda node: (False, vars_defined, True),
        Add: add,
        Mul: mul,
        Inv: lambda node, arg: (arg[0], arg[0], arg[0] and arg[2]),
        NUMERAL: lambda node, k: (True, True, True),
    })


def classify(t: Term, mode: str = "strict", vars_defined: bool = False) -> DefNzClass:
    """Classify an arithmetical-with-zero term into Nz, Def, or neither.

    The strongest class wins (Nz implies Def).  mode is "strict" or
    "literal"; see the module docstring for the difference.
    """
    strict = _is_strict(mode)
    check_conforms(t, Signature.IAMDZ)
    nz, defined, _ = _defnz(t, strict, vars_defined)
    if nz:
        return DefNzClass.IN_NZ
    if defined:
        return DefNzClass.IN_DEF
    return DefNzClass.NEITHER


class _Compliant:
    __slots__ = ()

    def __repr__(self):
        return "Compliant"


COMPLIANT = _Compliant()


def closed_compliance(t: Term, c: ConventionId) -> Union[_Compliant, Violation]:
    """Decide exactly whether a closed term complies with a usage convention.

    Every inverse and division argument is evaluated in the zero-totalized
    rationals; the first offending subterm in leftmost-innermost order is
    reported.
    """
    if t._symbols & Var._bit:
        raise ValueError(
            "compliance of open terms is undecidable; "
            "use open_compliance_sufficient for the sound syntactic check"
        )
    check_conforms(t, _VARIANT_SIG[c])
    value = punched_value(t, c, Q0, {})
    return value if isinstance(value, Violation) else COMPLIANT


class Sufficiency(Enum):
    CERTIFIED_COMPLIANT = "CertifiedCompliant"
    UNKNOWN = "Unknown"

    def __str__(self):
        return self.value


def open_compliance_sufficient(
    t: Term, mode: str = "strict", vars_defined: bool = False
) -> Sufficiency:
    """Sound (not complete) compliance check for possibly open terms.

    Certifies compliance with the relevant inversive convention over
    non-negative values when every inverse argument classifies as
    certainly nonzero; anything else is Unknown, never "violating".
    """
    strict = _is_strict(mode)
    check_conforms(t, Signature.IAMDZ)
    if _defnz(t, strict, vars_defined)[2]:
        return Sufficiency.CERTIFIED_COMPLIANT
    return Sufficiency.UNKNOWN
