"""Punched meadows: total models with the inverse or division made partial.

Punching removes definedness without changing any defined value.  An
inversive meadow loses 0^-1; a divisive meadow loses q/0 either for
every q or only for q != 0, the liberal reading that keeps 0/0 = 0.
Evaluation is strict: an undefined subterm makes the whole term
undefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from .projection import Projection, project
from .semantics import (
    Q0_ALGEBRA, Assignment, FiniteMeadow, MissingAssignment, Value,
)
from .terms import Div, Inv, Term, Var, Zero, Signature, check_conforms, fold

__all__ = [
    "PunchVariant", "Defined", "UNDEFINED", "PartialValue",
    "punch_eval", "RecoveryReport", "recovery_check",
]


class PunchVariant(Enum):
    INV_ZERO = "inv0"                # 0^-1 undefined (inversive notation)
    DIV_ZERO_ALL = "div0"            # q/0 undefined for every q (divisive)
    DIV_ZERO_NONZERO_NUM = "div0lib" # q/0 undefined only for q != 0; 0/0 = 0


_VARIANT_SIG = {
    PunchVariant.INV_ZERO: Signature.IMD,
    PunchVariant.DIV_ZERO_ALL: Signature.DMD,
    PunchVariant.DIV_ZERO_NONZERO_NUM: Signature.DMD,
}


@dataclass(frozen=True)
class Defined:
    value: Value

    def __repr__(self):
        return f"Defined({self.value})"


class _Undefined:
    __slots__ = ()

    def __repr__(self):
        return "Undefined"


UNDEFINED = _Undefined()
PartialValue = Union[Defined, _Undefined]


def punch_eval(
    t: Term,
    variant: PunchVariant,
    model: FiniteMeadow | None = None,
    a: Assignment | None = None,
) -> PartialValue:
    """Evaluate t in the punched version of a model (None = the rationals).

    Exactly the punched applications are undefined: an inverse of 0 under
    INV_ZERO, a division by 0 under DIV_ZERO_ALL, and a division by 0
    with nonzero numerator under DIV_ZERO_NONZERO_NUM (so 0/0 stays 0).
    Undefinedness propagates through every operator.  With a finite
    model, every assigned value must be a carrier element (ValueError).
    """
    check_conforms(t, _VARIANT_SIG[variant])
    a = a or {}
    if model is not None:
        model.check_assignment(a)
    value = punched_value(t, variant, model, a)
    return UNDEFINED if isinstance(value, Violation) else Defined(value)


@dataclass(frozen=True)
class Violation:
    """A punched application, the subterm that leaves a term undefined.

    It is also exactly a violation of the usage convention that forbids
    writing that application (see meadows.convention).
    """

    subterm: Term
    detail: str

    def __str__(self):
        from .parsing import render

        return f"Violation at {render(self.subterm)}: {self.detail}"


def punched_value(t: Term, variant: PunchVariant, m: FiniteMeadow | None,
                  a: Assignment) -> Value | Violation:
    """t's value in the punched model, or the Violation that leaves it undefined.

    Undefinedness is strict, so the application reported is the first in
    leftmost-innermost order.  The signature and the assignment are the
    caller's to check.
    """
    total = Q0_ALGEBRA if m is None else m.algebra()
    zero = total[Zero](t)

    def strict(node, *xs):
        for x in xs:
            if type(x) is Violation:
                return x
        return total[type(node)](node, *xs)

    def var(node: Var):
        if node.name not in a:
            raise MissingAssignment(node.name)
        return Fraction(a[node.name]) if m is None else a[node.name]

    def inverse(node: Inv, x):
        if type(x) is Violation:
            return x
        if variant is PunchVariant.INV_ZERO and x == zero:
            return Violation(node, "inverse of 0")
        return total[Inv](node, x)

    def divide(node: Div, x, y):
        if type(x) is Violation or type(y) is Violation:
            return x if type(x) is Violation else y
        if y != zero:
            return total[Div](node, x, y)
        if variant is PunchVariant.DIV_ZERO_ALL or (
            variant is PunchVariant.DIV_ZERO_NONZERO_NUM and x != zero
        ):
            return Violation(node, "denominator 0")
        # Liberal variant with zero numerator, or the unpunched inverse
        # notation would not produce Div nodes at all (signature checked).
        return zero

    algebra = dict.fromkeys(total, strict)
    algebra.update({Var: var, Inv: inverse, Div: divide})
    return fold(t, algebra)


@dataclass(frozen=True)
class RecoveryReport:
    """Comparison of a punched evaluation with its projected counterpart."""

    agrees: bool
    direct: PartialValue
    projected: PartialValue
    projected_term: Term

    def __str__(self):
        relation = "agreement" if self.agrees else "disagreement"
        return f"{relation}: {self.direct} vs {self.projected}"


def recovery_check(
    variant_src: PunchVariant,
    variant_dst: PunchVariant,
    t: Term,
    a: Assignment | None = None,
    model: FiniteMeadow | None = None,
) -> RecoveryReport:
    """Does projecting t into the source notation recover its punched value?

    The term is evaluated in variant_dst's punched model and, after the
    projection matching the two notations, in variant_src's; defined
    values compare exactly and undefined counts as a value.
    """
    src_sig = _VARIANT_SIG[variant_src]
    dst_sig = _VARIANT_SIG[variant_dst]
    check_conforms(t, dst_sig)
    if src_sig == dst_sig:
        image = t
    elif dst_sig is Signature.DMD:
        image = project(t, Projection.DMN_TO_IMN)
    else:
        image = project(t, Projection.IMN_TO_DMN)
    direct = punch_eval(t, variant_dst, model, a)
    projected = punch_eval(image, variant_src, model, a)
    agrees = direct == projected if isinstance(direct, Defined) else direct is projected
    return RecoveryReport(agrees, direct, projected, image)
