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
    Assignment, FiniteMeadow, MissingAssignment, Value, q0_inv,
)
from .terms import (
    Add, Div, Inv, Mul, Neg, One, Sub, Term, Var, Zero,
    Signature, check_conforms,
)

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
    return _peval(t, variant, model, a)


def _peval(t, variant, m: FiniteMeadow | None, a: Assignment) -> PartialValue:
    if isinstance(t, Zero):
        return Defined(m.zero if m else Fraction(0))
    if isinstance(t, One):
        return Defined(m.one if m else Fraction(1))
    if isinstance(t, Var):
        if t.name not in a:
            raise MissingAssignment(t.name)
        value = a[t.name]
        return Defined(value if m else Fraction(value))
    if isinstance(t, (Add, Mul, Sub)):
        left = _peval(t.left, variant, m, a)
        right = _peval(t.right, variant, m, a)
        if left is UNDEFINED or right is UNDEFINED:
            return UNDEFINED
        x, y = left.value, right.value
        if isinstance(t, Add):
            return Defined(m.add[x][y] if m else x + y)
        if isinstance(t, Mul):
            return Defined(m.mul[x][y] if m else x * y)
        return Defined(m.add[x][m.neg[y]] if m else x - y)
    if isinstance(t, Neg):
        arg = _peval(t.arg, variant, m, a)
        if arg is UNDEFINED:
            return UNDEFINED
        return Defined(m.neg[arg.value] if m else -arg.value)
    if isinstance(t, Inv):
        arg = _peval(t.arg, variant, m, a)
        if arg is UNDEFINED:
            return UNDEFINED
        zero = m.zero if m else 0
        if variant is PunchVariant.INV_ZERO and arg.value == zero:
            return UNDEFINED
        return Defined(m.inv[arg.value] if m else q0_inv(arg.value))
    assert isinstance(t, Div)
    num = _peval(t.num, variant, m, a)
    den = _peval(t.den, variant, m, a)
    if num is UNDEFINED or den is UNDEFINED:
        return UNDEFINED
    zero = m.zero if m else 0
    if den.value == zero:
        if variant is PunchVariant.DIV_ZERO_ALL:
            return UNDEFINED
        if variant is PunchVariant.DIV_ZERO_NONZERO_NUM and num.value != zero:
            return UNDEFINED
        # Liberal variant with zero numerator, or the unpunched inverse
        # notation would not produce Div nodes at all (signature checked).
        return Defined(zero if m else Fraction(0))
    return Defined(m.div(num.value, den.value) if m else num.value / den.value)


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
