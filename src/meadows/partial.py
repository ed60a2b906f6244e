"""Punched meadows: total models with the inverse or division made partial.

Punching removes definedness without changing any defined value.  An
inversive meadow loses 0^-1; a divisive meadow loses q/0 either for
every q or only for q != 0, the liberal reading that keeps 0/0 = 0.
Evaluation is strict: an undefined subterm makes the whole term
undefined.

punched_algebra is the one punched algebra: punch_eval, formula atoms
(meadows.logic3) and closed compliance (meadows.convention) fold it.  A
closed term complies with a usage convention exactly when it is defined
in the matching punched meadow, so a convention is its punch variant.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Union

from .projection import Projection, project
from .semantics import Q0, Assignment, Model, Value
from .terms import NUMERAL, ZERO, Div, Inv, Term, Var, Zero, Signature, check_conforms, fold

__all__ = [
    "PunchVariant", "Defined", "UNDEFINED", "PartialValue",
    "punch_eval", "RecoveryReport", "recovery_check",
]


class PunchVariant(Enum):
    INV_ZERO = "inv0"                # 0^-1 undefined (inversive notation)
    DIV_ZERO_ALL = "div0"            # q/0 undefined for every q (divisive)
    DIV_ZERO_NONZERO_NUM = "div0lib" # q/0 undefined only for q != 0; 0/0 = 0
    # The usage conventions (meadows.convention.ConventionId), as aliases,
    # which iteration skips.
    RELEVANT_INVERSIVE = "inv0"
    RELEVANT_DIVISION = "div0"
    LIBERAL_RELEVANT_DIVISION = "div0lib"


_VARIANT_SIG = {
    PunchVariant.INV_ZERO: Signature.IMD,
    PunchVariant.DIV_ZERO_ALL: Signature.DMD,
    PunchVariant.DIV_ZERO_NONZERO_NUM: Signature.DMD,
}


class Defined(NamedTuple):
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
    model: Model | None = Q0,
    a: Assignment | None = None,
) -> PartialValue:
    """Evaluate t in the punched version of a model, by default Q0.

    Exactly the punched applications are undefined: an inverse of 0 under
    INV_ZERO, a division by 0 under DIV_ZERO_ALL, and a division by 0
    with nonzero numerator under DIV_ZERO_NONZERO_NUM (so 0/0 stays 0).
    Undefinedness propagates through every operator.  With a finite
    model, every assigned value must be a carrier element (ValueError).
    model None is accepted as Q0.
    """
    model = Q0 if model is None else model
    check_conforms(t, _VARIANT_SIG[variant])
    a = model.check_assignment(a or {})
    value = punched_value(t, variant, model, a)
    return UNDEFINED if isinstance(value, Violation) else Defined(value)


class Violation(NamedTuple):
    """A punched application, the subterm that leaves a term undefined.

    It is also exactly a violation of the usage convention that forbids
    writing that application (see meadows.convention).
    """

    subterm: Term
    detail: str

    def __str__(self):
        from .parsing import render

        return f"Violation at {render(self.subterm)}: {self.detail}"


def punched_value(t: Term, variant: PunchVariant, m: Model,
                  a: Assignment) -> Value | Violation:
    """t's value in the punched model, or the Violation that leaves it undefined.

    The signature is the caller's to check, and a is what
    m.check_assignment returned.
    """
    algebra = punched_algebra(variant, m)
    algebra[Var] = m.var_case(a)
    value = fold(t, algebra)
    return value if type(value) is Violation else m.value(value)


def punched_algebra(variant: PunchVariant, m: Model) -> dict:
    """The fold algebra of closed terms in m punched by variant, as a new dict.

    A node's result is its result in m.algebra(), which m.value reads
    back, or the Violation that leaves it undefined.  Undefinedness is
    strict, so the application reported is the first in
    leftmost-innermost order.  A caller that folds open terms adds the
    Var case, m.var_case.
    """
    total = m.algebra()
    zero = total[Zero](ZERO)

    def strict(node, *xs):
        for x in xs:
            if type(x) is Violation:
                return x
        return total[type(node)](node, *xs)

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
    algebra.update({Inv: inverse, Div: divide})
    if NUMERAL in total:
        # A numeral has no inverse or division, so its value is the model's.
        algebra[NUMERAL] = total[NUMERAL]
    return algebra


class RecoveryReport(NamedTuple):
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
    model: Model | None = Q0,
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
