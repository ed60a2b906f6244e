"""Translations between the meadow notations.

Each projection interprets the terms of one notation inside another:
divisive terms inside the inversive notation (division becomes
multiplication by an inverse), inversive terms inside the divisive
notation (inverse becomes one-over), and inversive terms inside the
reduced divisive notation, whose only symbols are 1, binary
subtraction, and division.
"""

from __future__ import annotations

from enum import Enum

from .terms import (
    CONSTRUCTORS, NUMERAL, Add, Div, Inv, Mul, Neg, Sub, Term, Zero, ONE,
    Signature, _chain, _itself, _spellable, check_conforms, fold, rebuild,
)

__all__ = ["Projection", "project"]


class Projection(Enum):
    DMN_TO_IMN = "imn"     # divisive terms read in the inversive notation
    IMN_TO_DMN = "dmn"     # inversive terms read in the divisive notation
    IMN_TO_RDMN = "rdmn"   # inversive terms read in the reduced divisive notation


_SOURCE = {
    Projection.DMN_TO_IMN: Signature.DMD,
    Projection.IMN_TO_DMN: Signature.IMD,
    Projection.IMN_TO_RDMN: Signature.IMD,
}


_RD_ZERO = Sub(ONE, ONE)
# Numerals are closed and free of inverses and divisions, so the projections
# between the inversive and divisive notations leave them as they are.
_REBUILD = {**dict.fromkeys(CONSTRUCTORS, rebuild), NUMERAL: _itself}


def _rd_numeral(t: Term, k: int) -> Term:
    # The image of the chain (...(1 + 1) + ...) + 1 under the Add case below,
    # (...(1 - (1 - 1 - 1)) - ...) - (1 - 1 - 1): one interned Sub node.
    return _chain(Sub, _spellable(k))


_ALGEBRA = {
    Projection.DMN_TO_IMN: {**_REBUILD, Div: lambda t, num, den: Mul(num, Inv(den))},
    Projection.IMN_TO_DMN: {**_REBUILD, Inv: lambda t, arg: Div(ONE, arg)},
    Projection.IMN_TO_RDMN: {
        **_REBUILD,
        Zero: lambda t: _RD_ZERO,
        # p + q  becomes  p - ((1 - 1) - q)
        Add: lambda t, p, q: Sub(p, Sub(_RD_ZERO, q)),
        # p * q  becomes  p / (1 / q)
        Mul: lambda t, p, q: Div(p, Div(ONE, q)),
        Neg: lambda t, arg: Sub(_RD_ZERO, arg),
        Inv: lambda t, arg: Div(ONE, arg),
        NUMERAL: _rd_numeral,
    },
}


def project(t: Term, which: Projection) -> Term:
    """Apply one of the three notation projections to t.

    The input must conform to the projection's source signature; the
    output conforms to its target signature by construction.
    """
    check_conforms(t, _SOURCE[which])
    return fold(t, _ALGEBRA[which])
