"""Invariant functionals: the Haar state and its twisted relatives.

The Haar state h kills every basis monomial except the balanced powers
(bc)^r, on which

    h((bc)^r) = (-1)^r / [r+1]_q .

``int_one`` is the coefficient functional of the unit, which is the
h-integral composed with the projection killing all non-unit monomials;
it shows up as the outer integral of every cocycle in this package.
Both functionals are exactly sigma-invariant and satisfy twisted trace
laws that the tests pin down term by term.
"""

from __future__ import annotations

from .algebra import UNIT_MONO, AlgebraElement
from .scalars import ZERO, Scalar, q_number


def haar(x: AlgebraElement) -> Scalar:
    """The Haar state, evaluated exactly in Q(v)."""
    out = ZERO
    for m, c in x.terms.items():
        if m.n == 0 and m.s == 0 and m.m == m.r:
            val = q_number(2 * (m.r + 1)).inverse()
            if m.r % 2:
                val = -val
            out = out + c * val
    return out


def int_one(x: AlgebraElement) -> Scalar:
    """The coefficient of the unit monomial (the [1]-integral)."""
    return x.coefficient(UNIT_MONO)


def gns_inner(x: AlgebraElement, y: AlgebraElement) -> Scalar:
    """The GNS inner product <x, y> = h(x* y), linear in y."""
    return haar(x.star() * y)


def gns_norm_sq(x: AlgebraElement) -> Scalar:
    return gns_inner(x, x)
