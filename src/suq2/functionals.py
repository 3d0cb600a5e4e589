"""Invariant functionals: the Haar state and its twisted relatives.

The Haar state h kills every basis monomial except the balanced powers
(bc)^r, on which

    h((bc)^r) = (-1)^r / [r+1]_q .

``int_one`` is the coefficient functional of the unit, which is the
h-integral composed with the projection killing all non-unit monomials;
it shows up as the outer integral of every cocycle in this package.
Both functionals are exactly sigma-invariant and satisfy twisted trace
laws that the tests pin down term by term.

``int_one`` factors through the torus restriction ``torus``: the algebra
homomorphism a -> t, d -> t^-1, b, c -> 0 onto the Laurent polynomials
Q(v)[t, t^-1] (every relation with b or c becomes 0 = 0, and ad = 1 + q bc,
da = 1 + q^-1 bc both become t t^-1 = 1).  It sends a^n b^m c^r d^s to
t^(n-s) when m = r = 0 and to 0 otherwise, so int_one(x) is the t^0
coefficient of torus(x), and ``int_one_product`` evaluates int_one of a
product of elements without forming it.  Its two steps, ``laurent_product``
and ``constant_term`` (which forms only the t^0 coefficient of the last
product), are shared with the cochains, which read their factors' images
off in closed form (``hochschild.slot_image``).
"""

from __future__ import annotations

from typing import Dict

from .algebra import UNIT_MONO, AlgebraElement, _accumulate
from .scalars import ONE, ZERO, Scalar, q_number


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
    """The coefficient of the unit monomial (the [1]-integral), which is
    also the t^0 coefficient of ``torus(x)``."""
    return x.coefficient(UNIT_MONO)


def torus(x: AlgebraElement) -> Dict[int, Scalar]:
    """The torus restriction of x as {power of t: nonzero coefficient}:
    a^n -> t^n and d^s -> t^-s, every monomial with b or c -> 0."""
    return {m.n - m.s: c for m, c in x.terms.items() if not (m.m or m.r)}


def laurent_product(x: Dict[int, Scalar], y: Dict[int, Scalar]
                    ) -> Dict[int, Scalar]:
    """The product of two Laurent polynomials in t, each given as
    {power of t: nonzero coefficient} (the form ``torus`` returns)."""
    out: Dict[int, Scalar] = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            _accumulate(out, e1 + e2, c1 * c2)
    return out


def constant_term(x: Dict[int, Scalar], y: Dict[int, Scalar]) -> Scalar:
    """The t^0 coefficient of the product x y of two Laurent polynomials,
    without forming the product's other coefficients."""
    out = ZERO
    for e, c in x.items():
        other = y.get(-e)
        if other is not None:
            out = out + c * other
    return out


def int_one_product(*factors: AlgebraElement) -> Scalar:
    """int_one(x0 x1 ... xk), read off as the t^0 coefficient of the
    product of the torus restrictions, without forming the product."""
    if not factors:
        return ONE
    acc = {0: ONE}
    for x in factors[:-1]:
        acc = laurent_product(acc, torus(x))
    return constant_term(acc, torus(factors[-1]))


def gns_inner(x: AlgebraElement, y: AlgebraElement) -> Scalar:
    """The GNS inner product <x, y> = h(x* y), linear in y."""
    return haar(x.star() * y)


def gns_norm_sq(x: AlgebraElement) -> Scalar:
    return gns_inner(x, x)
