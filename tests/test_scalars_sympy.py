"""Differential test of the exact field Q(v) against sympy's rational functions.

sympy is not a dependency of the package; it serves here as an independent
oracle for canonical forms, and the module is skipped when it is absent.
Every result of ``+ - * /``, ``inverse``, ``**`` and ``scalar_sqrt`` on
drawn Scalars -- Laurent polynomials and genuine rational functions, with
Fraction coefficients -- must be sympy's ``cancel`` of the same expression,
written in the canonical form: coprime numerator and denominator up to a
power of v, and lowest denominator coefficient 1.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from suq2.scalars import Scalar, scalar_sqrt

sympy = pytest.importorskip("sympy")

V = sympy.Symbol("v")

coeffs = st.fractions(min_value=-12, max_value=12, max_denominator=6)
nonzero = coeffs.filter(bool)


@st.composite
def laurent(draw):
    num = draw(st.dictionaries(st.integers(-5, 5), coeffs, max_size=4))
    return Scalar(num, {draw(st.integers(-3, 3)): draw(nonzero)})


def _times(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


@st.composite
def rational(draw):
    num = draw(st.dictionaries(st.integers(-4, 4), coeffs, max_size=4))
    den = draw(st.dictionaries(st.integers(-3, 3), nonzero,
                               min_size=2, max_size=3))
    # A factor shared by numerator and denominator makes the constructor's
    # cancellation do real work.
    common = draw(st.dictionaries(st.integers(-2, 2), nonzero,
                                  min_size=1, max_size=3))
    return Scalar(_times(num, common), _times(den, common))


scalars = st.one_of(laurent(), rational())


def poly_expr(terms):
    return sum((sympy.Rational(c.numerator, c.denominator) * V ** e
                for e, c in terms), sympy.Integer(0))


def to_sympy(x: Scalar):
    return poly_expr(x.num_terms) / poly_expr(x.den_terms)


def canonical_terms(expr):
    """sympy's cancel of ``expr``, put in the Scalar's canonical form."""
    p, q = sympy.fraction(sympy.cancel(sympy.together(expr)))
    if p == 0:
        return (), ((0, Fraction(1)),)
    pt = sympy.Poly(p, V).terms()
    qt = sympy.Poly(q, V).terms()
    lo, scale = min((m[0], c) for m, c in qt)

    def fr(c):
        r = sympy.Rational(c) / scale
        return Fraction(int(r.p), int(r.q))

    num = tuple(sorted((m[0] - lo, fr(c)) for m, c in pt))
    den = tuple(sorted((m[0] - lo, fr(c)) for m, c in qt))
    return num, den


def assert_canonical(result: Scalar, expr):
    """``result`` is the canonical form of ``expr`` over Q(v)."""
    assert (result.num_terms, result.den_terms) == canonical_terms(expr)
    den_lo, den_lead = result.den_terms[0]
    assert den_lo == 0 and den_lead == 1
    if result.num_terms:
        shift = -min(e for e, _ in result.num_terms)
        num = sympy.Poly(poly_expr(result.num_terms) * V ** shift, V)
        den = sympy.Poly(poly_expr(result.den_terms), V)
        g = sympy.gcd(num, den)
        assert len(g.terms()) == 1, f"common factor {g} in {result}"


def is_square(expr) -> bool:
    """Whether ``expr`` is a square in Q(v), decided by factoring."""
    p, q = sympy.fraction(sympy.cancel(sympy.together(expr)))
    if p == 0:
        return True
    lead, factors = sympy.factor_list(sympy.expand(p * q), V)
    lead = sympy.Rational(lead)
    if lead < 0 or any(m % 2 for _, m in factors):
        return False
    return (sympy.sqrt(lead.p).is_Integer and sympy.sqrt(lead.q).is_Integer)


@settings(max_examples=80, deadline=None)
@given(scalars, scalars)
def test_field_operations_match_sympy(x, y):
    ex, ey = to_sympy(x), to_sympy(y)
    assert_canonical(x, ex)
    assert_canonical(y, ey)
    assert_canonical(x + y, ex + ey)
    assert_canonical(x - y, ex - ey)
    assert_canonical(x * y, ex * ey)
    if not y.is_zero():
        assert_canonical(x / y, ex / ey)
        assert_canonical(y.inverse(), 1 / ey)


@settings(max_examples=40, deadline=None)
@given(scalars, st.integers(-3, 3))
def test_powers_match_sympy(x, k):
    if k < 0 and x.is_zero():
        return
    assert_canonical(x ** k, to_sympy(x) ** k)


@settings(max_examples=40, deadline=None)
@given(scalars)
def test_sqrt_matches_sympy(x):
    ex = to_sympy(x)
    root = scalar_sqrt(x * x)
    assert root is not None and root in (x, -x)
    assert_canonical(root, ex if root == x else -ex)
    assert_canonical(root * root, ex * ex)
    # A root of x itself exists exactly when sympy factors x as a square.
    own = scalar_sqrt(x)
    assert (own is not None) == is_square(ex)
    if own is not None:
        assert_canonical(own * own, ex)
