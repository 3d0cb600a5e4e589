"""Exact-field tests: canonical forms, q-numbers, evaluation, serialization."""

import json
import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from suq2.scalars import (
    ONE,
    ZERO,
    EvaluationSingularityError,
    Scalar,
    as_scalar,
    big_q,
    q_number,
    scalar_sqrt,
)


def frac(n, d=1):
    return Scalar.from_fraction(Fraction(n, d))


class TestCanonicalForm:
    def test_zero_is_zero_over_one(self):
        z = Scalar({0: 0})
        assert z.num_terms == ()
        assert z.den_terms == ((0, Fraction(1)),)
        assert z == ZERO and z.is_zero()

    def test_common_factor_cancels(self):
        # (v^-2 - v^2) / (v^-1 - v) reduces to the Laurent polynomial v^-1 + v.
        x = Scalar({-2: 1, 2: -1}, {-1: 1, 1: -1})
        assert x == Scalar({-1: 1, 1: 1})
        assert x.is_polynomial()

    def test_denominator_lowest_coefficient_is_one(self):
        x = Scalar({0: 1}, {3: 2, 5: 7})
        lo, c = x.den_terms[0]
        assert (lo, c) == (0, Fraction(1))
        # The v-shift and the scale both moved into the numerator.
        assert x == Scalar({-3: Fraction(1, 2)}, {0: 1, 2: Fraction(7, 2)})

    def test_equal_fractions_share_representation(self):
        x = Scalar({1: 2, 3: 2}, {0: 4})
        y = Scalar({1: 1, 3: 1}, {0: 2})
        assert x == y and hash(x) == hash(y)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Scalar({0: 1}, {0: 0})


class TestArithmetic:
    def test_field_inverse(self):
        x = Scalar({-1: 1, 1: 3}, {0: 1, 2: 1})
        assert x * x.inverse() == ONE
        assert x / x == ONE

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_integer_coercion(self):
        x = Scalar.v_pow(2)
        assert 1 + x == Scalar({0: 1, 2: 1})
        assert 2 * x - x == x
        assert (1 - x) == -(x - 1)
        assert 6 / frac(3) == frac(2)

    def test_pow(self):
        v = Scalar.v_pow(1)
        assert v ** 0 == ONE
        assert v ** 7 == Scalar.v_pow(7)
        assert v ** -3 == Scalar.v_pow(-3)
        x = ONE + v
        assert x ** 2 == ONE + 2 * v + v * v


class TestQNumbers:
    def test_small_values(self):
        assert q_number(0) == ZERO
        assert q_number(2) == ONE
        # [2]_q = q^-1 + q
        assert q_number(4) == Scalar({-2: 1, 2: 1})
        # [3]_q = q^-2 + 1 + q^2
        assert q_number(6) == Scalar({-4: 1, 0: 1, 4: 1})
        # Half-integer spin: [1/2]_q has an honest denominator.
        assert q_number(1) == Scalar({-1: 1, 1: -1}, {-2: 1, 2: -1})

    def test_negation_symmetry(self):
        for t in range(-9, 10):
            assert q_number(-t) == -q_number(t)

    def test_difference_of_squares(self):
        # [x]^2 - [y]^2 == [x+y][x-y], the workhorse identity behind the
        # spectral-gap factorizations.
        for tx in range(0, 21, 3):
            for ty in range(0, 21, 4):
                lhs = q_number(tx) ** 2 - q_number(ty) ** 2
                rhs = q_number(tx + ty) * q_number(tx - ty)
                assert lhs == rhs

    def test_closed_form_is_the_generic_canonical_pair(self):
        # The oracle is the generic construction, cancelled by the gcd.
        for t in range(-400, 401):
            generic = (ZERO if t == 0 else
                       Scalar._raw({-t: 1, t: -1}, {-2: 1, 2: -1}))
            closed = q_number(t)
            assert closed._num == generic._num, t
            assert closed._den == generic._den, t

    def test_big_q_matches_bracket_two(self):
        # Q = 1/(q^-1 - q) and [2] = q^-1 + q give Q*[2]*(q^-1 - q) == [2]... ;
        # more simply Q * (q^-1 - q) == 1.
        assert big_q() * Scalar({-2: 1, 2: -1}) == ONE


class TestEvaluation:
    def test_bracket_two_at_half(self):
        assert q_number(4).eval_at_q(0.5) == pytest.approx(2.5, rel=1e-15)

    def test_big_q_at_half(self):
        assert big_q().eval_at_q(0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_half_power(self):
        assert Scalar.v_pow(1).eval_at_q(0.49) == pytest.approx(0.7, rel=1e-12)

    def test_evaluation_is_a_ring_map(self):
        x = Scalar({-3: 2, 1: 5}, {0: 1, 2: 3})
        y = Scalar({0: 1, 4: -2}, {-1: 1, 1: 2})
        q = 0.37
        assert (x * y).eval_at_q(q) == pytest.approx(
            x.eval_at_q(q) * y.eval_at_q(q), rel=1e-12)
        assert (x + y).eval_at_q(q) == pytest.approx(
            x.eval_at_q(q) + y.eval_at_q(q), rel=1e-12)

    def test_singular_point_raises(self):
        x = ONE / (Scalar.q_pow(1) - frac(1, 2))
        with pytest.raises(EvaluationSingularityError):
            x.eval_at_q(0.5)
        # Fine slightly away from the pole.
        assert math.isfinite(x.eval_at_q(0.50001))

    def test_nonpositive_q_rejected(self):
        with pytest.raises(ValueError):
            ONE.eval_at_q(0.0)


def _eval_over_fractions(x, q_value):
    """Evaluation as it was done before the integer route: each v-part
    summed exactly over Fraction, then converted by Fraction.__float__."""
    if q_value <= 0:
        raise ValueError("q must be positive")
    qf = Fraction(q_value)
    sv = float(q_value) ** 0.5
    d0 = x._den[0]

    def eval_poly(p):
        even = Fraction(0)
        odd = Fraction(0)
        for e, c in p.items():
            if e % 2 == 0:
                even += c * qf ** (e // 2)
            else:
                odd += c * qf ** ((e - 1) // 2)
        if d0 != 1:
            even, odd = even / d0, odd / d0
        return float(even) + sv * float(odd)

    den = eval_poly(x._den)
    if abs(den) < 1e-300:
        raise EvaluationSingularityError(
            f"denominator vanishes at q={q_value!r}")
    return eval_poly(x._num) / den


def _outcome(fn, *args):
    """The float's bits, or the exception type raised."""
    try:
        return struct.pack("<d", fn(*args))
    except Exception as exc:  # the type is the outcome compared
        return type(exc)


@st.composite
def _laurent(draw, exponents):
    """A sparse integer Laurent polynomial: all parities, even or odd
    exponents only, or shifted wholly below zero."""
    parity = draw(st.sampled_from(("all", "even", "odd")))
    shift = draw(st.sampled_from((0, 0, -24)))
    keys = draw(st.lists(exponents, max_size=5))
    if parity != "all":
        keys = [2 * k + (parity == "odd") for k in keys]
    return {k + shift: draw(st.integers(-10 ** 6, 10 ** 6)) for k in keys}


@st.composite
def _eval_scalars(draw):
    num = draw(_laurent(st.integers(-12, 12)))
    den = draw(_laurent(st.integers(-6, 6)))
    if not any(den.values()):
        den = {0: draw(st.integers(1, 9))}
    return Scalar(num, den)


_EVAL_Q = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
              exclude_max=True),
    st.floats(min_value=1.0, allow_infinity=False),
    st.floats(max_value=0.0, allow_infinity=False),
    st.fractions(min_value=Fraction(-2), max_value=Fraction(50),
                 max_denominator=1000),
    st.integers(-3, 10 ** 6),
)


class TestEvaluationBits:
    @settings(max_examples=400, deadline=None)
    @given(_eval_scalars(), _EVAL_Q)
    def test_integer_route_matches_fraction_route(self, x, q):
        assert _outcome(x.eval_at_q, q) == _outcome(_eval_over_fractions,
                                                     x, q)

    def test_drawn_classes(self):
        # The classes the property draws reach, each pinned once: a
        # denominator with lowest coefficient 3, even-only and odd-only
        # parts, a part with negative highest exponent, q as Fraction and
        # int, and the three raising cases.
        cases = [
            (Scalar({-5: 2, 3: -7}, {0: 3, 2: 1, 5: 4}), 0.37),
            (Scalar({-4: 5, 6: 1}), 0.61),
            (Scalar({-3: 1, 7: -2}, {1: 1, 3: 1}), 1.7),
            (Scalar({-23: 3, -9: -1}, {0: 1, 2: 1}), 0.1),
            (Scalar({-23: 3, -10: -1}, {0: 3, 1: 1}), Fraction(2, 3)),
            (Scalar({1: 1, 4: 1}, {0: 2, 3: 1}), 7),
        ]
        for x, q in cases:
            got = _outcome(x.eval_at_q, q)
            assert isinstance(got, bytes)
            assert got == _outcome(_eval_over_fractions, x, q)
        raising = [
            (ONE, 0.0, ValueError),
            (ONE, -3, ValueError),
            (ONE / (Scalar.q_pow(1) - frac(1, 2)), 0.5,
             EvaluationSingularityError),
            (Scalar.q_pow(4), 1e200, OverflowError),
            (Scalar.q_pow(-4), 1e-200, OverflowError),
            (Scalar.v_pow(-5), 1e-250, OverflowError),
        ]
        for x, q, exc in raising:
            assert _outcome(x.eval_at_q, q) is exc
            assert _outcome(_eval_over_fractions, x, q) is exc


class TestSerialization:
    def test_round_trip(self):
        x = Scalar({-3: Fraction(2, 7), 0: 1, 5: -4}, {0: 3, 2: 1})
        blob = x.dumps()
        assert Scalar.loads(blob) == x
        # Deterministic: canonical dict ordering in the JSON text.
        assert blob == Scalar.loads(blob).dumps()

    def test_schema(self):
        data = json.loads(q_number(4).dumps())
        assert data == {"den": [[0, "1"]], "num": [[-2, "1"], [2, "1"]]}


class TestSqrt:
    def test_perfect_square(self):
        x = Scalar({-1: 1, 1: 3}, {0: 2, 4: 1})
        root = scalar_sqrt(x * x)
        assert root is not None and root ** 2 == x * x

    def test_v_is_not_a_square(self):
        assert scalar_sqrt(Scalar.v_pow(1)) is None

    def test_bracket_two_is_not_a_square(self):
        assert scalar_sqrt(q_number(4)) is None

    def test_zero_and_one(self):
        assert scalar_sqrt(ZERO) == ZERO
        assert scalar_sqrt(ONE) == ONE


# ---------------------------------------------------------------------------
# Property-based field laws.

coeffs = st.fractions(min_value=-40, max_value=40, max_denominator=8)


@st.composite
def scalars(draw, allow_zero=True):
    n = draw(st.dictionaries(st.integers(-4, 4), coeffs, max_size=3))
    d = draw(st.dictionaries(st.integers(-2, 2), coeffs, min_size=1, max_size=2))
    if not any(d.values()):
        d = {0: Fraction(1)}
    x = Scalar(n, d)
    if not allow_zero and x.is_zero():
        x = x + 1
    return x


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x and x * ONE == x
    assert x - x == ZERO


@settings(max_examples=60, deadline=None)
@given(scalars(allow_zero=False))
def test_multiplicative_inverse(x):
    assert x * x.inverse() == ONE


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_json_round_trip(x):
    assert Scalar.loads(x.dumps()) == x


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_sqrt_of_square(x):
    root = scalar_sqrt(x * x)
    assert root is not None
    assert root * root == x * x


def test_as_scalar_coercion():
    assert as_scalar(3) == frac(3)
    assert as_scalar(Fraction(1, 2)) == frac(1, 2)
    assert as_scalar(ONE) is ONE
    with pytest.raises(TypeError):
        as_scalar("v")


# ---------------------------------------------------------------------------
# Inexact input is rejected, never rounded into the field.

class TestInexactInput:
    @pytest.mark.parametrize("num, den", [
        ({0: 0.1}, {0: 1}),
        ({0: 0.0}, {0: 1}),
        ({0: 1}, {0: 2.0}),
        ({1: 1, 0: 3}, {0: 1, 2: 0.5}),
    ])
    def test_constructor_rejects_floats(self, num, den):
        with pytest.raises(TypeError):
            Scalar(num, den)

    def test_float_exponents_rejected(self):
        with pytest.raises(TypeError):
            Scalar({1.5: 1})
        with pytest.raises(TypeError):
            Scalar.v_pow(0.5)
        with pytest.raises(TypeError):
            Scalar.q_pow(1.5)
        with pytest.raises(TypeError):
            Scalar.from_json({"num": [[0.5, "1"]], "den": [[0, "1"]]})

    @pytest.mark.parametrize("value", [0.5, 2.0, complex(1, 0)])
    def test_from_fraction_rejects_inexact(self, value):
        with pytest.raises(TypeError):
            Scalar.from_fraction(value)

    @pytest.mark.parametrize("value", [0.5, 1.0])
    def test_coercion_rejects_floats(self, value):
        with pytest.raises(TypeError):
            Scalar._coerce(value)
        with pytest.raises(TypeError):
            as_scalar(value)
        with pytest.raises(TypeError):
            ONE + value
        with pytest.raises(TypeError):
            value * ONE
        with pytest.raises(TypeError):
            ONE / value

    def test_from_json_rejects_floats(self):
        with pytest.raises(TypeError):
            Scalar.from_json({"num": [[0, 0.5]], "den": [[0, "1"]]})

    def test_non_numbers_defer_to_the_other_operand(self):
        # A type outside the number tower is not coerced: the operator
        # returns NotImplemented so the other operand's method can run.
        assert Scalar._coerce("v") is None
        assert ONE.__mul__(object()) is NotImplemented


# ---------------------------------------------------------------------------
# Representation invariants: a Scalar stores a pair of coprime integer
# Laurent polynomials, unique for its value, and shows each coefficient
# of its canonical form as an int when integral and as a non-integral
# Fraction otherwise; the storage never shows.

def _stored_coefficients(x):
    return [c for _, c in x.num_terms + x.den_terms]


def _assert_stored_exactly(x):
    for c in _stored_coefficients(x):
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), \
            f"{c!r} stored in {x!r}"


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(allow_zero=False), st.integers(-3, 3))
def test_coefficients_are_int_or_nonintegral_fraction(x, y, k):
    results = [x, y, x + y, x - y, y - 1, 2 - x, x * y, 3 * x,
               Fraction(1, 2) * x, x / y, Fraction(3, 2) / y, -x,
               y.inverse(), y ** k, Scalar.from_json(x.to_json()),
               Scalar.loads(y.dumps()), scalar_sqrt(x * x), q_number(k),
               big_q() * x]
    for r in results:
        _assert_stored_exactly(r)


@pytest.mark.parametrize("as_int, as_fraction", [
    (({0: 2},), ({0: Fraction(4, 2)},)),
    (({-1: 3, 2: -1}, {0: 1, 2: 5}),
     ({-1: Fraction(6, 2), 2: Fraction(-1)}, {0: Fraction(1), 2: Fraction(10, 2)})),
    (({0: 1}, {1: 2, 3: 4}), ({0: Fraction(3, 3)}, {1: Fraction(2), 3: Fraction(8, 2)})),
])
def test_storage_does_not_show(as_int, as_fraction):
    x, y = Scalar(*as_int), Scalar(*as_fraction)
    assert str(x) == str(y)
    assert x.to_json() == y.to_json()
    assert x.dumps() == y.dumps()
    assert x == y and hash(x) == hash(y)
    assert x.num_terms == y.num_terms and x.den_terms == y.den_terms
    for z in (x, y):
        _assert_stored_exactly(z)
        _assert_stored_exactly(Scalar.from_json(z.to_json()))


def _assert_integer_storage(x):
    for c in [*x._num.values(), *x._den.values()]:
        assert type(c) is int, f"{c!r} stored in {x!r}"
    assert min(x._den) == 0 and x._den[0] > 0, f"denominator of {x!r}"


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(allow_zero=False), st.integers(-3, 3))
def test_storage_is_a_unique_pair_of_integer_polynomials(x, y, k):
    results = [x, y, x + y, x - y, y - 1, 2 - x, x * y, 3 * x,
               Fraction(1, 2) * x, x / y, Fraction(3, 2) / y, -x,
               y.inverse(), y ** k, Scalar.from_json(x.to_json()),
               Scalar.loads(y.dumps()), scalar_sqrt(x * x), q_number(k),
               big_q() * x]
    for r in results:
        _assert_integer_storage(r)
    # Equal values, reached by different routes, store identical pairs.
    twins = [(x * y / y, x), ((x + y) - y, x), (y.inverse().inverse(), y),
             (y ** k * y ** -k, ONE), (x / 3 * 3, x),
             (Scalar.from_json(x.to_json()), x),
             (Scalar({e: 6 * c for e, c in y.num_terms},
                     {e: 6 * c for e, c in y.den_terms}), y)]
    for a, b in twins:
        assert a == b
        assert (a._num, a._den) == (b._num, b._den)
