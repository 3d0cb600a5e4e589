"""Haar-state tests: values, invariance, trace twists, GNS norms, and the
torus restriction behind int_one."""

import random

from suq2.actions import sigma_left, sigma_right, theta, theta_inv
from suq2.algebra import AlgebraElement, gens, normalize_word
from suq2.functionals import (
    gns_inner,
    gns_norm_sq,
    haar,
    int_one,
    int_one_product,
    torus,
)
from suq2.sampling import make_rng, random_element
from suq2.scalars import ONE, ZERO, Scalar, q_number

A, B, C, D = gens()
Q = Scalar.q_pow(1)


class TestHaarValues:
    def test_unit(self):
        assert haar(AlgebraElement.unit()) == ONE

    def test_generators_vanish(self):
        for g in gens():
            assert haar(g).is_zero()

    def test_balanced_powers(self):
        bc = B * C
        assert haar(bc) == -q_number(4).inverse()
        assert haar(bc * bc) == q_number(6).inverse()
        assert haar(bc ** 3) == -q_number(8).inverse()

    def test_unbalanced_vanishes(self):
        assert haar(B * B * C).is_zero()
        assert haar(A * B * C).is_zero()
        assert haar(normalize_word("ad")) == ONE - Q * q_number(4).inverse()

    def test_linear(self):
        x = 3 * B * C - 2
        assert haar(x) == -3 * q_number(4).inverse() - 2


class TestInvariance:
    def test_haar_sigma_invariant(self):
        rng = random.Random(71)
        for _ in range(20):
            x = random_element(rng, 5)
            assert haar(sigma_left(x)) == haar(x)
            assert haar(sigma_right(x)) == haar(x)

    def test_twisted_trace_law(self):
        # h(xy) = h(theta(y) x) for the full modular twist.
        rng = random.Random(73)
        for _ in range(20):
            x = random_element(rng, 3, 2)
            y = random_element(rng, 3, 2)
            assert haar(x * y) == haar(theta(y) * x)

    def test_unit_integral_twisted_trace(self):
        # int_1(xy) = int_1(sigma_L^2(theta^-1(y)) x).
        rng = random.Random(79)
        for _ in range(20):
            x = random_element(rng, 3, 2)
            y = random_element(rng, 3, 2)
            twisted = sigma_left(theta_inv(y), 4)
            assert int_one(x * y) == int_one(twisted * x)

    def test_int_one_sigma_invariant(self):
        rng = random.Random(83)
        for _ in range(10):
            x = random_element(rng, 4)
            assert int_one(sigma_left(x)) == int_one(x)


class TestGNS:
    def test_generator_norms(self):
        two_inv = q_number(4).inverse()
        assert gns_norm_sq(A) == Q * two_inv
        assert gns_norm_sq(B) == Q * two_inv
        assert gns_norm_sq(C) == two_inv * Scalar.q_pow(-1)
        assert gns_norm_sq(D) == two_inv * Scalar.q_pow(-1)

    def test_spin_one_norms(self):
        three_inv = q_number(6).inverse()
        assert gns_norm_sq(A * A) == Q ** 2 * three_inv
        assert gns_norm_sq(A * B) == Q ** 3 * three_inv * q_number(4).inverse()
        mid = q_number(4) * B * C + 1
        assert gns_norm_sq(mid) == three_inv

    def test_different_weights_orthogonal(self):
        assert gns_inner(A, D).is_zero()
        assert gns_inner(B, C).is_zero()
        assert gns_inner(A * B, B * D).is_zero()

    def test_positivity_samples(self):
        rng = random.Random(89)
        for _ in range(15):
            x = random_element(rng, 3)
            val = gns_norm_sq(x).eval_at_q(0.41)
            assert val >= 0
            if not x.is_zero():
                assert val > 0


def test_int_one_examples():
    assert int_one(normalize_word("ad")) == ONE
    assert int_one(normalize_word("da")) == ONE
    assert int_one(B * C).is_zero()
    assert int_one(AlgebraElement.unit()) == ONE


# ---------------------------------------------------------------------------
# The torus restriction a -> t, d -> t^-1, b, c -> 0.

def test_torus_examples():
    assert torus(normalize_word("aab")) == {}
    assert torus(A * A) == {2: ONE}
    assert torus(D) == {-1: ONE}
    assert torus(normalize_word("da") - 1) == {}  # da - 1 = q^-1 bc


def test_int_one_product_matches_the_formed_product():
    rng = make_rng(97)
    nonzero = 0
    for _ in range(60):
        factors = [random_element(rng, 2, 6)
                   for _ in range(rng.randint(2, 4))]
        formed = factors[0]
        for x in factors[1:]:
            formed = formed * x
        assert int_one_product(*factors) == int_one(formed)
        nonzero += not int_one(formed).is_zero()
    assert nonzero >= 10
