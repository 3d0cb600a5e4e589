"""Action tests: ladders, weight scalings, pairing, Sweedler cross-check."""

import random
from fractions import Fraction

import pytest

from suq2.actions import (
    act_e,
    act_e_right,
    act_f,
    act_f_right,
    act_h,
    act_k,
    act_weight,
    pairing,
    sigma_left,
    sigma_right,
    sweedler_oracle,
    sweedler_oracle_right,
    theta,
    theta_inv,
)
from suq2.algebra import (AlgebraElement, Monomial, gens, normalize_word,
                          weight_decompose)
from suq2.sampling import random_element, random_monomial
from suq2.scalars import ONE, Scalar, q_number

A, B, C, D = gens()
V = Scalar.v_pow(1)
Q = Scalar.q_pow(1)


class TestLadderGenerators:
    def test_e_on_generators(self):
        assert act_e(A) == B
        assert act_e(C) == D
        assert act_e(B).is_zero()
        assert act_e(D).is_zero()

    def test_f_on_generators(self):
        assert act_f(B) == A
        assert act_f(D) == C
        assert act_f(A).is_zero()
        assert act_f(C).is_zero()

    def test_e_on_ab(self):
        # e(ab) = e(a)k(b) + k^-1(a)e(b) = q^(1/2) b^2.
        assert act_e(A * B) == V * B * B

    def test_f_on_cd(self):
        # f(cd) = f(c)k(d) + k^-1(c)f(d) = q^(1/2) c^2.
        assert act_f(C * D) == V * C * C

    def test_e_on_a_power_far_past_the_recursion_limit(self):
        # e(a^N) = v^(1-N) [N] a^(N-1) b: the ladder is a sum over the
        # letters of the word, so no stack grows with N.
        n = 1200
        x = AlgebraElement.from_mono(Monomial(n, 0, 0, 0))
        want = AlgebraElement.from_mono(Monomial(n - 1, 1, 0, 0),
                                        Scalar.v_pow(1 - n) * q_number(2 * n))
        assert act_e(x) == want

    def test_leibniz_on_random_products(self):
        rng = random.Random(41)
        for _ in range(20):
            x = random_element(rng, 2, 2)
            y = random_element(rng, 2, 2)
            lhs = act_e(x * y)
            rhs = act_e(x) * act_k(y, 1) + act_k(x, -1) * act_e(y)
            assert lhs == rhs
            lhs = act_f(x * y)
            rhs = act_f(x) * act_k(y, 1) + act_k(x, -1) * act_f(y)
            assert lhs == rhs


class TestCartanAndWeights:
    def test_h_on_generators(self):
        assert act_h(A) == Scalar.from_fraction(Fraction(-1, 2)) * A
        assert act_h(B) == Scalar.from_fraction(Fraction(1, 2)) * B
        assert act_h(D * D) == D * D

    def test_commutator_e_f_is_q_cartan(self):
        # [e, f] acts as [2j]_q on a left-weight-2j vector.
        rng = random.Random(43)
        for _ in range(15):
            x = AlgebraElement.from_mono(random_monomial(rng, 4))
            comm = act_e(act_f(x)) - act_f(act_e(x))
            expected = AlgebraElement.zero()
            for (l2, _r2), piece in weight_decompose(x).items():
                expected = expected + q_number(2 * l2) * piece
            assert comm == expected

    def test_weight_scaling_sides(self):
        # Right scalings see the right weight; left scalings the left one.
        x = B  # left +1, right -1
        assert act_weight(x, "left", 3) == V ** 3 * B
        assert act_weight(x, "right", 3) == V ** -3 * B
        with pytest.raises(ValueError):
            act_weight(x, "middle", 1)


class TestModularFamily:
    def test_theta_on_generators(self):
        assert theta(A) == Q * Q * A
        assert theta(D) == Q ** -2 * D
        assert theta(B) == B
        assert theta(C) == C

    def test_theta_inverse(self):
        rng = random.Random(47)
        for _ in range(10):
            x = random_element(rng, 4)
            assert theta_inv(theta(x)) == x

    def test_sigma_factors(self):
        rng = random.Random(53)
        for _ in range(10):
            x = random_element(rng, 4)
            assert theta(x) == sigma_left(sigma_right(x))
            assert sigma_left(sigma_left(x, 1), 1) == sigma_left(x)

    def test_sigmas_are_algebra_maps(self):
        rng = random.Random(59)
        for _ in range(10):
            x = random_element(rng, 3, 2)
            y = random_element(rng, 3, 2)
            assert sigma_left(x * y) == sigma_left(x) * sigma_left(y)
            assert theta(x * y) == theta(x) * theta(y)


class TestPairing:
    def test_values_on_generators(self):
        assert pairing("k", A) == V ** -1
        assert pairing("k", D) == V
        assert pairing("kinv", A) == V
        assert pairing("e", C).is_zero() is False
        assert pairing("e", B).is_zero()
        assert pairing("f", B) == ONE

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            pairing("g", A)

    def test_ladder_pairings_obey_the_twisted_leibniz_rule(self):
        # <g, xy> = <g, x><k, y> + <k^-1, x><g, y> for g in {e, f}: the
        # defining law of the closed form, checked on products.
        rng = random.Random(71)
        nonzero = 0
        for _ in range(300):
            x = AlgebraElement.from_mono(random_monomial(rng, 5))
            y = AlgebraElement.from_mono(random_monomial(rng, 5))
            for g in ("e", "f"):
                lhs = pairing(g, x * y)
                assert lhs == (pairing(g, x) * pairing("k", y)
                               + pairing("kinv", x) * pairing(g, y))
                nonzero += not lhs.is_zero()
        assert nonzero >= 20  # the law is tested beyond 0 = 0

    def test_pairing_respects_products(self):
        # <k, xy> = <k, x><k, y> on monomials (k is group-like).
        assert pairing("k", normalize_word("aa")) == V ** -2
        assert pairing("k", normalize_word("dd")) == V ** 2
        assert pairing("k", normalize_word("ad")) == ONE


class TestSweedlerOracle:
    def test_matches_ladders_on_monomials(self):
        rng = random.Random(61)
        for _ in range(40):
            x = AlgebraElement.from_mono(random_monomial(rng, 4))
            assert sweedler_oracle("e", x) == act_e(x)
            assert sweedler_oracle("f", x) == act_f(x)
            assert sweedler_oracle("k", x) == act_k(x, 1)
            assert sweedler_oracle("kinv", x) == act_k(x, -1)

    def test_matches_all_four_ladders_past_degree_four(self):
        rng = random.Random(73)
        drawn = (random_monomial(rng, 8) for _ in range(60))
        monos = [m for m in drawn if m.degree >= 5]
        assert len(monos) >= 20
        for m in monos:
            x = AlgebraElement.from_mono(m)
            assert sweedler_oracle("e", x) == act_e(x)
            assert sweedler_oracle("f", x) == act_f(x)
            assert sweedler_oracle_right("e", x) == act_e_right(x)
            assert sweedler_oracle_right("f", x) == act_f_right(x)

    def test_matches_on_elements(self):
        rng = random.Random(67)
        for _ in range(10):
            x = random_element(rng, 3)
            assert sweedler_oracle("e", x) == act_e(x)
            assert sweedler_oracle("f", x) == act_f(x)


class TestRightLadders:
    def test_generator_table(self):
        assert act_e_right(C) == A
        assert act_e_right(D) == B
        assert act_e_right(A).is_zero()
        assert act_e_right(B).is_zero()
        assert act_f_right(A) == C
        assert act_f_right(B) == D
        assert act_f_right(C).is_zero()
        assert act_f_right(D).is_zero()

    def test_weight_shift(self):
        rng = random.Random(61)
        for _ in range(10):
            m = random_monomial(rng, max_degree=4)
            x = AlgebraElement.from_mono(m)
            for mono in act_f_right(x).terms:
                assert mono.right_weight2 == m.right_weight2 + 2
                assert mono.left_weight2 == m.left_weight2
            for mono in act_e_right(x).terms:
                assert mono.right_weight2 == m.right_weight2 - 2
                assert mono.left_weight2 == m.left_weight2

    def test_matches_sweedler_route(self):
        rng = random.Random(62)
        for _ in range(12):
            x = random_element(rng, max_degree=4, max_terms=3)
            assert act_e_right(x) == sweedler_oracle_right("e", x)
            assert act_f_right(x) == sweedler_oracle_right("f", x)
            assert act_weight(x, "right", 1) == sweedler_oracle_right("k", x)

    def test_left_and_right_actions_commute(self):
        rng = random.Random(63)
        for _ in range(8):
            x = random_element(rng, max_degree=4, max_terms=3)
            assert act_e(act_f_right(x)) == act_f_right(act_e(x))
            assert act_f(act_e_right(x)) == act_e_right(act_f(x))
            assert act_e(act_e_right(x)) == act_e_right(act_e(x))

    def test_right_leibniz(self):
        rng = random.Random(64)
        right_k = lambda y, h: act_weight(y, "right", h)
        for _ in range(8):
            x = random_element(rng, max_degree=3, max_terms=2)
            y = random_element(rng, max_degree=3, max_terms=2)
            lhs = act_e_right(x * y)
            rhs = act_e_right(x) * right_k(y, 1) + right_k(x, -1) * act_e_right(y)
            assert lhs == rhs
