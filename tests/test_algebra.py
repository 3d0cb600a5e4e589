"""Coordinate-algebra tests: relations, PBW products, star, coproduct."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from suq2.algebra import (
    UNIT_MONO,
    AlgebraElement,
    _accumulate,
    Monomial,
    TensorElement,
    _inner,
    _outer,
    coproduct,
    counit,
    gens,
    mono,
    normalize_word,
    weight_decompose,
)
from suq2.functionals import int_one, int_one_product, torus
from suq2.rewrite import rewrite_normal_form
from suq2.sampling import make_rng, random_element, random_monomial
from suq2.scalars import ONE, ZERO, Scalar, q_number

A, B, C, D = gens()
Q = Scalar.q_pow(1)
QI = Scalar.q_pow(-1)


class TestDefiningRelations:
    def test_q_commutations(self):
        assert B * A == QI * (A * B)
        assert C * A == QI * (A * C)
        assert D * B == QI * (B * D)
        assert D * C == QI * (C * D)
        assert C * B == B * C

    def test_quantum_determinant_relations(self):
        assert A * D == 1 + Q * B * C
        assert D * A == 1 + QI * B * C

    def test_det_is_central_in_low_degree(self):
        det = A * D - Q * B * C  # == 1
        for g in gens():
            assert det * g == g * det == g

    def test_word_normalization_example(self):
        # d*a*d = (1 + q^-1 bc) d = d + q^-1 b c d, all in PBW order.
        x = normalize_word("dad")
        assert x == D + QI * B * C * D
        assert x == normalize_word("d a d")

    def test_add_example(self):
        # a*d*d: (1 + q bc)d = d + q bcd.
        assert normalize_word("add") == D + Q * B * C * D

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError):
            normalize_word("abe")


class TestMonomialBasis:
    def test_mono_validation(self):
        with pytest.raises(ValueError):
            mono(1, 0, 0, 1)
        with pytest.raises(ValueError):
            mono(-1, 0, 0, 0)

    def test_pbw_products_stay_in_basis(self):
        rng = random.Random(7)
        for _ in range(50):
            x = random_monomial(rng, 4)
            y = random_monomial(rng, 4)
            prod = AlgebraElement.from_mono(x) * AlgebraElement.from_mono(y)
            for m in prod.terms:
                assert m.n == 0 or m.s == 0

    def test_power_ordering(self):
        # a^2 d^2 = 1 + q(1 + q^2) bc + q^4 (bc)^2
        lhs = A * A * D * D
        bc = B * C
        rhs = 1 + (Q + Q ** 3) * bc + Q ** 4 * bc * bc
        assert lhs == rhs


class TestRewriteOracle:
    def test_matches_structured_product_on_words(self):
        rng = random.Random(11)
        letters = "abcd"
        for _ in range(60):
            word = "".join(rng.choice(letters) for _ in range(rng.randint(0, 6)))
            assert rewrite_normal_form(word) == normalize_word(word)

    def test_oracle_example(self):
        assert rewrite_normal_form("da") == 1 + QI * B * C

    def test_mono_pair_cross_check(self):
        rng = random.Random(13)
        for _ in range(40):
            x = random_monomial(rng, 3)
            y = random_monomial(rng, 3)
            via_structured = (AlgebraElement.from_mono(x)
                              * AlgebraElement.from_mono(y))
            via_rewrite = rewrite_normal_form(x.word() + y.word())
            assert via_structured == via_rewrite


class TestNormalOrdering:
    """The closed forms of d^s a^n and a^n d^s behind every product."""

    @staticmethod
    def _element(table):
        return AlgebraElement({Monomial(al, i, i, dl): c
                               for (al, i, dl), c in table})

    def test_blocks_match_the_rewrite_oracle(self):
        for s in range(7):
            for n in range(7):
                assert (self._element(_inner(s, n))
                        == rewrite_normal_form("d" * s + "a" * n))
                assert (self._element(_outer(n, s))
                        == rewrite_normal_form("a" * n + "d" * s))

    def test_coefficients_are_q_binomials(self):
        # q^(+-ik) [k choose i], the q-binomial as a product of q-numbers.
        for k in range(11):
            binomials = [ONE]
            for i in range(1, k + 1):
                binomials.append(binomials[-1] * q_number(2 * (k - i + 1))
                                 / q_number(2 * i))
            assert [c for _, c in _outer(k, k)] == [
                b * Scalar.q_pow(i * k) for i, b in enumerate(binomials)]
            assert [c for _, c in _inner(k, k)] == [
                b * Scalar.q_pow(-i * k) for i, b in enumerate(binomials)]

    def test_one_cache_entry_per_block(self):
        _inner.cache_clear()
        _inner(6, 6)
        assert _inner.cache_info().currsize == 1


class TestAssociativity:
    def test_random_triples(self):
        rng = random.Random(5)
        for _ in range(15):
            x = random_element(rng, 3, 2)
            y = random_element(rng, 3, 2)
            z = random_element(rng, 3, 2)
            assert (x * y) * z == x * (y * z)


class TestStar:
    def test_generators(self):
        assert A.star() == D
        assert B.star() == -Q * C
        assert C.star() == -QI * B
        assert D.star() == A

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(25):
            x = random_element(rng, 4)
            assert x.star().star() == x

    def test_antihomomorphism(self):
        rng = random.Random(9)
        for _ in range(25):
            x = random_element(rng, 3, 2)
            y = random_element(rng, 3, 2)
            assert (x * y).star() == y.star() * x.star()

    def test_monomial_closed_form(self):
        # (a b^2 c)* = (-1)^3 q^{2-1} b c^2 d
        x = AlgebraElement.from_mono(Monomial(1, 2, 1, 0))
        assert x.star() == -Q * AlgebraElement.from_mono(Monomial(0, 1, 2, 1))


class TestCoproduct:
    def test_generator_table(self):
        am, bm, cm, dm = (Monomial(1, 0, 0, 0), Monomial(0, 1, 0, 0),
                          Monomial(0, 0, 1, 0), Monomial(0, 0, 0, 1))
        assert coproduct(A) == TensorElement({(am, am): ONE, (bm, cm): ONE})
        assert coproduct(B) == TensorElement({(am, bm): ONE, (bm, dm): ONE})
        assert coproduct(C) == TensorElement({(cm, am): ONE, (dm, cm): ONE})
        assert coproduct(D) == TensorElement({(cm, bm): ONE, (dm, dm): ONE})

    def test_multiplicative(self):
        rng = random.Random(21)
        for _ in range(10):
            x = random_element(rng, 2, 2)
            y = random_element(rng, 2, 2)
            assert coproduct(x * y) == coproduct(x) * coproduct(y)

    def test_counit_axiom(self):
        # (eps (x) id) Delta = id on a sample of monomials.
        rng = random.Random(33)
        for _ in range(20):
            m = random_monomial(rng, 3)
            x = AlgebraElement.from_mono(m)
            left = AlgebraElement.zero()
            right = AlgebraElement.zero()
            for (m1, m2), coeff in coproduct(x).terms.items():
                left = left + AlgebraElement.from_mono(
                    m2, coeff * counit(AlgebraElement.from_mono(m1)))
                right = right + AlgebraElement.from_mono(
                    m1, coeff * counit(AlgebraElement.from_mono(m2)))
            assert left == x and right == x

    def test_counit_values(self):
        assert counit(A) == ONE and counit(D) == ONE
        assert counit(B).is_zero() and counit(C).is_zero()
        assert counit(normalize_word("ad")) == ONE


class TestWeights:
    def test_generator_weights(self):
        am, bm, cm, dm = (Monomial(1, 0, 0, 0), Monomial(0, 1, 0, 0),
                          Monomial(0, 0, 1, 0), Monomial(0, 0, 0, 1))
        assert (am.left_weight2, am.right_weight2) == (-1, -1)
        assert (bm.left_weight2, bm.right_weight2) == (1, -1)
        assert (cm.left_weight2, cm.right_weight2) == (-1, 1)
        assert (dm.left_weight2, dm.right_weight2) == (1, 1)

    def test_weights_additive_under_product(self):
        rng = random.Random(17)
        for _ in range(30):
            x = random_monomial(rng, 4)
            y = random_monomial(rng, 4)
            prod = AlgebraElement.from_mono(x) * AlgebraElement.from_mono(y)
            for m in prod.terms:
                assert m.left_weight2 == x.left_weight2 + y.left_weight2
                assert m.right_weight2 == x.right_weight2 + y.right_weight2

    def test_decompose_splits_and_sums_back(self):
        x = A + D + 2 * B * C
        parts = weight_decompose(x)
        assert set(parts) == {(-1, -1), (0, 0), (1, 1)}
        total = AlgebraElement.zero()
        for piece in parts.values():
            total = total + piece
        assert total == x
        assert parts[(0, 0)] == 2 * B * C


class TestSparseSums:
    """The container that elements, tensors and modular matrices share."""

    def test_sum_types_never_mix(self):
        assert (AlgebraElement.zero() == TensorElement()) is False
        assert (TensorElement() == AlgebraElement.zero()) is False
        with pytest.raises(TypeError):
            AlgebraElement.unit() + TensorElement()
        with pytest.raises(TypeError):
            TensorElement() - AlgebraElement.unit()
        with pytest.raises(TypeError):
            TensorElement() + 1

    def test_scalars_still_coerce(self):
        two = AlgebraElement.from_mono(UNIT_MONO, 2)
        assert AlgebraElement.unit() + 1 == two
        assert 1 + AlgebraElement.unit() == two
        assert 3 - AlgebraElement.unit() == two
        assert AlgebraElement.unit() == 1

    def test_results_hold_no_zero(self):
        x = A * D - D * A
        for y in (x - x, x + (-x), x.scale(0), coproduct(x) - coproduct(x)):
            assert y.is_zero() and y.terms == {}
        assert all(not c.is_zero() for c in (x * x).terms.values())

    @pytest.mark.parametrize("coeff", [Q - 1, B + Q * C],
                             ids=["scalar", "element"])
    def test_accumulate_drops_zeros(self, coeff):
        acc = {}
        _accumulate(acc, "k", coeff - coeff)
        assert acc == {}
        _accumulate(acc, "k", coeff)
        assert acc["k"] is coeff
        _accumulate(acc, "k", coeff)
        assert acc == {"k": coeff + coeff}
        _accumulate(acc, "k", -(coeff + coeff))
        assert acc == {}


class TestSerialization:
    def test_round_trip(self):
        x = normalize_word("dabc") - Scalar.v_pow(1) * normalize_word("bc")
        assert AlgebraElement.from_json(x.to_json()) == x

    def test_str_smoke(self):
        assert str(AlgebraElement.unit()) == "1"
        assert "b" in str(B)


@st.composite
def words(draw):
    return "".join(draw(st.lists(st.sampled_from("abcd"), max_size=5)))


@settings(max_examples=40, deadline=None)
@given(words(), words())
def test_concatenation_is_multiplication(w1, w2):
    assert normalize_word(w1) * normalize_word(w2) == normalize_word(w1 + w2)


@settings(max_examples=30, deadline=None)
@given(words())
def test_rewrite_route_agrees(word):
    assert rewrite_normal_form(word) == normalize_word(word)


# The torus restriction a -> t, d -> t^-1, b, c -> 0 is an algebra
# homomorphism, and int_one reads its constant term.

def _laurent_mul(p, q):
    """Product of two Laurent polynomials in t as {power: coefficient}."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, ZERO) + c1 * c2
    return {e: c for e, c in out.items() if not c.is_zero()}


#: Normal forms of generator words and seeded random elements.
elements = st.one_of(
    words().map(normalize_word),
    st.integers(0, 10 ** 6).map(
        lambda seed: random_element(make_rng(seed), 4, 3)))


@settings(max_examples=60, deadline=None)
@given(elements, elements)
def test_torus_restriction_is_multiplicative(x, y):
    assert torus(x * y) == _laurent_mul(torus(x), torus(y))


@settings(max_examples=60, deadline=None)
@given(elements)
def test_int_one_is_the_constant_term_on_the_torus(x):
    assert int_one(x) == torus(x).get(0, ZERO)
    assert int_one_product(x) == int_one(x)


def test_bracket_identity_in_algebra():
    # (ad)(da) - between the two determinant forms only bc-terms differ:
    # ad - da = (q - q^-1) bc.
    assert A * D - D * A == (Q - QI) * B * C
    # and [2]_q bc appears in ad + da - 2.
    assert A * D + D * A - 2 == q_number(4) * B * C
