"""Exact checks for the Peter-Weyl basis blocks.

The conventional normalization of a matrix coefficient involves square
roots that generally leave the coefficient field, so the substantive
claims are verified in squared/exact form:

* the closed-form basis is the one ladder transport builds, Scalar for
  Scalar at every cutoff of exact mode, and the closed-form coefficient of
  each vector in each ladder monomial is its Haar projection;
* it is the orthogonal basis of each weight block: every monic vector
  lies in the span of the block's first ladder monomials, carries
  coefficient 1 on the newest, is Haar-orthogonal to the earlier vectors
  and stores its own Haar norm, which singles it out;
* the spin-1/2 vectors are exactly the four generators, already carrying
  the conventional squared norm q^(-2i) [2l+1]^-1;
* the highest-monomial vectors a^2l are conventionally normalized as-is;
* the ladder actions move monic vectors exactly onto monic vectors, and
  the proportionality factors reproduce the squared transport
  coefficients [l+j+1][l-j] (left) and [l+i+1][l-i] (right) after
  accounting for the exact squared norms.

Together with the anchors these transport identities pin every squared
norm in the truncation, which is the content of the norm formula.
"""

import pytest
from peterweyl_transport import transport_orthobasis

from suq2.actions import act_e, act_f, act_f_right
from suq2.algebra import AlgebraElement, Monomial, gens
from suq2.functionals import gns_inner, gns_norm_sq
from suq2.peterweyl import (block_monomials, dual_ratio, ladder_shape,
                            pw_orthobasis, target_norm_sq)
from suq2.scalars import ONE, ZERO, Scalar, q_number, scalar_sqrt

A, B, C, D = gens()

L2MAX = 4
BLOCKS = pw_orthobasis(L2MAX)


def vector(i2, j2, l2):
    """The vector of doubled spin l2 in block (i2, j2): a block lists its
    vectors from the lowest spin max(|i2|, |j2|) up, one per step of 2."""
    return BLOCKS[(i2, j2)][(l2 - max(abs(i2), abs(j2))) // 2]


def all_vectors():
    for block in BLOCKS.values():
        yield from block


class TestBlockStructure:
    def test_block_monomials_weights(self):
        for (i2, j2), block in BLOCKS.items():
            for mono in block_monomials(i2, j2, len(block)):
                x = AlgebraElement.from_mono(mono)
                for m in x.terms:
                    assert m.right_weight2 == i2
                    assert m.left_weight2 == j2

    def test_block_monomials_parity_check(self):
        with pytest.raises(ValueError):
            block_monomials(0, 1, 1)

    def test_multiplicity_matches_matrix_coefficients(self):
        # Each doubled spin L contributes an (L+1) x (L+1) matrix of
        # coefficients, one per weight pair.
        for L in range(L2MAX + 1):
            count = sum(1 for v in all_vectors() if v.l2 == L)
            assert count == (L + 1) ** 2

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            pw_orthobasis(0)
        with pytest.raises(ValueError):
            pw_orthobasis(10)


class TestClosedForms:
    @pytest.mark.parametrize("l2max", range(1, 9))
    def test_basis_is_the_transport_basis(self, l2max):
        # Same blocks in the same order, same vectors in the same order,
        # and every monic term, squared norm and rescale square equal.
        blocks = pw_orthobasis(l2max)
        oracle = transport_orthobasis(l2max)
        assert list(blocks) == list(oracle)
        for key, block in blocks.items():
            assert len(block) == len(oracle[key])
            for v, w in zip(block, oracle[key]):
                assert (v.l2, v.i2, v.j2) == (w.l2, w.i2, w.j2)
                assert v.monic.terms == w.monic.terms
                assert v.norm_sq == w.norm_sq
                assert v.rescale_sq == w.rescale_sq
        assert sum(map(len, blocks.values())) == sum(
            (l2 + 1) ** 2 for l2 in range(l2max + 1))

    @pytest.mark.parametrize("l2", range(9))
    def test_dual_coefficients_are_haar_projections(self, l2):
        # D_K(t) = <v, u_t> / <v, v>: 0 below the vector's own ladder
        # index K, 1 at K, then dual_ratio's running product, for 8 ladder
        # steps past K.
        checked = 0
        for (i2, j2), block in pw_orthobasis(8).items():
            for v in block:
                if v.l2 != l2:
                    continue
                a, b, k = ladder_shape(l2, i2, j2)
                dual = ZERO
                for t, mono in enumerate(block_monomials(i2, j2, k + 9)):
                    if t == k:
                        dual = ONE
                    elif t > k:
                        dual = dual * dual_ratio(a, b, k, t - 1)
                    u_t = AlgebraElement.from_mono(mono)
                    assert dual == gns_inner(v.monic, u_t) / v.norm_sq
                    checked += 1
        assert checked == sum(k + 9 for k in (
            (l2 - max(abs(i2), abs(j2))) // 2
            for i2 in range(-l2, l2 + 1, 2) for j2 in range(-l2, l2 + 1, 2)))


class TestOrthogonality:
    def test_within_block(self):
        for vs in BLOCKS.values():
            for i in range(len(vs)):
                for j in range(i + 1, len(vs)):
                    assert gns_inner(vs[i].monic, vs[j].monic) == ZERO

    def test_monic_ladder_form_at_spin_three(self):
        # Support in the first k+1 ladder monomials, unit coefficient on
        # the k-th and orthogonality to the earlier vectors determine the
        # k-th vector uniquely; its stored norm is its Haar norm.
        checked = 0
        for (i2, j2), block in pw_orthobasis(6).items():
            ladder = block_monomials(i2, j2, len(block))
            for k, v in enumerate(block):
                assert set(v.monic.terms) <= set(ladder[:k + 1])
                assert v.monic.coefficient(ladder[k]) == ONE
                for prev in block[:k]:
                    assert gns_inner(prev.monic, v.monic) == ZERO
                assert v.norm_sq == gns_norm_sq(v.monic)
                checked += 1
        assert checked == 140

    def test_top_monomial_is_the_ladder_pivot_at_spin_four(self):
        # The fact mult_op_matrix reads leakage and its row range off, at
        # its largest cutoff: along a block, each vector's top-degree
        # monomial is unique, carries coefficient 1, is the block's k-th
        # ladder monomial and has degree 2l, rising from vector to vector.
        # No Haar state is evaluated.
        checked = 0
        for (i2, j2), block in pw_orthobasis(8).items():
            last = -1
            for k, v in enumerate(block):
                terms = v.monic.terms
                top = max(m.degree for m in terms)
                tops = [m for m in terms if m.degree == top]
                assert tops == [block_monomials(i2, j2, k + 1)[k]]
                assert terms[tops[0]] == ONE
                assert top == v.l2 > last
                last = top
                checked += 1
        assert checked == sum((l2 + 1) ** 2 for l2 in range(9))

    def test_across_blocks_is_automatic(self):
        # Different weight pairs are orthogonal by the grading; one spot
        # check that the inner product agrees.
        assert gns_inner(vector(0, 0, 2).monic,
                         vector(2, 0, 2).monic) == ZERO

    def test_norms_are_nonzero(self):
        for v in all_vectors():
            assert not v.norm_sq.is_zero()


class TestNormAnchors:
    def test_spin_half_vectors_are_generators(self):
        # t^{1/2} entries with the conventional normalization are exactly
        # the generators; their monic vectors already have the target
        # squared norm.
        expected = {(-1, -1): A, (-1, 1): B, (1, -1): C, (1, 1): D}
        for (i2, j2), gen in expected.items():
            v = vector(i2, j2, 1)
            assert v.monic == gen
            assert v.norm_sq == target_norm_sq(1, i2)
            assert v.rescale_sq == ONE
            assert scalar_sqrt(v.rescale_sq) == ONE

    def test_top_power_vectors_normalized(self):
        # The (-l, -l) block of spin l is spanned by a^2l, whose squared
        # norm is exactly q^2l [2l+1]^-1 = the conventional target.
        for l2 in range(1, L2MAX + 1):
            v = vector(-l2, -l2, l2)
            assert v.monic == AlgebraElement.from_mono(Monomial(l2, 0, 0, 0))
            assert v.norm_sq == Scalar.q_pow(l2) * q_number(
                2 * l2 + 2).inverse()
            assert scalar_sqrt(v.rescale_sq) == ONE

    def test_center_column_spin_one(self):
        # The spin-1 vector in the weight-(0,0) block is proportional to
        # [2] bc + 1 and its rescaling square is a perfect square.
        v = vector(0, 0, 2)
        two = q_number(4)
        assert v.monic.scale(two) == (
            AlgebraElement.from_mono(Monomial(0, 1, 1, 0)).scale(two)
            + AlgebraElement.unit())
        assert scalar_sqrt(v.rescale_sq) is not None

    def test_normalized_vectors_hit_target(self):
        for v in all_vectors():
            root = scalar_sqrt(v.rescale_sq)
            if root is not None:
                assert gns_norm_sq(v.monic.scale(root)) == v.target_norm_sq


class TestLeftTransport:
    """e acts on the left column index j, raising it by one."""

    def test_top_of_ladder_annihilated(self):
        for v in all_vectors():
            if v.l2 == v.j2:
                assert act_e(v.monic).is_zero()

    def test_monic_transport_and_squared_coefficient(self):
        checked = 0
        for v in all_vectors():
            if v.l2 < v.j2 + 2:
                continue
            target = vector(v.i2, v.j2 + 2, v.l2)
            w = act_e(v.monic)
            gamma = gns_inner(target.monic, w) / target.norm_sq
            assert w == target.monic.scale(gamma)
            # |e -> t^l_{i,j}|^2 = [l+j+1][l-j] in conventional
            # normalization; both sides below are exact in the field.
            n_sq = q_number(v.l2 + v.j2 + 2) * q_number(v.l2 - v.j2)
            assert gamma * gamma * target.norm_sq == n_sq * v.norm_sq
            checked += 1
        assert checked > 0

    def test_f_reverses_e_up_to_squared_coefficient(self):
        # f lowers j; on the monic level e then f returns a multiple of
        # the original vector with exact ratio [l+j+1][l-j].
        v = vector(0, 0, 4)
        up = vector(0, 2, 4)
        w = act_f(act_e(v.monic))
        gamma = gns_inner(v.monic, w) / v.norm_sq
        assert w == v.monic.scale(gamma)
        assert gamma == q_number(v.l2 + v.j2 + 2) * q_number(v.l2 - v.j2)
        assert not act_e(up.monic).is_zero() or up.l2 == up.j2


class TestRightTransport:
    """The right f-action raises the row index i by one."""

    def test_end_of_row_annihilated(self):
        for v in all_vectors():
            if v.l2 == v.i2:
                assert act_f_right(v.monic).is_zero()

    def test_monic_transport_and_squared_coefficient(self):
        checked = 0
        for v in all_vectors():
            if v.l2 < v.i2 + 2:
                continue
            target = vector(v.i2 + 2, v.j2, v.l2)
            w = act_f_right(v.monic)
            gamma = gns_inner(target.monic, w) / target.norm_sq
            assert w == target.monic.scale(gamma)
            # The conventional squared coefficient is [l+i+1][l-i]; the
            # target norm convention carries q^-2i, hence the q^2.
            n_sq = q_number(v.l2 + v.i2 + 2) * q_number(v.l2 - v.i2)
            assert (gamma * gamma * target.norm_sq * Scalar.q_pow(2)
                    == n_sq * v.norm_sq)
            checked += 1
        assert checked > 0
