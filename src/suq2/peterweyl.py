"""Exact Peter-Weyl basis blocks.

The coordinate algebra decomposes under the commuting left/right weight
gradings into finite-dimensional blocks: the (2i, 2j) block is spanned by
the matrix coefficients t^l_{ij} for 2l = max(|2i|, |2j|), max+2, ...  Inside
one block the monomials with those weights form a ladder

    base, base*(bc), base*(bc)^2, ...

ordered by total degree.  Ladder transport builds the basis: e and the
right f carry the corner a^2l to every t^l_{ij}, the Haar-orthogonal step
bringing in the next ladder monomial, and the transport coefficients carry
its squared norm along.  Vectors are kept in monic form (coefficient 1 on
the top-degree monomial, the newly entering one) with exact squared norms;
the conventional normalization, squared norm q^(-2i) [2l+1]^-1, differs
from the monic one by a scalar whose square is exact even when the scalar
itself leaves the coefficient field, so only that square is stored.
A block is the list of its vectors, in order of doubled spin, so the
vector of doubled spin l2 is at index (l2 - max(|2i|, |2j|)) / 2.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .actions import act_e, act_f_right
from .algebra import AlgebraElement, Monomial
from .scalars import Scalar, q_number

__all__ = [
    "PWVector",
    "target_norm_sq",
    "block_monomials",
    "pw_orthobasis",
    "bracket_difference",
]


def target_norm_sq(l2: int, i2: int) -> Scalar:
    """The conventional squared norm q^(-2i) [2l+1]^-1 (doubled indices)."""
    return Scalar.q_pow(-i2) * q_number(2 * l2 + 2).inverse()


def bracket_difference(twice_x: int, twice_y: int) -> Scalar:
    """[x]^2 - [y]^2 as the product [x+y][x-y] (doubled arguments)."""
    return q_number(twice_x + twice_y) * q_number(twice_x - twice_y)


class PWVector:
    """One orthogonal vector of a weight block.

    ``monic`` carries unit coefficient on its top monomial; ``norm_sq`` is
    its exact squared norm; ``rescale_sq`` is the exact square of the
    scalar bringing it to the conventional normalization.
    """

    __slots__ = ("l2", "i2", "j2", "monic", "norm_sq", "rescale_sq")

    def __init__(self, l2: int, i2: int, j2: int, monic: AlgebraElement,
                 norm_sq: Scalar):
        self.l2 = l2
        self.i2 = i2
        self.j2 = j2
        self.monic = monic
        self.norm_sq = norm_sq
        self.rescale_sq = target_norm_sq(l2, i2) / norm_sq

    @property
    def target_norm_sq(self) -> Scalar:
        return target_norm_sq(self.l2, self.i2)

    def __repr__(self) -> str:
        return (f"PWVector(l2={self.l2}, i2={self.i2}, j2={self.j2}, "
                f"monic={self.monic})")


def block_monomials(i2: int, j2: int, count: int) -> List[Monomial]:
    """The degree-ordered monomial ladder spanning the (i2, j2) block."""
    if (i2 + j2) % 2:
        raise ValueError("weight pair must have equal parity")
    ipj = (i2 + j2) // 2
    jmi = (j2 - i2) // 2
    n, s = (-ipj, 0) if ipj < 0 else (0, ipj)
    m0, r0 = (jmi, 0) if jmi >= 0 else (0, -jmi)
    return [Monomial(n, m0 + t, r0 + t, s) for t in range(count)]


def pw_orthobasis(l2max: int) -> Dict[Tuple[int, int], List[PWVector]]:
    """Exact orthogonal bases for every weight block with 2l <= l2max: the
    (i2, j2) block's vectors in order of doubled spin, blocks in key order.

    Spin l starts from the corner anchor a^2l, block (-2l, -2l); e raises
    j along that row, then the right f raises i down each column.  An image
    w = gamma * monic, gamma its coefficient on its top-degree monomial,
    has squared norm n^2 |v|^2 / gamma^2, n^2 = [l+j+1][l-j] (left) or
    [l+i+1][l-i] q^-2 (right).  Exact mode bound: l2max <= 8.
    """
    if l2max < 1:
        raise ValueError("cutoff must be at least 1")
    if l2max > 8:
        raise ValueError("exact mode is limited to doubled spin <= 8")
    found: Dict[Tuple[int, int], List[PWVector]] = {}

    def put(l2: int, i2: int, j2: int, w: AlgebraElement,
            n_sq_norm_sq: Scalar) -> PWVector:
        gamma = max(w.terms.items(), key=lambda mc: mc[0].degree)[1]
        vec = PWVector(l2, i2, j2, w.scale(gamma.inverse()),
                       n_sq_norm_sq / (gamma * gamma))
        found.setdefault((i2, j2), []).append(vec)
        return vec

    for l2 in range(l2max + 1):
        corner = AlgebraElement.from_mono(Monomial(l2, 0, 0, 0))
        row = [put(l2, -l2, -l2, corner, target_norm_sq(l2, -l2))]
        for j2 in range(-l2, l2, 2):
            row.append(put(l2, -l2, j2 + 2, act_e(row[-1].monic),
                           bracket_difference(l2 + 1, j2 + 1)
                           * row[-1].norm_sq))
        for v in row:
            for i2 in range(-l2, l2, 2):
                v = put(l2, i2 + 2, v.j2, act_f_right(v.monic),
                        bracket_difference(l2 + 1, i2 + 1)
                        * Scalar.q_pow(-2) * v.norm_sq)
    return dict(sorted(found.items()))
