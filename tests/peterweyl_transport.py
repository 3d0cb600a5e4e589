"""The Peter-Weyl basis by ladder transport: the oracle of the closed forms.

Spin l starts from the corner anchor a^2l, block (-2l, -2l), whose squared
norm is the conventional q^2l [2l+1]^-1.  e raises j along that row, then
the right f raises i down each column.  An image w = gamma * monic, gamma
its coefficient on its top-degree monomial, has squared norm
n^2 |v|^2 / gamma^2, with n^2 = [l+j+1][l-j] (left) or [l+i+1][l-i] q^-2
(right).  Nothing here reads a closed form of ``suq2.peterweyl`` beyond
the conventional target norm and the bracket product.
"""

from typing import Dict, List, NamedTuple, Tuple

from suq2.actions import act_e, act_f_right
from suq2.algebra import AlgebraElement, Monomial
from suq2.peterweyl import bracket_difference, target_norm_sq
from suq2.scalars import Scalar


class TransportVector(NamedTuple):
    l2: int
    i2: int
    j2: int
    monic: AlgebraElement
    norm_sq: Scalar
    rescale_sq: Scalar


def transport_orthobasis(l2max: int
                         ) -> Dict[Tuple[int, int], List[TransportVector]]:
    """Every weight block with 2l <= l2max, built by ladder transport: the
    (i2, j2) block's vectors in order of doubled spin, blocks in key order."""
    found: Dict[Tuple[int, int], List[TransportVector]] = {}

    def put(l2, i2, j2, w, n_sq_norm_sq):
        gamma = max(w.terms.items(), key=lambda mc: mc[0].degree)[1]
        norm_sq = n_sq_norm_sq / (gamma * gamma)
        vec = TransportVector(l2, i2, j2, w.scale(gamma.inverse()), norm_sq,
                              target_norm_sq(l2, i2) / norm_sq)
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
