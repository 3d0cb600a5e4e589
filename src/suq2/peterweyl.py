"""Exact Peter-Weyl basis blocks, in closed form.

The coordinate algebra decomposes under the commuting left/right weight
gradings into finite-dimensional blocks: the (2i, 2j) block is spanned by
the matrix coefficients t^l_{ij} for 2l = max(|2i|, |2j|), max+2, ...  Inside
one block the monomials with those weights form a ladder

    u_0 = base, u_1 = base*(bc), u_2 = base*(bc)^2, ...

ordered by total degree.  The matrix coefficients are little q-Jacobi
polynomials in bc times the base (Koornwinder 1989; Masuda, Mimachi,
Nakagami, Noumi and Ueno 1991), so the basis is written down, not
orthogonalized.  With a = |j - i|, b = |i + j|, K = l - max(|i|, |j|) the
block's K-th vector and [x] = q_number(2x):

* its monic form is sum_{t <= K} c_t u_t with c_K = 1 and
  c_t = c_{t+1} q^b [t+1+a][t+1] / ([K-t][K+t+a+b+1]);
* the square of the scalar bringing it to the conventional normalization,
  squared norm q^(-2i) [2l+1]^-1, is q^(-b(2l-b)) [2l; l+i] [2l; l+j], a
  Laurent polynomial ([n; k] the symmetric q-binomial), so its squared
  norm is the conventional one divided by that square;
* the coefficient of the K-th vector in u_t, ``dual_ratio``'s product, is
  0 for t < K, 1 at t = K, and gains the factor
  -q^b [t+1][t+1+a] / ([t+1-K][t+K+a+b+2]) from t to t+1.

Vectors are kept in monic form (coefficient 1 on the top-degree monomial,
the block's K-th ladder monomial) with exact squared norms; the rescale
scalar itself may leave the coefficient field, so only its square is
stored.  A block is the list of its vectors, in order of doubled spin, so
the vector of doubled spin l2 is at index (l2 - max(|2i|, |2j|)) / 2.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .algebra import AlgebraElement, Monomial
from .scalars import ONE, Scalar, q_number


def target_norm_sq(l2: int, i2: int) -> Scalar:
    """The conventional squared norm q^(-2i) [2l+1]^-1 (doubled indices)."""
    return Scalar.q_pow(-i2) * q_number(2 * l2 + 2).inverse()


def bracket_difference(twice_x: int, twice_y: int) -> Scalar:
    """[x]^2 - [y]^2 as the product [x+y][x-y] (doubled arguments)."""
    return q_number(twice_x + twice_y) * q_number(twice_x - twice_y)


class PWVector:
    """One orthogonal vector of a weight block.

    ``monic`` carries unit coefficient on its top monomial; ``rescale_sq``
    is the exact square of the scalar bringing it to the conventional
    normalization; ``norm_sq``, its exact squared norm, is the conventional
    one divided by that square.
    """

    __slots__ = ("l2", "i2", "j2", "monic", "rescale_sq")

    def __init__(self, l2: int, i2: int, j2: int, monic: AlgebraElement,
                 rescale_sq: Scalar):
        self.l2 = l2
        self.i2 = i2
        self.j2 = j2
        self.monic = monic
        self.rescale_sq = rescale_sq

    @property
    def target_norm_sq(self) -> Scalar:
        return target_norm_sq(self.l2, self.i2)

    @property
    def norm_sq(self) -> Scalar:
        return self.target_norm_sq / self.rescale_sq

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


def ladder_shape(l2: int, i2: int, j2: int) -> Tuple[int, int, int]:
    """(a, b, K) of the vector of doubled spin l2 in block (i2, j2):
    a = |j - i|, b = |i + j| and its index K along the block's ladder."""
    return (abs(j2 - i2) // 2, abs(i2 + j2) // 2,
            (l2 - max(abs(i2), abs(j2))) // 2)


def dual_ratio(a: int, b: int, k: int, t: int) -> Scalar:
    """The coefficient of the K-th vector in u_{t+1} over that in u_t,
    for t >= K: -q^b [t+1][t+1+a] / ([t+1-K][t+K+a+b+2])."""
    return (-Scalar.q_pow(b) * q_number(2 * t + 2)
            * q_number(2 * t + 2 + 2 * a)
            / bracket_difference(2 * t + a + b + 3, 2 * k + a + b + 1))


def _monic_coefficients(a: int, b: int, k: int) -> List[Scalar]:
    """c_0, ..., c_K of the K-th monic vector, each one quotient of the
    running products of the numerators and the denominators."""
    coeffs = [ONE]
    num = den = ONE
    for t in range(k - 1, -1, -1):
        num = num * Scalar.q_pow(b) * q_number(2 * t + 2 + 2 * a) \
            * q_number(2 * t + 2)
        den = den * bracket_difference(2 * k + a + b + 1, 2 * t + a + b + 1)
        coeffs.append(num / den)
    return coeffs[::-1]


def _next_gauss_row(row: List[List[int]]) -> List[List[int]]:
    """The Gaussian binomials G(n, k), k = 0..n, as coefficient lists in
    x = q^2, from those of n - 1 by Pascal's rule
    G(n, k) = G(n-1, k-1) + x^k G(n-1, k)."""
    n = len(row)
    out = []
    for k in range(n + 1):
        coeffs = [0] * (k * (n - k) + 1)
        for e, c in enumerate(row[k - 1] if k else ()):
            coeffs[e] += c
        for e, c in enumerate(row[k] if k < n else ()):
            coeffs[e + k] += c
        out.append(coeffs)
    return out


def pw_orthobasis(l2max: int) -> Dict[Tuple[int, int], List[PWVector]]:
    """Exact orthogonal bases for every weight block with 2l <= l2max: the
    (i2, j2) block's vectors in order of doubled spin, blocks in key order.

    Every vector is written down from the closed forms of the module
    docstring.  The q-binomials are [n; k] = q^(-k(n-k)) G(n, k), with the
    Gaussian binomials G from Pascal's rule, so no rescale square is ever
    a quotient.
    Exact mode bound: l2max <= 8.
    """
    if l2max < 1:
        raise ValueError("cutoff must be at least 1")
    if l2max > 8:
        raise ValueError("exact mode is limited to doubled spin <= 8")
    found: Dict[Tuple[int, int], List[PWVector]] = {}
    gauss = [[1]]
    for l2 in range(l2max + 1):
        if l2:
            gauss = _next_gauss_row(gauss)
        binom = [Scalar({4 * e - 2 * k * (l2 - k): c
                         for e, c in enumerate(g) if c})
                 for k, g in enumerate(gauss)]
        for i2 in range(-l2, l2 + 1, 2):
            for j2 in range(-l2, l2 + 1, 2):
                a, b, k = ladder_shape(l2, i2, j2)
                monic = AlgebraElement(dict(zip(
                    block_monomials(i2, j2, k + 1),
                    _monic_coefficients(a, b, k))))
                rescale_sq = (Scalar.q_pow(-b * (l2 - b))
                              * binom[(l2 + i2) // 2] * binom[(l2 + j2) // 2])
                found.setdefault((i2, j2), []).append(
                    PWVector(l2, i2, j2, monic, rescale_sq))
    return dict(sorted(found.items()))
