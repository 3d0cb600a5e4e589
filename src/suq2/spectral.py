"""Floating-point spectral layer: Dirac eigendata, truncated multiplication
matrices, zeta-type trace scans and residue extraction.

Everything in here is deliberately numeric; the exact side of the package
(Haar state, orthogonal matrix-coefficient bases) feeds it but is never
weakened by it.  Three levels:

* Closed-form eigendata.  The deformed Dirac operator acts sector by
  sector on the doubled spin-l space; each sector is a real symmetric
  matrix of arrow type whose eigenvalues come in pairs +-lambda(l, n)
  with

      lambda(l, n)^2 = (n/2)^2 + q^n [l + 1/2 + n/2][l + 1/2 - n/2],

  plus a double eigenvalue -(l + 1/2) at the sector edges.  ``jset``
  enumerates the non-negative mode numbers n admitted by the index
  filters; n and 2l always have opposite parity, so m = 2l - n is odd.

* Truncated operators.  ``dirac_matrix`` is the one assembly of the
  truncated Dirac operator D: it places each sector matrix on the diagonal
  of a zero matrix by numpy slicing, so no module of the package imports
  SciPy's linear algebra, and the commutator probe permutes it into its
  own basis order rather than placing the sectors again.
  ``mult_op_matrix`` expresses multiplication by an algebra element in the
  conventionally normalized matrix-coefficient basis (squared norms
  q^{-2i}[2l+1]^{-1}), returned as the record ``MultOpMatrix`` (matrix,
  labels, flagged, q).  The projections are computed exactly, from the
  basis's closed-form dual coefficients, and only converted to floats at
  the very end; columns whose image does not fit below the cutoff are
  flagged, never silently truncated.  Its c columns have closed forms,
  ``clebsch_plus`` and ``clebsch_minus``, two cases of one rule.

* Trace scans.  ``upsilon_scan`` accumulates the weighted eigenvalue sums
  used by the residue functional, together with certified tail bounds;
  all the z of a scan are one ``upsilon_value`` call.  Every fact of a
  nonzero weight tag lives in one table, ``_TAGS``: its weight on the
  lattice (which the lattice sums below call too), the scan's column
  factor, the envelope that bounds its weight, and its cutoff-free sum
  with the method name a residue reports.  A scan is the lattice's mode
  table restricted to n + m <= lmax: the admitted states as (n, m) pairs,
  m = 2l - n odd, in a fixed (odd m outer, n inner) order, each tag's
  weight, and one cancellation-free base
  1 + lambda^2 = 1 + n^2/4 + K_m (1 - q^{2n+m+1}).  ``tail_bound`` is one
  formula for every tag: the envelope times integral bounds of a minorant
  of the base, summed over the odd m of the scan's own triangle and in
  closed form past it.  A call first prepares
  the z-independent part once: one-index tables (q^k, 1 - q^k, K_m)
  built by scalar Python arithmetic are gathered by integer indices onto
  blocks of (n, m) pairs, formed block by block, and combined with
  correctly rounded numpy arithmetic into the bases and the weights.
  Each z then costs the per-term power (1 + lambda^2)^{-z/2}, which stays
  Python's pow since numpy's vectorized power rounds differently from
  libm on some CPUs, one product per term, and one exact sum: error-free
  extraction splits the terms into parts whose sums are exact, and the
  sum is rounded once, under a certificate that it rounds as the exact
  total does.  That gives ``math.fsum``'s bits in a fifth of its time on
  4001 terms, the longest column head, and a tenth on 40,000 terms (a
  short sum pays a fixed cost instead; see ``_exact_sum``).  A scan's
  output thus has the bits of the plain per-term loop under
  ``math.fsum``, and does not depend on the host.
  ``eigen_lattice_sum`` evaluates the same sums arbitrarily close to the
  abscissa z = 3 by resumming the leading
  geometric part of the (n, m) lattice in closed form, which a plain
  cutoff scan cannot reach.  Each of its columns is one model, by scalar
  Python arithmetic: the flat n sum, exact by Poisson summation (an
  integral, half the n = 0 term and Bessel K terms), plus damped
  differences, whose bases and weights are built once for every z that
  reaches the column.  Every column of the c*c and identity sums over
  the odd-m lattice (``upsilon_cstarc_lattice`` and
  ``_identity_lattice``) is summed directly by one evaluator given the
  column's weight: a head of a(q) terms, 256 up to about q = 0.917 and
  at most 4001, whose n arrays are built once per call and whose array
  powers q^k are gathered from one table that grows with the columns
  reached, the heads of all its z merged by one call of the same exact
  sum, an integral tail, and a third-order Euler-Maclaurin close.
  Where every t-dependent power of q rounds away past the head, the
  float weight there is alpha + beta t and the tail is alpha I0 + beta
  I1, two integrals in closed form (an incomplete beta function and a
  power); only within about 5e-3 of q = 1 is the full c*c weight
  integrated by quadrature.  The lattice sums take a list of z: a
  column's weights and bases are built once for all of them, and each z
  then costs its powers, exact sum, tail and close.
  Each z keeps its own m series, which stops after three terms in a row
  below a relative tolerance or at m = _M_CAP, so a list gives the bits
  of one call per z; within about 1e-9 of q = 1 a column's base cancels,
  and every lattice sum raises ``FloatingPointError`` rather than return
  nan, as ``eigen_lattice_sum`` does too where its sum cancels against
  the resummed part to a value that is not positive (small q, large z).
  ``residue_extract`` drives one lattice sum over its whole
  schedule in one call, through a Richardson schedule in z - 3, and
  cross-checks with a least-squares pole fit; no residue scans to a
  cutoff.
"""

from __future__ import annotations

import math
import numbers
from itertools import count, repeat
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np
# scipy.integrate is imported by the one function that calls it (the
# near-q = 1 tail quadrature), which most float commands never reach.
from scipy.special import betainc, betaincc, gammaln, kve

from .algebra import AlgebraElement, gens, weight_decompose
from .errors import NonConvergenceError
from .peterweyl import dual_ratio, ladder_shape, pw_orthobasis
from .scalars import ONE, Scalar


# ---------------------------------------------------------------------------
# Basic eigendata.

def _check_q(q_value: float) -> float:
    q = float(q_value)
    if not 0.0 < q < 1.0:
        raise ValueError(f"deformation parameter must lie in (0, 1), got {q_value}")
    return q


def _check_z(z: float, floor: float) -> None:
    """Reject a non-finite z and one at or below ``floor``; a complex z
    fails the comparison itself with ``TypeError``."""
    if not floor < z < math.inf:
        raise ValueError(f"trace sums are only defined for finite z > {floor:g}")


def _check_zs(zs: Iterable[float], floor: float) -> List[float]:
    """The z of ``zs`` as a list, each checked by ``_check_z``."""
    zs = list(zs)
    for z in zs:
        _check_z(z, floor)
    return zs


def _check_l2(l2: int) -> None:
    if l2 < 0:
        raise ValueError("doubled spin must be non-negative")


def _check_cutoff(lmax: int) -> None:
    if not isinstance(lmax, numbers.Integral):
        raise ValueError("cutoff must be a positive integer (doubled spin)")
    if lmax < 1:
        raise ValueError("cutoff must be at least 1")


def _fbracket(t2: int, q: float) -> float:
    """The symmetric q-integer [t2/2] as a float."""
    if t2 == 0:
        return 0.0
    return (q ** (-0.5 * t2) - q ** (0.5 * t2)) / (1.0 / q - q)


def _beta(l2: int, j2: int, q: float) -> float:
    """Dirac coupling q^{j-1/2} sqrt([l+j][l-j+1]) between the upper
    component at 2j = j2 and the lower one at j2 - 2, doubled spin l2."""
    return q ** (0.5 * (j2 - 1)) * math.sqrt(
        _fbracket(l2 + j2, q) * _fbracket(l2 - j2 + 2, q))


def lambda_eigen(l2: int, n: int, q_value: float) -> float:
    """Positive eigenvalue lambda(l, n) of the doubled spin-l sector.

    Arguments carry doubled spin ``l2 = 2l``; the mode number satisfies
    |n| <= l2 + 1 and the bracket difference [l+1/2]^2 - [n/2]^2 enters
    through its product form, so the edge modes n = +-(l2+1) come out as
    exactly (l2+1)/2.  Where lambda^2 overflows a float (at negative n,
    from 2l = 156 at q = 0.1 and 2l = 513 at q = 0.5), ``OverflowError``
    names 2l, n and q, although lambda itself would still be finite.
    """
    q = _check_q(q_value)
    _check_l2(l2)
    if abs(n) > l2 + 1:
        raise ValueError(f"mode number {n} outside sector of doubled spin {l2}")
    prod = _fbracket(l2 + 1 + n, q) * _fbracket(l2 + 1 - n, q)
    lam_sq = 0.25 * n * n + q ** n * prod
    if not math.isfinite(lam_sq):
        raise OverflowError(f"lambda^2 overflows at 2l={l2}, n={n}, q={q}")
    return math.sqrt(lam_sq)


def jset(l2: int) -> range:
    """Non-negative mode numbers admitted at doubled spin l2.

    The modes have parity opposite to l2 and stay below l2, so the
    complementary label m = l2 - n is always odd.
    """
    _check_l2(l2)
    return range((l2 + 1) % 2, l2, 2)


class SpectralGrid:
    """A deformation parameter together with a spin cutoff."""

    __slots__ = ("q", "lmax")

    def __init__(self, q_value: float, lmax: int):
        self.q = _check_q(q_value)
        _check_cutoff(lmax)
        self.lmax = lmax


# ---------------------------------------------------------------------------
# Dirac sector matrices.

def dirac_sector_matrix(l2: int, q_value: float) -> np.ndarray:
    """The doubled spin-l block of the Dirac operator, one fixed column index.

    Basis order: upper components with 2j = -l2..l2, then lower components
    in the same order.  The diagonal carries j - 1/2 on uppers and
    -(j + 1/2) on lowers; the coupling between upper (i, j) and lower
    (i, j-1) is q^{j-1/2} sqrt([l+j][l-j+1]) with the positive branch, so
    the matrix is symmetric by construction.
    """
    q = _check_q(q_value)
    _check_l2(l2)
    dim = 2 * (l2 + 1)
    mat = np.zeros((dim, dim))
    for idx, j2 in enumerate(range(-l2, l2 + 1, 2)):
        mat[idx, idx] = 0.5 * (j2 - 1)
        mat[l2 + 1 + idx, l2 + 1 + idx] = -0.5 * (j2 + 1)
    for j2 in range(-l2 + 2, l2 + 1, 2):
        up = (j2 + l2) // 2
        down = (l2 + 1) + (j2 - 2 + l2) // 2
        beta = _beta(l2, j2, q)
        mat[up, down] = beta
        mat[down, up] = beta
    return mat


def sector_spectrum_closed(l2: int, q_value: float) -> List[float]:
    """Closed-form eigenvalue multiset of one sector, ascending.

    Two copies of -(l + 1/2) from the unpaired edge states and a pair
    +-lambda(l, 2j-1) for every interior pairing."""
    q = _check_q(q_value)
    vals = [-0.5 * (l2 + 1), -0.5 * (l2 + 1)]
    for j2 in range(-l2 + 2, l2 + 1, 2):
        lam = lambda_eigen(l2, j2 - 1, q)
        vals.extend((lam, -lam))
    return sorted(vals)


def c_ratio(l2: int, j2: int, sign: int, q_value: float) -> float:
    """Lower/upper component ratio of the +-lambda(l, 2j-1) eigenvectors.

    ``sign`` selects the branch; the upper slot is taken positive, so the
    ratio is (sign*lambda - (j - 1/2)) / beta with the same beta as in the
    sector matrix.  Defined for the paired columns -l < j <= l.
    """
    q = _check_q(q_value)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not (-l2 + 2 <= j2 <= l2) or (j2 + l2) % 2:
        raise ValueError(f"no paired column 2j = {j2} at doubled spin {l2}")
    lam = lambda_eigen(l2, j2 - 1, q)
    beta = _beta(l2, j2, q)
    return (sign * lam - 0.5 * (j2 - 1)) / beta


def dirac_matrix(grid: SpectralGrid
                 ) -> Tuple[np.ndarray, List[Tuple[int, int, str, int]]]:
    """Assemble the full truncated Dirac matrix with its state labels.

    Block diagonal over (l2, i2): the l2 + 1 copies of each
    ``dirac_sector_matrix`` are placed in turn on the diagonal of a zero
    matrix by slicing.  The operator never mixes sectors, so a truncation
    in l2 leaves every included sector intact.  Labels are (l2, i2, slot,
    j2) with slot "up"/"down" matching the sector basis order.  This is
    the one assembly of D; the commutator probe permutes it into its own
    basis order.
    """
    labels = [(l2, i2, slot, j2) for l2 in range(grid.lmax + 1)
              for i2 in range(-l2, l2 + 1, 2) for slot in ("up", "down")
              for j2 in range(-l2, l2 + 1, 2)]
    mat = np.zeros((len(labels), len(labels)))
    at = 0
    for l2 in range(grid.lmax + 1):
        for sector in repeat(dirac_sector_matrix(l2, grid.q), l2 + 1):
            mat[at:at + len(sector), at:at + len(sector)] = sector
            at += len(sector)
    return mat, labels


# ---------------------------------------------------------------------------
# Ladder coefficients of multiplication by the generator c.

def _clebsch(sign: int, t2: int, s2: int, l2: int, ij2: int,
             q_value: float) -> float:
    """sign q^{(i+j)/2} sqrt([t2/2][s2/2]) / [2l+1], with ij2 = i2 + j2:
    the one rule of both ladder coefficients."""
    q = _check_q(q_value)
    return (sign * q ** (0.25 * ij2) * math.sqrt(
        _fbracket(t2, q) * _fbracket(s2, q)) / _fbracket(2 * l2 + 2, q))


def clebsch_plus(l2: int, i2: int, j2: int, q_value: float) -> float:
    """Coefficient of t^{l+1/2}_{i+1/2, j-1/2} in c * t^l_{ij}
    (conventional normalization)."""
    return _clebsch(1, l2 + i2 + 2, l2 - j2 + 2, l2, i2 + j2, q_value)


def clebsch_minus(l2: int, i2: int, j2: int, q_value: float) -> float:
    """Coefficient of t^{l-1/2}_{i+1/2, j-1/2} in c * t^l_{ij}
    (conventional normalization)."""
    return _clebsch(-1, l2 - i2, l2 + j2, l2, i2 + j2, q_value)


# ---------------------------------------------------------------------------
# Truncated multiplication operators.

class MultOpMatrix(NamedTuple):
    """Multiplication operator compressed to the truncated basis.

    ``labels`` lists (l2, i2, j2) in the fixed sort order shared by rows
    and columns, so entry (row, col) is ``matrix[labels.index(row),
    labels.index(col)]``; ``flagged`` collects the column labels whose
    image has a component beyond the cutoff (those columns represent a
    genuine compression, not the full operator).
    """

    matrix: np.ndarray
    labels: List[Tuple[int, int, int]]
    flagged: List[Tuple[int, int, int]]
    q: float


def mult_op_matrix(x: AlgebraElement, grid: SpectralGrid) -> MultOpMatrix:
    """Matrix of left multiplication by ``x`` in the conventionally
    normalized matrix-coefficient basis up to the grid cutoff.

    Projections onto the exact orthogonal basis are computed in the
    coefficient field; only the final rescaling ratios (whose squares are
    exact) pass through floating point.  The basis vectors of a weight
    block are orthogonal, so each coordinate is the projection
    mu = <v, comp> / <v, v> of the product's weight component itself.
    The basis and the projections are closed forms, and no Haar state is
    evaluated: the basis is ``pw_orthobasis``'s, and
    mu = sum_t comp_t D_K(t), with comp_t the component's coefficient on
    its block's ladder monomial u_t and D_K(t) the coefficient of the
    block's K-th vector in u_t, built by ``dual_ratio`` once per ladder
    shape and call.
    Everything else is read off the ladder form: the monic vector of
    doubled spin 2l has coefficient 1 on its block's ladder monomial of
    degree 2l and no support beyond it, so a block's first k+1 vectors
    span exactly its first k+1 ladder monomials.  A component therefore
    leaks past the cutoff exactly when its block is missing or its top
    degree exceeds the doubled spin of the block's last vector, and a
    vector of doubled spin above the component's top degree is
    orthogonal to it (mu = 0).  A degree-d element times t^l has no spin
    below l - d/2 (the Clebsch-Gordan rule), so rows of doubled spin
    below 2l - d are not projected either.
    Requires the exact-mode cutoff ``grid.lmax <= 8``.
    """
    blocks = pw_orthobasis(grid.lmax)
    vectors = sorted((v for blk in blocks.values() for v in blk),
                     key=lambda v: (v.l2, v.i2, v.j2))
    labels = [(v.l2, v.i2, v.j2) for v in vectors]
    pos = {lab: k for k, lab in enumerate(labels)}
    resc = [v.rescale_sq.eval_at_q(grid.q) for v in vectors]
    dim = len(vectors)
    mat = np.zeros((dim, dim))
    flagged: List[Tuple[int, int, int]] = []
    duals: Dict[Tuple[int, int, int], List[Scalar]] = {}
    degree = x.degree
    for cidx, vcol in enumerate(vectors):
        low = vcol.l2 - degree
        leaked = False
        for (lw2, rw2), comp in weight_decompose(x * vcol.monic).items():
            block = blocks.get((rw2, lw2), ())
            top = comp.degree
            leaked = leaked or not block or top > block[-1].l2
            ladder = [(min(m.m, m.r), c) for m, c in comp.terms.items()]
            last = max(t for t, _ in ladder)
            for v in block:
                if v.l2 > top:
                    break
                if v.l2 < low:
                    continue
                a, b, k = shape = ladder_shape(v.l2, v.i2, v.j2)
                row = duals.setdefault(shape, [ONE])
                while len(row) <= last - k:
                    row.append(row[-1] * dual_ratio(a, b, k, k + len(row) - 1))
                terms = [c * row[t - k] for t, c in ladder if t >= k]
                mu = sum(terms[1:], terms[0])
                if mu.is_zero():
                    continue
                ridx = pos[(v.l2, v.i2, v.j2)]
                mat[ridx, cidx] = (mu.eval_at_q(grid.q)
                                   * math.sqrt(resc[cidx] / resc[ridx]))
        if leaked:
            flagged.append(labels[cidx])
    return MultOpMatrix(mat, labels, flagged, grid.q)


# ---------------------------------------------------------------------------
# Mode weights on the (n, m) lattice.
#
# Every admitted state sits on the lattice n >= 0, m = l2 - n odd.  Each
# weight tag has one weight w(n, m, q, q_pow) there, its diagonal summed
# exactly over the right index i: the cutoff scan and the tag's lattice sum
# both call it.  n and m are integer arrays or integers, and n is a float on
# the integral tail of a lattice column; q_pow(k) is q^k.

def _identity_weight(n, m, q: float, q_pow):
    """The identity's weight 2(l2 + 1) = 2(n + m + 1)."""
    return 2.0 * (n + m + 1)


def _haar_weight(n, m, q: float, q_pow):
    """The deltaL2 weight 1 - q^{2(n+m+1)}: (1 - q^2) q^m times its sum
    over the right index.  The scan multiplies it by the column factor
    q^{-m} / (1 - q^2); ``eigen_lattice_sum`` multiplies it by q^{-m},
    and ``residue_extract`` the sum by 1 / (1 - q^2)."""
    return 1.0 - q_pow(2 * (n + m + 1))


def _cstarc_weight(n, m, q: float, q_pow):
    """Exact per-mode c*c diagonal weight times q^{-n} on the (n, m) lattice.

    Regrouped so every power of q is nonnegative: the q^{-n} damping of
    the trace formula cancels against matching factors in the
    Clebsch-Gordan products, leaving an O(1) piece plus a q^m-damped
    piece growing linearly in n.  No power underflows into a difference,
    so the weight keeps its O(1) part wherever q^{l2+n+1} rounds to 0.
    """
    q2 = q * q
    l2 = n + m
    q_top = q_pow(2 * l2 + 2)
    geo = (1.0 - q_top) / (1.0 - q2)
    eps_up = (1.0 - q_pow(m + 1)) + (1.0 - q_pow(m + 3))
    a_part = (eps_up * (q * geo - (l2 + 1.0) * q_pow(2 * l2 + 3))
              / ((1.0 - q_top) * (1.0 - q_pow(2 * l2 + 4))))
    eps_down = (1.0 - q_pow(2 * n + m + 1)) + (1.0 - q_pow(2 * n + m - 1))
    b_part = (eps_down * q_pow(m) * ((l2 + 1.0) - geo)
              / ((1.0 - q_pow(2 * l2)) * (1.0 - q_top)))
    return a_part + b_part


class _Tag:
    """Every fact of one nonzero weight tag that the scan, the tail bound
    and the residue read; ``_TAGS`` holds one instance per tag.

    ``weight`` is the tag's lattice weight above, and the scan multiplies
    column m of it by ``column(m, q)``.  ``envelope(q)`` is (a, k_a, b,
    k_b): every scan weight is at most a r_a^m + b r_b^m (n + m + 1), with
    r_a = q^{k_a} and r_b = q^{k_b}, k_b >= 0 (``tail_bound``).
    ``lattice(zs, q)`` is the cutoff-free trace sum at each z, by
    ``method``; it calls its sum through the module at call time, so a
    rebinding of the module's name reaches it.  ``column``, ``envelope``
    and ``lattice`` are methods, so a definition that reads one of them
    names no other: the scan and the tail bound reach the weights, but
    no lattice sum.
    """

    method = "lattice-resolved/richardson+least-squares"

    def column(self, m: int, q: float) -> float:
        return 1.0


class _Identity(_Tag):
    weight = staticmethod(_identity_weight)

    def envelope(self, q: float) -> Tuple[float, int, float, int]:
        return 0.0, 0, 2.0, 0

    def lattice(self, zs: List[float], q: float) -> List[float]:
        return _identity_lattice(zs, q)


class _DeltaL2(_Tag):
    """The entry deltaL2-e11 and deltaL2-e22 share: one weight for both."""

    method = "pole-resolved/richardson+least-squares"
    weight = staticmethod(_haar_weight)

    def column(self, m: int, q: float) -> float:
        return q ** -m / (1.0 - q * q)

    def envelope(self, q: float) -> Tuple[float, int, float, int]:
        return 1.0 / (1.0 - q * q), -1, 0.0, 0

    def lattice(self, zs: List[float], q: float) -> List[float]:
        return [1.0 / (1.0 - q * q) * v for v in eigen_lattice_sum(zs, q)]


class _Cstarc(_Tag):
    weight = staticmethod(_cstarc_weight)

    def envelope(self, q: float) -> Tuple[float, int, float, int]:
        """Since l2 = n + m >= 1, the weight's a_part is at most alpha and
        its b_part at most beta0 q^m (n + m + 1)."""
        q2 = q * q
        alpha = 2.0 * q / ((1.0 - q2) * (1.0 - q ** 4) * (1.0 - q ** 6))
        return alpha, 0, 2.0 / ((1.0 - q2) * (1.0 - q ** 4)), 1

    def lattice(self, zs: List[float], q: float) -> List[float]:
        return upsilon_cstarc_lattice(zs, q)


#: The one entry of both deltaL2 tags.
_DELTA_L2 = _DeltaL2()

#: Every nonzero weight tag, by tag; gamma's weight is identically zero.
_TAGS = {"identity": _Identity(), "deltaL2-e11": _DELTA_L2,
         "deltaL2-e22": _DELTA_L2, "cstarc": _Cstarc()}


# ---------------------------------------------------------------------------
# Trace scans.

OMEGA_TAGS = ("gamma",) + tuple(_TAGS)


def _check_omega(omega: str) -> str:
    if omega not in OMEGA_TAGS:
        raise ValueError(f"unknown weight tag {omega!r}; choose from "
                         f"{', '.join(OMEGA_TAGS)}")
    return omega


#: Terms per array block of a scan: blocks this small keep the temporaries
#: of a scan far below its prepared tables.
_SCAN_BLOCK = 4096

def _settled(levels: List[float], rest: float, rest_err: float) -> float:
    """The float that every sum of ``levels`` plus a value within
    ``rest_err`` of ``rest`` rounds to, or nan where that is not proved.

    R = fsum(levels + [rest]) is their correctly rounded sum, and a
    second fsum gives its rounding error rho, itself correctly rounded.
    Every value within |rho| + rest_err of R rounds to R when that stays
    below half the smaller spacing next to R, the one toward zero (half
    the other where R is a power of two).  The test is strict, so no tie
    is certified, and its float margins cover rho's own rounding."""
    total = math.fsum(levels + [rest])
    rho = math.fsum(levels + [rest, -total])
    gap = 0.5 * (total - math.nextafter(total, 0.0))
    bound = (abs(rho) + rest_err) * (1.0 + 2.0 ** -50) + 2.0 ** -1074
    return total if bound < abs(gap) else math.nan


def _exact_sum(blocks: Sequence[np.ndarray]):
    """Correctly rounded sums of float64 blocks, bit for bit ``math.fsum``.

    The blocks are 1-D, one row summed to one float, or 2-D, rows x terms
    summed to a list of one float per row, each row across every block;
    no block at all sums to 0.0.  The method is error-free vector
    extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation", SIAM J. Sci. Comput. 31, 2008).  With n terms in a row,
    2^M > n + 1 and every term of the open rows below 2^e in magnitude,
    sigma = 2^(e + M) splits each term x into hi = (x + sigma) - sigma
    and x - hi, both exact.  Every hi is a multiple of 2^-53 sigma and
    their total stays below sigma, so a row's level sum, the sum of its
    hi, is exact in any order; every remainder lies within 2^-53 sigma and
    within the row's largest term.  A row is done when ``_settled`` proves
    that fsum of its level sums plus the float sum of its remainders
    rounds like the exact total; that float sum is off by at most
    2 n^2 2^-53 times the remainders' largest magnitude.  The open rows
    go on to another level, at 2^(M - 53) sigma or below, with the
    remainders recomputed from the terms so that no copy of the blocks is
    kept, until that error bound rounds to 0, where the float sum is
    exact.  ``math.fsum`` of the row's terms takes the cases where it
    could raise or fix a sign: a non-finite term, a row large enough for
    its intermediate overflow (2^(e + M) above 2^1022), and an exact zero.

    Timed by timeit (min of 7, one Xeon core), with ``math.fsum`` of the
    terms as a list in brackets: 31 us for a 256-term column head (11
    us), 47 us for five such heads as the rows of one call (55 us for the
    five), 29 us for 4001 terms, the longest head (143 us), 0.15 ms for
    40,000 terms (1.5 ms), and a fixed cost of about 18 us per call, so
    10 terms take 18 us (0.6 us).  A lone short row is thus cheaper by
    ``math.fsum``, as the template sum's columns take it; a lattice
    column sums the heads of all its z as the rows of one call.  Nearly
    every row of a column head is settled at the first level.
    """
    if not blocks:
        return 0.0
    rows = [x[None] if x.ndim == 1 else x for x in blocks]
    n = sum(x.shape[1] for x in rows)
    m_bits = (n + 1).bit_length()
    top = np.abs(rows[0]).max(axis=1, initial=0.0)
    for x in rows[1:]:
        np.maximum(top, np.abs(x).max(axis=1, initial=0.0), out=top)
    top = top.tolist()
    sums = [math.nan] * len(top)
    levels: List[List[float]] = [[] for _ in top]
    live = [i for i, t in enumerate(top) if 0.0 < t < math.inf
            and math.frexp(t)[1] + m_bits <= 1022]
    work = rows if len(live) == len(top) else [x[live] for x in rows]
    sigmas: List[float] = []
    while live:
        # One sigma for every open row: 2^M times a power of two above
        # their terms, or 2^(M - 53) times the last sigma, which bounds
        # every remainder, where that is smaller.
        sigma = 2.0 ** (math.frexp(max(top[i] for i in live))[1] + m_bits)
        if sigmas:
            sigma = min(sigma, sigmas[-1] * 2.0 ** (m_bits - 53))
        sigmas.append(sigma)
        tau = rest = rest_top = 0.0
        for x in work:
            r = x
            for s in sigmas:
                hi = r + s
                hi -= s
                r = r - hi
            tau += hi.sum(axis=1)
            rest += r.sum(axis=1)
            if len(sigmas) > 1:
                rest_top = np.maximum(rest_top,
                                      np.abs(r).max(axis=1, initial=0.0))
        # A float sum of n remainders is off by at most 2 n^2 2^-53 times
        # their largest magnitude: at most 2^-53 sigma and the row's
        # largest term at the first level, measured after it.  The bound
        # rounds to 0 only where that sum is exact.
        rest_top = (rest_top.tolist() if len(sigmas) > 1
                    else [min(top[i], sigma * 2.0 ** -53) for i in live])
        err = [t * (2.0 * n * n * 2.0 ** -53) for t in rest_top]
        keep = []
        for k, (i, t, rest_k, err_k) in enumerate(zip(
                live, tau.tolist(), rest.tolist(), err)):
            levels[i].append(t)
            sums[i] = (_settled(levels[i], rest_k, err_k) if err_k
                       else math.fsum(levels[i] + [rest_k]))
            if math.isnan(sums[i]):
                keep.append(k)
        if len(keep) < len(live):
            live = [live[k] for k in keep]
            work = [x[keep] for x in work]
    for i, total in enumerate(sums):
        if not total or math.isnan(total):  # an exact zero, or fsum's case
            sums[i] = math.fsum(v for x in rows for v in x[i].tolist())
    return sums[0] if blocks[0].ndim == 1 else sums


def _scan_triangle(lmax: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Index arrays (n, m) of the admitted states up to the cutoff, the
    (n, m) lattice restricted to n + m <= lmax: odd m outer and n = 0, 1,
    ..., lmax - m inner, one pair per block of _SCAN_BLOCK states.  Only
    the first position of each column is held; a block's m are found
    among them by binary search.  Every array is int32."""
    ms = np.arange(1, lmax + 1, 2, dtype=np.int32)
    counts = lmax + 1 - ms
    starts = np.cumsum(counts, dtype=np.int32) - counts
    size = int(counts.sum())
    for at in range(0, size, _SCAN_BLOCK):
        pos = np.arange(at, min(at + _SCAN_BLOCK, size), dtype=np.int32)
        col = np.searchsorted(starts, pos, side="right") - 1
        yield pos - starts[col], ms[col]


#: One block of a prepared scan: the bases 1 + lambda^2 of the per-term
#: power and the weights of its terms.
_ScanBlock = Tuple[np.ndarray, np.ndarray]


def _scan_prepare(omega: str, q: float, lmax: int) -> List[_ScanBlock]:
    """The z-independent part of a scan: the lattice's mode table on
    ``_scan_triangle``'s blocks, in its (odd m outer, n inner) order.

    A state's weight is its tag's lattice weight times the tag's column
    factor (``_TAGS``), q^{-m} / (1 - q^2) for deltaL2 and 1 otherwise;
    each carries its exact geometric sum over the right index i, so individual
    terms are O(1) and the whole scan is O(lmax^2).  The base is

        1 + lambda^2 = 1 + n^2/4 + K_m (1 - q^{2n+m+1}),
        K_m = Q^2 q^{-(m+1)} (1 - q^{m+1}),      Q = q / (1 - q^2),

    which no subtraction cancels.  The one-index tables (q^k, 1 - q^k as
    -expm1(k ln q), K_m and the column factor) are built by scalar Python
    arithmetic, so their bits do not depend on the host; where K_m or the
    column factor leaves the float range, ``OverflowError`` names m, q
    and lmax.  numpy gathers the tables onto the blocks and combines them
    with + - * /, which are correctly rounded.  ``_scan_terms`` evaluates
    the prepared blocks at one z.
    """
    if omega == "gamma":
        return []
    tag = _TAGS[omega]
    big_q2 = (q / (1.0 - q * q)) ** 2
    log_q = math.log(q)
    qk = np.array([q ** k for k in range(2 * lmax + 5)])
    one_minus = np.array([-math.expm1(k * log_q)
                          for k in range(2 * lmax + 2)])
    k_m = np.zeros(lmax + 1)
    col = np.ones(lmax + 1)
    for m in range(1, lmax + 1, 2):
        try:
            k_m[m] = big_q2 * q ** -(m + 1) * -math.expm1((m + 1) * log_q)
            col[m] = tag.column(m, q)
        except OverflowError:
            k_m[m] = math.inf
        if max(k_m[m], col[m]) == math.inf:
            raise OverflowError(f"scan column factors overflow at m={m}, "
                                f"q={q}, lmax={lmax}")
    return [(1.0 + 0.25 * n * n + k_m[m] * one_minus[2 * n + m + 1],
             tag.weight(n, m, q, qk.__getitem__) * col[m])
            for n, m in _scan_triangle(lmax)]


def _scan_terms(blocks: List[_ScanBlock], z: float) -> List[np.ndarray]:
    """Per-state contributions of a prepared scan at z, one array per
    block: w * (1 + lambda^2)^{-z/2}.  The power stays Python's pow,
    because numpy's vectorized ``power`` does not round like libm's on
    every CPU; every term is therefore bit-identical to the per-term
    loop.  Each block's powers stream from the pow calls into their
    array, so no list of them is held."""
    p = -0.5 * z
    return [w * np.fromiter(map(pow, base.tolist(), repeat(p)), float,
                            len(base))
            for base, w in blocks]


def upsilon_value(omega: str, zs: Sequence[float], q_value: float,
                  lmax: int) -> List[float]:
    """Partial trace sums at cutoff lmax, one float per z of ``zs``: the
    sum of the tag's weighted terms over the (n, m) lattice restricted to
    n + m <= lmax.

    Every argument, every z included, is checked before any work; one
    ``_scan_prepare`` then serves all the z.  At each z the plain scan's
    terms are merged by one correctly rounded sum (``_exact_sum``), so
    each value is bit for bit ``math.fsum`` of the per-term loop over the
    same table, and the value of a call with that z alone.  Where the
    table's column factors overflow (from m = 309 at q = 0.1 and
    m = 1023 at q = 0.5), ``OverflowError`` names m, q and lmax."""
    _check_omega(omega)
    q = _check_q(q_value)
    zs = _check_zs(zs, 2.0)
    _check_cutoff(lmax)
    blocks = _scan_prepare(omega, q, lmax)
    return [_exact_sum(_scan_terms(blocks, z)) for z in zs]


def upsilon_scan(omega: str, q_value: float, z_values: Sequence[float],
                 lmax: int) -> List[Dict[str, float]]:
    """Scan rows (one per z) with partial sums and certified tail bounds.

    The partial sums are one ``upsilon_value`` call with every z, which
    checks every argument before any row is computed."""
    zs = list(z_values)
    sums = upsilon_value(omega, zs, q_value, lmax)
    q = float(q_value)
    return [{"omega_tag": omega,
             "q": q,
             "z": float(z),
             "lmax": lmax,
             "partial_sum": value,
             "tail_bound": tail_bound(omega, lmax, z, q)}
            for z, value in zip(zs, sums)]


def upsilon_identity_pairblocks(z: float, q_value: float, lmax: int) -> float:
    """Identity-weight scan through numerically diagonalized 2x2 pairings.

    Independent route: instead of the closed-form lambda table, each
    admitted mode is summed through the eigenvalues of its actual coupling
    block.  Agreement with ``upsilon_value("identity", ...)`` pins the
    mode bookkeeping to machine precision.
    """
    q = _check_q(q_value)
    _check_z(z, 2.0)
    _check_cutoff(lmax)
    terms: List[float] = []
    for l2 in range(1, lmax + 1):
        for j2 in range(-l2 + 2, l2 + 1, 2):
            if j2 - 1 < 0:
                continue
            mu = 0.5 * (j2 - 1)
            beta = _beta(l2, j2, q)
            evs = np.linalg.eigvalsh(np.array([[mu, beta], [beta, -mu]]))
            terms.append((l2 + 1) * float(
                (1.0 + evs[0] ** 2) ** (-0.5 * z)
                + (1.0 + evs[1] ** 2) ** (-0.5 * z)))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Certified tail bounds.
#
# The part of a scan beyond lmax is the odd-m lattice outside the scan's
# triangle: n > lmax - m in each odd column m <= lmax, and every n in each
# column m > lmax.  A state's base is 1 + n^2/4 + Q^2 q^{-(m+1)}
# (1 - q^{m+1}) (1 - q^{2n+m+1}).  Both factors 1 - q^k have k >= 2, so
# their product is at least (1 - q^2)^2 = q^2 / Q^2, and
#
#     1 + lambda^2 >= n^2/4 + ft_m,      ft_m = 1 + q^{1-m},
#
# with equality at (n, m) = (0, 1).  A tag's envelope (``_Tag``) bounds its
# weight by a r_a^m + b r_b^m (n + m + 1), so a column's share of the tail
# is at most a r_a^m s0 + b r_b^m s1, where s0 and s1 sum the minorant's
# f = (n^2/4 + ft_m)^{-z/2} and (n + m + 1) f over the column's n beyond
# the cutoff.  f decreases and n f rises then falls, so each sum is at most
# its integral, plus n f's largest term, at most ft_m^{(1-z)/2} for z >= 2,
# where the cutoff sits before n f's peak.  The bound is the sum of
#
# * a head: those sums for each odd m <= lmax, over n > lmax - m;
# * a remainder: every column m > lmax, odd or even, where
#   s0 <= (1 + 2 I) g^{m-1} and s1 <= (m + 2)(1 + 2 I) g^{m-1}
#   + 4/(z - 2) t^{m-1}, with g = q^{(z-1)/2}, t = q^{(z-2)/2} and
#   I = sqrt(pi) Gamma((z-1)/2) / (2 Gamma(z/2)), summed over m in closed
#   form;
#
# and +inf where that series diverges: z <= 2, or r_a g >= 1 (z <= 3 for
# deltaL2).  No power can overflow: ft_m^{-s} = q^{(m-1)s}
# (1 + q^{m-1})^{-s}, and the r^m in front folds into q^{(m-1)s} as
# q^{(m-1)(k+s)+k}, r = q^k: an exponent never below -1 where the bound is
# finite, which rounds relative to its own size rather than to m's.

def _gamma_half_ratio(z: float) -> float:
    """sqrt(pi) Gamma((z-1)/2) / Gamma(z/2)."""
    return math.sqrt(math.pi) * math.exp(gammaln(0.5 * (z - 1.0))
                                         - gammaln(0.5 * z))


def tail_bound(omega: str, lmax: int, z: float, q_value: float) -> float:
    """Certified upper bound on the part of the trace sum beyond lmax, from
    the tag's envelope: the head plus the remainder above, or +inf at and
    below the abscissa.  One formula serves every nonzero tag; gamma's
    tail is 0."""
    _check_omega(omega)
    q = _check_q(q_value)
    _check_z(z, -math.inf)
    _check_cutoff(lmax)
    if omega == "gamma":
        return 0.0
    a, k_a, b, k_b = _TAGS[omega].envelope(q)
    h0, h1 = 0.5 * (z - 1.0), 0.5 * (z - 2.0)
    if h1 <= 0.0 or k_a + h0 <= 0.0:
        return math.inf
    i_inf = 0.5 * _gamma_half_ratio(z)
    lin = 4.0 / (z - 2.0)

    def decay(k: int, m: int, h: float) -> float:
        """r^m q^{(m-1) h}, r = q^k."""
        return q ** ((m - 1) * (k + h) + k)

    def rest(k: int, h: float) -> Tuple[float, float]:
        """The sums over m > lmax of decay(k, m, h) and of m + 2 times it,
        with 1 - x, x = q^{k+h}, formed without cancelling by expm1."""
        x = q ** (k + h)
        gap = -math.expm1((k + h) * math.log(q))
        total = decay(k, lmax + 1, h) / gap
        return total, total * (lmax + 3 + x / gap)

    # Column m's sums over their decays: s0 and the peak over g^{m-1}, s1
    # over t^{m-1}.
    head = []
    for m in range(1, lmax + 1, 2):
        # c = (lmax - m) / (2 sqrt(ft_m)), from p = q^{m-1} <= 1.
        p = q ** (m - 1)
        c = 0.5 * (lmax - m) * math.sqrt(p / (1.0 + p))
        cap = (c ** (1.0 - z) / (z - 1.0)
               if c > 0.0 and (1.0 - z) * math.log(c) < 700.0 else i_inf)
        s0 = 2.0 * (1.0 + p) ** -h0 * min(i_inf, cap)
        # n f(n) peaks at n = 2 sqrt(ft_m / (z - 1)); only when the cutoff
        # sits before the peak can a single term beat the integral.
        peak = 2.0 * (1.0 + p) ** -h0 if c * c * (z - 1.0) < 1.0 else 0.0
        s1 = lin * ((1.0 + p) * (1.0 + c * c)) ** -h1
        head.append(a * decay(k_a, m, h0) * s0
                    + b * (decay(k_b, m, h0) * ((m + 1) * s0 + peak)
                           + decay(k_b, m, h1) * s1))
    c0 = 1.0 + 2.0 * i_inf
    return math.fsum(head) + (a * c0 * rest(k_a, h0)[0] + b * (
        c0 * rest(k_b, h0)[1] + lin * rest(k_b, h1)[0]))


# ---------------------------------------------------------------------------
# Pole-resolved evaluation on the (n, m) lattice.
#
# With m = l2 - n the squared eigenvalues take the separated form
#
#     1 + lambda^2 = n^2/4 + c_m - d_m q^{2n},
#     c_m = Q^2 q^{-m-1} + 1 - Q^2,      d_m = Q^2 (1 - q^{m+1}),
#
# where Q = q / (1 - q^2).  For each m the n sum approaches the integral
# sqrt(pi) Gamma((z-1)/2)/Gamma(z/2) (Q^2 q^{-m-1})^{(1-z)/2} whose
# m-geometric series has the simple pole at z = 3; summing that part in
# closed form and keeping the per-m remainders (which decay geometrically)
# gives an evaluator that stays accurate arbitrarily close to the pole.
# ``eigen_lattice_sum`` takes each remainder from one model of its column
# (``_lattice_inner_model``): the flat sum over n of (n^2/4 + c_m)^{-z/2},
# exact by Poisson summation, plus damped differences.  The c*c and
# identity sums over the odd-m lattice (``_odd_m_lattice``) sum each
# column directly instead (``_lattice_column``): their weights grow with
# n, so no flat model fits them.

def _lattice_cd(q: float, m: int) -> Tuple[float, float]:
    """The column coefficients (c_m, d_m) above.

    The smallest base n^2/4 + c_m - d_m q^{2n} of a column is its n = 0
    value c_m - d_m, in floats too: every q^{2n} rounds to at most 1, and
    rounding is monotone.  Near q = 1 the three terms are of size Q^2, and
    Q^2 times the unit roundoff exceeds the 1 that c_m - d_m must keep
    (from about q = 1 - 1e-9 on); where it rounds to <= 0 the column's
    bases are lost, and ``FloatingPointError`` names q and m.  Where
    q^{-(m+1)} overflows (from m = 1023 at q = 0.5), ``OverflowError``
    names m and q.
    """
    big_q = q / (1.0 - q * q)
    try:
        c_m = big_q * big_q * q ** (-(m + 1)) + 1.0 - big_q * big_q
    except OverflowError:
        raise OverflowError(f"lattice column m={m} overflows at q={q}: "
                            f"its q^-(m+1) leaves the float range") from None
    d_m = big_q * big_q * (1.0 - q ** (m + 1))
    if not c_m - d_m > 0.0:
        raise FloatingPointError(f"lattice column m={m} cancels at q={q}: "
                                 f"its base c_m - d_m rounds to <= 0")
    return c_m, d_m


#: The longest head of a directly summed column (``_lattice_column``),
#: the one of every q from about 0.9945 on.
_HEAD_MAX = 4001

#: The shortest head of a directly summed column.
_HEAD_MIN = 256

#: The last column either m series may reach.
_M_CAP = 2001

#: The largest x with 1.0 - x == 1.0: a weight's 1 - q^k rounds to 1
#: wherever q^k <= _ROUNDS_AWAY.
_ROUNDS_AWAY = 2.0 ** -54


def _head_length(q: float) -> int:
    """The head length a of every directly summed column at q, whose
    integral tail and close start at t = a:

        a(q) = min(4001, max(256, ceil(32 ln 2 / ln(1/q)))),

    so q^{2a} <= 2^-64 wherever a < 4001: past the head every base's
    d_m q^{2n} is below 2^-64 of it, and ``_cstarc_tail_weight``'s guard
    holds.  From about q = 0.9945 on, a is 4001."""
    return min(_HEAD_MAX,
               max(_HEAD_MIN, math.ceil(32.0 * math.log(2.0) / -math.log(q))))


def _em_close(s: float, f, a: float) -> float:
    """Euler-Maclaurin close of a head-plus-tail sum ``s`` cut at ``a``,

        s + f(a)/2 - f'(a)/12 + f'''(a)/720,

    from the five values f(a), f(a +- 1/2) and f(a +- 1) alone: with
    D1 = f(a + 1/2) - f(a - 1/2) = f' + f'''/24 + ... and
    D3 = 4 [f(a + 1) - 2 f(a + 1/2) + 2 f(a - 1/2) - f(a - 1)] = f''' + ...,
    f''' is taken as D3 and f' as D1 - D3/24."""
    d1 = f(a + 0.5) - f(a - 0.5)
    d3 = 4.0 * ((f(a + 1.0) - f(a - 1.0)) - 2.0 * d1)
    return s + 0.5 * f(a) - (d1 - d3 / 24.0) / 12.0 + d3 / 720.0


def _tail_integrals(z: float, c_m: float, a: float) -> Tuple[float, float]:
    """The integrals I0, I1 over t >= a of (t^2/4 + c_m)^{-z/2} and of t
    times it, in closed form:

        I0 = c_m^{-(z-1)/2} B((z-1)/2, 1/2) I_{1-w}((z-1)/2, 1/2),
        I1 = 4/(z-2) (a^2/4 + c_m)^{1-z/2},      w = a^2/(a^2 + 4 c_m),

    with I the regularized incomplete beta function.  Its argument is
    whichever of w and 1 - w is at most 1/2, each formed directly, so
    neither loses the digits that 1 - x rounds away from the other.
    """
    b = 0.5 * (z - 1.0)
    w = a * a / (a * a + 4.0 * c_m)
    if w <= 0.5:
        frac = float(betaincc(0.5, b, w))
    else:
        frac = float(betainc(b, 0.5, 4.0 * c_m / (a * a + 4.0 * c_m)))
    i0 = c_m ** -b * _gamma_half_ratio(z) * frac
    i1 = 4.0 / (z - 2.0) * (0.25 * a * a + c_m) ** (1.0 - 0.5 * z)
    return i0, i1


class _ColumnHead(NamedTuple):
    """The arrays of the head n = 0 .. a - 1, a = ``_head_length(q)``,
    that every directly summed column of one lattice sum shares: n, n^2/4
    and q^{2n}, built once per call, and the power table qt, qt[k] = q^k,
    as long as the columns reached so far need (``_column_head``)."""

    n: np.ndarray
    quarter_n2: np.ndarray
    q2n: np.ndarray
    qt: np.ndarray


def _column_head(q: float, m: int,
                 head: Optional[_ColumnHead] = None) -> _ColumnHead:
    """``head`` with a power table long enough for column m, or a new
    head at q where ``head`` is None.  Column m's weight reads q^k up to
    k = 2(a - 1 + m) + 4.  A table too short for it is extended to the
    columns up to 2m by the same numpy power of q over the new exponents,
    so every entry has the bits of one table built whole, and a series
    that runs to column M extends it about log2(M) times."""
    if head is None:
        a = _head_length(q)
        n = np.arange(a)
        qt = q ** np.arange(2 * (a + 2 * m) + 3, dtype=float)
        return _ColumnHead(n, 0.25 * n * n, qt[2 * n], qt)
    size = len(head.qt)
    if size < 2 * (len(head.n) + m) + 3:
        new = q ** np.arange(size, 2 * (len(head.n) + 2 * m) + 3, dtype=float)
        head = head._replace(qt=np.concatenate([head.qt, new]))
    return head


def _lattice_column(zs: Sequence[float], q: float, m: int, head: _ColumnHead,
                    weight, tail: Optional[Tuple[float, float]]
                    ) -> List[float]:
    """Near-exact weighted n sum of column m of the lattice,

        sum over n >= 0 of weight(n) (n^2/4 + c_m - d_m q^{2n})^{-z/2},

    one value for each z of ``zs``.  ``weight(n, q_pow)`` accepts an
    integer array or a float for n; ``q_pow(k)`` is q^k: on the head
    n < a = ``_head_length(q)`` a gather from ``head``'s power table for
    the exponents that depend on n (arrays), and Python's pow for those
    of m alone and everywhere past the head.  The head's n, n^2/4 and
    q^{2n} are ``head``'s, shared by every column of the call; its
    weights and bases, and the weights of the Euler-Maclaurin close
    (``_em_close``, at t = a - 1, a - 1/2, a, a + 1/2 and a + 1), do not
    depend on z and are built once; each z then costs the head's power
    and exact sum, the tail and the close.  The tail integrates weight(t)
    (t^2/4 + c_m)^{-z/2} over t >= a.  Where the caller's guard shows the
    float weight there to be exactly ``tail`` = (alpha, beta), alpha +
    beta t, it is alpha I0 + beta I1 (``_tail_integrals``); with ``tail``
    None, a ``quad`` of the full weight over u = 1/t on [0, 1/a], and
    ``NonConvergenceError`` where that quadrature reports a failure.  The
    close always uses the full weight.
    """
    qt = head.qt
    head_weight = weight(head.n, lambda k: qt[k] if isinstance(k, np.ndarray)
                         else q ** k)
    c_m, d_m = _lattice_cd(q, m)
    base = head.quarter_n2 + c_m - d_m * head.q2n
    a = float(len(head.n))
    close = {t: (weight(t, q.__pow__), 0.25 * t * t + c_m)
             for t in (a - 1.0, a - 0.5, a, a + 0.5, a + 1.0)}

    def f_inv(u: float, p: float) -> float:
        # u = 1/t flattens the slowly decaying tail onto a finite window.
        t = 1.0 / u
        return weight(t, q.__pow__) * (0.25 * t * t + c_m) ** p * t * t

    heads = _exact_sum([np.stack([head_weight * base ** (-0.5 * z)
                                  for z in zs])])
    values = []
    for z, head_sum in zip(zs, heads):
        p = -0.5 * z
        if tail is None:
            from scipy.integrate import quad

            fit = quad(f_inv, 0.0, 1.0 / a, args=(p,), epsabs=1e-16,
                       epsrel=1e-13, full_output=1)
            if len(fit) > 3:  # quad's failure message, in place of a warning
                raise NonConvergenceError(
                    f"tail quadrature of lattice column m={m} at q={q}, "
                    f"z={z} did not converge")
            tail_int = fit[0]
        else:
            i0, i1 = _tail_integrals(z, c_m, a)
            tail_int = tail[0] * i0 + tail[1] * i1
        ends = {t: w * s ** p for t, (w, s) in close.items()}
        values.append(_em_close(head_sum + tail_int, ends.__getitem__, a))
    return values


#: The most damped differences ``_lattice_inner_model`` sums per column.
_MODEL_DIFFS = 800


def _log_kve(nu: float, x: float) -> float:
    """ln(K_nu(x) e^x) for nu >= 0 and x > 0.  Where ``kve`` overflows, at
    orders far above x (from nu = 260 at x = 4 pi), K is carried up from
    the order mu = nu - floor(nu) by the recurrence K_{mu+1} = K_{mu-1} +
    (2 mu / x) K_mu, stable upward, as a product of the ratios
    K_{mu+1} / K_mu kept in range by ``math.frexp``.  Each step adds about
    an ulp to the product; the log returned is within a few of its own
    ulps (4.5e-13 at 3700), which is what any log of that size keeps."""
    value = float(kve(nu, x))
    if value < math.inf:
        return math.log(value)
    mu = nu - math.floor(nu)
    mant, power = math.frexp(float(kve(mu, x)))
    ratio = float(kve(mu + 1.0, x) / kve(mu, x))
    for j in range(1, math.floor(nu) + 1):
        mant, e = math.frexp(mant * ratio)
        power += e
        ratio = 1.0 / ratio + 2.0 * (mu + j) / x
    return math.log(mant) + power * math.log(2.0)


def _poisson_terms(z: float, c_m: float, floor: float) -> List[float]:
    """The Poisson remainder of the flat column sum over n >= 0 of
    (n^2/4 + c_m)^{-z/2}: the Fourier transforms of that summand at
    k = 1, 2, ...,

        4 sqrt(pi) / Gamma(z/2) (2 pi k / sqrt(c_m))^{(z-1)/2}
            K_{(z-1)/2}(4 pi k sqrt(c_m)),

    up to the first at or below ``floor``; they fall with k.  Each is
    formed in logs (``math.lgamma``, ``_log_kve``), so no factor overflows
    at any z: Gamma(z/2) alone would from z = 344.  A log of size L is
    rounded to about L 2^-53, so a term carries a relative error of about
    1e-15 at z = 10 and 1e-13 at z = 300.

    No ``kve`` is called where a proved bound puts the k = 1 term below
    ``floor``: K_nu(x) <= sqrt(pi / 2x) e^{-x} (1 - (nu - 1/2)/(2x))^{-(nu
    + 1/2)} for nu >= 1/2 and nu - 1/2 < 2x (DLMF 10.32.8, its integrand's
    (1 + t/2x)^{nu-1/2} at most e^{t (nu-1/2)/2x}).  The bound's log is
    taken 1e-6 times the sum of its parts' sizes, plus 1e-6, short of
    ln(floor): far more than the rounding of those logs and ``kve``'s own
    error, so the loop's first term would be at or below ``floor`` too,
    and the terms returned are the loop's, bit for bit."""
    nu = 0.5 * (z - 1.0)
    root = math.sqrt(c_m)
    front = math.log(4.0 * math.sqrt(math.pi)) - math.lgamma(0.5 * z)
    x = 4.0 * math.pi * root
    if floor > 0.0 and 0.5 <= nu and nu - 0.5 < 2.0 * x:
        parts = (front, nu * math.log(2.0 * math.pi / root),
                 0.5 * math.log(math.pi / (2.0 * x)), -x,
                 -(nu + 0.5) * math.log1p(-(nu - 0.5) / (2.0 * x)))
        margin = 1e-6 * (1.0 + sum(map(abs, parts)))
        if sum(parts) + margin <= math.log(floor):
            return []
    terms = []
    for k in count(1):
        x = 4.0 * math.pi * k * root
        term = math.exp(front + nu * math.log(2.0 * math.pi * k / root)
                        + _log_kve(nu, x) - x)
        if not term > floor:  # nan too: kve gives up past x of about 1e9
            return terms
        terms.append(term)


def _lattice_inner_model(zs: Sequence[float], q: float, m: int, c_m: float,
                         d_m: float, haar_weight: bool,
                         ghalf: Dict[float, float],
                         poles: Dict[float, float]) -> List[float]:
    """n sum of column m, one value for each z of ``zs``: the flat sum

        sum over n >= 0 of (n^2/4 + c_m)^{-z/2}
            = ghalf[z] c_m^{(1-z)/2} + c_m^{-z/2}/2 + Poisson remainder,

    exact by Poisson summation (``_poisson_terms``), plus the damped
    exact differences

        w(n) (n^2/4 + c_m - d_m q^{2n})^{-z/2} - (n^2/4 + c_m)^{-z/2},

    w(n) = 1 - q^{2(n+m+1)} with the Haar weight and 1 without.  Each z
    sums the remainder and its differences by ``math.fsum``, each up to
    and including the first at or below 2^-53 poles[z] q^m, the
    differences at most _MODEL_DIFFS of them: poles[z] is the resummed
    term P(z) that the m series starts from, and the series adds q^{-m}
    times the column, so each column is cut near 2^-53 P(z).  The
    bases, the shifted bases and the weights do not depend on z: they are
    built once, by scalar Python arithmetic, and extended lazily to the
    longest stop over the z.  Each z then costs its two powers per n.
    """
    bases: List[float] = []
    shifted: List[float] = []
    weights: List[float] = []
    values = []
    for z in zs:
        p = -0.5 * z
        model = ghalf[z] * c_m ** (0.5 * (1.0 - z)) + 0.5 * c_m ** p
        floor = 2.0 ** -53 * poles[z] * q ** m
        rest = _poisson_terms(z, c_m, floor)
        for n in range(_MODEL_DIFFS):
            if n == len(bases):
                base = 0.25 * n * n + c_m
                bases.append(base)
                shifted.append(base - d_m * q ** (2.0 * n))
                weights.append(_haar_weight(n, m, q, q.__pow__)
                               if haar_weight else 1.0)
            d = weights[n] * shifted[n] ** p - bases[n] ** p
            rest.append(d)
            if abs(d) <= floor:
                break
        values.append(model + math.fsum(rest))
    return values


def _m_series(totals: Sequence[float], zs: Sequence[float], terms,
              ms: Iterable[int], rtol: float, m_min: int) -> List[float]:
    """The m series of a lattice sum at each z of ``zs``: totals[i] plus
    its terms over m in ``ms``, stopping after three terms in a row below
    ``rtol`` of the running total once m >= m_min.  ``terms(m, zs)`` gives
    column m's term at each z it is passed, and is passed only the z whose
    series still runs, so no column past a stop is evaluated for that z,
    and each value is the one a call with that z alone would give.  An
    ``OverflowError`` of a column is raised again with the z whose series
    reached it.  A series that has not settled by the last m of ``ms``
    stops there without a word: every lattice sum passes m up to _M_CAP,
    and each states the error that cap leaves near q = 1."""
    totals = list(totals)
    quiet = [0] * len(totals)
    active = list(range(len(totals)))
    for m in ms:
        if not active:
            break
        zs_m = [zs[i] for i in active]
        try:
            added = terms(m, zs_m)
        except OverflowError as exc:
            raise OverflowError(f"{exc}, reached by the m series of z="
                                f"{', '.join(map(str, zs_m))}") from None
        running = []
        for i, term in zip(active, added):
            totals[i] += term
            small = abs(term) < rtol * abs(totals[i])
            quiet[i] = quiet[i] + 1 if small else 0
            if not (quiet[i] >= 3 and m >= m_min):
                running.append(i)
        active = running
    return totals


def eigen_lattice_sum(zs: Sequence[float], q_value: float, *,
                      admitted: bool = True) -> List[float]:
    """Sum over the (n, m) eigenvalue lattice of

        q^{-m} w(n, m) (n^2/4 + c_m - d_m q^{2n})^{-z/2}

    at each z of ``zs``, one float per z: over the ``admitted`` states by
    default, m odd (the mode-parity lock) and w = 1 - q^{2(n+m+1)} (the
    exact geometric column sum over the right index); with
    ``admitted=False``, over every m >= 1 with w = 1.  The leading
    m-geometric part P(z) is resummed in closed form, so the evaluation
    stays accurate arbitrarily close to z = 3; at and below 3 the sum
    diverges, and every z is checked before any column.  So is every
    P(z): where Q = q / (1 - q^2) < 1 its Q^{1-z} overflows at large z
    (from z = 641 at q = 0.3, 1752 at q = 0.5), and
    ``FloatingPointError`` names q and z.  Every column is one
    ``_lattice_inner_model``, cut near 2^-53 P(z) q^m, since the
    series adds q^{-m} times each column.  The series starts from P(z)
    and cancels against it where the sum is far smaller, at large z for
    q below about 0.54 (P falls like (1 - q^2)^z, the sum like
    2^{-z/2}): about -log10(sum / P(z)) of the float's 16 digits are
    lost, so at q = 0.3, z = 100, where the sum is 4e-11 of P, about 5
    remain.  A sum that comes out not positive and finite, as at q = 0.3
    from z = 150 on, raises ``FloatingPointError`` naming q and z.
    Near q = 1 the accuracy is set by the columns' cap of _MODEL_DIFFS =
    800 damped differences, which decay like q^{2n}.  Against the same
    model with no cap, the cap never binds at q <= 0.97; at z = 3.05 and
    3.5 the sum is within 4.2e-13 (admitted) and 1.4e-13 (every m)
    relative at q = 0.99, 2.6e-10 and 1.3e-8 at q = 0.995, and 6.8e-5 and
    6.6e-5 at q = 0.999.  Each z keeps its own m series, so each value is
    bit for bit the value of a call with that z alone.  The series stops
    at m = _M_CAP = 2001 at the latest: at z = 3.05 that leaves the sum
    short, against the same sum with the cap raised to 40,001, by 5.2e-9
    (admitted) and 3.2e-9 (every m) relative at q = 0.99 and by 1.2e-6
    and 5.1e-7 at q = 0.995, and changes no value at q <= 0.98.
    """
    q = _check_q(q_value)
    zs = _check_zs(zs, 3.0)
    big_q = q / (1.0 - q * q)
    ghalf = {z: _gamma_half_ratio(z) for z in zs}
    poles = {}
    for z in zs:
        x = q ** (0.5 * (z - 3.0))
        geo = x / (1.0 - x * x) if admitted else x / (1.0 - x)
        try:
            poles[z] = (ghalf[z] * big_q ** (1.0 - z)
                        * q ** (0.5 * (z - 1.0)) * geo)
        except OverflowError:
            poles[z] = math.inf
        if poles[z] == math.inf:
            raise FloatingPointError(f"lattice sum at q={q}, z={z}: its "
                                     f"resummed pole term overflows")

    def corrections(m: int, zs_m: List[float]) -> List[float]:
        c_m, d_m = _lattice_cd(q, m)
        inner = _lattice_inner_model(zs_m, q, m, c_m, d_m, admitted, ghalf,
                                     poles)
        scale = big_q * big_q * q ** (-(m + 1.0))
        return [q ** (-m) * (col - ghalf[z] * scale ** (0.5 * (1.0 - z)))
                for z, col in zip(zs_m, inner)]

    ms = range(1, _M_CAP + 1, 2 if admitted else 1)
    totals = _m_series([poles[z] for z in zs], zs, corrections, ms, 1e-14, 41)
    for z, total in zip(zs, totals):
        if not 0.0 < total < math.inf:
            raise FloatingPointError(f"lattice sum at q={q}, z={z} cancels "
                                     f"to {total} against its pole term")
    return totals


def _cstarc_tail_weight(m: int, q: float) -> Optional[Tuple[float, float]]:
    """The pair (alpha, beta) with ``_cstarc_weight`` = alpha + beta t on
    the integral tail t >= a = ``_head_length(q)`` of column m, or None
    where the float weight there is not of that form.

    It is under the column's guard: q^{2a+m-1} and q^{2(a+m)} at most
    2^-54, so every t-dependent 1 - q^k of the weight rounds to 1, and
    (a+m+1) q^{2(a+m)+3} below a quarter ulp of q geo.  The weight is then
    a_part + 2 q^m ((t + m + 1) - geo) with geo = 1/(1 - q^2) and a_part =
    eps_up q geo, so alpha = a_part + 2 q^m (m + 1 - geo) and beta = 2 q^m.
    Below a = 4001, q^{2a} <= 2^-64 holds the guard; at a = 4001 it fails
    for the first columns from about q = 0.9948 on, and for every column
    up to _M_CAP from about q = 0.9963 on.
    """
    a = float(_head_length(q))
    geo = 1.0 / (1.0 - q * q)
    if not (q ** (2 * a + m - 1) <= _ROUNDS_AWAY
            and q ** (2 * (a + m)) <= _ROUNDS_AWAY
            and (a + m + 1.0) * q ** (2 * (a + m) + 3)
            < 0.25 * math.ulp(q * geo)):
        return None
    a_part = ((1.0 - q ** (m + 1)) + (1.0 - q ** (m + 3))) * (q * geo)
    two_qm = 2.0 * q ** m
    return a_part + two_qm * ((m + 1.0) - geo), two_qm


def _odd_m_lattice(zs: Sequence[float], q_value: float, weight,
                   tail_weight) -> List[float]:
    """Cutoff-free weighted trace sum over the scan's own triangle, the
    (n, m) lattice with m = l2 - n odd, at each z of ``zs``, one float per
    z; every z is checked before any column.

    Each n sum is one ``_lattice_column`` given the weight
    ``weight(n, m, q, q_pow)`` and the tail pair ``tail_weight(m, q)``
    (direct head, the tail, and the endpoint corrections), and the odd-m
    series of each z is accumulated to a relative 1e-12 by ``_m_series``.
    Every column has the one head length a = ``_head_length(q)``, 256
    terms up to about q = 0.917 and 4001 from about q = 0.9945 on, and
    the head's n arrays and q^{2n} are built once per call
    (``_column_head``); its power table grows with the columns reached.
    No spin ceiling enters, so a sum whose m series is damped like
    q^{m(z-1)/2}, as the c*c one is, stays accurate down toward z = 2,
    where plain cutoff scans would need astronomically many sectors.  A
    series damped only like q^{m(z-2)/2}, as the identity's is, needs
    about 55 / ((z - 2) ln(1/q)) columns to settle.  Below about z = 2.08
    that passes the column m ~ 710 / ln(1/q) whose ``_lattice_cd`` power
    q^{-(m+1)} overflows: the series must run until three columns in a
    row fall below 1e-12 of its total, and it reaches that column first
    (the identity sum at z = 2.05 for every q <= 0.7, column 1023 at
    q = 0.5).  ``OverflowError`` then names m, q and z.  Above about
    q = 0.7 that column lies past _M_CAP, and the series stops at the cap
    short of its tail (about 0.5% at q = 0.9, z = 2.05).
    """
    q = _check_q(q_value)
    zs = _check_zs(zs, 2.0)
    head = None

    def columns(m: int, zs_m: List[float]) -> List[float]:
        nonlocal head
        head = _column_head(q, m, head)
        return _lattice_column(
            zs_m, q, m, head, lambda n, q_pow: weight(n, m, q, q_pow),
            tail_weight(m, q))

    return _m_series([0.0] * len(zs), zs, columns,
                     range(1, _M_CAP + 1, 2), 1e-12, 1)


def upsilon_cstarc_lattice(zs: Sequence[float], q_value: float) -> List[float]:
    """Cutoff-free c*c trace sum, reparameterized onto the (n, m) lattice,
    at each z of ``zs``, one float per z: one ``_odd_m_lattice`` whose
    tails are in closed form under ``_cstarc_tail_weight``'s guard and by
    quadrature past it.  The m series of each z is damped like
    q^{m(z-1)/2}.  It stops at m = _M_CAP = 2001 at the latest: at
    z = 3.05 that leaves the sum short, against the same sum with the cap
    raised to 40,001, by 1.2e-10 relative at q = 0.99 and 4.5e-6 at
    q = 0.995, and changes no value at q <= 0.98.
    """
    return _odd_m_lattice(zs, q_value, _cstarc_weight, _cstarc_tail_weight)


def _identity_lattice(zs: Sequence[float], q_value: float) -> List[float]:
    """Cutoff-free identity trace sum at each z of ``zs``, one float per z:
    one ``_odd_m_lattice`` with ``_identity_weight``, 2(n + m + 1).
    That weight is exactly linear in n, so every column's tail is alpha I0
    + beta I1 with (alpha, beta) = (2(m + 1), 2), with no guard.  The m
    series of each z is damped only like q^{m(z-2)/2}, so it is the first
    to feel the stop at m = _M_CAP = 2001: at z = 3.05 the sum is short,
    against the same sum with the cap raised to 60,001, by 1.2e-10
    relative at q = 0.98, 6.3e-6 at q = 0.99 and 1.2e-3 at q = 0.995,
    and the cap changes no value at q <= 0.97.
    """
    return _odd_m_lattice(zs, q_value, _identity_weight,
                          lambda m, q: (2.0 * (m + 1), 2.0))


# ---------------------------------------------------------------------------
# Residue extraction.

class ResidueReport(NamedTuple):
    """Residue estimate with its cross-checks.

    ``estimate`` is the Richardson value; ``least_squares`` the constant
    coefficient of the pole fit on the same points; ``error_bar`` combines
    the last Richardson correction and the spread between the two methods.
    """

    omega: str
    q: float
    estimate: float
    error_bar: float
    method: str
    least_squares: float
    schedule: Tuple[float, ...]

    def to_json_dict(self) -> Dict[str, object]:
        """Every field, omega through schedule, in order."""
        return dict(zip(self._fields, self))


def _richardson_to_zero(points: Sequence[Tuple[float, float]]
                        ) -> Tuple[float, float]:
    """Neville extrapolation of (eps, F(eps)) to eps = 0.

    Returns the extrapolant and the magnitude of the final correction."""
    xs = [p[0] for p in points]
    tab = [p[1] for p in points]
    n = len(tab)
    tops = [tab[0]]
    for k in range(1, n):
        for i in range(n - k):
            tab[i] = ((xs[i] * tab[i + 1] - xs[i + k] * tab[i])
                      / (xs[i] - xs[i + k]))
        tops.append(tab[0])
    return tops[-1], abs(tops[-1] - tops[-2])


#: The standard Richardson schedule of offsets eps = z - 3.
_STANDARD_SCHEDULE = (0.4, 0.2, 0.1, 0.05)


def residue_extract(omega: str, q_value: float, *,
                    schedule: Sequence[float] = _STANDARD_SCHEDULE,
                    max_error_bar: Optional[float] = None) -> ResidueReport:
    """Estimate the residue at z = 3 of the weighted trace sum.

    F(eps) = eps * Upsilon(3 + eps) is evaluated over the Richardson
    schedule and extrapolated to eps = 0; a least-squares fit of
    c_{-1}/(z-3) + c_0 + c_1 (z-3) on the same points cross-checks the
    extrapolant, and both are reported.  The floats z = 3 + eps must
    decrease strictly above 3, else the schedule is rejected before any
    evaluation.  Every weight but the identically zero ``gamma`` is one
    cutoff-free lattice sum over the whole schedule, its ``_TAGS`` entry's:
    the pole-resolved ``eigen_lattice_sum`` for the deltaL2 weights, and
    the odd-m lattice of directly summed columns for ``cstarc`` and
    ``identity``.  If
    ``max_error_bar`` is given and exceeded, the non-convergence is
    raised, never smoothed over.
    """
    _check_omega(omega)
    q = _check_q(q_value)
    if max_error_bar is not None and not max_error_bar >= 0.0:
        raise ValueError(f"max_error_bar must be >= 0, got {max_error_bar}")
    sched = tuple(float(e) for e in schedule)
    zs = [3.0 + eps for eps in sched]
    # inf > z_0 > z_1 > ... > 3 in floats: an offset that leaves z at 3,
    # or at the z of the offset before it, is rejected.
    if len(zs) < 3 or not all(a > b for a, b in zip([math.inf] + zs,
                                                     zs + [3.0])):
        raise ValueError("schedule must be at least three decreasing "
                         "finite offsets, each moving z = 3 + eps off 3 "
                         "and off the z before it")
    if omega == "gamma":
        return ResidueReport(omega, q, 0.0, 0.0, "identically-zero",
                             0.0, sched)
    tag = _TAGS[omega]
    points = [(eps, eps * u) for eps, u in zip(sched, tag.lattice(zs, q))]

    rich, last_corr = _richardson_to_zero(points)
    eps_arr = np.array([p[0] for p in points])
    f_arr = np.array([p[1] for p in points])
    lsq = float(np.polyfit(eps_arr, f_arr, 2)[2])
    bar = abs(rich - lsq) + last_corr
    if max_error_bar is not None and bar > max_error_bar:
        raise NonConvergenceError(
            f"residue extrapolation for {omega} at q={q} did not converge: "
            f"error bar {bar:.3e} exceeds {max_error_bar:.3e}")
    return ResidueReport(omega, q, rich, bar, tag.method, lsq, sched)


# ---------------------------------------------------------------------------
# Commutator growth probe.

def commutator_growth(q_value: float, lmax: int = 6) -> List[Tuple[int, float]]:
    """Column norms of the plain Dirac commutator with the generator a.

    Forms [D, pi(a)] on the truncated doubled space, D being
    ``dirac_matrix`` permuted into the spinor-doubled order of the
    ``mult_op_matrix`` basis, and reports, for every doubled spin below
    the cutoff, the largest Euclidean norm of a commutator column
    starting there.  The columns are taken in the
    conventionally normalized basis of `mult_op_matrix`, whose vectors
    have squared norms q^(-2i)/[2l+1], so these are not operator norms.
    The ratio of consecutive values tends to 1/q: at q = 0.5 and lmax 6
    the last one is 1.998.  The first steps can fall short of it, and at
    q = 0.8 the first one falls (1.118 to 1.097).  The plain commutator
    is unbounded, which is exactly why the twisted calculus exists, and
    the probe makes that visible on a finite window.
    """
    grid = SpectralGrid(q_value, lmax)
    mm = mult_op_matrix(gens()[0], grid)
    pos = {lab: k for k, lab in enumerate(mm.labels)}
    mult_sp = np.kron(mm.matrix, np.eye(2))
    # Basis vector p carries the upper spinor slot 2p and the lower 2p + 1;
    # D is ``dirac_matrix`` with its labels permuted into that order.
    dirac, labels = dirac_matrix(grid)
    at = {lab: k for k, lab in enumerate(labels)}
    order = [at[(l2, i2, slot, j2)] for l2, i2, j2 in mm.labels
             for slot in ("up", "down")]
    dirac_sp = dirac[np.ix_(order, order)]
    comm = dirac_sp @ mult_sp - mult_sp @ dirac_sp
    flagged = set(mm.flagged)
    out: List[Tuple[int, float]] = []
    for l2 in range(0, lmax):
        best = 0.0
        for lab, p in pos.items():
            if lab[0] != l2 or lab in flagged:
                continue
            for sp in (2 * p, 2 * p + 1):
                best = max(best, float(np.linalg.norm(comm[:, sp])))
        out.append((l2, best))
    return out
