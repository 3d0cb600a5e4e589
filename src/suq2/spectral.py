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
  truncated Dirac operator D from its sector matrices; the commutator
  probe permutes it into its own basis order rather than placing the
  sectors again.  ``mult_op_matrix`` expresses multiplication by an
  algebra element in the conventionally normalized matrix-coefficient
  basis (squared norms q^{-2i}[2l+1]^{-1}).  The projections are computed
  exactly and only converted to floats at the very end; columns whose
  image does not fit below the cutoff are flagged, never silently
  truncated.

* Trace scans.  ``upsilon_scan`` accumulates the weighted eigenvalue sums
  used by the residue functional in a fixed (n outer, l inner) order,
  together with certified tail bounds; all the z of a scan are one
  ``upsilon_value`` call.  A call first prepares the z-independent part
  once: one-index tables (powers of q, q-integers, column sums) built by
  scalar Python arithmetic are gathered by integer indices onto blocks of
  the (n, l) triangle and combined with correctly rounded numpy
  arithmetic into the bases 1 + lambda^2 and the weight factors.  Each z
  then costs the per-term power (1 + lambda^2)^{-z/2}, which stays
  Python's pow since numpy's vectorized power rounds differently from
  libm on some CPUs, the products in the per-term loop's order, and one
  exact sum: the terms are binned by binary exponent and the sum is
  rounded once, which gives ``math.fsum``'s bits, in a third to a half of
  its time on the thousands of terms of a scan or a column head (a short
  sum pays a fixed cost instead; see ``_exact_sum``).  A scan's output thus
  has the bits of the plain per-term loop under ``math.fsum``, and does
  not depend on the host.  ``eigen_lattice_sum`` evaluates the same sums
  arbitrarily close to the abscissa z = 3 by resumming the leading
  geometric part of the (n, m) lattice in closed form, which a plain
  cutoff scan cannot reach.  Its first columns, and every column of the
  c*c and identity sums over the odd-m lattice (``upsilon_cstarc_lattice``
  and ``_identity_lattice``), are summed directly by one evaluator given
  the column's weight: a head whose array powers q^k are gathered from
  one table built per call and merged by the same exact sum, an integral
  tail, and an Euler-Maclaurin close.  Where every t-dependent power of q
  rounds away past the head, the float weight there is alpha + beta t
  and the tail is alpha I0 + beta I1, two integrals in closed form (an
  incomplete beta function and a power); only within about 5e-3 of
  q = 1 is the full c*c weight integrated by quadrature.  The lattice sums
  take a list of z: a column's weights and bases are built once for all
  of them, and each z then costs its powers, exact sum, tail and close;
  the later columns of ``eigen_lattice_sum``, an integral model plus
  damped differences, likewise build their bases and weights once for
  every z that reaches them.
  Each z keeps its own m series, which stops after three terms in a row
  below a relative tolerance or at m = _M_CAP, so a list gives the bits
  of one call per z; within about 1e-9 of q = 1 a column's base cancels,
  and every lattice sum raises ``FloatingPointError`` rather than return
  nan.  ``residue_extract`` drives one lattice sum over its whole
  schedule in one call, through a Richardson schedule in z - 3, and
  cross-checks with a least-squares pole fit; no residue scans to a
  cutoff.
"""

from __future__ import annotations

import math
import numbers
from itertools import repeat
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import quad
from scipy.linalg import block_diag
from scipy.special import betainc, betaincc, gammaln

from .algebra import AlgebraElement, gens, weight_decompose
from .functionals import gns_inner
from .peterweyl import pw_orthobasis


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

    def sectors(self) -> range:
        return range(0, self.lmax + 1)

    def __repr__(self) -> str:
        return f"SpectralGrid(q={self.q}, lmax={self.lmax})"


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

    Block diagonal over (l2, i2): ``block_diag`` places the l2 + 1 copies
    of each ``dirac_sector_matrix`` in turn.  The operator never mixes
    sectors, so a truncation in l2 leaves every included sector intact.
    Labels are (l2, i2, slot, j2) with slot "up"/"down" matching the
    sector basis order.  This is the one assembly of D; the commutator
    probe permutes it into its own basis order.
    """
    mat = block_diag(*(sector for l2 in grid.sectors()
                       for sector in repeat(dirac_sector_matrix(l2, grid.q),
                                            l2 + 1)))
    labels = [(l2, i2, slot, j2) for l2 in grid.sectors()
              for i2 in range(-l2, l2 + 1, 2) for slot in ("up", "down")
              for j2 in range(-l2, l2 + 1, 2)]
    return mat, labels


# ---------------------------------------------------------------------------
# Ladder coefficients of multiplication by the generator c.

def clebsch_plus(l2: int, i2: int, j2: int, q_value: float) -> float:
    """Coefficient of t^{l+1/2}_{i+1/2, j-1/2} in c * t^l_{ij}
    (conventional normalization)."""
    q = _check_q(q_value)
    return (q ** (0.25 * (i2 + j2))
            * math.sqrt(_fbracket(l2 + i2 + 2, q) * _fbracket(l2 - j2 + 2, q))
            / _fbracket(2 * l2 + 2, q))


def clebsch_minus(l2: int, i2: int, j2: int, q_value: float) -> float:
    """Coefficient of t^{l-1/2}_{i+1/2, j-1/2} in c * t^l_{ij}
    (conventional normalization)."""
    q = _check_q(q_value)
    return (-q ** (0.25 * (i2 + j2))
            * math.sqrt(_fbracket(l2 - i2, q) * _fbracket(l2 + j2, q))
            / _fbracket(2 * l2 + 2, q))


# ---------------------------------------------------------------------------
# Truncated multiplication operators.

class MultOpMatrix:
    """Multiplication operator compressed to the truncated basis.

    ``labels`` lists (l2, i2, j2) in the fixed sort order shared by rows
    and columns; ``flagged`` collects the column labels whose image has a
    component beyond the cutoff (those columns represent a genuine
    compression, not the full operator).
    """

    __slots__ = ("matrix", "labels", "flagged", "q")

    def __init__(self, matrix: np.ndarray,
                 labels: List[Tuple[int, int, int]],
                 flagged: List[Tuple[int, int, int]], q_value: float):
        self.matrix = matrix
        self.labels = labels
        self.flagged = flagged
        self.q = q_value

    def entry(self, row: Tuple[int, int, int],
              col: Tuple[int, int, int]) -> float:
        return float(self.matrix[self.labels.index(row),
                                 self.labels.index(col)])


def mult_op_matrix(x: AlgebraElement, grid: SpectralGrid) -> MultOpMatrix:
    """Matrix of left multiplication by ``x`` in the conventionally
    normalized matrix-coefficient basis up to the grid cutoff.

    Projections onto the exact orthogonal basis are computed in the
    coefficient field; only the final rescaling ratios (whose squares are
    exact) pass through floating point.  The basis vectors of a weight
    block are orthogonal, so each coordinate is the projection
    mu = <v, comp> / <v, v> of the product's weight component itself.
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
    degree = x.degree
    for cidx, vcol in enumerate(vectors):
        low = vcol.l2 - degree
        leaked = False
        for (lw2, rw2), comp in weight_decompose(x * vcol.monic).items():
            block = blocks.get((rw2, lw2), ())
            top = comp.degree
            leaked = leaked or not block or top > block[-1].l2
            for v in block:
                if v.l2 > top:
                    break
                if v.l2 < low:
                    continue
                mu = gns_inner(v.monic, comp) / v.norm_sq
                if mu.is_zero():
                    continue
                ridx = pos[(v.l2, v.i2, v.j2)]
                mat[ridx, cidx] = (mu.eval_at_q(grid.q)
                                   * math.sqrt(resc[cidx] / resc[ridx]))
        if leaked:
            flagged.append(labels[cidx])
    return MultOpMatrix(mat, labels, flagged, grid.q)


# ---------------------------------------------------------------------------
# Trace scans.

OMEGA_TAGS = ("gamma", "identity", "deltaL2-e11", "deltaL2-e22", "cstarc")

_DELTA_TAGS = ("deltaL2-e11", "deltaL2-e22")


def _check_omega(omega: str) -> str:
    if omega not in OMEGA_TAGS:
        raise ValueError(f"unknown weight tag {omega!r}; choose from "
                         f"{', '.join(OMEGA_TAGS)}")
    return omega


#: Terms per array block of a scan: blocks this small keep the temporaries
#: of a scan far below its prepared tables.
_SCAN_BLOCK = 4096

#: ``_exact_sum`` files a term M 2^(e - 53), M its 53-bit integer mantissa,
#: under bin e + _SUM_OFFSET: frexp's e runs from -1073 (the smallest
#: subnormal) to 1024, so every bin index is nonnegative, and bin k counts
#: units of 2^(k - _SUM_OFFSET - 53).
_SUM_OFFSET = 1126
_SUM_BINS = _SUM_OFFSET + 1025


def _exact_sum(blocks: Sequence[np.ndarray]) -> float:
    """Correctly rounded sum of float64 blocks, bit for bit ``math.fsum``.

    Each term is an integer mantissa |M| < 2^53 times 2^(e - 53)
    (``np.frexp``).  The two 26-bit halves of the mantissas are summed per
    exponent by ``np.bincount``; with fewer than 2^26 terms every bin sum
    stays below 2^53 and is exact.  The bins are combined into one Python
    integer, and one correctly rounded integer division returns the float.
    ``math.fsum`` itself takes the cases where its result could differ
    from the exact path or raise: a non-finite term, 2^26 terms or more, a
    sum large enough for fsum's intermediate overflow, and an exact zero,
    whose sign is fsum's to fix.

    It pays on long sums only.  Against ``math.fsum`` of the terms as a
    list (timeit, min of 5, random terms, one Xeon core): 85 against
    253 us for 4001 terms and 0.90 against 2.96 ms for 40,000, but about
    40 us of fixed cost per call, so 10 terms take 40 us against 0.6 us,
    and the break-even lies between 1000 and 4001 terms.
    """
    hi = np.zeros(_SUM_BINS)
    lo = np.zeros(_SUM_BINS)
    count = 0
    top = -1074  # every |term| < 2^top
    for x in blocks:
        if not np.isfinite(x).all():
            break
        m, e = np.frexp(x)
        mant = m * 2.0 ** 53
        mant_hi = np.floor(mant * 2.0 ** -26)
        k = e + _SUM_OFFSET
        hi += np.bincount(k, weights=mant_hi, minlength=_SUM_BINS)
        lo += np.bincount(k, weights=mant - mant_hi * 2.0 ** 26,
                          minlength=_SUM_BINS)
        count += x.size
        top = max(top, int(e.max(initial=top)))
    else:
        if count < 2 ** 26 and top + count.bit_length() <= 1022:
            used = np.flatnonzero(np.logical_or(hi, lo))
            total = sum(((h << 26) + l) << k for k, h, l in zip(
                used.tolist(), hi[used].astype(np.int64).tolist(),
                lo[used].astype(np.int64).tolist()))
            if total:
                return total / (1 << (_SUM_OFFSET + 53))
    return math.fsum(v for x in blocks for v in x.tolist())


def _scan_triangle(lmax: int) -> Tuple[np.ndarray, np.ndarray]:
    """Index arrays (n, l2) of the admitted states up to the cutoff, n
    outer and l2 inner: l2 = n + 1, n + 3, ... <= lmax for n < lmax.
    They are int32, half the memory of the default integer."""
    counts = (lmax - np.arange(lmax) + 1) // 2
    n = np.repeat(np.arange(lmax), counts)
    starts = np.cumsum(counts) - counts
    l2 = n + 1 + 2 * (np.arange(n.size) - np.repeat(starts, counts))
    return n.astype(np.int32), l2.astype(np.int32)


#: One block of a prepared scan: the bases 1 + lambda^2 of the per-term
#: power and the weight factors w and (c*c only) acc of its terms.
_ScanBlock = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


def _scan_prepare(omega: str, q: float, lmax: int) -> List[_ScanBlock]:
    """The z-independent part of a scan, block by block of the (n, l2)
    triangle in the fixed (n outer, l2 inner) order.

    Every contribution carries its exact geometric column sum over the
    right index i, so individual terms are O(1) and the whole scan is
    O(lmax^2).  Each one-index factor (q^k, q^{-n}, [t2/2], the column
    sums) is tabulated once by scalar Python arithmetic over exactly the
    indices the triangle uses, so an overflowing power raises
    ``OverflowError``; numpy gathers the tables onto blocks of the
    triangle and combines them with + - * / and sqrt, which are correctly
    rounded, in the order a per-term loop would use.  ``_scan_terms``
    evaluates the prepared blocks at one z.
    """
    if omega == "gamma":
        return []
    q2 = q * q
    Qc = q / (1.0 - q2)
    # Brackets [t2/2] enter at even t2 = 2..2 lmax, indexed by t2 // 2.
    fbr = np.array([_fbracket(t2, q) for t2 in range(0, 2 * lmax + 1, 2)])
    qp = np.array([q ** k for k in range(2 * lmax + 3)])
    # Column sums over the right index, by l2 (l2 = 0 is never used).
    s_geo = np.array([0.0] + [q ** (-l2) * (1.0 - q ** (2 * l2 + 2))
                              / (1.0 - q2) for l2 in range(1, lmax + 1)])
    if omega == "cstarc":
        # The factors that depend on l2 alone are combined per l2.
        eps = np.array([Qc * (1.0 - q ** t2) for t2 in range(2 * lmax + 5)])
        qm = np.array([q ** (-k) for k in range(lmax)])
        ls = np.arange(lmax + 1)
        sum_eps_up = Qc * (s_geo - (ls + 1) * qp[ls + 2])
        sum_eps_down = Qc * ((ls + 1) - (1.0 - qp[2 * ls + 2]) / (1.0 - q2))
        den_mid = eps[2 * ls + 2]
        den_up = den_mid * eps[2 * ls + 4]
        den_down = eps[2 * ls] * den_mid
    all_n, all_l2 = _scan_triangle(lmax)
    blocks: List[_ScanBlock] = []
    for at in range(0, all_n.size, _SCAN_BLOCK):
        n = all_n[at:at + _SCAN_BLOCK]
        l2 = all_l2[at:at + _SCAN_BLOCK]
        lam = np.sqrt(0.25 * n * n + qp[n] * (fbr[(l2 + 1 + n) // 2]
                                              * fbr[(l2 + 1 - n) // 2]))
        base = 1.0 + lam * lam
        if omega == "identity":
            blocks.append((base, 2.0 * (l2 + 1), None))
        elif omega in _DELTA_TAGS:
            blocks.append((base, qp[n] * s_geo[l2], None))
        else:  # cstarc
            acc = np.zeros(n.size)
            for j2 in (n + 1, n - 1):
                acc += (qp[l2 + n + 1] * eps[l2 - j2 + 2] / den_up[l2]
                        * sum_eps_up[l2])
                acc += qp[l2] * eps[l2 + j2] / den_down[l2] * sum_eps_down[l2]
            blocks.append((base, qm[n], acc))
    return blocks


def _scan_terms(blocks: List[_ScanBlock], z: float) -> List[np.ndarray]:
    """Per-(n, l2) contributions of a prepared scan at z, one array per
    block: (w * (1 + lambda^2)^{-z/2}) * acc, in that order.  The power
    stays Python's pow, because numpy's vectorized ``power`` does not
    round like libm's on every CPU; every term is therefore bit-identical
    to the per-term loop."""
    p = -0.5 * z
    out = []
    for base, w, acc in blocks:
        terms = w * np.array(list(map(pow, base.tolist(), repeat(p))))
        out.append(terms if acc is None else terms * acc)
    return out


def upsilon_value(omega: str, zs: Sequence[float], q_value: float,
                  lmax: int) -> List[float]:
    """Partial trace sums at cutoff lmax, one float per z of ``zs``.

    Every argument, every z included, is checked before any work; one
    ``_scan_prepare`` then serves all the z.  At each z the plain scan's
    terms are merged by one correctly rounded sum (``_exact_sum``), so
    each value is bit for bit ``math.fsum`` of the per-term loop, and the
    value of a call with that z alone."""
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
# Every admitted state sits on the (n, m) lattice with m = l2 - n odd, and
#
#     1 + lambda^2 >= 1 + n^2/4 + q^{1-m},
#
# which follows from [x] >= q^{1-x} applied to both bracket factors.  The
# bounds below integrate-compare the n sums against that minorant and close
# the m sums geometrically; they are valid upper bounds wherever they are
# finite, and +inf is returned when z is at or below the abscissa where the
# bound (or the sum itself) stops converging.

def _gamma_half_ratio(z: float) -> float:
    """sqrt(pi) Gamma((z-1)/2) / Gamma(z/2)."""
    return math.sqrt(math.pi) * math.exp(gammaln(0.5 * (z - 1.0))
                                         - gammaln(0.5 * z))


def _geo_tail_linear(x: float, cutoff: int) -> float:
    """Sum over m > cutoff of (m + 2) x^m."""
    k = cutoff + 1
    return x ** k * ((k + 2) - (k + 1) * x) / (1.0 - x) ** 2


def tail_bound(omega: str, lmax: int, z: float, q_value: float) -> float:
    """Certified upper bound on the part of the trace sum beyond lmax."""
    _check_omega(omega)
    q = _check_q(q_value)
    _check_z(z, -math.inf)
    _check_cutoff(lmax)
    if omega == "gamma":
        return 0.0
    z_floor = 3.0 if omega in _DELTA_TAGS else 2.0
    if z <= z_floor:
        return math.inf
    q2 = q * q
    i_inf = 0.5 * _gamma_half_ratio(z)

    def s0(m: int, n_from: int) -> float:
        """Bound on sum over n > n_from >= 0 of
        (1 + n^2/4 + q^{1-m})^{-z/2}."""
        ft = 1.0 + q ** (1 - m)
        c = n_from / (2.0 * math.sqrt(ft))
        if c > 0.0 and (1.0 - z) * math.log(c) < 700.0:
            cap = (c ** (1.0 - z)) / (z - 1.0)
        else:
            cap = i_inf
        return 2.0 * ft ** (0.5 * (1.0 - z)) * min(i_inf, cap)

    def s1(m: int, n_from: int) -> float:
        """Bound on sum over n > n_from of (n + m + 1) * minorant term."""
        ft = 1.0 + q ** (1 - m)
        base = (ft + 0.25 * n_from ** 2) ** (0.5 * (2.0 - z))
        out = (m + 1) * s0(m, n_from) + (4.0 / (z - 2.0)) * base
        # n * f(n) peaks near 2 sqrt(ft / (z - 1)); only when the cutoff
        # sits before the peak can a single term beat the integral.
        if n_from < 2.0 * math.sqrt(ft / (z - 1.0)):
            out += 2.0 * ft ** (0.5 * (1.0 - z))
        return out

    # Column m's full sum over n >= 0 is at most ft^{-z/2} + 2 ft^{(1-z)/2}
    # i_inf <= s0_full_coef * g^{m-1}.
    g = q ** (0.5 * (z - 1.0))        # decay of the full-sum bound in m
    s0_full_coef = 1.0 + 2.0 * i_inf

    if omega == "identity":
        head = math.fsum(2.0 * s1(m, lmax - m) for m in range(1, lmax + 1))
        t = q ** (0.5 * (z - 2.0))
        rem = 2.0 * (s0_full_coef * _geo_tail_linear(g, lmax) / g
                     + (4.0 / (z - 2.0)) * t ** lmax / (1.0 - t))
        return head + rem
    if omega in _DELTA_TAGS:
        head = math.fsum(q ** (-m) * s0(m, lmax - m)
                         for m in range(1, lmax + 1, 2))
        u = q ** (0.5 * (z - 3.0))
        rem = s0_full_coef / g * u ** (lmax + 1) / (1.0 - u)
        return (head + rem) / (1.0 - q2)
    # cstarc
    alpha = 2.0 * q / ((1.0 - q2) * (1.0 - q ** 4) * (1.0 - q ** 6))
    beta0 = 2.0 / ((1.0 - q2) * (1.0 - q ** 4))
    head = math.fsum(alpha * s0(m, lmax - m) + beta0 * q ** m * s1(m, lmax - m)
                     for m in range(1, lmax + 1))
    t = q ** (0.5 * (z - 2.0))
    rem_alpha = alpha * s0_full_coef / g * (g ** (lmax + 1)) / (1.0 - g)
    rem_beta = beta0 * (s0_full_coef * _geo_tail_linear(q * g, lmax) / g
                        + (4.0 / (z - 2.0)) / t * (q * t) ** (lmax + 1)
                        / (1.0 - q * t))
    return head + rem_alpha + rem_beta


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

def _lattice_cd(q: float, m: int) -> Tuple[float, float]:
    """The column coefficients (c_m, d_m) above.

    The smallest base n^2/4 + c_m - d_m q^{2n} of a column is its n = 0
    value c_m - d_m, in floats too: every q^{2n} rounds to at most 1, and
    rounding is monotone.  Near q = 1 the three terms are of size Q^2, and
    Q^2 times the unit roundoff exceeds the 1 that c_m - d_m must keep
    (from about q = 1 - 1e-9 on); where it rounds to <= 0 the column's
    bases are lost, and ``FloatingPointError`` names q and m.
    """
    big_q = q / (1.0 - q * q)
    c_m = big_q * big_q * q ** (-(m + 1)) + 1.0 - big_q * big_q
    d_m = big_q * big_q * (1.0 - q ** (m + 1))
    if not c_m - d_m > 0.0:
        raise FloatingPointError(f"lattice column m={m} cancels at q={q}: "
                                 f"its base c_m - d_m rounds to <= 0")
    return c_m, d_m


#: Head length of every directly summed column (``_lattice_column``); the
#: integral tail starts one past it.
_N_CUT = 4000

#: The last column either m series may reach.
_M_CAP = 2001

#: Columns of ``eigen_lattice_sum`` summed directly, by ``_lattice_column``
#: like every c*c column, rather than modelled.
_M_DIRECT = 5

#: The largest x with 1.0 - x == 1.0: a weight's 1 - q^k rounds to 1
#: wherever q^k <= _ROUNDS_AWAY.
_ROUNDS_AWAY = 2.0 ** -54


def _em_close(s: float, f, a: float) -> float:
    """Euler-Maclaurin close of a head-plus-tail sum ``s`` cut at ``a``:
    half the endpoint term minus f'(a)/12, the derivative taken as the
    centred unit difference."""
    return s + 0.5 * f(a) - (f(a + 0.5) - f(a - 0.5)) / 12.0


def _tail_integrals(z: float, c_m: float) -> Tuple[float, float]:
    """The integrals I0, I1 over t >= a = _N_CUT + 1 of
    (t^2/4 + c_m)^{-z/2} and of t times it, in closed form:

        I0 = c_m^{-(z-1)/2} B((z-1)/2, 1/2) I_{1-w}((z-1)/2, 1/2),
        I1 = 4/(z-2) (a^2/4 + c_m)^{1-z/2},      w = a^2/(a^2 + 4 c_m),

    with I the regularized incomplete beta function.  Its argument is
    whichever of w and 1 - w is at most 1/2, each formed directly, so
    neither loses the digits that 1 - x rounds away from the other.
    """
    a = float(_N_CUT + 1)
    b = 0.5 * (z - 1.0)
    w = a * a / (a * a + 4.0 * c_m)
    if w <= 0.5:
        frac = float(betaincc(0.5, b, w))
    else:
        frac = float(betainc(b, 0.5, 4.0 * c_m / (a * a + 4.0 * c_m)))
    i0 = c_m ** -b * _gamma_half_ratio(z) * frac
    i1 = 4.0 / (z - 2.0) * (0.25 * a * a + c_m) ** (1.0 - 0.5 * z)
    return i0, i1


def _lattice_column(zs: Sequence[float], q: float, m: int, qt: np.ndarray,
                    weight, tail: Optional[Tuple[float, float]]
                    ) -> List[float]:
    """Near-exact weighted n sum of column m of the lattice,

        sum over n >= 0 of weight(n) (n^2/4 + c_m - d_m q^{2n})^{-z/2},

    one value for each z of ``zs``.  ``weight(n, q_pow)`` accepts an
    integer array or a float for n; ``q_pow(k)`` is q^k for the exponents
    that depend on n: a gather from the call's power table ``qt``,
    qt[k] = q^k, on the head n <= _N_CUT, Python's pow elsewhere.  The
    head's weights and bases, and the weights of the Euler-Maclaurin
    close, do not depend on z and are built once; each z then costs the
    head's power and exact sum, the tail and the close.  The tail
    integrates weight(t) (t^2/4 + c_m)^{-z/2} over t >= a = _N_CUT + 1.
    Where the caller's guard shows the float weight there to be exactly
    ``tail`` = (alpha, beta), alpha + beta t, it is alpha I0 + beta I1
    (``_tail_integrals``); with ``tail`` None, a ``quad`` of the full
    weight over u = 1/t on [0, 1/a], and ``NonConvergenceError`` where
    that quadrature reports a failure.  The close always uses the full
    weight.
    """
    n = np.arange(0, _N_CUT + 1)
    head_weight = weight(n, qt.__getitem__)
    c_m, d_m = _lattice_cd(q, m)
    base = 0.25 * n * n + c_m - d_m * qt[2 * n]
    a = float(_N_CUT + 1)
    close = {t: (weight(t, q.__pow__), 0.25 * t * t + c_m)
             for t in (a - 0.5, a, a + 0.5)}

    def f_inv(u: float, p: float) -> float:
        # u = 1/t flattens the slowly decaying tail onto a finite window.
        t = 1.0 / u
        return weight(t, q.__pow__) * (0.25 * t * t + c_m) ** p * t * t

    values = []
    for z in zs:
        p = -0.5 * z
        head = _exact_sum([head_weight * base ** p])
        if tail is None:
            fit = quad(f_inv, 0.0, 1.0 / a, args=(p,), epsabs=1e-16,
                       epsrel=1e-13, full_output=1)
            if len(fit) > 3:  # quad's failure message, in place of a warning
                raise NonConvergenceError(
                    f"tail quadrature of lattice column m={m} at q={q}, "
                    f"z={z} did not converge")
            tail_int = fit[0]
        else:
            i0, i1 = _tail_integrals(z, c_m)
            tail_int = tail[0] * i0 + tail[1] * i1
        ends = {t: w * s ** p for t, (w, s) in close.items()}
        values.append(_em_close(head + tail_int, ends.__getitem__, a))
    return values


#: The most damped differences ``_lattice_inner_model`` sums per column.
_MODEL_DIFFS = 800


def _lattice_inner_model(zs: Sequence[float], q: float, m: int, c_m: float,
                         d_m: float, haar_weight: bool,
                         ghalf: Dict[float, float]) -> List[float]:
    """n sum of column m for larger m, one value for each z of ``zs``: the
    integral model ghalf[z] c_m^{(1-z)/2} + c_m^{-z/2}/2 plus the damped
    exact differences

        w(n) (n^2/4 + c_m - d_m q^{2n})^{-z/2} - (n^2/4 + c_m)^{-z/2},

    w(n) = 1 - q^{2(n+m+1)} with the Haar weight and 1 without.  Each z
    sums its differences by ``math.fsum`` up to and including the first
    below 1e-22 of max(1, model), or the first _MODEL_DIFFS of them.  The
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
        floor = 1e-22 * max(1.0, model)
        diffs: List[float] = []
        for n in range(_MODEL_DIFFS):
            if n == len(bases):
                base = 0.25 * n * n + c_m
                bases.append(base)
                shifted.append(base - d_m * q ** (2.0 * n))
                weights.append(1.0 - q ** (2.0 * (n + m + 1)) if haar_weight
                               else 1.0)
            d = weights[n] * shifted[n] ** p - bases[n] ** p
            diffs.append(d)
            if abs(d) < floor:
                break
        values.append(model + math.fsum(diffs))
    return values


def _m_series(totals: Sequence[float], zs: Sequence[float], terms,
              ms: Iterable[int], rtol: float, m_min: int) -> List[float]:
    """The m series of a lattice sum at each z of ``zs``: totals[i] plus
    its terms over m in ``ms``, stopping after three terms in a row below
    ``rtol`` of the running total once m >= m_min.  ``terms(m, zs)`` gives
    column m's term at each z it is passed, and is passed only the z whose
    series still runs, so no column past a stop is evaluated for that z,
    and each value is the one a call with that z alone would give.  A
    series that has not settled by the last m of ``ms`` stops there
    without a word: every lattice sum passes m up to _M_CAP, and each
    states the error that cap leaves near q = 1."""
    totals = list(totals)
    quiet = [0] * len(totals)
    active = list(range(len(totals)))
    for m in ms:
        if not active:
            break
        running = []
        for i, term in zip(active, terms(m, [zs[i] for i in active])):
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
    m-geometric part is resummed in closed form, so the evaluation stays
    accurate arbitrarily close to z = 3; at and below 3 the sum diverges,
    and every z is checked before any column.  Near q = 1 the accuracy is
    set by the modelled columns' cap of _MODEL_DIFFS = 800 damped
    differences, which decay like q^{2n}.  Against the same model with no
    cap, the cap never binds at q <= 0.97; the sum is within 1.1e-13
    (admitted) and 9.3e-13 (every m) relative at q = 0.99, and within
    5.9e-5 and 6.6e-5 relative at q = 0.999, z = 3.05.  A directly summed
    column's tail is closed form where its float weight is 1 past the
    head, that is for every column with w = 1 and, with the Haar weight,
    where q^{2(a+m+1)} <= 2^-54 (all q below about 0.995).  Each z keeps
    its own m series, so each value is bit for bit the value of a call
    with that z alone.  The series stops at m = _M_CAP = 2001 at the
    latest: at z = 3.05 that leaves the sum short, against the same sum
    with the cap raised to 40,001, by 5.2e-9 (admitted) and 3.2e-9 (every
    m) relative at q = 0.99 and by 1.2e-6 and 5.1e-7 at q = 0.995, and
    changes no value at q <= 0.98.
    """
    q = _check_q(q_value)
    zs = _check_zs(zs, 3.0)
    qt = q ** np.arange(2 * (_N_CUT + _M_DIRECT + 1) + 1, dtype=float)
    big_q = q / (1.0 - q * q)
    ghalf = {z: _gamma_half_ratio(z) for z in zs}
    totals = []
    for z in zs:
        x = q ** (0.5 * (z - 3.0))
        geo = x / (1.0 - x * x) if admitted else x / (1.0 - x)
        totals.append(ghalf[z] * big_q ** (1.0 - z) * q ** (0.5 * (z - 1.0))
                      * geo)

    def corrections(m: int, zs_m: List[float]) -> List[float]:
        c_m, d_m = _lattice_cd(q, m)
        if m > _M_DIRECT:
            inner = _lattice_inner_model(zs_m, q, m, c_m, d_m, admitted,
                                         ghalf)
        elif admitted:
            flat = q ** (2 * (_N_CUT + m + 2)) <= _ROUNDS_AWAY
            inner = _lattice_column(
                zs_m, q, m, qt, lambda n, q_pow: 1.0 - q_pow(2 * (n + m + 1)),
                (1.0, 0.0) if flat else None)
        else:
            inner = _lattice_column(zs_m, q, m, qt, lambda n, q_pow: 1.0,
                                    (1.0, 0.0))
        scale = big_q * big_q * q ** (-(m + 1.0))
        return [q ** (-m) * (col - ghalf[z] * scale ** (0.5 * (1.0 - z)))
                for z, col in zip(zs_m, inner)]

    ms = range(1, _M_CAP + 1, 2 if admitted else 1)
    return _m_series(totals, zs, corrections, ms, 1e-14, 41)


def _cstarc_weight(n, m: int, q: float, q_pow):
    """Exact per-mode c*c diagonal weight times q^{-n} on the (n, m) lattice.

    Regrouped so every power of q is nonnegative: the q^{-n} damping of
    the trace formula cancels against matching factors in the
    Clebsch-Gordan products, leaving an O(1) piece plus a q^m-damped
    piece growing linearly in n.  Accepts an integer array or a float for
    n (the continuous extension feeds the integral tail); ``q_pow(k)``
    is q^k for the exponents that depend on n, as in ``_lattice_column``.
    """
    q2 = q * q
    l2 = n + m
    q_top = q_pow(2 * l2 + 2)
    geo = (1.0 - q_top) / (1.0 - q2)
    eps_up = (1.0 - q ** (m + 1)) + (1.0 - q ** (m + 3))
    a_part = (eps_up * (q * geo - (l2 + 1.0) * q_pow(2 * l2 + 3))
              / ((1.0 - q_top) * (1.0 - q_pow(2 * l2 + 4))))
    eps_down = (1.0 - q_pow(2 * n + m + 1)) + (1.0 - q_pow(2 * n + m - 1))
    b_part = (eps_down * q ** m * ((l2 + 1.0) - geo)
              / ((1.0 - q_pow(2 * l2)) * (1.0 - q_top)))
    return a_part + b_part


def _cstarc_tail_weight(m: int, q: float) -> Optional[Tuple[float, float]]:
    """The pair (alpha, beta) with ``_cstarc_weight`` = alpha + beta t on
    the integral tail t >= a = _N_CUT + 1 of column m, or None where the
    float weight there is not of that form.

    It is under the column's guard: q^{2a+m-1} and q^{2(a+m)} at most
    2^-54, so every t-dependent 1 - q^k of the weight rounds to 1, and
    (a+m+1) q^{2(a+m)+3} below a quarter ulp of q geo.  The weight is then
    a_part + 2 q^m ((t + m + 1) - geo) with geo = 1/(1 - q^2) and a_part =
    eps_up q geo, so alpha = a_part + 2 q^m (m + 1 - geo) and beta = 2 q^m.
    """
    a = float(_N_CUT + 1)
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
    No spin ceiling enters, so values stay accurate down toward z = 2
    where plain cutoff scans would need astronomically many sectors.
    """
    q = _check_q(q_value)
    zs = _check_zs(zs, 2.0)
    qt = q ** np.arange(2 * (_N_CUT + _M_CAP) + 5, dtype=float)

    def columns(m: int, zs_m: List[float]) -> List[float]:
        return _lattice_column(
            zs_m, q, m, qt, lambda n, q_pow: weight(n, m, q, q_pow),
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
    one ``_odd_m_lattice`` with the scan's weight 2(l2 + 1) = 2(n + m + 1).
    That weight is exactly linear in n, so every column's tail is alpha I0
    + beta I1 with (alpha, beta) = (2(m + 1), 2), with no guard.  The m
    series of each z is damped only like q^{m(z-2)/2}, so it is the first
    to feel the stop at m = _M_CAP = 2001: at z = 3.05 the sum is short,
    against the same sum with the cap raised to 60,001, by 1.2e-10
    relative at q = 0.98, 6.3e-6 at q = 0.99 and 1.2e-3 at q = 0.995,
    and the cap changes no value at q <= 0.97.
    """
    return _odd_m_lattice(zs, q_value,
                          lambda n, m, q, q_pow: 2.0 * (n + m + 1),
                          lambda m, q: (2.0 * (m + 1), 2.0))


# ---------------------------------------------------------------------------
# Residue extraction.

class NonConvergenceError(RuntimeError):
    """The extrapolation schedule did not settle within the requested bar,
    or a lattice column's tail quadrature did not converge."""


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
        """The five leading fields, omega through method, in order."""
        return dict(zip(self._fields[:5], self))


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
    cutoff-free lattice sum over the whole schedule: the pole-resolved
    ``eigen_lattice_sum`` for the deltaL2 weights, and the odd-m lattice
    of directly summed columns for ``cstarc`` and ``identity``.  If
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

    if omega in _DELTA_TAGS:
        method = "pole-resolved/richardson+least-squares"
        pref = 1.0 / (1.0 - q * q)
        ups = [pref * value for value in eigen_lattice_sum(zs, q)]
    else:
        method = "lattice-resolved/richardson+least-squares"
        ups = (upsilon_cstarc_lattice if omega == "cstarc"
               else _identity_lattice)(zs, q)
    points = [(eps, eps * u) for eps, u in zip(sched, ups)]

    rich, last_corr = _richardson_to_zero(points)
    eps_arr = np.array([p[0] for p in points])
    f_arr = np.array([p[1] for p in points])
    lsq = float(np.polyfit(eps_arr, f_arr, 2)[2])
    bar = abs(rich - lsq) + last_corr
    if max_error_bar is not None and bar > max_error_bar:
        raise NonConvergenceError(
            f"residue extrapolation for {omega} at q={q} did not converge: "
            f"error bar {bar:.3e} exceeds {max_error_bar:.3e}")
    return ResidueReport(omega, q, rich, bar, method, lsq, sched)


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
