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

* Truncated operators.  ``mult_op_matrix`` expresses multiplication by an
  algebra element in the conventionally normalized matrix-coefficient
  basis (squared norms q^{-2i}[2l+1]^{-1}).  The projections are computed
  exactly and only converted to floats at the very end; columns whose
  image does not fit below the cutoff are flagged, never silently
  truncated.

* Trace scans.  ``upsilon_scan`` accumulates the weighted eigenvalue sums
  used by the residue functional in a fixed (n outer, l inner) order with
  correctly rounded merging, together with certified tail bounds.  The
  terms are evaluated as arrays over blocks of the (n, l) triangle:
  one-index tables (powers of q, q-integers, column sums) built by scalar
  Python arithmetic are gathered by integer indices and combined with
  correctly rounded numpy arithmetic, while the per-term power
  (1 + lambda^2)^{-z/2} stays Python's pow, since numpy's vectorized power
  rounds differently from libm on some CPUs.  Each term thus has the bits
  of the plain per-term loop, and a scan's output does not depend on the
  host.  ``eigen_lattice_sum`` evaluates the same sums arbitrarily close
  to the abscissa z = 3 by resumming the leading geometric part of the
  (n, m) lattice in closed form, which a plain cutoff scan cannot reach;
  it and ``upsilon_cstarc_lattice`` gather every array power q^k of their
  columns from one table built per call.  ``residue_extract`` drives
  either evaluator through a Richardson schedule in z - 3 and
  cross-checks with a least-squares pole fit.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .algebra import AlgebraElement, gens, weight_decompose
from .functionals import gns_inner
from .peterweyl import pw_orthobasis

__all__ = [
    "SpectralGrid",
    "lambda_eigen",
    "jset",
    "dirac_sector_matrix",
    "sector_spectrum_closed",
    "c_ratio",
    "dirac_matrix",
    "clebsch_plus",
    "clebsch_minus",
    "MultOpMatrix",
    "mult_op_matrix",
    "OMEGA_TAGS",
    "upsilon_value",
    "upsilon_scan",
    "upsilon_identity_pairblocks",
    "tail_bound",
    "eigen_lattice_sum",
    "NonConvergenceError",
    "ResidueReport",
    "residue_extract",
    "commutator_growth",
]


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


def _check_cutoff(lmax: int) -> None:
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
    exactly (l2+1)/2.
    """
    q = _check_q(q_value)
    if l2 < 0:
        raise ValueError("doubled spin must be non-negative")
    if abs(n) > l2 + 1:
        raise ValueError(f"mode number {n} outside sector of doubled spin {l2}")
    prod = _fbracket(l2 + 1 + n, q) * _fbracket(l2 + 1 - n, q)
    return math.sqrt(0.25 * n * n + q ** n * prod)


def jset(l2: int) -> range:
    """Non-negative mode numbers admitted at doubled spin l2.

    The modes have parity opposite to l2 and stay below l2, so the
    complementary label m = l2 - n is always odd.
    """
    if l2 < 0:
        raise ValueError("doubled spin must be non-negative")
    return range((l2 + 1) % 2, l2, 2)


class SpectralGrid:
    """A deformation parameter together with a spin cutoff."""

    __slots__ = ("q", "lmax")

    def __init__(self, q_value: float, lmax: int):
        self.q = _check_q(q_value)
        if not isinstance(lmax, int) or lmax < 1:
            raise ValueError("cutoff must be a positive integer (doubled spin)")
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
    if l2 < 0:
        raise ValueError("doubled spin must be non-negative")
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

    Block diagonal over (l2, i2); the operator never mixes sectors, so a
    truncation in l2 leaves every included sector intact.  Labels are
    (l2, i2, slot, j2) with slot "up"/"down" matching the sector basis
    order.
    """
    labels: List[Tuple[int, int, str, int]] = []
    blocks: List[np.ndarray] = []
    for l2 in grid.sectors():
        sector = dirac_sector_matrix(l2, grid.q)
        for i2 in range(-l2, l2 + 1, 2):
            for j2 in range(-l2, l2 + 1, 2):
                labels.append((l2, i2, "up", j2))
            for j2 in range(-l2, l2 + 1, 2):
                labels.append((l2, i2, "down", j2))
            blocks.append(sector)
    dim = sum(b.shape[0] for b in blocks)
    mat = np.zeros((dim, dim))
    at = 0
    for b in blocks:
        k = b.shape[0]
        mat[at:at + k, at:at + k] = b
        at += k
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
    exact) pass through floating point.  Requires the exact-mode cutoff
    ``grid.lmax <= 8``.
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
    for cidx, vcol in enumerate(vectors):
        prod = x * vcol.monic
        leaked = False
        for (lw2, rw2), comp in weight_decompose(prod).items():
            block = blocks.get((rw2, lw2))
            if block is None:
                leaked = True
                continue
            residual = comp
            for v in block.vectors:
                mu = gns_inner(v.monic, residual) / v.norm_sq
                if mu.is_zero():
                    continue
                residual = residual - v.monic.scale(mu)
                ridx = pos[(v.l2, v.i2, v.j2)]
                mat[ridx, cidx] = (mu.eval_at_q(grid.q)
                                   * math.sqrt(resc[cidx] / resc[ridx]))
            if not residual.is_zero():
                leaked = True
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
#: of a scan far below its returned list of terms.
_SCAN_BLOCK = 4096


def _scan_triangle(lmax: int) -> Tuple[np.ndarray, np.ndarray]:
    """Index arrays (n, l2) of the admitted states up to the cutoff, n
    outer and l2 inner: l2 = n + 1, n + 3, ... <= lmax for n < lmax.
    They are int32, half the memory of the default integer."""
    counts = (lmax - np.arange(lmax) + 1) // 2
    n = np.repeat(np.arange(lmax), counts)
    starts = np.cumsum(counts) - counts
    l2 = n + 1 + 2 * (np.arange(n.size) - np.repeat(starts, counts))
    return n.astype(np.int32), l2.astype(np.int32)


def _scan_terms(omega: str, z: float, q: float, lmax: int) -> List[float]:
    """Per-(n, l2) contributions in the fixed (n outer, l2 inner) order.

    Every contribution carries its exact geometric column sum over the
    right index i, so individual terms are O(1) and the whole scan is
    O(lmax^2).  Each one-index factor (q^k, q^{-n}, [t2/2], the column
    sums) is tabulated once by scalar Python arithmetic over exactly the
    indices the triangle uses, so an overflowing power raises
    ``OverflowError``; numpy gathers the tables onto blocks of the
    triangle and combines them with + - * / and sqrt, which are correctly
    rounded, in the order a per-term loop would use.  The one per-term
    power (1 + lambda^2)^{-z/2} stays Python's pow, because numpy's
    vectorized ``power`` does not round like libm's on every CPU; every
    term is therefore bit-identical to the per-term loop.
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
    p = -0.5 * z
    all_n, all_l2 = _scan_triangle(lmax)
    terms: List[float] = []
    for at in range(0, all_n.size, _SCAN_BLOCK):
        n = all_n[at:at + _SCAN_BLOCK]
        l2 = all_l2[at:at + _SCAN_BLOCK]
        lam = np.sqrt(0.25 * n * n + qp[n] * (fbr[(l2 + 1 + n) // 2]
                                              * fbr[(l2 + 1 - n) // 2]))
        X = np.array([b ** p for b in (1.0 + lam * lam).tolist()])
        if omega == "identity":
            block = 2.0 * (l2 + 1) * X
        elif omega in _DELTA_TAGS:
            block = qp[n] * s_geo[l2] * X
        else:  # cstarc
            acc = np.zeros(n.size)
            for j2 in (n + 1, n - 1):
                acc += (qp[l2 + n + 1] * eps[l2 - j2 + 2] / den_up[l2]
                        * sum_eps_up[l2])
                acc += qp[l2] * eps[l2 + j2] / den_down[l2] * sum_eps_down[l2]
            block = qm[n] * X * acc
        terms += block.tolist()
    return terms


def upsilon_value(omega: str, z: float, q_value: float, lmax: int) -> float:
    """Partial trace sum at cutoff lmax (plain scan, exactly rounded merge)."""
    _check_omega(omega)
    q = _check_q(q_value)
    _check_z(z, 2.0)
    _check_cutoff(lmax)
    return math.fsum(_scan_terms(omega, z, q, lmax))


def upsilon_scan(omega: str, q_value: float, z_values: Sequence[float],
                 lmax: int) -> List[Dict[str, float]]:
    """Scan rows (one per z) with partial sums and certified tail bounds."""
    _check_omega(omega)
    q = _check_q(q_value)
    rows = []
    for z in z_values:
        rows.append({
            "omega_tag": omega,
            "q": q,
            "z": float(z),
            "lmax": lmax,
            "partial_sum": upsilon_value(omega, z, q, lmax),
            "tail_bound": tail_bound(omega, lmax, z, q),
        })
    return rows


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
    if omega == "gamma":
        return 0.0
    z_floor = 3.0 if omega in _DELTA_TAGS else 2.0
    if z <= z_floor:
        return math.inf
    q2 = q * q
    i_inf = 0.5 * _gamma_half_ratio(z)

    def s0(m: int, n_from: int) -> float:
        """Bound on sum over n > n_from of (1 + n^2/4 + q^{1-m})^{-z/2};
        n_from < 0 means the full sum over n >= 0."""
        ft = 1.0 + q ** (1 - m)
        if n_from < 0:
            return ft ** (-0.5 * z) + 2.0 * ft ** (0.5 * (1.0 - z)) * i_inf
        c = n_from / (2.0 * math.sqrt(ft))
        if c > 0.0 and (1.0 - z) * math.log(c) < 700.0:
            cap = (c ** (1.0 - z)) / (z - 1.0)
        else:
            cap = i_inf
        return 2.0 * ft ** (0.5 * (1.0 - z)) * min(i_inf, cap)

    def s1(m: int, n_from: int) -> float:
        """Bound on sum over n > n_from of (n + m + 1) * minorant term."""
        ft = 1.0 + q ** (1 - m)
        base = (ft + 0.25 * max(n_from, 0) ** 2) ** (0.5 * (2.0 - z))
        out = (m + 1) * s0(m, n_from) + (4.0 / (z - 2.0)) * base
        # n * f(n) peaks near 2 sqrt(ft / (z - 1)); only when the cutoff
        # sits before the peak can a single term beat the integral.
        if n_from < 2.0 * math.sqrt(ft / (z - 1.0)):
            out += 2.0 * ft ** (0.5 * (1.0 - z))
        return out

    g = q ** (0.5 * (z - 1.0))        # decay of the full-sum bound in m
    s0_full_coef = 1.0 + 2.0 * i_inf  # s0(m, -1) <= s0_full_coef * g^{m-1}

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
    """The column coefficients (c_m, d_m) above."""
    big_q = q / (1.0 - q * q)
    c_m = big_q * big_q * q ** (-(m + 1)) + 1.0 - big_q * big_q
    d_m = big_q * big_q * (1.0 - q ** (m + 1))
    return c_m, d_m


#: Head length of the near-exact column sums; the integral tail starts
#: one past it.
_N_CUT = 4000

#: The last column either m series may reach.
_M_CAP = 2001

#: Columns of ``eigen_lattice_sum`` summed directly rather than modelled.
_M_DIRECT = 5


def _column_powers(z: float, q: float, m: int, n: np.ndarray,
                   q2n: np.ndarray) -> np.ndarray:
    """The column power (n^2/4 + c_m - d_m q^{2n})^{-z/2} over an array of
    n, given q^{2n} over the same array."""
    c_m, d_m = _lattice_cd(q, m)
    return (0.25 * n * n + c_m - d_m * q2n) ** (-0.5 * z)


def _em_close(s: float, f, a: float) -> float:
    """Euler-Maclaurin close of a head-plus-tail sum ``s`` cut at ``a``:
    half the endpoint term minus f'(a)/12, the derivative taken as the
    centred unit difference."""
    return s + 0.5 * f(a) - (f(a + 0.5) - f(a - 0.5)) / 12.0


def _lattice_inner_direct(z: float, q: float, m: int, c_m: float,
                          haar_weight: bool, qt: np.ndarray) -> float:
    """Near-exact n sum for small m: direct terms plus an integral tail.
    ``qt`` is the call's power table, qt[k] = q^k."""
    n = np.arange(0, _N_CUT + 1)
    w = 1.0 - qt[2 * (n + m + 1)] if haar_weight else 1.0
    head = math.fsum((w * _column_powers(z, q, m, n, qt[2 * n])).tolist())

    def f(t: float) -> float:
        return (0.25 * t * t + c_m) ** (-0.5 * z)

    a = float(_N_CUT + 1)
    tail_int, _ = quad(f, a, np.inf, epsabs=1e-16, epsrel=1e-13)
    f_a = f(a)
    fp_a = -0.5 * z * (0.5 * a) * (0.25 * a * a + c_m) ** (-0.5 * z - 1.0)
    return head + tail_int + 0.5 * f_a - fp_a / 12.0


def _lattice_inner_model(z: float, q: float, m: int, c_m: float, d_m: float,
                         haar_weight: bool) -> float:
    """n sum for larger m: integral model plus damped exact differences."""
    model = (_gamma_half_ratio(z) * c_m ** (0.5 * (1.0 - z))
             + 0.5 * c_m ** (-0.5 * z))
    diffs: List[float] = []
    for n in range(0, 800):
        base = 0.25 * n * n + c_m
        w = 1.0 - q ** (2.0 * (n + m + 1)) if haar_weight else 1.0
        d = w * (base - d_m * q ** (2.0 * n)) ** (-0.5 * z) - base ** (-0.5 * z)
        diffs.append(d)
        if abs(d) < 1e-22 * max(1.0, model):
            break
    return model + math.fsum(diffs)


def eigen_lattice_sum(z: float, q_value: float, *,
                      admitted: bool = True) -> float:
    """Sum over the (n, m) eigenvalue lattice of

        q^{-m} w(n, m) (n^2/4 + c_m - d_m q^{2n})^{-z/2},

    over the ``admitted`` states by default: m odd (the mode-parity lock)
    and w = 1 - q^{2(n+m+1)} (the exact geometric column sum over the
    right index); with ``admitted=False``, over every m >= 1 with w = 1.  The
    leading m-geometric part is resummed in closed form, so the evaluation
    stays accurate for every z > 3; at and below 3 the sum diverges.
    """
    q = _check_q(q_value)
    _check_z(z, 3.0)
    qt = q ** np.arange(2 * (_N_CUT + _M_DIRECT + 1) + 1, dtype=float)
    big_q = q / (1.0 - q * q)
    ghalf = _gamma_half_ratio(z)
    x = q ** (0.5 * (z - 3.0))
    geo = x / (1.0 - x * x) if admitted else x / (1.0 - x)
    total = ghalf * big_q ** (1.0 - z) * q ** (0.5 * (z - 1.0)) * geo
    step = 2 if admitted else 1
    quiet = 0
    m = 1
    while m <= _M_CAP:
        c_m, d_m = _lattice_cd(q, m)
        lead = ghalf * (big_q * big_q * q ** (-(m + 1.0))) ** (0.5 * (1.0 - z))
        if m <= _M_DIRECT:
            inner = _lattice_inner_direct(z, q, m, c_m, admitted, qt)
        else:
            inner = _lattice_inner_model(z, q, m, c_m, d_m, admitted)
        corr = q ** (-m) * (inner - lead)
        total += corr
        if abs(corr) < 1e-14 * abs(total):
            quiet += 1
            if quiet >= 3 and m >= 41:
                break
        else:
            quiet = 0
        m += step
    return total


def _cstarc_weight(n, m: int, q: float, q_pow):
    """Exact per-mode c*c diagonal weight times q^{-n} on the (n, m) lattice.

    Regrouped so every power of q is nonnegative: the q^{-n} damping of
    the trace formula cancels against matching factors in the
    Clebsch-Gordan products, leaving an O(1) piece plus a q^m-damped
    piece growing linearly in n.  Accepts an integer array or a float for
    n (the continuous extension feeds the integral tail); ``q_pow(k)``
    is q^k for the exponents that depend on n: a gather from the power
    table for an array, Python's pow for a float.
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


def _cstarc_inner(z: float, q: float, m: int, qt: np.ndarray) -> float:
    """Near-exact weighted n sum for one m column of the c*c trace;
    ``qt`` is the call's power table, qt[k] = q^k."""
    n = np.arange(0, _N_CUT + 1)
    head = math.fsum((_cstarc_weight(n, m, q, qt.__getitem__)
                      * _column_powers(z, q, m, n, qt[2 * n])).tolist())
    c_m = _lattice_cd(q, m)[0]

    def f(t: float) -> float:
        return (_cstarc_weight(t, m, q, lambda k: q ** k)
                * (0.25 * t * t + c_m) ** (-0.5 * z))

    def f_inv(u: float) -> float:
        # u = 1/t flattens the slowly decaying tail onto a finite window.
        t = 1.0 / u
        return f(t) * t * t

    a = float(_N_CUT + 1)
    tail_int, _ = quad(f_inv, 0.0, 1.0 / a, epsabs=1e-16, epsrel=1e-13)
    return _em_close(head + tail_int, f, a)


def upsilon_cstarc_lattice(z: float, q_value: float) -> float:
    """Cutoff-free c*c trace sum, reparameterized onto the (n, m) lattice.

    The n sums are evaluated near-exactly (direct head plus integral
    tail with its endpoint corrections) and the positive m series, damped
    like q^{m(z-1)/2}, is accumulated to a relative 1e-12.  No spin ceiling
    enters, so values stay accurate down toward z = 2 where plain
    cutoff scans would need astronomically many sectors.
    """
    q = _check_q(q_value)
    _check_z(z, 2.0)
    qt = q ** np.arange(2 * (_N_CUT + _M_CAP) + 5, dtype=float)
    total = 0.0
    quiet = 0
    for m in range(1, _M_CAP + 1, 2):
        term = _cstarc_inner(z, q, m, qt)
        total += term
        if abs(term) < 1e-12 * abs(total):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    return total


# ---------------------------------------------------------------------------
# Residue extraction.

class NonConvergenceError(RuntimeError):
    """The extrapolation schedule did not settle within the requested bar."""


class ResidueReport(NamedTuple):
    """Residue estimate with its cross-checks.

    ``estimate`` is the Richardson value; ``least_squares`` the constant
    coefficient of the pole fit on the same points; ``error_bar`` combines
    the last Richardson correction, the spread between the two methods and
    (for cutoff scans) the certified truncation contribution.
    """

    omega: str
    q: float
    estimate: float
    error_bar: float
    method: str
    least_squares: float
    schedule: Tuple[float, ...]
    lmax_used: Optional[int]

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


def residue_extract(omega: str, q_value: float, *,
                    schedule: Sequence[float] = (0.4, 0.2, 0.1, 0.05),
                    lmax: Optional[int] = None,
                    max_error_bar: Optional[float] = None) -> ResidueReport:
    """Estimate the residue at z = 3 of the weighted trace sum.

    The scan F(eps) = eps * Upsilon(3 + eps) runs over the Richardson
    schedule and is extrapolated to eps = 0; a least-squares fit of
    c_{-1}/(z-3) + c_0 + c_1 (z-3) on the same points cross-checks the
    extrapolant, and both are reported.  Weights with a genuine pole go
    through the pole-resolved lattice evaluator; the geometrically damped
    weights use plain cutoff scans whose certified tails are folded into
    the error bar.  Only ``identity`` is scanned that way; its cutoff
    ``lmax`` defaults to the ceiling of 400, and an ``lmax`` above the
    ceiling or for any other weight is rejected.  If ``max_error_bar`` is
    given and exceeded, the non-convergence is raised, never smoothed
    over.
    """
    _check_omega(omega)
    q = _check_q(q_value)
    ceiling = 400
    if lmax is not None and omega != "identity":
        raise ValueError(f"lmax applies only to the identity weight's "
                         f"cutoff scan, not to {omega}")
    if lmax is not None and lmax > ceiling:
        raise ValueError(f"lmax {lmax} is above the cutoff ceiling {ceiling}")
    if max_error_bar is not None and not max_error_bar >= 0.0:
        raise ValueError(f"max_error_bar must be >= 0, got {max_error_bar}")
    sched = tuple(float(e) for e in schedule)
    if len(sched) < 3 or any(not 0.0 < e < math.inf for e in sched) \
            or any(a <= b for a, b in zip(sched, sched[1:])):
        raise ValueError("schedule must be at least three decreasing "
                         "positive finite offsets")
    if omega == "gamma":
        return ResidueReport(omega, q, 0.0, 0.0, "identically-zero",
                             0.0, sched, None)

    trunc_bar = 0.0
    lmax_used: Optional[int] = None
    points: List[Tuple[float, float]] = []
    if omega in _DELTA_TAGS:
        method = "pole-resolved/richardson+least-squares"
        pref = 1.0 / (1.0 - q * q)
        for eps in sched:
            ups = pref * eigen_lattice_sum(3.0 + eps, q)
            points.append((eps, eps * ups))
    elif omega == "cstarc":
        method = "lattice-resolved/richardson+least-squares"
        for eps in sched:
            ups = upsilon_cstarc_lattice(3.0 + eps, q)
            points.append((eps, eps * ups))
    else:
        method = "direct-scan/richardson+least-squares"
        lmax_used = ceiling if lmax is None else lmax
        at_target = True
        for eps in sched:
            z = 3.0 + eps
            partial = upsilon_value(omega, z, q, lmax_used)
            tb = tail_bound(omega, lmax_used, z, q)
            if tb > 1e-6 * abs(partial):
                at_target = False
            trunc_bar = max(trunc_bar, eps * tb)
            points.append((eps, eps * partial))
        if not at_target:
            method += "+ceiling-tail"

    rich, last_corr = _richardson_to_zero(points)
    eps_arr = np.array([p[0] for p in points])
    f_arr = np.array([p[1] for p in points])
    lsq = float(np.polyfit(eps_arr, f_arr, 2)[2])
    bar = abs(rich - lsq) + last_corr + trunc_bar
    if max_error_bar is not None and bar > max_error_bar:
        raise NonConvergenceError(
            f"residue extrapolation for {omega} at q={q} did not converge: "
            f"error bar {bar:.3e} exceeds {max_error_bar:.3e}")
    return ResidueReport(omega, q, rich, bar, method, lsq, sched, lmax_used)


# ---------------------------------------------------------------------------
# Commutator growth probe.

def commutator_growth(q_value: float, lmax: int = 6) -> List[Tuple[int, float]]:
    """Column norms of the plain Dirac commutator with the generator a.

    Assembles [D, pi(a)] on the truncated doubled space and reports, for
    every doubled spin below the cutoff, the largest Euclidean norm of a
    commutator column starting there.  The growth is geometric in l2 --
    the plain commutator is unbounded, which is exactly why the twisted
    calculus exists -- and the probe makes that visible on a finite
    window.
    """
    grid = SpectralGrid(q_value, lmax)
    q = grid.q
    a_elem = gens()[0]
    mm = mult_op_matrix(a_elem, grid)
    npw = len(mm.labels)
    pos = {lab: k for k, lab in enumerate(mm.labels)}
    mult_sp = np.kron(mm.matrix, np.eye(2))
    dirac_sp = np.zeros((2 * npw, 2 * npw))
    for (l2, i2, j2), p in pos.items():
        dirac_sp[2 * p, 2 * p] = 0.5 * (j2 - 1)
        dirac_sp[2 * p + 1, 2 * p + 1] = -0.5 * (j2 + 1)
        partner = pos.get((l2, i2, j2 - 2))
        if partner is not None:
            beta = _beta(l2, j2, q)
            dirac_sp[2 * p, 2 * partner + 1] = beta
            dirac_sp[2 * partner + 1, 2 * p] = beta
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
