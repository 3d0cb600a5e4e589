"""Meromorphic reference family behind the residue calculus.

The trace sums reduce, on the eigenvalue lattice, to instances of one
template double sum

    h(z; x, y, r, w) = sum_{n>=1} sum_{m>=w} e^{rm} / (x^2 n^2 + y^2 e^{rm})^{z/2}

which has an explicit closed form: a gamma-factor term carrying a simple
pole at z = 3 (from the geometric m series of the n integrals), minus a
geometric correction, up to a remainder ``err`` that is holomorphic for
Re z > 2 and admits the printed bound.  This module evaluates, at real z,

* ``h_direct``  -- the truncated double sum itself, summed per column:
  a head of N_CAP = 255 terms, an integral tail, an incomplete beta
  function summed as a positive hypergeometric series with no
  quadrature, and a third-order Euler-Maclaurin close (no use of the
  gamma identity, so it is an independent route onto the same number);
* ``h_closed``  -- the closed form;
* ``h_err_bound`` -- the bound on their difference;
* ``f_value`` / ``f_residue`` -- the full-lattice sum whose residue at
  z = 3 is 4 q Q^{-2} / ln(q^{-1}), through the pole-resolved engine;
* ``f1_partial`` / ``f2_partial`` -- the two holomorphic remainder
  pieces, as plain truncated sums whose Cauchy behavior certifies
  convergence.

Every evaluator rejects a non-finite z, or one at or below its abscissa,
with ``ValueError``, and a complex z with ``TypeError``; the template
members reject a z whose y^{-z} leaves the float range with
``OverflowError`` naming z and y.
"""

import itertools
import math
import numbers
import sys
from typing import Dict, Optional

import numpy as np

from .errors import NonConvergenceError
from .spectral import (_STANDARD_SCHEDULE, _check_cutoff, _check_q, _check_z,
                       _em_close, _gamma_half_ratio, _lattice_cd,
                       _richardson_to_zero, eigen_lattice_sum)

#: Head length of every column of the direct template sum, n = 1 ..
#: N_CAP; its integral tail and Euler-Maclaurin close start at n = N_CAP + 1.
N_CAP = 255


def _check_h_params(z: float, x: float, y: float, r: float, w: int) -> None:
    """Reject nonpositive scales and a column offset that is not a
    nonnegative integer with ``ValueError``, and a z whose y^{-z} leaves
    the float range with ``OverflowError`` naming z and y: every member of
    the family forms that power (from z = 15000 at y = 0.943)."""
    if not (x > 0.0 and y > 0.0 and r > 0.0):
        raise ValueError("scale parameters x, y, r must be positive")
    if not isinstance(w, numbers.Integral) or w < 0:
        raise ValueError("column offset w must be a non-negative integer")
    try:
        y ** -z
    except OverflowError:
        raise OverflowError(f"template sum at z={z}, y={y}: its y^-z leaves "
                            f"the float range") from None


def _geometric_term(z: float, y: float, r: float, w: int) -> float:
    """1/(2 y^z) * e^{-rw(z-2)/2} / (1 - e^{-r(z-2)/2})."""
    return (0.5 * y ** (-z) * math.exp(-r * w * 0.5 * (z - 2.0))
            / (1.0 - math.exp(-r * 0.5 * (z - 2.0))))


def h_closed(z: float, x: float, y: float, r: float, w: int) -> float:
    """Closed form of the template sum, valid for real z > 2 away from
    the pole z = 3:

        sqrt(pi)/(2 x y^{z-1}) * Gamma((z-1)/2)/Gamma(z/2)
            * e^{-rw(z-3)/2} / (1 - e^{-r(z-3)/2})
        - 1/(2 y^z) * e^{-rw(z-2)/2} / (1 - e^{-r(z-2)/2})

    A z whose pole denominator 1 - e^{-r(z-3)/2} rounds to zero, z = 3
    among them, raises ``ValueError``.
    """
    _check_z(z, 2.0)
    _check_h_params(z, x, y, r, w)
    pole = 1.0 - math.exp(-r * 0.5 * (z - 3.0))
    if pole == 0.0:
        raise ValueError("the closed form has a simple pole at z = 3; "
                         f"z = {z!r} lies on it to double precision")
    first = (_gamma_half_ratio(z) / (2.0 * x) * y ** (1.0 - z)
             * math.exp(-r * w * 0.5 * (z - 3.0)) / pole)
    return first - _geometric_term(z, y, r, w)


def h_err_bound(z: float, x: float, y: float, r: float, w: int) -> float:
    """Bound on |h_direct - h_closed| for real z > 2; it equals the
    closed form's geometric correction:

        1/(2 y^z) * e^{-rw(z-2)/2} / (1 - e^{-r(z-2)/2})
    """
    _check_z(z, 2.0)
    _check_h_params(z, x, y, r, w)
    return _geometric_term(z, y, r, w)


def _hyp_sum(term: float, p: float, c: float, x: float) -> float:
    """sum over k >= 0 of term (p)_k / (c)_k x^k, for 0 <= x < 1 and
    p, c > 0: every term is positive.  The ratio of term k + 1 to term k,
    (p + k) / (c + k) x, moves monotonically toward x, so once it and x
    are both at most rho < 1 the rest is at most term rho / (1 - rho);
    the terms stop where that is below 2^-56 of their sum, which
    ``math.fsum`` returns."""
    terms = [term]
    total = term
    for k in itertools.count():
        ratio = (p + k) / (c + k) * x
        rho = max(ratio, x)
        if rho < 1.0 and term * rho <= 2.0 ** -56 * (1.0 - rho) * total:
            return math.fsum(terms)
        term *= ratio
        terms.append(term)
        total += term


def _j_far(alpha: float, z: float) -> float:
    """J(alpha) for alpha >= 1/2, as the incomplete beta function
    B(X; a, 1/2) / 2 with X = 1/(1 + alpha^2) and a = (z - 1)/2:

        X^a (1 - X)^{1/2} / (2 a) * sum_k (a + 1/2)_k / (a + 1)_k X^k

    (DLMF 8.17.8 and 15.8.1), whose ratio stays below X <= 4/5.  X and
    1 - X are formed from t = 1/alpha, so alpha^2 is never formed."""
    a = 0.5 * (z - 1.0)
    t = 1.0 / alpha
    w = t * t
    x = w / (1.0 + w)
    return _hyp_sum(0.5 * x ** a * math.sqrt(1.0 / (1.0 + w)) / a,
                    a + 0.5, a + 1.0, x)


def _j_near(alpha: float, z: float) -> float:
    """The integral over [0, alpha] of (1 + u^2)^{-z/2}, alpha <= 1/2,
    by the Pfaff-transformed series

        alpha (1 + alpha^2)^{-z/2} sum_k (z/2)_k / (3/2)_k y^k,

    y = alpha^2 / (1 + alpha^2) <= 1/5."""
    s = alpha * alpha
    return _hyp_sum(alpha * (1.0 + s) ** (-0.5 * z), 0.5 * z, 1.5,
                    s / (1.0 + s))


def _j_zero(z: float) -> float:
    """J(0) = J(1/2) plus the integral over [0, 1/2]: the anchor of every
    J(alpha) with alpha < 1/2, one per z.  It is B(a, 1/2) / 2, but no
    Gamma function forms it."""
    return _j_far(0.5, z) + _j_near(0.5, z)


def _j_tail(alpha: float, z: float, j_zero: float) -> float:
    """J(alpha) = integral over [alpha, inf) of (1 + u^2)^{-z/2}, z > 2,
    given the anchor ``j_zero`` = ``_j_zero(z)``, by positive series and
    no quadrature: ``_j_far`` for alpha >= 1/2 and j_zero minus
    ``_j_near`` below.

    Against mpmath's incomplete beta function at 40 digits, J holds to
    2.2e-14 relative for z <= 20 and alpha from 1e-9 to 1e6.  The far
    series keeps about (z - 1) 2^-53 relative at any z (9e-15 at
    z = 100).  The near branch subtracts, so it loses the ratio of j_zero
    to J(alpha), which grows with z toward alpha = 1/2: at alpha = 0.45
    it keeps 3e-13 relative at z = 40, 4e-12 at z = 60, 4e-10 at z = 100
    and no digit at z = 300, while its absolute error stays within 2.2e-14
    of j_zero up to z = 300.
    """
    if alpha >= 0.5:
        return _j_far(alpha, z)
    return j_zero - _j_near(alpha, z)


def _h_column(z: float, x: float, y: float, r: float, m: int,
              j_zero: float) -> float:
    """One m column of the direct sum: the head n = 1 .. N_CAP, the
    integral tail from a = N_CAP + 1 and the close ``_em_close`` at a,
    which reads the summand at a - 1, a - 1/2, a, a + 1/2 and a + 1.

    All three run on the factored term y^{-z} e^{rm(2-z)/2} (1 + u^2)^{-z/2}
    with u = x n e^{-rm/2} / y, and the tail is the normalized kernel
    integral J (``_j_tail``, a series given the anchor ``j_zero``) times
    the column scale y^{1-z} e^{rm(3-z)/2} / x.  The summand has no
    q^{2n} part, so one head length serves every column.  No positive
    exponential of r m is formed, so the far columns that z near 3 needs
    cannot overflow.
    """
    scale = y ** (-z) * math.exp(r * m * 0.5 * (2.0 - z))
    shrink = x * math.exp(-0.5 * r * m) / y

    def f_em(t):
        u = shrink * t
        return scale * (1.0 + u * u) ** (-0.5 * z)

    a = float(N_CAP + 1)
    # One short row: math.fsum of the list beats ``_exact_sum``'s fixed
    # cost, and both give the correctly rounded sum.
    head = math.fsum(f_em(np.arange(1, N_CAP + 1, dtype=float)).tolist())
    tail = (y ** (1.0 - z) / x * math.exp(r * m * 0.5 * (3.0 - z))
            * _j_tail(shrink * a, z, j_zero))
    return _em_close(head + tail, f_em, a)


def h_direct(z: float, x: float, y: float, r: float, w: int) -> float:
    """The template double sum evaluated directly (no gamma identity).

    Each column is a head of N_CAP = 255 terms, its tail integral J by a
    positive series (``_j_tail``), no quadrature, and a third-order
    Euler-Maclaurin close; the series' anchor J(0) is formed once per
    call.  Columns are accumulated until the geometric
    column estimate certifies the remaining tail below 1e-9; requires
    z > 3 for the sum to converge at all.  Columns shrink by about the
    ratio e^{r(3-z)/2} each, so the sum is near |first column| /
    (1 - ratio), and every column added rounds it by up to machine epsilon
    of that.  Once the columns summed could have rounded the sum by 1e-9,
    the target is out of reach and ``NonConvergenceError`` is raised.
    """
    _check_z(z, 3.0)
    _check_h_params(z, x, y, r, w)
    ratio = math.exp(r * 0.5 * (3.0 - z))
    j_zero = _j_zero(z)
    total = 0.0
    for k, m in enumerate(itertools.count(w), 1):
        col = _h_column(z, x, y, r, m, j_zero)
        total += col
        if abs(col) * ratio < 1e-9 * (1.0 - ratio):
            return total
        if k == 1:
            first = abs(col)
        if k * sys.float_info.epsilon * first >= 1e-9 * (1.0 - ratio):
            raise NonConvergenceError(
                "direct template sum did not settle below 1.0e-09 "
                f"within {k} columns at z = {z}")


# ---------------------------------------------------------------------------
# The full-lattice sum f and its residue.

def f_value(z: float, q_value: float) -> float:
    """The lattice sum over all columns m >= 1 (every parity, no Haar
    weight); simple pole at z = 3 with residue 4 q Q^{-2} / ln(q^{-1})."""
    return eigen_lattice_sum([z], q_value, admitted=False)[0]


def f_residue_formula(q_value: float) -> float:
    """4 q Q^{-2} / ln(q^{-1}) with Q = q/(1 - q^2)."""
    q = _check_q(q_value)
    big_q = q / (1.0 - q * q)
    return 4.0 * q / (big_q * big_q * math.log(1.0 / q))


def f_residue(q_value: float) -> Dict[str, float]:
    """Richardson estimate of lim (z-3) f(z) with its target formula, on
    the standard schedule eps = 0.4, 0.2, 0.1, 0.05, whose four values
    come from one lattice sum call."""
    values = eigen_lattice_sum([3.0 + eps for eps in _STANDARD_SCHEDULE],
                               q_value, admitted=False)
    points = [(eps, eps * v) for eps, v in zip(_STANDARD_SCHEDULE, values)]
    rich, last_corr = _richardson_to_zero(points)
    return {
        "estimate": rich,
        "last_correction": last_corr,
        "formula": f_residue_formula(q_value),
    }


# ---------------------------------------------------------------------------
# Holomorphic remainder pieces.

def _remainder_partial(z: float, q_value: float, lmax: int,
                       second: bool) -> float:
    """Triangle partial sum n + m <= lmax shared by the two remainders.

    Columns die off geometrically in m, so the loop stops as soon as
    they stop contributing (long before the q^{-m} scale in the lattice
    coefficients could overflow); inside a column the pairwise numpy sum
    is deterministic and precise far beyond the Cauchy margins checked.
    One table q^{2k}, k = 0 .. lmax + 1, is built per call; column m
    slices its q^{2n} and its q^{2(n+m+1)} from it.
    """
    _check_z(z, 2.0)
    _check_cutoff(lmax)
    q = _check_q(q_value)
    log_inv_q = math.log(1.0 / q)
    q2k = q ** (2.0 * np.arange(lmax + 2))
    pieces = []
    total = 0.0
    quiet = 0
    for m in range(1, lmax + 1, 2):
        if (m + 2) * log_inv_q > 690.0:
            break
        n = np.arange(0, lmax - m + 1, dtype=float)
        c_m, d_m = _lattice_cd(q, m)
        powers = (0.25 * n * n + c_m - d_m * q2k[:lmax - m + 1]) ** (-0.5 * z)
        if second:
            w = (n + m + 1.0) * q ** m
        else:
            w = (1.0 - q2k[m + 1:]) / (1.0 - q * q)
        piece = float(np.sum(w * powers))
        pieces.append(piece)
        total += piece
        if piece < 1e-20 * max(1.0, total):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    return math.fsum(pieces)


def f1_partial(z: float, q_value: float, lmax: int) -> float:
    """Truncated first remainder sum over the triangle n + m <= lmax:
    weight (1 - q^{2(n+m+1)}) / (1 - q^2) on each odd-m lattice site."""
    return _remainder_partial(z, q_value, lmax, second=False)


def f2_partial(z: float, q_value: float, lmax: int) -> float:
    """Truncated second remainder sum over the same triangle:
    weight (n + m + 1) q^m on each odd-m lattice site."""
    return _remainder_partial(z, q_value, lmax, second=True)


# ---------------------------------------------------------------------------
# Bundled entry point.

def mero_reference(which: str, z: float, *, q_value: Optional[float] = None,
                   x: Optional[float] = None, y: Optional[float] = None,
                   r: Optional[float] = None, w: Optional[int] = None,
                   lmax: int = 64000) -> Dict[str, object]:
    """Evaluate one member of the reference family with its companions.

    * which == "h": needs x, y, r, w; returns direct, closed and the
      certified bound on their difference.
    * which == "f": needs q_value; returns the value and, exactly at the
      pole approach, the residue formula for comparison.
    * which in {"f1", "f2"}: needs q_value and lmax >= 2; returns the
      triangle partial sum at ``lmax`` together with the value at the
      half cutoff lmax // 2, so Cauchy behavior is visible in one call.
    """
    if which == "h":
        if None in (x, y, r, w):
            raise ValueError("template evaluation needs x, y, r, w")
        return {
            "which": "h", "z": z, "x": x, "y": y, "r": r, "w": w,
            "direct": h_direct(z, x, y, r, w),
            "closed": h_closed(z, x, y, r, w),
            "err_bound": h_err_bound(z, x, y, r, w),
        }
    if which == "f":
        if q_value is None:
            raise ValueError("lattice sum needs q_value")
        return {
            "which": "f", "z": z, "q": q_value,
            "value": f_value(z, q_value),
            "residue_formula": f_residue_formula(q_value),
        }
    if which in ("f1", "f2"):
        if q_value is None:
            raise ValueError("remainder sums need q_value")
        if isinstance(lmax, numbers.Integral) and lmax < 2:
            raise ValueError(f"remainder sums need lmax >= 2: their half "
                             f"cutoff lmax // 2 = {lmax // 2} must be at "
                             f"least 1")
        fn = f1_partial if which == "f1" else f2_partial
        return {
            "which": which, "z": z, "q": q_value, "lmax": lmax,
            "partial": fn(z, q_value, lmax),
            "partial_half": fn(z, q_value, lmax // 2),
        }
    raise ValueError(f"unknown reference member {which!r}; "
                     "choose from h, f, f1, f2")
