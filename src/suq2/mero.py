"""Meromorphic reference family behind the residue calculus.

The trace sums reduce, on the eigenvalue lattice, to instances of one
template double sum

    h(z; x, y, r, w) = sum_{n>=1} sum_{m>=w} e^{rm} / (x^2 n^2 + y^2 e^{rm})^{z/2}

which has an explicit closed form: a gamma-factor term carrying a simple
pole at z = 3 (from the geometric m series of the n integrals), minus a
geometric correction, up to a remainder ``err`` that is holomorphic for
Re z > 2 and admits the printed bound.  This module evaluates, at real z,

* ``h_direct``  -- the truncated double sum itself, summed per column
  with an integral tail (no use of the gamma identity, so it is an
  independent route onto the same number);
* ``h_closed``  -- the closed form;
* ``h_err_bound`` -- the bound on their difference;
* ``f_value`` / ``f_residue`` -- the full-lattice sum whose residue at
  z = 3 is 4 q Q^{-2} / ln(q^{-1}), through the pole-resolved engine;
* ``f1_partial`` / ``f2_partial`` -- the two holomorphic remainder
  pieces, as plain truncated sums whose Cauchy behavior certifies
  convergence.

Every evaluator rejects a non-finite z, or one at or below its abscissa,
with ``ValueError``, and a complex z with ``TypeError``.
"""

import itertools
import math
import numbers
import sys
from typing import Dict, Optional

import numpy as np
from scipy.integrate import quad

from .spectral import (_STANDARD_SCHEDULE, NonConvergenceError, _check_cutoff,
                       _check_q, _check_z, _em_close, _exact_sum,
                       _gamma_half_ratio, _lattice_cd, _richardson_to_zero,
                       eigen_lattice_sum)

#: Head length of every column of the direct template sum.
N_CAP = 3000


def _check_h_params(x: float, y: float, r: float, w: int) -> None:
    if not (x > 0.0 and y > 0.0 and r > 0.0):
        raise ValueError("scale parameters x, y, r must be positive")
    if not isinstance(w, numbers.Integral) or w < 0:
        raise ValueError("column offset w must be a non-negative integer")


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
    _check_h_params(x, y, r, w)
    _check_z(z, 2.0)
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
    _check_h_params(x, y, r, w)
    _check_z(z, 2.0)
    return _geometric_term(z, y, r, w)


def _j_tail(alpha: float, z: float) -> float:
    """J(alpha) = integral over [alpha, inf) of (1 + u^2)^{-z/2}.

    Everything is O(1)-normalized: the finite piece is integrated as is,
    and the far piece through u -> 1/v, whose integrand v^{z-2}
    (1+v^2)^{-z/2} is bounded on (0, 1] for z > 2.  Windows never
    exceed length 1, so the quadrature sees no scale spread.
    """
    total = 0.0
    cut = max(alpha, 1.0)
    if alpha < 1.0:
        total += quad(lambda u: (1.0 + u * u) ** (-0.5 * z), alpha, 1.0,
                      epsabs=1e-14, epsrel=1e-12)[0]
    total += quad(lambda v: v ** (z - 2.0) * (1.0 + v * v) ** (-0.5 * z),
                  0.0, 1.0 / cut, epsabs=1e-14, epsrel=1e-12)[0]
    return total


def _h_column(z: float, x: float, y: float, r: float, m: int) -> float:
    """One m column of the direct sum: n head plus integral tail.

    Both run on the factored term y^{-z} e^{rm(2-z)/2} (1 + u^2)^{-z/2}
    with u = x n e^{-rm/2} / y, and the tail is the normalized kernel
    integral times the column scale y^{1-z} e^{rm(3-z)/2} / x.  No
    positive exponential of r m is formed, so the far columns that z
    near 3 needs cannot overflow.
    """
    scale = y ** (-z) * math.exp(r * m * 0.5 * (2.0 - z))
    shrink = x * math.exp(-0.5 * r * m) / y

    def f_em(t):
        u = shrink * t
        return scale * (1.0 + u * u) ** (-0.5 * z)

    a = float(N_CAP + 1)
    head = _exact_sum([f_em(np.arange(1, N_CAP + 1, dtype=float))])
    tail = (y ** (1.0 - z) / x * math.exp(r * m * 0.5 * (3.0 - z))
            * _j_tail(shrink * a, z))
    return _em_close(head + tail, f_em, a)


def h_direct(z: float, x: float, y: float, r: float, w: int) -> float:
    """The template double sum evaluated directly (no gamma identity).

    Columns are accumulated until the geometric column estimate certifies
    the remaining tail below 1e-9; requires z > 3 for the sum to converge
    at all.  Columns shrink by about the ratio e^{r(3-z)/2} each, so the
    sum is near |first column| / (1 - ratio), and every column added
    rounds it by up to machine epsilon of that.  Once the columns summed
    could have rounded the sum by 1e-9, the target is out of reach and
    ``NonConvergenceError`` is raised.
    """
    _check_h_params(x, y, r, w)
    _check_z(z, 3.0)
    ratio = math.exp(r * 0.5 * (3.0 - z))
    total = 0.0
    for k, m in enumerate(itertools.count(w), 1):
        col = _h_column(z, x, y, r, m)
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
