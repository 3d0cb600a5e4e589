"""Meromorphic reference family behind the residue calculus.

The trace sums reduce, on the eigenvalue lattice, to instances of one
template double sum

    h(z; x, y, r, w) = sum_{n>=1} sum_{m>=w} e^{rm} / (x^2 n^2 + y^2 e^{rm})^{z/2}

which has an explicit closed form: a gamma-factor term carrying a simple
pole at z = 3 (from the geometric m series of the n integrals), minus a
geometric correction, up to a remainder ``err`` that is holomorphic for
Re z > 2 and admits the printed bound.  This module evaluates

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

Complex z is supported wherever the underlying powers make sense; the
evaluators return a real float for real input.
"""

import math
from typing import Dict, Optional, Union

import numpy as np
from scipy.integrate import quad
from scipy.special import loggamma

from .spectral import (NonConvergenceError, _lattice_cd, _richardson_to_zero,
                       eigen_lattice_sum)

__all__ = [
    "h_closed", "h_direct", "h_err_bound", "f_value", "f_residue",
    "f1_partial", "f2_partial", "mero_reference",
]

Number = Union[float, complex]


def _check_h_params(x: float, y: float, r: float, w: int) -> None:
    if not (x > 0.0 and y > 0.0 and r > 0.0):
        raise ValueError("scale parameters x, y, r must be positive")
    if not isinstance(w, int) or w < 0:
        raise ValueError("column offset w must be a non-negative integer")


def _as_output(value: complex, z: Number) -> Number:
    return value if isinstance(z, complex) else float(value.real)


def h_closed(z: Number, x: float, y: float, r: float, w: int) -> Number:
    """Closed form of the template sum, valid for Re z > 2 away from the
    pole line Re z = 3:

        sqrt(pi)/(2 x y^{z-1}) * Gamma((z-1)/2)/Gamma(z/2)
            * e^{-rw(z-3)/2} / (1 - e^{-r(z-3)/2})
        - 1/(2 y^z) * e^{-rw(z-2)/2} / (1 - e^{-r(z-2)/2})
    """
    _check_h_params(x, y, r, w)
    zc = complex(z)
    if zc.real <= 2.0:
        raise ValueError("closed form requires Re z > 2")
    gamma_ratio = np.exp(loggamma(0.5 * (zc - 1.0)) - loggamma(0.5 * zc))
    first = (math.sqrt(math.pi) / (2.0 * x) * y ** (1.0 - zc) * gamma_ratio
             * np.exp(-r * w * 0.5 * (zc - 3.0))
             / (1.0 - np.exp(-r * 0.5 * (zc - 3.0))))
    second = (0.5 * y ** (-zc) * np.exp(-r * w * 0.5 * (zc - 2.0))
              / (1.0 - np.exp(-r * 0.5 * (zc - 2.0))))
    return _as_output(complex(first - second), z)


def h_err_bound(z: Number, x: float, y: float, r: float, w: int) -> float:
    """Bound on |h_direct - h_closed|, depending only on Re z:

        1/(2 y^{Re z}) * e^{-rw(Re z - 2)/2} / (1 - e^{-r(Re z - 2)/2})
    """
    _check_h_params(x, y, r, w)
    s = complex(z).real
    if s <= 2.0:
        raise ValueError("error bound requires Re z > 2")
    return (0.5 * y ** (-s) * math.exp(-r * w * 0.5 * (s - 2.0))
            / (1.0 - math.exp(-r * 0.5 * (s - 2.0))))


def _quad_complex(fn, a: float, b: float, want_imag: bool) -> complex:
    re = quad(lambda t: fn(t).real, a, b, epsabs=1e-14, epsrel=1e-12)[0]
    im = quad(lambda t: fn(t).imag, a, b,
              epsabs=1e-14, epsrel=1e-12)[0] if want_imag else 0.0
    return complex(re, im)


def _j_tail(alpha: float, zc: complex) -> complex:
    """J(alpha) = integral over [alpha, inf) of (1 + u^2)^{-z/2}.

    Everything is O(1)-normalized: the finite piece is integrated as is,
    and the far piece through u -> 1/v, whose integrand v^{z-2}
    (1+v^2)^{-z/2} is bounded on (0, 1] for Re z > 2.  Windows never
    exceed length 1, so the quadrature sees no scale spread.
    """
    want_imag = bool(zc.imag)
    total = 0.0 + 0.0j
    cut = max(alpha, 1.0)
    if alpha < 1.0:
        total += _quad_complex(lambda u: (1.0 + u * u) ** (-0.5 * zc),
                               alpha, 1.0, want_imag)
    total += _quad_complex(
        lambda v: v ** (zc - 2.0) * (1.0 + v * v) ** (-0.5 * zc),
        0.0, 1.0 / cut, want_imag)
    return total


def _h_column(zc: complex, x: float, y: float, r: float, m: int,
              n_cap: int) -> complex:
    """One m column of the direct sum: n head plus integral tail.

    The head terms are evaluated directly; the tail is the normalized
    kernel integral times the column scale y^{1-z} e^{rm(3-z)/2} / x,
    computed in that factored form so no astronomically large or small
    intermediate appears.
    """
    weight = math.exp(r * m)
    base = y * y * weight
    n = np.arange(1, n_cap + 1, dtype=float)
    head_terms = weight * (x * x * n * n + base) ** (-0.5 * zc)
    head = complex(math.fsum(head_terms.real.tolist()),
                   math.fsum(head_terms.imag.tolist()))

    sqb = y * math.exp(0.5 * r * m)
    a = float(n_cap + 1)
    alpha = a * x / sqb
    tail_scale = y ** (1.0 - zc) / x * np.exp(r * m * 0.5 * (3.0 - zc))
    tail = complex(tail_scale) * _j_tail(alpha, zc)

    def f_em(t: float) -> complex:
        u = x * t / sqb
        return complex(y ** (-zc) * np.exp(r * m * 0.5 * (2.0 - zc))
                       * (1.0 + u * u) ** (-0.5 * zc))

    f_pa = f_em(a + 0.5) - f_em(a - 0.5)
    return head + tail + 0.5 * f_em(a) - f_pa / 12.0


def h_direct(z: Number, x: float, y: float, r: float, w: int, *,
             n_cap: int = 3000) -> Number:
    """The template double sum evaluated directly (no gamma identity).

    Columns are accumulated until the geometric column estimate certifies
    the remaining tail below 1e-9; requires Re z > 3 for the sum
    to converge at all.
    """
    _check_h_params(x, y, r, w)
    zc = complex(z)
    if zc.real <= 3.0:
        raise ValueError("direct summation requires Re z > 3")
    ratio = math.exp(r * 0.5 * (3.0 - zc.real))
    total = 0.0 + 0.0j
    m = w
    while m <= w + 900:
        col = _h_column(zc, x, y, r, m, n_cap)
        total += col
        if abs(col) * ratio / (1.0 - ratio) < 1e-9:
            return _as_output(total, z)
        m += 1
    raise NonConvergenceError(
        "direct template sum did not settle below 1.0e-09 "
        f"within {m - w} columns at z = {z}")


# ---------------------------------------------------------------------------
# The full-lattice sum f and its residue.

def f_value(z: float, q_value: float) -> float:
    """The lattice sum over all columns m >= 1 (every parity, no Haar
    weight); simple pole at z = 3 with residue 4 q Q^{-2} / ln(q^{-1})."""
    return eigen_lattice_sum(z, q_value, admitted=False)


def f_residue_formula(q_value: float) -> float:
    """4 q Q^{-2} / ln(q^{-1}) with Q = q/(1 - q^2)."""
    if not 0.0 < q_value < 1.0:
        raise ValueError("deformation parameter must satisfy 0 < q < 1")
    big_q = q_value / (1.0 - q_value * q_value)
    return 4.0 * q_value / (big_q * big_q * math.log(1.0 / q_value))


def f_residue(q_value: float) -> Dict[str, float]:
    """Richardson estimate of lim (z-3) f(z) with its target formula, on
    the standard schedule eps = 0.4, 0.2, 0.1, 0.05."""
    points = [(eps, eps * f_value(3.0 + eps, q_value))
              for eps in (0.4, 0.2, 0.1, 0.05)]
    rich, last_corr = _richardson_to_zero(points)
    return {
        "estimate": rich,
        "last_correction": last_corr,
        "formula": f_residue_formula(q_value),
    }


# ---------------------------------------------------------------------------
# Holomorphic remainder pieces.

def _lattice_powers(z: float, q: float, m: int, n_top: int) -> np.ndarray:
    c_m, d_m = _lattice_cd(q, m)
    n = np.arange(0, n_top + 1, dtype=float)
    return n, (0.25 * n * n + c_m - d_m * q ** (2.0 * n)) ** (-0.5 * z)


def _remainder_partial(z: float, q: float, lmax: int, second: bool) -> float:
    """Triangle partial sum n + m <= lmax shared by the two remainders.

    Columns die off geometrically in m, so the loop stops as soon as
    they stop contributing (long before the q^{-m} scale in the lattice
    coefficients could overflow); inside a column the pairwise numpy sum
    is deterministic and precise far beyond the Cauchy margins checked.
    """
    if z <= 2.0:
        raise ValueError("remainder sums are summed for z > 2")
    if lmax < 1:
        raise ValueError("cutoff must be at least 1")
    if not 0.0 < q < 1.0:
        raise ValueError("deformation parameter must satisfy 0 < q < 1")
    log_inv_q = math.log(1.0 / q)
    pieces = []
    total = 0.0
    quiet = 0
    for m in range(1, lmax + 1, 2):
        if (m + 2) * log_inv_q > 690.0:
            break
        n, powers = _lattice_powers(z, q, m, lmax - m)
        if second:
            w = (n + m + 1.0) * q ** m
        else:
            w = (1.0 - q ** (2.0 * (n + m + 1))) / (1.0 - q * q)
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

def mero_reference(which: str, z: Number, *, q_value: Optional[float] = None,
                   x: Optional[float] = None, y: Optional[float] = None,
                   r: Optional[float] = None, w: Optional[int] = None,
                   lmax: int = 64000) -> Dict[str, object]:
    """Evaluate one member of the reference family with its companions.

    * which == "h": needs x, y, r, w; returns direct, closed and the
      certified bound on their difference.
    * which == "f": needs q_value; returns the value and, exactly at the
      pole approach, the residue formula for comparison.
    * which in {"f1", "f2"}: needs q_value; returns the triangle partial
      sum at ``lmax`` together with the half-cutoff value so Cauchy
      behavior is visible in one call.
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
            "value": f_value(float(z), q_value),
            "residue_formula": f_residue_formula(q_value),
        }
    if which in ("f1", "f2"):
        if q_value is None:
            raise ValueError("remainder sums need q_value")
        fn = f1_partial if which == "f1" else f2_partial
        return {
            "which": which, "z": z, "q": q_value, "lmax": lmax,
            "partial": fn(float(z), q_value, lmax),
            "partial_half": fn(float(z), q_value, lmax // 2),
        }
    raise ValueError(f"unknown reference member {which!r}; "
                     "choose from h, f, f1, f2")
