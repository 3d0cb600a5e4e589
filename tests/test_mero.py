"""Meromorphic reference family behind the residue calculus.

Two independent routes onto the template double sum -- direct column
summation versus the gamma-identity closed form -- must agree within the
printed error bound on a grid across the first holomorphic strip past
the z = 3 pole, for both deformation profiles the calculus actually
uses.  The full-lattice sum must reproduce its residue formula through
the pole-approach extrapolation, and the two holomorphic remainder
pieces must be Cauchy in the triangle cutoff.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suq2.mero import (
    f1_partial,
    f2_partial,
    f_residue,
    f_residue_formula,
    f_value,
    h_closed,
    h_direct,
    h_err_bound,
    mero_reference,
)
from suq2.mero import _h_column
from suq2.spectral import NonConvergenceError


def template_profile(q, w):
    """The (x, y, r, w) instantiation carrying the lattice at this q."""
    big_q = q / (1.0 - q * q)
    return {
        "x": 0.5,
        "y": big_q / math.sqrt(q),
        "r": math.log(1.0 / q),
        "w": w,
    }


PROFILES = {0.5: template_profile(0.5, 3), 0.3: template_profile(0.3, 2)}


# ---------------------------------------------------------------------------
# Template identity: direct sum vs closed form.

@pytest.mark.parametrize("q", [0.5, 0.3])
def test_direct_sum_matches_closed_form_within_bound(q):
    p = PROFILES[q]
    for z in np.linspace(3.2, 4.0, 20):
        direct = h_direct(float(z), **p)
        closed = h_closed(float(z), **p)
        bound = h_err_bound(float(z), **p)
        assert abs(direct - closed) <= bound, (
            f"z={z}: |{direct} - {closed}| > {bound}")


@given(
    z=st.floats(min_value=3.05, max_value=5.0),
    w=st.integers(min_value=3, max_value=6),
)
@settings(max_examples=40, deadline=None)
def test_closed_form_telescopes_by_column_shift(z, w):
    """h(.., w) - h(.., w+1) is the single column at m = w.

    The shift kills the pole factor, so this probes the closed form's
    m-geometric structure independently of the full double sum.  The
    residual Poisson-type correction dies super-exponentially in w and
    is below float noise from w = 3 on, where this asserts near
    equality; the small-w case is covered by the bound check below.
    """
    p = PROFILES[0.5]
    lhs = (h_closed(z, p["x"], p["y"], p["r"], w)
           - h_closed(z, p["x"], p["y"], p["r"], w + 1))
    col = _h_column(z, p["x"], p["y"], p["r"], w)
    assert abs(lhs - col) < 5e-9 * (1.0 + abs(lhs) + abs(col))


def test_column_shift_discrepancy_stays_within_certified_bounds():
    """At w = 0 the closed form really does deviate from the sum (the
    holomorphic remainder the bound certifies), yet the deviation of the
    telescoped difference never exceeds the two bounds combined."""
    p = PROFILES[0.5]
    for z in (3.3, 4.0, 4.7):
        lhs = (h_closed(z, p["x"], p["y"], p["r"], 0)
               - h_closed(z, p["x"], p["y"], p["r"], 1))
        col = _h_column(z, p["x"], p["y"], p["r"], 0)
        gap = abs(lhs - col)
        cap = (h_err_bound(z, p["x"], p["y"], p["r"], 0)
               + h_err_bound(z, p["x"], p["y"], p["r"], 1))
        assert 0.0 < gap <= cap


def test_closed_form_blows_up_at_pole_approach():
    p = PROFILES[0.5]
    values = [abs(h_closed(3.0 + eps, **p)) for eps in (0.4, 0.1, 0.01)]
    assert values[0] < values[1] < values[2]
    assert values[2] > 50.0


def test_template_parameter_validation():
    p = PROFILES[0.5]
    with pytest.raises(ValueError):
        h_closed(2.0, **p)
    with pytest.raises(ValueError):
        h_err_bound(1.5, **p)
    with pytest.raises(ValueError):
        h_direct(3.0, **p)  # direct route needs Re z strictly above 3
    with pytest.raises(ValueError):
        h_closed(3.5, -0.5, p["y"], p["r"], 3)
    with pytest.raises(ValueError):
        h_closed(3.5, p["x"], p["y"], 0.0, 3)
    with pytest.raises(ValueError):
        h_closed(3.5, p["x"], p["y"], p["r"], -1)
    with pytest.raises(ValueError):
        h_closed(3.5, p["x"], p["y"], p["r"], 1.5)
    # Any integral column offset is accepted, numpy integers included.
    args = (3.5, p["x"], p["y"], p["r"])
    for fn in (h_closed, h_err_bound, h_direct):
        assert fn(*args, np.int64(2)) == fn(*args, 2)


@pytest.mark.parametrize("q", [0.5, 0.3])
def test_closed_form_rejects_the_pole(q):
    # 1 - e^{-r(z-3)/2} vanishes at z = 3: a ValueError naming the pole,
    # not a bare ZeroDivisionError from inside the formula.
    with pytest.raises(ValueError, match="pole at z = 3"):
        h_closed(3.0, **PROFILES[q])
    assert math.isfinite(h_closed(math.nextafter(3.0, 4.0), **PROFILES[q]))


def test_direct_sum_reports_nonconvergence_near_pole():
    p = PROFILES[0.5]
    with pytest.raises(NonConvergenceError):
        h_direct(3.0008, **p)


@pytest.mark.parametrize("q", [0.3, 0.1, 0.01])
def test_direct_sum_near_pole_at_small_q(q):
    # The columns needed this close to the pole reach r*m beyond 700; a
    # column head that formed e^{rm} overflowed there.
    p = template_profile(q, 2)
    direct = h_direct(3.05, **p)
    assert abs(direct - h_closed(3.05, **p)) <= h_err_bound(3.05, **p)


def test_direct_sum_reports_nonconvergence_where_the_ratio_rounds_to_one():
    # At q = 0.99 the column ratio e^{r(3-z)/2} is exactly 1.0 just above
    # z = 3, so the geometric tail estimate has no finite value.
    p = template_profile(0.99, 2)
    with pytest.raises(NonConvergenceError):
        h_direct(math.nextafter(3.0, 4.0), **p)


@pytest.mark.parametrize("q, z", [(0.8, 3.2), (0.5, 3.05)])
def test_direct_sum_runs_as_many_columns_as_it_needs(q, z):
    # These take about 1040 and 1480 columns to settle, more than a fixed
    # cap of 901 columns allowed.
    p = template_profile(q, 2)
    direct = h_direct(z, **p)
    assert abs(direct - h_closed(z, **p)) <= h_err_bound(z, **p)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_z_rejected(bad):
    # A bare "z <= 2" guard is False for NaN and lets it into the sums.
    p = PROFILES[0.5]
    calls = [
        lambda: h_closed(bad, **p),
        lambda: h_err_bound(bad, **p),
        lambda: h_direct(bad, **p),
        lambda: f1_partial(bad, 0.5, 100),
        lambda: f2_partial(bad, 0.5, 100),
        lambda: mero_reference("h", bad, **p),
        lambda: mero_reference("f1", bad, q_value=0.5, lmax=20),
        lambda: mero_reference("f2", bad, q_value=0.5, lmax=20),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_complex_z_rejected():
    p = PROFILES[0.5]
    z = 3.6 + 0.7j
    for call in (lambda: h_closed(z, **p), lambda: h_err_bound(z, **p),
                 lambda: h_direct(z, **p), lambda: f1_partial(z, 0.5, 100),
                 lambda: mero_reference("f", z, q_value=0.5)):
        with pytest.raises(TypeError):
            call()


# ---------------------------------------------------------------------------
# Full-lattice sum and its residue at z = 3.

def test_full_lattice_sum_grows_toward_pole():
    vals = [f_value(z, 0.5) for z in (4.0, 3.2, 3.05)]
    assert 0.0 < vals[0] < vals[1] < vals[2]
    with pytest.raises(ValueError):
        f_value(3.0, 0.5)


def test_residue_formula_reference_values():
    # 4 q / (Q^2 ln(1/q)) with Q = q/(1-q^2), worked by hand.
    assert abs(f_residue_formula(0.5) - 4.5 / math.log(2.0)) < 1e-12
    assert abs(f_residue_formula(0.5) - 6.49213) < 1e-5
    assert abs(f_residue_formula(0.3) - 9.17075) < 1e-5
    with pytest.raises(ValueError):
        f_residue_formula(1.0)


@pytest.mark.parametrize("q", [0.5, 0.3])
def test_extrapolated_residue_matches_formula(q):
    report = f_residue(q)
    rel = abs(report["estimate"] - report["formula"]) / report["formula"]
    assert rel < 0.01
    # the pinned schedule actually lands much closer than the 1% gate
    assert rel < 1e-3


@pytest.mark.parametrize("q", [0.001, 0.002, 0.003])
def test_extrapolated_residue_matches_formula_at_small_q(q):
    # Here the scale c_m of the directly summed columns reaches 1e12, so
    # nearly all of a column lies in its integral tail; a tail quadrature
    # that gives up there misses the formula by several percent.
    report = f_residue(q)
    rel = abs(report["estimate"] - report["formula"]) / report["formula"]
    assert rel < 0.01


@pytest.mark.parametrize("q", [1e-4, 3e-5, 1e-5])
def test_extrapolated_residue_matches_formula_at_tiny_q(q):
    # The columns' scale c_m reaches 1e20 here: their tails, now in closed
    # form, once came from a quadrature that warned and missed the formula
    # by 9.5-15%.
    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        report = f_residue(q)
    rel = abs(report["estimate"] - report["formula"]) / report["formula"]
    assert rel < 1e-3


# ---------------------------------------------------------------------------
# Holomorphic remainder pieces: Cauchy in the triangle cutoff.

@pytest.mark.parametrize("q", [0.5, 0.3])
@pytest.mark.parametrize("partial", [f1_partial, f2_partial])
def test_remainder_partial_sums_are_cauchy(q, partial):
    sums = [partial(4.0, q, lmax) for lmax in (32000, 64000, 128000)]
    assert sums[0] < sums[1] < sums[2]  # positive terms only
    for lo, hi in zip(sums, sums[1:]):
        assert hi - lo < 1e-8


def _ref_remainder_partial(z, q, lmax, second):
    """The triangle partial sum with every power of q formed per column:
    q^{2n} and q^{2(n+m+1)} as numpy powers over each column's n."""
    from suq2.spectral import _lattice_cd

    pieces = []
    total = 0.0
    quiet = 0
    for m in range(1, lmax + 1, 2):
        if (m + 2) * math.log(1.0 / q) > 690.0:
            break
        n = np.arange(0, lmax - m + 1, dtype=float)
        c_m, d_m = _lattice_cd(q, m)
        powers = (0.25 * n * n + c_m - d_m * q ** (2.0 * n)) ** (-0.5 * z)
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


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.8, 0.95, 0.99])
def test_remainder_partials_match_per_column_powers(q):
    # One q^{2k} table per call gives every column the same powers, bit
    # for bit, as the column's own numpy powers.
    for z in (2.1, 3.05, 4.0, 6.0):
        for lmax in (1, 2, 3, 10, 101, 2000):
            assert f1_partial(z, q, lmax) == _ref_remainder_partial(
                z, q, lmax, False)
            assert f2_partial(z, q, lmax) == _ref_remainder_partial(
                z, q, lmax, True)


def test_remainder_partial_validation():
    with pytest.raises(ValueError):
        f1_partial(2.0, 0.5, 100)
    with pytest.raises(ValueError):
        f2_partial(4.0, 0.5, 0)
    with pytest.raises(ValueError):
        f1_partial(4.0, 1.2, 100)


# ---------------------------------------------------------------------------
# Bundled entry point.

def test_reference_bundle_template():
    p = PROFILES[0.5]
    bundle = mero_reference("h", 3.5, **p)
    assert bundle["which"] == "h"
    assert abs(bundle["direct"] - bundle["closed"]) <= bundle["err_bound"]
    with pytest.raises(ValueError):
        mero_reference("h", 3.5, x=0.5, y=1.0)  # r, w missing


@pytest.mark.parametrize("which", ["f1", "f2"])
def test_reference_bundle_remainders_need_a_half_cutoff(which):
    # lmax = 1 is a valid cutoff, but its half cutoff lmax // 2 = 0 is not;
    # the error names the half cutoff, which the caller never passed.
    for lmax in (1, 0, -4):
        with pytest.raises(ValueError, match="half cutoff"):
            mero_reference(which, 4.0, q_value=0.5, lmax=lmax)
    bundle = mero_reference(which, 4.0, q_value=0.5, lmax=2)
    assert bundle["partial"] == (f1_partial if which == "f1"
                                 else f2_partial)(4.0, 0.5, 2)
    assert 0.0 < bundle["partial_half"] < bundle["partial"]


def test_reference_bundle_lattice_and_remainders():
    fb = mero_reference("f", 3.5, q_value=0.5)
    assert fb["value"] > 0.0
    assert abs(fb["residue_formula"] - f_residue_formula(0.5)) == 0.0
    for which in ("f1", "f2"):
        rb = mero_reference(which, 4.0, q_value=0.5)
        assert rb["lmax"] == 64000
        assert 0.0 < rb["partial"] - rb["partial_half"] < 1e-8
    with pytest.raises(ValueError):
        mero_reference("f", 3.5)
    with pytest.raises(ValueError):
        mero_reference("f3", 3.5, q_value=0.5)
