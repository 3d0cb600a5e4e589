"""Spectral-side checks: eigenvalue closed forms, truncated operators,
trace scans, certified tails and residue extraction.

The eigendata claims are verified twice -- closed forms against dense
diagonalization of the assembled sector matrices -- and the trace sums
are verified across three independent routes: the plain sector scan, the
diagonalized 2x2 pairing route, and the cutoff-free lattice evaluators.
Certified tail bounds are checked to actually dominate measured tails.
"""

import hashlib
import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from suq2.algebra import AlgebraElement, gens, weight_decompose
from suq2.functionals import gns_inner
from suq2.peterweyl import pw_orthobasis
from suq2.sampling import random_element
from suq2.scalars import Scalar, big_q
from suq2.spectral import (OMEGA_TAGS, NonConvergenceError, SpectralGrid,
                           c_ratio, clebsch_minus, clebsch_plus,
                           commutator_growth,
                           dirac_matrix, dirac_sector_matrix,
                           eigen_lattice_sum, jset, lambda_eigen,
                           mult_op_matrix, residue_extract,
                           sector_spectrum_closed, tail_bound,
                           upsilon_cstarc_lattice,
                           upsilon_identity_pairblocks, upsilon_scan,
                           upsilon_value)

A, B, C, D = gens()

Q_GRID = (0.3, 0.5, 0.8)


# ---------------------------------------------------------------------------
# Closed-form eigendata.

def test_lambda_frozen_values():
    # lambda(l=1/2, n=0) = [1]^2 = 1 at every q
    for q in (0.3, 0.5, 0.8, 0.95):
        assert lambda_eigen(1, 0, q) == 1.0
    # sector l=1 interior mode at q=0.5: sqrt(1/4 + q [3/2+1/2][3/2-1/2])
    assert abs(lambda_eigen(2, 1, 0.5) - math.sqrt(1.5)) < 1e-15
    assert abs(lambda_eigen(2, 1, 0.5) - 1.224744871391589) < 1e-12
    # the partner mode n = -1 of the same sector
    assert abs(lambda_eigen(2, -1, 0.5) ** 2 - 5.25) < 1e-12


def test_lambda_edge_modes_exact():
    for l2 in range(0, 9):
        for q in (0.3, 0.5, 0.8):
            assert lambda_eigen(l2, l2 + 1, q) == 0.5 * (l2 + 1)
            assert lambda_eigen(l2, -(l2 + 1), q) == 0.5 * (l2 + 1)


def test_lambda_validation():
    with pytest.raises(ValueError):
        lambda_eigen(-1, 0, 0.5)
    with pytest.raises(ValueError):
        lambda_eigen(2, 4, 0.5)
    with pytest.raises(ValueError):
        lambda_eigen(2, 1, 1.0)
    with pytest.raises(ValueError):
        lambda_eigen(2, 1, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=14), st.data(),
       st.sampled_from((0.2, 0.45, 0.7, 0.9)))
def test_lambda_lower_bound(l2, data, q):
    n = data.draw(st.integers(min_value=-(l2 + 1), max_value=l2 + 1))
    lam = lambda_eigen(l2, n, q)
    # the bracket product is non-negative on the admitted window
    assert lam >= 0.5 * abs(n) - 1e-12


def test_jset_values_and_parity():
    assert list(jset(1)) == [0]
    assert list(jset(2)) == [1]
    assert list(jset(3)) == [0, 2]
    assert list(jset(4)) == [1, 3]
    assert list(jset(5)) == [0, 2, 4]
    for l2 in range(1, 20):
        for n in jset(l2):
            assert (l2 - n) % 2 == 1  # the companion label m is odd
            assert 0 <= n < l2


# ---------------------------------------------------------------------------
# Sector matrices against closed forms.

def test_sector_matrix_symmetric():
    for l2 in range(0, 7):
        m = dirac_sector_matrix(l2, 0.5)
        assert np.array_equal(m, m.T)


@pytest.mark.parametrize("q", Q_GRID)
def test_sector_spectrum_matches_closed(q):
    for l2 in range(0, 7):
        ev = np.linalg.eigvalsh(dirac_sector_matrix(l2, q))
        closed = np.array(sector_spectrum_closed(l2, q))
        assert np.max(np.abs(np.sort(ev) - closed)) < 1e-9


def test_sector_spectrum_spin_one_example():
    # l = 1, q = 0.5: edge -(l + 1/2) twice, pairs +-lambda(1, +-1)
    spec = sector_spectrum_closed(2, 0.5)
    expect = sorted([-1.5, -1.5, math.sqrt(1.5), -math.sqrt(1.5),
                     math.sqrt(5.25), -math.sqrt(5.25)])
    assert np.max(np.abs(np.array(spec) - np.array(expect))) < 1e-12
    assert any(abs(v + 1.5) < 1e-12 for v in spec)
    assert any(abs(v - 1.224745) < 1e-6 for v in spec)


@pytest.mark.parametrize("q", Q_GRID)
def test_eigenvector_component_ratios(q):
    """The closed component ratios solve the assembled eigen-equations.

    Checking M w = (+-lambda) w directly keeps the test meaningful even
    where eigenvalues of different pairings collide (at l2 = 1 the edge
    value -1 coincides with -lambda(l, 0) for every q)."""
    for l2 in range(1, 6):
        mat = dirac_sector_matrix(l2, q)
        for j2 in range(-l2 + 2, l2 + 1, 2):
            up = (j2 + l2) // 2
            down = (l2 + 1) + (j2 - 2 + l2) // 2
            lam = lambda_eigen(l2, j2 - 1, q)
            for sign in (1, -1):
                w = np.zeros(2 * (l2 + 1))
                w[up] = 1.0  # upper slot positive by convention
                w[down] = c_ratio(l2, j2, sign, q)
                resid = mat @ w - sign * lam * w
                assert np.max(np.abs(resid)) < 1e-8 * np.max(np.abs(w))


def test_c_ratio_validation():
    with pytest.raises(ValueError):
        c_ratio(2, 1, 1, 0.5)      # wrong parity column
    with pytest.raises(ValueError):
        c_ratio(2, -2, 1, 0.5)     # unpaired edge column
    with pytest.raises(ValueError):
        c_ratio(2, 2, 0, 0.5)      # sign must be +-1


def test_dirac_matrix_multiplicities():
    grid = SpectralGrid(0.5, 3)
    mat, labels = dirac_matrix(grid)
    assert mat.shape[0] == len(labels) == sum(
        2 * (l2 + 1) * (l2 + 1) for l2 in range(0, 4))
    # the full matrix is block diagonal: eigenvalues are the sector
    # spectra with multiplicity l2 + 1
    ev = np.sort(np.linalg.eigvalsh(mat))
    expect = np.sort(np.concatenate(
        [sector_spectrum_closed(l2, 0.5)
         for l2 in range(0, 4) for _ in range(l2 + 1)]))
    assert np.max(np.abs(ev - expect)) < 1e-9


# ---------------------------------------------------------------------------
# Truncated multiplication operators.

def test_mult_op_unit_is_identity():
    grid = SpectralGrid(0.5, 3)
    mm = mult_op_matrix(AlgebraElement.unit(), grid)
    assert not mm.flagged
    assert np.array_equal(mm.matrix, np.eye(len(mm.labels)))


def test_mult_op_c_matches_ladder_closed_forms():
    """Every unflagged column of the c operator is exactly the two-term
    ladder with the conventional coefficients."""
    q = 0.5
    grid = SpectralGrid(q, 5)
    mm = mult_op_matrix(C, grid)
    pos = {lab: k for k, lab in enumerate(mm.labels)}
    flagged = set(mm.flagged)
    checked = 0
    for (l2, i2, j2), col in pos.items():
        if l2 > 4:
            assert (l2, i2, j2) in flagged
            continue
        assert (l2, i2, j2) not in flagged
        colvec = mm.matrix[:, col]
        support = {mm.labels[r] for r in np.nonzero(np.abs(colvec) > 1e-14)[0]}
        expect = set()
        vp = clebsch_plus(l2, i2, j2, q)
        if abs(vp) > 1e-14:
            expect.add((l2 + 1, i2 + 1, j2 - 1))
            assert abs(mm.entry((l2 + 1, i2 + 1, j2 - 1),
                                (l2, i2, j2)) - vp) < 1e-10
        rm = (l2 - 1, i2 + 1, j2 - 1)
        if rm in pos:
            vm = clebsch_minus(l2, i2, j2, q)
            if abs(vm) > 1e-14:
                expect.add(rm)
                assert abs(mm.entry(rm, (l2, i2, j2)) - vm) < 1e-10
        assert support == expect
        checked += 1
    assert checked == sum((l2 + 1) ** 2 for l2 in range(0, 5))


def _ref_mult_op_matrices(x, l2max, qs):
    """``mult_op_matrix`` at each q by residual projection: each block
    vector is projected against what the earlier ones left over, and a
    column is flagged when anything is left at the end.  The projections
    are exact and independent of q, so they are formed once."""
    blocks = pw_orthobasis(l2max)
    vectors = sorted((v for blk in blocks.values() for v in blk),
                     key=lambda v: (v.l2, v.i2, v.j2))
    labels = [(v.l2, v.i2, v.j2) for v in vectors]
    pos = {lab: k for k, lab in enumerate(labels)}
    entries, flagged = [], []
    for cidx, vcol in enumerate(vectors):
        leaked = False
        for (lw2, rw2), comp in weight_decompose(x * vcol.monic).items():
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
                entries.append((pos[(v.l2, v.i2, v.j2)], cidx, mu))
            if not residual.is_zero():
                leaked = True
        if leaked:
            flagged.append(labels[cidx])
    out = []
    for q in qs:
        resc = [v.rescale_sq.eval_at_q(q) for v in vectors]
        mat = np.zeros((len(vectors), len(vectors)))
        for ridx, cidx, mu in entries:
            mat[ridx, cidx] = (mu.eval_at_q(q)
                               * math.sqrt(resc[cidx] / resc[ridx]))
        out.append((mat, labels, flagged))
    return out


def _mult_op_elements():
    """The unit, the generators, their 16 products and seeded elements
    with fractional coefficients."""
    named = [("1", AlgebraElement.unit())] + list(zip("abcd", (A, B, C, D)))
    named += [(f"{f}{g}", x * y) for (f, x), (g, y)
              in itertools.product(named[1:], repeat=2)]
    rng = random.Random(23)
    drawn = [random_element(rng, max_degree=2, max_terms=3)
             for _ in range(4)]
    assert any(isinstance(k, Fraction) for x in drawn
               for c in x.terms.values() for _, k in c.num_terms)
    return named + [(f"r{k}", x) for k, x in enumerate(drawn)]


@pytest.mark.parametrize("l2max", [1, 2, 3, 4])
def test_mult_op_projection_matches_residual_projection(l2max):
    elements = _mult_op_elements()
    for name, x in elements:
        refs = _ref_mult_op_matrices(x, l2max, Q_GRID)
        for q, (mat, labels, flagged) in zip(Q_GRID, refs):
            mm = mult_op_matrix(x, SpectralGrid(q, l2max))
            assert np.array_equal(mm.matrix, mat), (name, q)
            assert mm.labels == labels and mm.flagged == flagged, (name, q)


def test_mult_op_generator_matrices_golden_digest():
    # sha256 of the a, b, c and d matrices at 2l <= 3, q = 0.5, as little-
    # endian float64, computed by residual projection over Fraction
    # evaluation.  Every float step is correctly rounded, so the digest
    # holds on every host.
    h = hashlib.sha256()
    for x in (A, B, C, D):
        h.update(mult_op_matrix(x, SpectralGrid(0.5, 3)).matrix
                 .astype("<f8").tobytes())
    assert h.hexdigest() == ("0cb5608caedacc58d6292302139d3fbb"
                             "1a659bd6d8e9d28e40309bb5a7064724")


def test_mult_op_forms_no_residual(monkeypatch):
    # Leakage and the row range are read off the ladder form, so no
    # element is subtracted; the flags still come out.
    x_ab = A * B

    def no_sub(self, other):
        raise AssertionError("mult_op_matrix subtracted an element")

    monkeypatch.setattr(AlgebraElement, "__sub__", no_sub)
    for x in (A, B, C, D, x_ab):
        mm = mult_op_matrix(x, SpectralGrid(0.5, 3))
        assert mm.flagged
        assert all(l2 + x.degree > 3 for l2, _, _ in mm.flagged)


def test_cstarc_diagonal_matches_eps_display_exactly():
    """The (c* c) diagonal equals q^{2l} (q^{2j} C1 + q^{2i} C2) with the
    epsilon-ratio coefficients, as an exact identity in the coefficient
    field."""
    bigq = big_q()
    one = Scalar.one()

    def eps(t2: int) -> Scalar:
        return bigq * (one - Scalar.q_pow(t2))

    cstar = C.star()
    for block in pw_orthobasis(4).values():
        for v in block:
            l2, i2, j2 = v.l2, v.i2, v.j2
            image = C * v.monic
            lhs = gns_inner(image, image) / v.norm_sq
            c1 = (eps(l2 + i2 + 2) * eps(l2 - j2 + 2)
                  / (eps(2 * l2 + 2) * eps(2 * l2 + 4)))
            rhs = Scalar.q_pow(j2) * c1
            if l2 > 0:
                c2 = (eps(l2 - i2) * eps(l2 + j2)
                      / (eps(2 * l2) * eps(2 * l2 + 2)))
                rhs = rhs + Scalar.q_pow(i2) * c2
            rhs = Scalar.q_pow(l2) * rhs
            assert lhs == rhs
    # and c* itself is the expected multiple of b
    assert cstar == -B.scale(Scalar.q_pow(-1))


# ---------------------------------------------------------------------------
# Trace scans.

def _scan_term_list(omega, z, q, lmax):
    """The terms of a prepared scan at z, as one list in scan order."""
    from suq2.spectral import _scan_prepare, _scan_terms

    return [t for block in _scan_terms(_scan_prepare(omega, q, lmax), z)
            for t in block.tolist()]


def test_scan_closed_i_sums_match_explicit_loops():
    """The O(1) per-(n, l2) scan terms agree with brute-force sums over
    the right index i and the two ladder columns."""
    z = 3.3
    for q in Q_GRID:
        qc = q / (1.0 - q * q)

        def eps(t2):
            return qc * (1.0 - q ** t2)

        for omega in ("deltaL2-e11", "cstarc"):
            lmax = 9
            terms = iter(_scan_term_list(omega, z, q, lmax))
            for n in range(0, lmax):
                for l2 in range(n + 1, lmax + 1, 2):
                    lam = lambda_eigen(l2, n, q)
                    x = (1.0 + lam * lam) ** (-0.5 * z)
                    if omega == "deltaL2-e11":
                        brute = math.fsum(
                            q ** (-i2) * q ** n * x
                            for i2 in range(-l2, l2 + 1, 2))
                    else:
                        pieces = []
                        for i2 in range(-l2, l2 + 1, 2):
                            for j2 in (n + 1, n - 1):
                                c1 = (eps(l2 + i2 + 2) * eps(l2 - j2 + 2)
                                      / (eps(2 * l2 + 2) * eps(2 * l2 + 4)))
                                c2 = (eps(l2 - i2) * eps(l2 + j2)
                                      / (eps(2 * l2) * eps(2 * l2 + 2)))
                                pieces.append(
                                    q ** (-i2 - n) * x
                                    * (q ** (l2 + n + 1) * c1
                                       + q ** (l2 + i2) * c2))
                        brute = math.fsum(pieces)
                    assert abs(next(terms) - brute) <= 1e-13 * max(1.0, brute)


def test_upsilon_gamma_vanishes_identically():
    for z in (2.5, 3.0, 4.0, 6.0):
        for lmax in (1, 5, 40):
            assert upsilon_value("gamma", z, 0.5, lmax) == 0.0


def test_upsilon_validation():
    with pytest.raises(ValueError):
        upsilon_value("identity", 2.0, 0.5, 10)
    with pytest.raises(ValueError):
        upsilon_value("identity", 4.0, 0.5, 0)
    with pytest.raises(ValueError):
        upsilon_value("nope", 4.0, 0.5, 10)
    with pytest.raises(ValueError):
        eigen_lattice_sum(3.0, 0.5)
    with pytest.raises(ValueError):
        upsilon_cstarc_lattice(2.0, 0.5)


def test_upsilon_identity_monotone():
    vals = [upsilon_value("identity", 4.0, 0.5, lmax)
            for lmax in (5, 10, 20, 40, 80)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    zs = [upsilon_value("identity", z, 0.5, 40) for z in (3.2, 3.6, 4.0, 5.0)]
    assert all(b < a for a, b in zip(zs, zs[1:]))


@pytest.mark.parametrize("q", (0.3, 0.5))
def test_identity_scan_agrees_with_pair_blocks(q):
    direct = upsilon_value("identity", 4.0, q, 40)
    paired = upsilon_identity_pairblocks(4.0, q, 40)
    assert abs(direct - paired) <= 1e-12 * max(1.0, abs(direct))


def test_upsilon_scan_rows():
    rows = upsilon_scan("identity", 0.5, [3.5, 4.0], 30)
    assert [r["z"] for r in rows] == [3.5, 4.0]
    for r in rows:
        assert set(r) == {"omega_tag", "q", "z", "lmax", "partial_sum",
                          "tail_bound"}
        assert r["omega_tag"] == "identity"
        assert r["partial_sum"] > 0.0
        assert 0.0 < r["tail_bound"] < math.inf


# ---------------------------------------------------------------------------
# Certified tails and the cutoff-free evaluators.

@pytest.mark.parametrize("omega", ("identity", "cstarc", "deltaL2-e11"))
def test_tail_bound_dominates_measured_tail(omega):
    q = 0.5
    for z in (3.2, 4.0):
        zz = z + 0.01 if omega == "deltaL2-e11" else z
        lo = upsilon_value(omega, zz, q, 400)
        hi = upsilon_value(omega, zz, q, 1000)
        tb = tail_bound(omega, 400, zz, q)
        assert 0.0 < hi - lo <= tb


def test_tail_bound_abscissas():
    assert tail_bound("gamma", 10, 2.1, 0.5) == 0.0
    assert tail_bound("identity", 10, 2.0, 0.5) == math.inf
    assert tail_bound("deltaL2-e11", 10, 3.0, 0.5) == math.inf
    assert tail_bound("deltaL2-e11", 10, 3.2, 0.5) < math.inf


@pytest.mark.parametrize("q", Q_GRID)
def test_cstarc_lattice_within_certified_window(q):
    for z in (3.05, 4.0):
        lat = upsilon_cstarc_lattice(z, q)
        direct = upsilon_value("cstarc", z, q, 400)
        tb = tail_bound("cstarc", 400, z, q)
        assert 0.0 <= lat - direct <= tb
    # far from the abscissa the cutoff scan is essentially converged
    lat = upsilon_cstarc_lattice(6.0, q)
    direct = upsilon_value("cstarc", 6.0, q, 400)
    assert abs(lat - direct) <= 1e-7 * direct


def test_pole_evaluator_within_certified_window():
    q = 0.5
    pref = 1.0 / (1.0 - q * q)
    for z in (3.5, 4.0):
        lat = pref * eigen_lattice_sum(z, q)
        direct = upsilon_value("deltaL2-e11", z, q, 400)
        tb = tail_bound("deltaL2-e11", 400, z, q)
        assert 0.0 <= lat - direct <= tb


@pytest.mark.parametrize("admitted", (True, False))
def test_lattice_sum_quadrature_never_gives_up(admitted):
    # Down to q = 0.001 the direct columns' scale c_m reaches 1e12 and
    # their integral tails hold nearly all of each column.
    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for q in np.geomspace(0.001, 0.3, 10).tolist():
            for z in (3.05, 4.0, 6.0):
                eigen_lattice_sum(z, q, admitted=admitted)


@pytest.mark.parametrize("q, z", [(0.02, 6.0), (0.3, 3.05)])
def test_direct_lattice_columns_match_high_precision_sums(q, z,
                                                        monkeypatch):
    """Each directly summed column of ``eigen_lattice_sum`` against its
    sum to 30 digits, measured as its share q^-m (column - sum) of the
    lattice sum.  At q = 0.02 the column scale c_m reaches 6e6, so most
    of the last column lies in its integral tail."""
    mp = pytest.importorskip("mpmath")
    from suq2 import spectral

    columns = {}
    column = spectral._lattice_column

    def recorded(z, q, m, *args):
        columns[m] = column(z, q, m, *args)
        return columns[m]

    monkeypatch.setattr(spectral, "_lattice_column", recorded)
    total = eigen_lattice_sum(z, q)
    assert sorted(columns) == list(range(1, spectral._M_DIRECT + 1, 2))
    with mp.workdps(30):
        qm, zm = mp.mpf(q), mp.mpf(z)
        big_q2 = (qm / (1 - qm * qm)) ** 2
        for m, got in columns.items():
            c_m = big_q2 * qm ** (-(m + 1)) + 1 - big_q2
            d_m = big_q2 * (1 - qm ** (m + 1))
            want = mp.fsum(
                (1 - qm ** (2 * (n + m + 1)))
                * (mp.mpf(n * n) / 4 + c_m - d_m * qm ** (2 * n)) ** (-zm / 2)
                for n in range(0, spectral._N_CUT + 1))
            # Beyond the head every q^{2n} is below 1e-4000.
            want += mp.nsum(lambda n: (n * n / 4 + c_m) ** (-zm / 2),
                            [spectral._N_CUT + 1, mp.inf],
                            method="euler-maclaurin")
            assert abs(float(qm ** (-m) * (got - want))) <= 1e-14 * total


@pytest.mark.parametrize("q", (0.9, 0.97, 0.99))
@pytest.mark.parametrize("admitted", (True, False))
def test_lattice_sum_near_one_matches_uncapped_model(q, admitted,
                                                     monkeypatch):
    """Near q = 1 the modelled columns' damped differences decay like
    q^{2n}; against a model that runs them to its own stop rule, with no
    cap on their number, the lattice sum holds to 1e-12."""
    from suq2 import spectral

    def uncapped(z, q, m, c_m, d_m, haar_weight):
        model = (spectral._gamma_half_ratio(z) * c_m ** (0.5 * (1.0 - z))
                 + 0.5 * c_m ** (-0.5 * z))
        diffs = []
        for n in itertools.count():
            base = 0.25 * n * n + c_m
            w = 1.0 - q ** (2.0 * (n + m + 1)) if haar_weight else 1.0
            d = (w * (base - d_m * q ** (2.0 * n)) ** (-0.5 * z)
                 - base ** (-0.5 * z))
            diffs.append(d)
            if abs(d) < 1e-22 * max(1.0, model):
                return model + math.fsum(diffs)

    zs = (3.05, 3.5)
    got = [eigen_lattice_sum(z, q, admitted=admitted) for z in zs]
    monkeypatch.setattr(spectral, "_lattice_inner_model", uncapped)
    for z, value in zip(zs, got):
        want = eigen_lattice_sum(z, q, admitted=admitted)
        assert abs(value - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# Bit identity of the table-driven scans and lattice columns.
#
# The references are the plain forms of what the power tables compute: a
# scan that evaluates one term at a time, and lattice columns that take
# numpy's power over the n array.  The column references accept the table
# argument of the helper they stand in for and ignore it.  Every
# comparison is exact: the scan terms feed an exactly rounded sum, and the
# CLI promises byte-stable output files.

def _ref_scan_terms(omega, z, q, lmax):
    q2 = q * q
    Qc = q / (1.0 - q2)
    terms = []
    if omega == "gamma":
        return terms

    def eps(t2):
        return Qc * (1.0 - q ** t2)

    for n in range(0, lmax):
        for l2 in range(n + 1, lmax + 1, 2):
            lam = lambda_eigen(l2, n, q)
            X = (1.0 + lam * lam) ** (-0.5 * z)
            s_geo = q ** (-l2) * (1.0 - q ** (2 * l2 + 2)) / (1.0 - q2)
            if omega == "identity":
                terms.append(2.0 * (l2 + 1) * X)
            elif omega in ("deltaL2-e11", "deltaL2-e22"):
                terms.append(q ** n * s_geo * X)
            else:  # cstarc
                sum_eps_up = Qc * (s_geo - (l2 + 1) * q ** (l2 + 2))
                sum_eps_down = Qc * ((l2 + 1)
                                     - (1.0 - q ** (2 * l2 + 2)) / (1.0 - q2))
                den_mid = eps(2 * l2 + 2)
                acc = 0.0
                for j2 in (n + 1, n - 1):
                    acc += (q ** (l2 + n + 1) * eps(l2 - j2 + 2)
                            / (den_mid * eps(2 * l2 + 4)) * sum_eps_up)
                    acc += (q ** l2 * eps(l2 + j2)
                            / (eps(2 * l2) * den_mid) * sum_eps_down)
                terms.append(q ** (-n) * X * acc)
    return terms


def _ref_column_powers(z, q, m, n):
    from suq2.spectral import _lattice_cd

    c_m, d_m = _lattice_cd(q, m)
    return (0.25 * n * n + c_m - d_m * q ** (2.0 * n)) ** (-0.5 * z)


def _ref_cstarc_weight(n, m, q):
    q2 = q * q
    l2 = n + m
    q_top = q ** (2.0 * l2 + 2.0)
    geo = (1.0 - q_top) / (1.0 - q2)
    eps_up = (1.0 - q ** (m + 1)) + (1.0 - q ** (m + 3))
    a_part = (eps_up * (q * geo - (l2 + 1.0) * q ** (2.0 * l2 + 3.0))
              / ((1.0 - q_top) * (1.0 - q ** (2.0 * l2 + 4.0))))
    eps_down = ((1.0 - q ** (2.0 * n + m + 1.0))
                + (1.0 - q ** (2.0 * n + m - 1.0)))
    b_part = (eps_down * q ** m * ((l2 + 1.0) - geo)
              / ((1.0 - q ** (2.0 * l2)) * (1.0 - q_top)))
    return a_part + b_part


def _ref_lattice_column(z, q, m, qt, weight, tail_weight=None):
    """``_lattice_column`` term by term: the weight of every head term with
    numpy's array powers q^k, the plain power, one ``math.fsum``, and the
    full weight on the whole tail."""
    from scipy.integrate import quad

    from suq2.spectral import _em_close, _lattice_cd

    def q_pow(k):
        return q ** k

    n = np.arange(0, 4001, dtype=float)
    head = math.fsum((weight(n, q_pow)
                      * _ref_column_powers(z, q, m, n)).tolist())
    c_m = _lattice_cd(q, m)[0]

    def f(t):
        return weight(t, q_pow) * (0.25 * t * t + c_m) ** (-0.5 * z)

    def f_inv(u):
        t = 1.0 / u
        return f(t) * t * t

    a = 4001.0
    tail_int, _ = quad(f_inv, 0.0, 1.0 / a, epsabs=1e-16, epsrel=1e-13)
    return _em_close(head + tail_int, f, a)


def test_scan_triangle_is_the_admitted_modes():
    # A scan sums the admitted modes n of jset(l2), l2 <= lmax, n outer.
    from suq2.spectral import _scan_triangle

    for lmax in range(0, 61):
        n, l2 = _scan_triangle(lmax)
        assert list(zip(n.tolist(), l2.tolist())) == sorted(
            (k, s) for s in range(lmax + 1) for k in jset(s))


@pytest.mark.parametrize("omega", ("identity", "deltaL2-e11", "deltaL2-e22",
                                   "cstarc"))
@pytest.mark.parametrize("q", (0.1, 0.3, 0.5, 0.8, 0.95))
def test_scan_terms_bit_identical_to_per_term_loop(omega, q):
    z = 3.3
    for lmax in (1, 2, 3, 9, 60, 400):
        try:
            want = _ref_scan_terms(omega, z, q, lmax)
        except OverflowError:
            with pytest.raises(OverflowError):
                _scan_term_list(omega, z, q, lmax)
            continue
        assert _scan_term_list(omega, z, q, lmax) == want


@pytest.mark.parametrize("q", (0.3, 0.5, 0.8))
def test_lattice_sums_bit_identical_to_array_powers(q, monkeypatch):
    from suq2 import spectral

    zs = (3.05, 3.4, 4.0)
    got = [(upsilon_cstarc_lattice(z, q), eigen_lattice_sum(z, q),
            eigen_lattice_sum(z, q, admitted=False)) for z in zs]
    monkeypatch.setattr(spectral, "_lattice_column", _ref_lattice_column)
    want = [(upsilon_cstarc_lattice(z, q), eigen_lattice_sum(z, q),
             eigen_lattice_sum(z, q, admitted=False)) for z in zs]
    assert got == want


@pytest.mark.parametrize("q, lmax", [(0.1, 400), (0.5, 1100)])
def test_identity_scan_overflow_still_raises(q, lmax):
    # q^{-lmax} exceeds the float range; the power tables cover exactly
    # the brackets the scan uses, so the overflow surfaces as before.
    with pytest.raises(OverflowError):
        upsilon_value("identity", 3.5, q, lmax)


@pytest.mark.parametrize("omega", OMEGA_TAGS)
@pytest.mark.parametrize("q", (0.1, 0.3, 0.5, 0.8, 0.95))
def test_upsilon_value_is_fsum_of_per_term_loop(omega, q):
    z = 3.3
    for lmax in (1, 9, 60, 400):
        try:
            want = math.fsum(_ref_scan_terms(omega, z, q, lmax))
        except OverflowError:
            with pytest.raises(OverflowError):
                upsilon_value(omega, z, q, lmax)
            continue
        assert upsilon_value(omega, z, q, lmax) == want


@pytest.mark.parametrize("omega", OMEGA_TAGS)
def test_upsilon_scan_matches_one_z_at_a_time(omega):
    q, lmax, zs = 0.5, 60, [3.2, 3.6, 4.0, 7.5]
    rows = upsilon_scan(omega, q, zs, lmax)
    assert [r["partial_sum"] for r in rows] == [
        upsilon_value(omega, z, q, lmax) for z in zs]
    assert [r["tail_bound"] for r in rows] == [
        tail_bound(omega, lmax, z, q) for z in zs]


def _record_upsilon_value(monkeypatch):
    """Replace ``upsilon_value`` by the per-term loop under ``math.fsum``
    and return the list of its calls.  Each z of a scan and of the
    identity residue must be one such call: the benchmark's tracer
    (``perfbench/tracer.py``) counts and times scans on those calls."""
    from suq2 import spectral

    calls = []

    def one_z(omega, z, q, lmax):
        calls.append((omega, z, q, lmax))
        return math.fsum(_ref_scan_terms(omega, z, q, lmax))

    monkeypatch.setattr(spectral, "upsilon_value", one_z)
    return calls


def test_upsilon_scan_is_one_upsilon_value_call_per_z(monkeypatch):
    zs = [3.2, 3.6, 4.0]
    got = upsilon_scan("cstarc", 0.5, zs, 30)
    calls = _record_upsilon_value(monkeypatch)
    assert upsilon_scan("cstarc", 0.5, zs, 30) == got
    assert calls == [("cstarc", z, 0.5, 30) for z in zs]


@pytest.mark.parametrize("q", (0.3, 0.8))
def test_identity_residue_matches_one_z_at_a_time(q, monkeypatch):
    lmax = 60
    got = residue_extract("identity", q, lmax=lmax)
    calls = _record_upsilon_value(monkeypatch)
    assert residue_extract("identity", q, lmax=lmax) == got
    assert calls == [("identity", 3.0 + eps, q, lmax)
                     for eps in got.schedule]


@pytest.mark.parametrize("q, m, exact_form", [(0.999, 1, False),
                                              (0.99, 1, True),
                                              (0.5, 1, True),
                                              (0.5, 41, True)])
def test_cstarc_column_bit_identical_to_reference(q, m, exact_form,
                                                  monkeypatch):
    """Both tails of a c*c column against the plain column, whose weight
    is restated with numpy's array powers: where the guard holds, ``quad`` never calls the full weight, and the three
    scalar weights left are the Euler-Maclaurin close's.  The tail form
    itself equals the full weight at every t of the tail, since one ulp
    of the integrand rarely reaches the column's sum."""
    from suq2 import spectral

    tail_weight = spectral._cstarc_tail_weight(m, q)
    assert (tail_weight is not None) == exact_form
    if exact_form:
        a = spectral._N_CUT + 1.0
        ts = [1.0 / u for u in np.linspace(1.0 / a, 1e-12, 5001).tolist()]
        assert [tail_weight(t) for t in ts] == [
            spectral._cstarc_weight(t, m, q, lambda k: q ** k) for t in ts]
    qt = q ** np.arange(2 * (spectral._N_CUT + spectral._M_CAP) + 5,
                        dtype=float)
    weight = spectral._cstarc_weight
    scalar_calls = []

    def counted(n, *args):
        if isinstance(n, float):
            scalar_calls.append(n)
        return weight(n, *args)

    monkeypatch.setattr(spectral, "_cstarc_weight", counted)
    for z in (3.05, 4.0):
        scalar_calls.clear()
        got = spectral._lattice_column(
            z, q, m, qt,
            lambda n, q_pow: spectral._cstarc_weight(n, m, q, q_pow),
            tail_weight)
        assert got == _ref_lattice_column(
            z, q, m, qt, lambda n, q_pow: _ref_cstarc_weight(n, m, q))
        assert (len(scalar_calls) == 3) == exact_form


def test_upsilon_scan_checks_every_argument_before_any_row(monkeypatch):
    from suq2 import spectral

    def no_scan(*args):
        raise AssertionError("a scan ran before the arguments were checked")

    monkeypatch.setattr(spectral, "_scan_prepare", no_scan)
    for call in (lambda: upsilon_scan("identity", 0.5, [3.5, 1.0], 50),
                 lambda: upsilon_scan("identity", 0.5, [], 0),
                 lambda: upsilon_scan("identity", 0.5, [3.5], 10.5),
                 lambda: upsilon_scan("identity", 1.5, [3.5], 50),
                 lambda: upsilon_scan("nope", 0.5, [3.5], 50)):
        with pytest.raises(ValueError):
            call()


def test_non_integer_cutoff_rejected():
    for call in (lambda: upsilon_value("identity", 3.5, 0.5, 10.5),
                 lambda: upsilon_scan("identity", 0.5, [3.5], 10.5),
                 lambda: residue_extract("identity", 0.5, lmax=10.5),
                 lambda: upsilon_identity_pairblocks(3.5, 0.5, 10.5),
                 lambda: tail_bound("identity", 2.5, 3.5, 0.5),
                 lambda: tail_bound("gamma", 2.5, 3.5, 0.5),
                 lambda: SpectralGrid(0.5, 2.5)):
        with pytest.raises(ValueError, match="cutoff must be a positive "
                                             "integer"):
            call()


def test_numpy_integer_cutoff_accepted():
    # Every entry point takes the integral cutoffs the scans take.
    grid = SpectralGrid(0.5, np.int64(3))
    mat, labels = dirac_matrix(grid)
    ref, ref_labels = dirac_matrix(SpectralGrid(0.5, 3))
    assert np.array_equal(mat, ref) and labels == ref_labels
    assert (tail_bound("identity", np.int64(40), 3.5, 0.5)
            == tail_bound("identity", 40, 3.5, 0.5))
    assert (upsilon_value("identity", 3.5, 0.5, np.int64(3))
            == upsilon_value("identity", 3.5, 0.5, 3))


# ---------------------------------------------------------------------------
# The exact sum behind the scans: bit for bit math.fsum, sign of zero and
# exceptions included.

def _assert_sums_like_fsum(values, blocks):
    from suq2.spectral import _exact_sum

    try:
        want = math.fsum(values)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            _exact_sum(blocks)
        return
    got = _exact_sum(blocks)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


#: Finite floats from 2^-1074 to 2^1000: integer mantissas at every
#: binary exponent, subnormals and signed zeros.
_WIDE_FLOATS = st.one_of(
    st.builds(math.ldexp, st.integers(-(2 ** 53) + 1, 2 ** 53 - 1),
              st.integers(-1074, 1000 - 53)),
    st.floats(min_value=-2.0 ** -1022, max_value=2.0 ** -1022),
    st.sampled_from((0.0, -0.0, 2.0 ** -1074, -(2.0 ** -1074))))


@st.composite
def _cancelling_blocks(draw, elements=_WIDE_FLOATS):
    """A list whose sum mostly cancels (values and their negations, some
    an ulp off) and its split into blocks at drawn cut points."""
    xs = draw(st.lists(elements, max_size=30))
    twins = draw(st.lists(st.sampled_from(xs), max_size=len(xs))
                 if xs else st.just([]))
    nudge = draw(st.lists(st.booleans(), min_size=len(twins),
                          max_size=len(twins)))
    values = draw(st.permutations(
        xs + [-(math.nextafter(t, math.inf) if bump else t)
              for t, bump in zip(twins, nudge)]))
    cuts = sorted(draw(st.lists(st.integers(0, len(values)), max_size=3)))
    blocks = [np.array(values[a:b], dtype=float)
              for a, b in zip([0] + cuts, cuts + [len(values)])]
    return values, blocks


@settings(max_examples=400, deadline=None)
@given(_cancelling_blocks())
def test_exact_sum_is_fsum(case):
    _assert_sums_like_fsum(*case)


@settings(max_examples=200, deadline=None)
@given(_cancelling_blocks(st.one_of(
    _WIDE_FLOATS, st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((math.inf, -math.inf, math.nan)))))
def test_exact_sum_non_finite_and_huge_terms_follow_fsum(case):
    _assert_sums_like_fsum(*case)


def test_exact_sum_overflow_raises():
    from suq2.spectral import _exact_sum

    big = np.finfo(float).max
    for values in ([big, big], [big, big, -big], [2.0 ** 1023] * 2,
                   [-big] * 3 + [big]):
        with pytest.raises(OverflowError):
            _exact_sum([np.array(values)])


def test_exact_sum_is_fsum_over_many_blocks():
    from suq2.spectral import _SCAN_BLOCK

    rng = np.random.default_rng(7)
    size = 3 * _SCAN_BLOCK + 17
    x = rng.standard_normal(size) * np.exp2(rng.integers(-1074, 990, size))
    x = np.concatenate([x, -x[:5000], rng.standard_normal(300)])
    rng.shuffle(x)
    values = x.tolist()
    _assert_sums_like_fsum(values, [x])
    _assert_sums_like_fsum(values, [x[i:i + _SCAN_BLOCK]
                                    for i in range(0, x.size, _SCAN_BLOCK)])


# ---------------------------------------------------------------------------
# Residue extraction.

@pytest.mark.parametrize("q", Q_GRID)
def test_residue_delta_weight_halves_scaled_value(q):
    """The extracted residue sits on R/2 with R = 4(q^{-1}-q)/ln(q^{-1});
    the acceptance suite separately documents the comparison against the
    full R."""
    rep = residue_extract("deltaL2-e11", q)
    r_val = 4.0 * (1.0 / q - q) / math.log(1.0 / q)
    assert rep.method.startswith("pole-resolved")
    assert abs(rep.estimate - 0.5 * r_val) <= 1e-3 * (0.5 * r_val)
    assert abs(rep.estimate - r_val) > 0.4 * r_val  # nowhere near full R
    assert rep.error_bar < 0.05 * rep.estimate


def test_residue_e11_equals_e22():
    r1 = residue_extract("deltaL2-e11", 0.5)
    r2 = residue_extract("deltaL2-e22", 0.5)
    assert r1.estimate == r2.estimate


def test_residue_cstarc_refined_schedule_confirms_holomorphy():
    """With schedule points appended below 0.05 the extrapolant collapses
    toward zero (each refinement gains ~40x), which certifies that the
    weighted trace has no pole at z = 3."""
    rep4 = residue_extract("cstarc", 0.5)
    assert rep4.method.startswith("lattice-resolved")
    assert abs(rep4.estimate) < 2e-3  # schedule-limited extrapolation level
    rep6 = residue_extract(
        "cstarc", 0.5, schedule=(0.4, 0.2, 0.1, 0.05, 0.025, 0.0125))
    assert abs(rep6.estimate) < 1e-5
    assert abs(rep6.estimate) < abs(rep4.estimate) / 50.0


def test_residue_gamma_identically_zero():
    rep = residue_extract("gamma", 0.5)
    assert rep.estimate == 0.0
    assert rep.error_bar == 0.0
    assert rep.method == "identically-zero"


def test_residue_report_json_shape():
    rep = residue_extract("deltaL2-e11", 0.5)
    d = rep.to_json_dict()
    assert list(d) == ["omega", "q", "estimate", "error_bar", "method"]
    assert d["omega"] == "deltaL2-e11"
    assert d["q"] == 0.5


def test_residue_schedule_validation():
    with pytest.raises(ValueError):
        residue_extract("cstarc", 0.5, schedule=(0.4, 0.2))
    with pytest.raises(ValueError):
        residue_extract("cstarc", 0.5, schedule=(0.1, 0.2, 0.4))
    with pytest.raises(ValueError):
        residue_extract("cstarc", 0.5, schedule=(0.4, 0.2, -0.1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_z_rejected(bad):
    # A bare "z <= 2" guard is False for NaN and lets it into the sums.
    calls = [
        lambda: upsilon_value("identity", bad, 0.5, 10),
        lambda: upsilon_value("gamma", bad, 0.5, 10),
        lambda: tail_bound("identity", 10, bad, 0.5),
        lambda: tail_bound("gamma", 10, bad, 0.5),
        lambda: eigen_lattice_sum(bad, 0.5),
        lambda: eigen_lattice_sum(bad, 0.5, admitted=False),
        lambda: upsilon_cstarc_lattice(bad, 0.5),
        lambda: upsilon_identity_pairblocks(bad, 0.5, 4),
        lambda: upsilon_scan("identity", 0.5, [4.0, bad], 10),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("lmax", [0, -3])
def test_pairblocks_cutoff_below_one_rejected(lmax):
    # The oracle takes the cutoff of the scan it checks, and that scan
    # rejects a cutoff below 1.
    with pytest.raises(ValueError, match="cutoff must be at least 1"):
        upsilon_value("identity", 4.0, 0.5, lmax)
    with pytest.raises(ValueError, match="cutoff must be at least 1"):
        upsilon_identity_pairblocks(4.0, 0.5, lmax)
    # A tail bound is certified only for a cutoff some scan accepts.
    with pytest.raises(ValueError, match="cutoff must be at least 1"):
        tail_bound("identity", lmax, 3.5, 0.5)
    with pytest.raises(ValueError, match="cutoff must be at least 1"):
        SpectralGrid(0.5, lmax)


@pytest.mark.parametrize("omega", ["gamma", "deltaL2-e11", "cstarc"])
def test_residue_rejects_non_finite_offsets_and_bad_bar(omega):
    for sched in ((math.nan, 0.2, 0.1), (math.inf, 0.2, 0.1),
                  (0.4, 0.2, math.nan)):
        with pytest.raises(ValueError):
            residue_extract(omega, 0.5, schedule=sched)
    for bar in (math.nan, -1.0):
        with pytest.raises(ValueError):
            residue_extract(omega, 0.5, max_error_bar=bar)


def test_residue_unbounded_error_bar_accepted():
    rep = residue_extract("gamma", 0.5, max_error_bar=math.inf)
    assert rep.estimate == 0.0


def test_residue_nonconvergence_is_reported():
    with pytest.raises(NonConvergenceError):
        residue_extract("cstarc", 0.5, max_error_bar=1e-9)


# ---------------------------------------------------------------------------
# Commutator growth probe.

def test_commutator_growth_unbounded():
    rows = commutator_growth(0.5, lmax=5)
    norms = [nrm for _, nrm in rows]
    assert len(norms) == 5
    assert all(b > a for a, b in zip(norms, norms[1:]))
    assert norms[-1] > 5.0 * norms[0]


@pytest.mark.parametrize("q", [0.3, 0.5])
def test_commutator_growth_ratio_tends_to_inverse_q(q):
    # The last consecutive ratio at lmax 6: 3.3333 at q = 0.3 and 1.9983
    # at q = 0.5.
    norms = [nrm for _, nrm in commutator_growth(q, lmax=6)]
    assert norms[-1] / norms[-2] == pytest.approx(1.0 / q, rel=0.01)
