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
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from peterweyl_transport import transport_orthobasis

from suq2 import functionals
from suq2.algebra import AlgebraElement, gens, weight_decompose
from suq2.functionals import gns_inner
from suq2.peterweyl import pw_orthobasis
from suq2.sampling import random_element
from suq2.scalars import ONE, Scalar, big_q
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


@pytest.mark.parametrize("q, l2", [(0.1, 156), (0.5, 513)])
def test_lambda_squared_overflow_raises(q, l2):
    # lambda itself would be near 1e154, but its square q^n [.][.] at
    # n = -(l2 - 1) overflows: an OverflowError naming the mode, not inf.
    for n in range(-(l2 - 3), l2, 2):
        assert math.isfinite(lambda_eigen(l2, n, q))
    assert math.isfinite(lambda_eigen(l2 - 1, -(l2 - 2), q))
    with pytest.raises(OverflowError, match=f"2l={l2}, n={1 - l2}, q={q}"):
        lambda_eigen(l2, 1 - l2, q)
    with pytest.raises(OverflowError):
        sector_spectrum_closed(l2, q)


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
            assert abs(mm.matrix[pos[(l2 + 1, i2 + 1, j2 - 1)], col]
                       - vp) < 1e-10
        rm = (l2 - 1, i2 + 1, j2 - 1)
        if rm in pos:
            vm = clebsch_minus(l2, i2, j2, q)
            if abs(vm) > 1e-14:
                expect.add(rm)
                assert abs(mm.matrix[pos[rm], col] - vm) < 1e-10
        assert support == expect
        checked += 1
    assert checked == sum((l2 + 1) ** 2 for l2 in range(0, 5))


def _ref_mult_op_matrices(x, l2max, qs):
    """``mult_op_matrix`` at each q by residual projection: each block
    vector is projected against what the earlier ones left over, and a
    column is flagged when anything is left at the end.  The projections
    are exact and independent of q, so they are formed once.  The basis
    is the ladder-transport one, which shares no closed form with
    ``mult_op_matrix``."""
    blocks = transport_orthobasis(l2max)
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
            for v in block:
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


def test_mult_op_takes_no_inner_product(monkeypatch):
    # The projections are closed-form dual coefficients, so no GNS inner
    # product is taken: no adjoint is formed and no Haar state evaluated.
    def no_inner(*args):
        raise AssertionError("mult_op_matrix took an inner product")

    monkeypatch.setattr(functionals, "gns_inner", no_inner)
    monkeypatch.setattr(functionals, "haar", no_inner)
    monkeypatch.setattr(AlgebraElement, "star", no_inner)
    for x in (A, B, C, D, A * B):
        mm = mult_op_matrix(x, SpectralGrid(0.5, 3))
        assert mm.flagged
        assert np.count_nonzero(mm.matrix)


def test_cstarc_diagonal_matches_eps_display_exactly():
    """The (c* c) diagonal equals q^{2l} (q^{2j} C1 + q^{2i} C2) with the
    epsilon-ratio coefficients, as an exact identity in the coefficient
    field."""
    bigq = big_q()

    def eps(t2: int) -> Scalar:
        return bigq * (ONE - Scalar.q_pow(t2))

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
    """The O(1) per-(n, m) scan terms agree with brute-force sums over
    the right index i and the two ladder columns, in the scan's order:
    odd m = l2 - n outer, n inner."""
    z = 3.3
    for q in Q_GRID:
        qc = q / (1.0 - q * q)

        def eps(t2):
            return qc * (1.0 - q ** t2)

        for omega in ("deltaL2-e11", "cstarc"):
            lmax = 9
            terms = iter(_scan_term_list(omega, z, q, lmax))
            for m in range(1, lmax + 1, 2):
                for n in range(0, lmax - m + 1):
                    l2 = n + m
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


def _mp_cstarc_parts(mp, q, lmax):
    """The parts of the c*c scan weight to 40 digits, from brute-force
    sums over the right index i.

    With eps(t) = Q (1 - q^t) and doubled indices, the weight at (n, l2)
    is q^{-n} times the sum over i and j = n +- 1 of

        q^{l2+n+1} q^{-i} eps(l2+i+2) eps(l2-j+2) / (eps(2l2+2) eps(2l2+4))
        + q^{l2} eps(l2-i) eps(l2+j) / (eps(2l2) eps(2l2+2)).

    Only the i sums U(l2) = sum_i q^{-i} eps(l2+i+2) and D(l2) =
    sum_i eps(l2-i) involve i.  With t = l2 + i, U(l2) = q^{l2} times the
    sum of q^{-t} eps(t+2), and D(l2) the sum of eps(t), over even
    t = 0..2 l2: both are prefix sums, accumulated term by term.  Returns
    (eps, up, down): eps[t], U / (eps(2l2+2) eps(2l2+4)) and
    D / (eps(2l2) eps(2l2+2)) by l2, as mpf."""
    qm = mp.mpf(q)
    qc = qm / (1 - qm * qm)
    eps = [qc * (1 - qm ** t) for t in range(2 * lmax + 5)]
    u_sum, d_sum = [mp.mpf(0)], [mp.mpf(0)]
    for t in range(0, 2 * lmax + 1, 2):
        u_sum.append(u_sum[-1] + qm ** -t * eps[t + 2])
        d_sum.append(d_sum[-1] + eps[t])
    up = [None] + [qm ** l2 * u_sum[l2 + 1]
                   / (eps[2 * l2 + 2] * eps[2 * l2 + 4])
                   for l2 in range(1, lmax + 1)]
    down = [None] + [d_sum[l2 + 1] / (eps[2 * l2] * eps[2 * l2 + 2])
                     for l2 in range(1, lmax + 1)]
    return eps, up, down


def test_cstarc_scan_weights_keep_their_o1_part():
    """Wherever q^{l2+n+1} leaves the normal float range, the weight
    q^{-n} (q^{l2+n+1} ... + ...) once lost its O(1) part, which the
    underflowing power carries.  At q = 0.3 and lmax 400 that is 5671 of
    the 40,200 states; each of them, and every 97th of the rest, must
    match the weight to 40 digits to 1e-15 relative."""
    mp = pytest.importorskip("mpmath")
    from suq2 import spectral

    q, lmax = 0.3, 400
    weights = np.concatenate([w for _, w in
                              spectral._scan_prepare("cstarc", q, lmax)])
    ns, ms = (np.concatenate(a) for a in zip(*spectral._scan_triangle(lmax)))
    l2s = ns + ms
    k_lost = next(k for k in itertools.count() if q ** k < sys.float_info.min)
    lost = l2s + ns + 1 >= k_lost
    assert lost.sum() == 5671
    picked = np.concatenate([np.flatnonzero(lost),
                             np.flatnonzero(~lost)[::97]])
    with mp.workdps(40):
        eps, up, down = _mp_cstarc_parts(mp, q, lmax)
        qm = mp.mpf(q)
        for k in picked.tolist():
            n, l2 = int(ns[k]), int(l2s[k])
            m = l2 - n
            want = qm ** -n * (qm ** (l2 + n + 1) * (eps[m + 1] + eps[m + 3])
                               * up[l2]
                               + qm ** l2 * (eps[l2 + n + 1] + eps[l2 + n - 1])
                               * down[l2])
            assert abs(weights[k] - want) <= 1e-15 * want, (n, l2)


@pytest.mark.parametrize("q, lmax", [(0.3, 400), (0.5, 700)])
def test_cstarc_scan_sums_match_high_precision_weights(q, lmax):
    """The c*c scan sums to 1e-13 relative against the per-state loop
    whose weights are formed from their 40-digit parts.  Their two
    summands are positive, so the float weight is within a few ulps;
    the bases are 1 + lambda_eigen^2.  The scan's sums once fell short
    here, by 1.3e-5 and 8.5e-6 relative at z = 3.05."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        eps, up, down = _mp_cstarc_parts(mp, q, lmax)
        a = [None] + [float(mp.mpf(q) ** (l2 + 1) * up[l2])
                      for l2 in range(1, lmax + 1)]
        d = [None] + [float(x) for x in down[1:]]
        e = [float(x) for x in eps]
    zs = [3.05, 4.0]
    terms = {z: [] for z in zs}
    for n in range(lmax):
        for l2 in range(n + 1, lmax + 1, 2):
            m = l2 - n
            w = (a[l2] * (e[m + 1] + e[m + 3])
                 + q ** m * (e[l2 + n + 1] + e[l2 + n - 1]) * d[l2])
            base = 1.0 + lambda_eigen(l2, n, q) ** 2
            for z in zs:
                terms[z].append(w * base ** (-0.5 * z))
    for z, got in zip(zs, upsilon_value("cstarc", zs, q, lmax)):
        want = math.fsum(terms[z])
        assert abs(got - want) <= 1e-13 * want, z


@pytest.mark.parametrize("q", (0.1, 0.5, 0.9, 0.999))
def test_scan_bases_dominate_the_tail_minorant(q):
    """``tail_bound`` compares every state's base with 1 + n^2/4 +
    q^{1-m}; every prepared base dominates it, in floats too.  The two
    meet at (n, m) = (0, 1), where both are 2."""
    from suq2 import spectral

    blocks = spectral._scan_prepare("identity", q, 60)
    for (base, _), (n, m) in zip(blocks, spectral._scan_triangle(60)):
        minorant = [1.0 + 0.25 * k * k + q ** (1 - j)
                    for k, j in zip(n.tolist(), m.tolist())]
        assert (base >= np.array(minorant)).all()


def test_upsilon_gamma_vanishes_identically():
    for lmax in (1, 5, 40):
        assert upsilon_value("gamma", [2.5, 3.0, 4.0, 6.0], 0.5, lmax) == [
            0.0] * 4


def test_upsilon_validation():
    with pytest.raises(ValueError):
        upsilon_value("identity", [2.0], 0.5, 10)
    with pytest.raises(ValueError):
        upsilon_value("identity", [4.0], 0.5, 0)
    with pytest.raises(ValueError):
        upsilon_value("nope", [4.0], 0.5, 10)
    with pytest.raises(ValueError):
        eigen_lattice_sum([3.0], 0.5)
    with pytest.raises(ValueError):
        upsilon_cstarc_lattice([2.0], 0.5)


def test_upsilon_identity_monotone():
    vals = [upsilon_value("identity", [4.0], 0.5, lmax)[0]
            for lmax in (5, 10, 20, 40, 80)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    zs = upsilon_value("identity", [3.2, 3.6, 4.0, 5.0], 0.5, 40)
    assert all(b < a for a, b in zip(zs, zs[1:]))


@pytest.mark.parametrize("q", (0.3, 0.5))
def test_identity_scan_agrees_with_pair_blocks(q):
    direct = upsilon_value("identity", [4.0], q, 40)[0]
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
        lo = upsilon_value(omega, [zz], q, 400)[0]
        hi = upsilon_value(omega, [zz], q, 1000)[0]
        tb = tail_bound(omega, 400, zz, q)
        assert 0.0 < hi - lo <= tb


def test_tail_bound_abscissas():
    assert tail_bound("gamma", 10, 2.1, 0.5) == 0.0
    assert tail_bound("identity", 10, 2.0, 0.5) == math.inf
    assert tail_bound("deltaL2-e11", 10, 3.0, 0.5) == math.inf
    assert tail_bound("deltaL2-e11", 10, 3.2, 0.5) < math.inf


@pytest.mark.parametrize("q", Q_GRID)
def test_cstarc_lattice_within_certified_window(q):
    lats = upsilon_cstarc_lattice([3.05, 4.0, 6.0], q)
    directs = upsilon_value("cstarc", [3.05, 4.0, 6.0], q, 400)
    for z, lat, direct in zip((3.05, 4.0), lats, directs):
        tb = tail_bound("cstarc", 400, z, q)
        assert 0.0 <= lat - direct <= tb
    # far from the abscissa the cutoff scan is essentially converged
    lat, direct = lats[2], directs[2]
    assert abs(lat - direct) <= 1e-7 * direct


def test_pole_evaluator_within_certified_window():
    q = 0.5
    pref = 1.0 / (1.0 - q * q)
    for z, value, direct in zip((3.5, 4.0), eigen_lattice_sum([3.5, 4.0], q),
                                upsilon_value("deltaL2-e11", [3.5, 4.0], q,
                                              400)):
        lat = pref * value
        tb = tail_bound("deltaL2-e11", 400, z, q)
        assert 0.0 <= lat - direct <= tb


@pytest.mark.parametrize("admitted", (True, False))
def test_lattice_sum_quadrature_never_gives_up(admitted):
    # Down to q = 0.001 the direct columns' scale c_m reaches 1e12 and
    # their integral tails hold nearly all of each column; at q = 1e-5 it
    # reaches 1e20, where a quadrature of the all-m tails warned.
    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for q in np.geomspace(0.001, 0.3, 10).tolist():
            eigen_lattice_sum([3.05, 4.0, 6.0], q, admitted=admitted)
        for q, z in ((1e-5, 3.1), (3e-5, 3.4)):
            (value,) = eigen_lattice_sum([z], q, admitted=admitted)
            assert math.isfinite(value) and value > 0.0


@pytest.mark.parametrize("q", (0.01, 0.02, 0.1, 0.2, 0.3))
def test_cstarc_lattice_below_three_never_warns(q):
    # The c*c weight grows like t, so toward z = 2 the tail decays like
    # t^{1-z}: a quadrature over u = 1/t gave up there on a singular
    # integrand, where the closed form holds.
    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        values = upsilon_cstarc_lattice([2.1, 2.5], q)
    assert all(math.isfinite(v) and v > 0.0 for v in values)


def test_failed_tail_quadrature_is_nonconvergence():
    # Within about 5e-3 of q = 1 the c*c tail is a quadrature.  At q =
    # 0.99999 that of column 1067 fails: it once printed scipy's
    # IntegrationWarning and let a residue of 0.087 +- 0.997 exit 0.
    from scipy.integrate import IntegrationWarning

    from suq2 import spectral

    q, m = 0.99999, 1067
    qt = q ** np.arange(2 * (spectral._N_CUT + m) + 5, dtype=float)
    tail = spectral._cstarc_tail_weight(m, q)
    assert tail is None

    def weight(n, q_pow):
        return spectral._cstarc_weight(n, m, q, q_pow)

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        with pytest.raises(NonConvergenceError,
                           match="column m=1067 at q=0.99999, z=3.2"):
            spectral._lattice_column([3.2], q, m, qt, weight, tail)


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

    def recorded(zs, q, m, *args):
        values = column(zs, q, m, *args)
        columns[m] = values[0]
        return values

    monkeypatch.setattr(spectral, "_lattice_column", recorded)
    (total,) = eigen_lattice_sum([z], q)
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


def _ref_inner_model(z, q, m, c_m, d_m, haar_weight, ns=range(800)):
    """A modelled column at one z, each difference built from scratch by
    scalar Python arithmetic, over the n of ``ns`` up to its stop rule."""
    from suq2 import spectral

    model = (spectral._gamma_half_ratio(z) * c_m ** (0.5 * (1.0 - z))
             + 0.5 * c_m ** (-0.5 * z))
    diffs = []
    for n in ns:
        base = 0.25 * n * n + c_m
        w = 1.0 - q ** (2.0 * (n + m + 1)) if haar_weight else 1.0
        d = (w * (base - d_m * q ** (2.0 * n)) ** (-0.5 * z)
             - base ** (-0.5 * z))
        diffs.append(d)
        if abs(d) < 1e-22 * max(1.0, model):
            break
    return model + math.fsum(diffs)


@pytest.mark.parametrize("q", (0.01, 0.3, 0.8, 0.97))
@pytest.mark.parametrize("admitted", (True, False))
def test_inner_model_over_z_list_matches_one_z_at_a_time(q, admitted):
    """A modelled column builds its bases and weights once for a z list,
    extended to the longest stop; every value equals, bit for bit, the
    column at that z alone with every term built afresh.  The z lists
    shrink as an m series drops the z that have stopped."""
    from suq2 import spectral

    zs = [6.0, 3.05, 10.0, 3.4, 4.0]
    ghalf = {z: spectral._gamma_half_ratio(z) for z in zs}
    for m in (7, 9, 41, 99):
        c_m, d_m = spectral._lattice_cd(q, m)
        # A later z may stop after an earlier one, and so extend the tables.
        for sub in (zs, zs[1:], zs[::2], zs[3:], zs[:1]):
            got = spectral._lattice_inner_model(sub, q, m, c_m, d_m,
                                                admitted, ghalf)
            assert got == [_ref_inner_model(z, q, m, c_m, d_m, admitted)
                           for z in sub]
    assert spectral._lattice_inner_model([], q, 7, c_m, d_m, admitted,
                                         ghalf) == []


@pytest.mark.parametrize("q", (0.9, 0.97, 0.99))
@pytest.mark.parametrize("admitted", (True, False))
def test_lattice_sum_near_one_matches_uncapped_model(q, admitted,
                                                     monkeypatch):
    """Near q = 1 the modelled columns' damped differences decay like
    q^{2n}; against a model that runs them to its own stop rule, with no
    cap on their number, the lattice sum holds to 1e-12."""
    from suq2 import spectral

    def uncapped(zs, q, m, c_m, d_m, haar_weight, ghalf):
        return [_ref_inner_model(z, q, m, c_m, d_m, haar_weight,
                                 itertools.count()) for z in zs]

    zs = [3.05, 3.5]
    got = eigen_lattice_sum(zs, q, admitted=admitted)
    monkeypatch.setattr(spectral, "_lattice_inner_model", uncapped)
    for value, want in zip(got, eigen_lattice_sum(zs, q, admitted=admitted)):
        assert abs(value - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# Bit identity of the table-driven scans and lattice columns.
#
# The references are the plain forms of what the power tables compute: a
# scan that evaluates one term at a time, and lattice columns that take
# numpy's power over the n array one z at a time.  The column references
# accept the table argument of the helper they stand in for and ignore it,
# and share its tail, which is checked on its own against mpmath.  Every
# comparison is exact: the scan terms feed an exactly rounded sum, and the
# CLI promises byte-stable output files.

def _ref_scan_terms(omega, z, q, lmax):
    """The scan's mode table one state at a time: odd m outer, n inner,
    every power of q and every 1 - q^k = -expm1(k ln q) by scalar Python
    arithmetic, and the weight written out per tag."""
    q2 = q * q
    big_q2 = (q / (1.0 - q2)) ** 2
    log_q = math.log(q)
    terms = []
    if omega == "gamma":
        return terms
    delta = omega in ("deltaL2-e11", "deltaL2-e22")
    for m in range(1, lmax + 1, 2):
        k_m = big_q2 * q ** -(m + 1) * -math.expm1((m + 1) * log_q)
        col = q ** -m / (1.0 - q2) if delta else 1.0
        if not (math.isfinite(k_m) and math.isfinite(col)):
            raise OverflowError(f"column m={m}")
        for n in range(0, lmax - m + 1):
            base = (1.0 + 0.25 * n * n
                    + k_m * -math.expm1((2 * n + m + 1) * log_q))
            X = base ** (-0.5 * z)
            if omega == "identity":
                w = 2.0 * (n + m + 1)
            elif delta:
                w = (1.0 - q ** (2 * (n + m + 1))) * col
            else:  # cstarc
                w = _ref_cstarc_weight(n, m, q)
            terms.append(w * X)
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


def _ref_lattice_column(zs, q, m, qt, weight, tail):
    """``_lattice_column`` one z and one head term at a time: the weight of
    every head term with numpy's array powers q^k, the plain power, one
    ``math.fsum``, the same tail (alpha I0 + beta I1, or the quadrature of
    the full weight), and the full weight in the close."""
    from scipy.integrate import quad

    from suq2.spectral import _em_close, _lattice_cd, _tail_integrals

    def q_pow(k):
        return q ** k

    n = np.arange(0, 4001, dtype=float)
    c_m = _lattice_cd(q, m)[0]
    a = 4001.0
    values = []
    for z in zs:
        head = math.fsum((weight(n, q_pow)
                          * _ref_column_powers(z, q, m, n)).tolist())

        def f(t, z=z):
            return weight(t, q_pow) * (0.25 * t * t + c_m) ** (-0.5 * z)

        def f_inv(u, f=f):
            t = 1.0 / u
            return f(t) * t * t

        if tail is None:
            tail_int, _ = quad(f_inv, 0.0, 1.0 / a, epsabs=1e-16,
                               epsrel=1e-13)
        else:
            i0, i1 = _tail_integrals(z, c_m)
            tail_int = tail[0] * i0 + tail[1] * i1
        values.append(_em_close(head + tail_int, f, a))
    return values


def test_scan_triangle_is_the_admitted_modes(monkeypatch):
    # A scan sums the admitted modes n of jset(l2), l2 <= lmax, as (n, m)
    # pairs with m = l2 - n, m outer and n inner, in blocks of
    # _SCAN_BLOCK states (the last one shorter).
    from suq2 import spectral

    def check(lmax):
        blocks = list(spectral._scan_triangle(lmax))
        assert all(n.dtype == m.dtype == np.int32 for n, m in blocks)
        sizes = [n.size for n, _ in blocks]
        assert all(size == spectral._SCAN_BLOCK for size in sizes[:-1])
        assert 0 < sizes[-1] <= spectral._SCAN_BLOCK if sizes else lmax == 0
        pairs = [(k, n) for n, m in blocks
                 for n, k in zip(n.tolist(), m.tolist())]
        assert pairs == sorted((s - k, k) for s in range(lmax + 1)
                               for k in jset(s))

    for lmax in range(0, 61):
        check(lmax)
    # Small blocks: states of one column split across blocks, blocks
    # across columns.
    monkeypatch.setattr(spectral, "_SCAN_BLOCK", 7)
    for lmax in (1, 2, 13, 14, 40):
        check(lmax)


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

    zs = [3.05, 3.4, 4.0]
    got = (upsilon_cstarc_lattice(zs, q), spectral._identity_lattice(zs, q),
           eigen_lattice_sum(zs, q), eigen_lattice_sum(zs, q, admitted=False))
    monkeypatch.setattr(spectral, "_lattice_column", _ref_lattice_column)
    want = (upsilon_cstarc_lattice(zs, q), spectral._identity_lattice(zs, q),
            eigen_lattice_sum(zs, q), eigen_lattice_sum(zs, q, admitted=False))
    assert got == want


@pytest.mark.parametrize("q", (0.01, 0.3, 0.8))
def test_multi_z_lattice_sums_match_one_z_calls(q, monkeypatch):
    """Every value of a call over a z list equals, bit for bit, the call
    with that z alone, though the m series of each z stops at its own m:
    the columns past a stop are evaluated for fewer z."""
    from suq2 import spectral

    widths = []
    column = spectral._lattice_column

    def recorded(zs, q_value, m, *args):
        widths.append(len(zs))
        return column(zs, q_value, m, *args)

    monkeypatch.setattr(spectral, "_lattice_column", recorded)
    zs = [3.4, 3.2, 3.1, 3.05, 4.0, 6.0]
    for admitted in (True, False):
        assert eigen_lattice_sum(zs, q, admitted=admitted) == [
            eigen_lattice_sum([z], q, admitted=admitted)[0] for z in zs]
    zs_c = zs + [2.5, 2.1]
    for odd_m_sum in (upsilon_cstarc_lattice, spectral._identity_lattice):
        widths.clear()
        assert odd_m_sum(zs_c, q) == [odd_m_sum([z], q)[0] for z in zs_c]
        multi = widths[:widths.index(1)]
        assert multi[0] == len(zs_c) and multi[-1] < len(zs_c)


def test_lattice_sums_check_every_z_before_any_column(monkeypatch):
    from suq2 import spectral

    def no_column(*args):
        raise AssertionError("a column ran before every z was checked")

    monkeypatch.setattr(spectral, "_lattice_column", no_column)
    monkeypatch.setattr(spectral, "_lattice_inner_model", no_column)
    for call in (lambda: eigen_lattice_sum([4.0, 3.0], 0.5),
                 lambda: eigen_lattice_sum([4.0, math.nan], 0.5,
                                           admitted=False),
                 lambda: upsilon_cstarc_lattice([3.0, 2.0], 0.5),
                 lambda: spectral._identity_lattice([3.0, 2.0], 0.5),
                 lambda: spectral._identity_lattice([4.0, math.inf], 0.5)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("q", (0.99, 0.995, 0.9953, 0.9954, 0.999))
def test_closed_tail_only_where_weight_is_linear(q, monkeypatch):
    """A column gets the closed tail (alpha, beta) only where its float
    weight past the head is alpha + beta t: exactly for the Haar and unit
    weights of ``eigen_lattice_sum``, to 2 ulps for c*c.  Where a Haar
    column gets the quadrature instead, its weight at t = a is not 1.
    The modelled columns do not bear on this and are stubbed out."""
    from suq2 import spectral

    seen = []
    column = spectral._lattice_column

    def recorded(zs, q_value, m, qt, weight, tail):
        seen.append((m, weight, tail))
        return column(zs, q_value, m, qt, weight, tail)

    monkeypatch.setattr(spectral, "_lattice_column", recorded)
    monkeypatch.setattr(spectral, "_lattice_inner_model",
                        lambda zs, *args: [0.0] * len(zs))
    a = spectral._N_CUT + 1.0
    ts = [a, a + 0.5, a + 1.0, 1.5 * a, 10.0 * a, 1e9]
    for admitted in (True, False):
        seen.clear()
        eigen_lattice_sum([3.4], q, admitted=admitted)
        assert [m for m, _, _ in seen] == list(
            range(1, spectral._M_DIRECT + 1, 2 if admitted else 1))
        for m, weight, tail in seen:
            if tail is None:
                assert admitted and weight(a, q.__pow__) != 1.0
            else:
                assert tail == (1.0, 0.0)
                assert all(weight(t, q.__pow__) == 1.0 for t in ts)
    for m in (1, 3, 5):
        tail = spectral._cstarc_tail_weight(m, q)
        if tail is not None:
            for t in ts:
                w = spectral._cstarc_weight(t, m, q, q.__pow__)
                assert abs(tail[0] + tail[1] * t - w) <= 2 * math.ulp(w)
    # The identity weight 2(n + m + 1) is alpha + beta t exactly, with no
    # guard; the columns themselves are stubbed out.
    seen.clear()
    monkeypatch.setattr(spectral, "_lattice_column",
                        lambda zs, q_value, m, qt, weight, tail:
                        seen.append((m, weight, tail)) or [0.0] * len(zs))
    spectral._identity_lattice([3.4], q)
    assert [m for m, _, _ in seen] == list(range(1, spectral._M_CAP + 1, 2))
    for m, weight, tail in seen:
        assert tail == (2.0 * (m + 1), 2.0)
        assert all(weight(t, q.__pow__) == tail[0] + tail[1] * t for t in ts)


def _mp_tail_integrals(mp, z, c_m):
    """I0 and I1 of ``_tail_integrals`` to 30 digits on the float c_m:
    the incomplete beta form with 1 - w = 4 c_m/(a^2 + 4 c_m) exact, and
    I1's antiderivative."""
    with mp.workdps(30):
        zm, cm, am = mp.mpf(z), mp.mpf(c_m), mp.mpf(4001)
        b = (zm - 1) / 2
        x = 4 * cm / (am * am + 4 * cm)
        i0 = (cm ** -b * mp.beta(b, mp.mpf(1) / 2)
              * mp.betainc(b, mp.mpf(1) / 2, 0, x, regularized=True))
        i1 = 4 / (zm - 2) * (am * am / 4 + cm) ** (1 - zm / 2)
        return i0, i1


def _mp_tail_quadrature(mp, z, c_m):
    """I0 and I1 as 30-digit quadratures of their integrands over
    t = a v^{-1/(z-k-1)}, v in (0, 1], which makes t^k (t^2/4)^{-z/2} dt
    flat; for c_m <= a^2/4 the rest of the integrand is smooth there."""
    with mp.workdps(30):
        zm, cm, am = mp.mpf(z), mp.mpf(c_m), mp.mpf(4001)
        out = []
        for k in (0, 1):
            g = 1 / (zm - k - 1)

            def h(v, g=g, k=k):
                t = am * v ** -g
                return (t ** k * (t * t / 4 + cm) ** (-zm / 2)
                        * am * g * v ** (-g - 1))

            out.append(mp.quad(h, [0, 1]))
        return out


@pytest.mark.parametrize("q", (0.001, 0.01, 0.3, 0.5, 0.8, 0.99))
def test_tail_integrals_match_high_precision(q, monkeypatch):
    """The closed-form tail integrals at every (m, z) at which the lattice
    sums evaluate a column, against mpmath to 30 digits: within 1e-13
    relative of the incomplete beta form at every pair, and of a
    quadrature of the integrals themselves on the directly summed columns
    of ``eigen_lattice_sum`` wherever c_m <= a^2/4.  Those are m <= 5 at
    every q, since its m series runs to m >= 41; the c*c columns are
    recorded from a call."""
    mp = pytest.importorskip("mpmath")
    from suq2 import spectral

    pairs = set()
    column = spectral._lattice_column

    def recorded(zs, q_value, m, *args):
        pairs.update((m, z) for z in zs)
        return column(zs, q_value, m, *args)

    monkeypatch.setattr(spectral, "_lattice_column", recorded)
    upsilon_cstarc_lattice([2.1, 2.5, 3.05, 4.0, 6.0], q)
    pairs.update((m, z) for m in range(1, spectral._M_DIRECT + 1)
                 for z in (3.05, 4.0, 6.0))
    quadratures = 0
    for m, z in sorted(pairs):
        c_m = spectral._lattice_cd(q, m)[0]
        got = spectral._tail_integrals(z, c_m)
        refs = [_mp_tail_integrals(mp, z, c_m)]
        if m <= spectral._M_DIRECT and c_m <= 4001.0 ** 2 / 4:
            refs.append(_mp_tail_quadrature(mp, z, c_m))
            quadratures += 1
        for ref in refs:
            for value, want in zip(got, ref):
                assert abs(value - want) <= 1e-13 * want, (m, z)
    assert quadratures >= 3


def _ref_eigen_lattice_sum(z, q, admitted):
    """``eigen_lattice_sum`` at one z with its own stopping loop over m."""
    from suq2 import spectral

    qt = q ** np.arange(2 * (spectral._N_CUT + spectral._M_DIRECT + 1) + 1,
                        dtype=float)
    big_q = q / (1.0 - q * q)
    ghalf = spectral._gamma_half_ratio(z)
    x = q ** (0.5 * (z - 3.0))
    geo = x / (1.0 - x * x) if admitted else x / (1.0 - x)
    total = ghalf * big_q ** (1.0 - z) * q ** (0.5 * (z - 1.0)) * geo
    step = 2 if admitted else 1
    quiet = 0
    m = 1
    while m <= spectral._M_CAP:
        c_m, d_m = spectral._lattice_cd(q, m)
        lead = ghalf * (big_q * big_q * q ** (-(m + 1.0))) ** (0.5 * (1.0 - z))
        if m > spectral._M_DIRECT:
            inner = spectral._lattice_inner_model(
                [z], q, m, c_m, d_m, admitted, {z: ghalf})[0]
        elif admitted:
            flat = q ** (2 * (spectral._N_CUT + m + 2)) <= 2.0 ** -54
            inner = spectral._lattice_column(
                [z], q, m, qt, lambda n, q_pow: 1.0 - q_pow(2 * (n + m + 1)),
                (1.0, 0.0) if flat else None)[0]
        else:
            inner = spectral._lattice_column([z], q, m, qt,
                                             lambda n, q_pow: 1.0,
                                             (1.0, 0.0))[0]
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


def _ref_odd_m_lattice(z, q, weight, tail_weight):
    """``upsilon_cstarc_lattice`` or ``_identity_lattice`` at one z with
    its own stopping loop over m, given the sum's weight and tail pair."""
    from suq2 import spectral

    qt = q ** np.arange(2 * (spectral._N_CUT + spectral._M_CAP) + 5,
                        dtype=float)
    total = 0.0
    quiet = 0
    for m in range(1, spectral._M_CAP + 1, 2):
        term = spectral._lattice_column(
            [z], q, m, qt, lambda n, q_pow: weight(n, m, q, q_pow),
            tail_weight(m, q))[0]
        total += term
        if abs(term) < 1e-12 * abs(total):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    return total


@pytest.mark.parametrize("q", Q_GRID)
def test_lattice_m_series_match_their_own_loops(q, monkeypatch):
    """Every lattice sum runs one m series; each must equal, bit for bit,
    its own stopping loop, and evaluate the same columns in the same
    order, so the series stops where the loop stopped."""
    from suq2 import spectral

    calls = []
    for name in ("_lattice_column", "_lattice_inner_model"):
        def recorded(zs, q_value, m, *args, helper=getattr(spectral, name)):
            calls.append(m)
            return helper(zs, q_value, m, *args)

        monkeypatch.setattr(spectral, name, recorded)
    routes = [(lambda z: eigen_lattice_sum([z], q)[0],
               lambda z: _ref_eigen_lattice_sum(z, q, True)),
              (lambda z: eigen_lattice_sum([z], q, admitted=False)[0],
               lambda z: _ref_eigen_lattice_sum(z, q, False)),
              (lambda z: upsilon_cstarc_lattice([z], q)[0],
               lambda z: _ref_odd_m_lattice(z, q, spectral._cstarc_weight,
                                            spectral._cstarc_tail_weight)),
              (lambda z: spectral._identity_lattice([z], q)[0],
               lambda z: _ref_odd_m_lattice(
                   z, q, lambda n, m, q, q_pow: 2.0 * (n + m + 1),
                   lambda m, q: (2.0 * (m + 1), 2.0)))]
    for z in (3.05, 3.4, 4.0):
        for route, ref in routes:
            calls.clear()
            got = route(z)
            got_ms = list(calls)
            calls.clear()
            assert got == ref(z)
            assert got_ms == calls


@pytest.mark.parametrize("q, lmax", [(0.1, 400), (0.5, 1100)])
def test_identity_scan_overflow_still_raises(q, lmax):
    # q^{-(m+1)} exceeds the float range from some column m <= lmax on;
    # the column table K_m covers exactly the m the scan uses, so the
    # overflow surfaces, naming the first such m, q and the cutoff.
    first_m = {0.1: 309, 0.5: 1023}[q]
    with pytest.raises(OverflowError, match=f"at m={first_m}, q={q}, "
                                            f"lmax={lmax}$"):
        upsilon_value("identity", [3.5], q, lmax)


@pytest.mark.parametrize("omega", OMEGA_TAGS)
@pytest.mark.parametrize("q", (0.1, 0.3, 0.5, 0.8, 0.95))
def test_upsilon_value_is_fsum_of_per_term_loop(omega, q):
    z = 3.3
    for lmax in (1, 9, 60, 400):
        try:
            want = math.fsum(_ref_scan_terms(omega, z, q, lmax))
        except OverflowError:
            with pytest.raises(OverflowError):
                upsilon_value(omega, [z], q, lmax)
            continue
        assert upsilon_value(omega, [z], q, lmax) == [want]


@pytest.mark.parametrize("omega", OMEGA_TAGS)
def test_upsilon_scan_matches_one_z_at_a_time(omega):
    q, lmax, zs = 0.5, 60, [3.2, 3.6, 4.0, 7.5]
    rows = upsilon_scan(omega, q, zs, lmax)
    assert [r["partial_sum"] for r in rows] == [
        upsilon_value(omega, [z], q, lmax)[0] for z in zs]
    assert [r["tail_bound"] for r in rows] == [
        tail_bound(omega, lmax, z, q) for z in zs]


@pytest.mark.parametrize("omega", OMEGA_TAGS)
@pytest.mark.parametrize("q", (0.1, 0.5, 0.95))
def test_upsilon_value_over_z_list_matches_one_z_at_a_time(omega, q):
    """A z list shares one prepared scan; each value is still, bit for
    bit, the per-term loop at that z alone, and the overflow of a cutoff
    beyond the float range still surfaces."""
    zs = [3.3, 2.1, 7.5, 3.3, 4.0]
    for lmax in (1, 9, 60, 400):
        try:
            want = [math.fsum(_ref_scan_terms(omega, z, q, lmax))
                    for z in zs]
        except OverflowError:
            with pytest.raises(OverflowError):
                upsilon_value(omega, zs, q, lmax)
            continue
        got = upsilon_value(omega, zs, q, lmax)
        assert got == want
        assert got == [upsilon_value(omega, [z], q, lmax)[0] for z in zs]
    assert upsilon_value(omega, [], q, 10) == []


def test_upsilon_value_checks_every_z_before_any_scan(monkeypatch):
    # q = 0.1 and lmax = 400 overflow the scan's tables, so a scan that
    # ran before the last z was checked would raise OverflowError.
    from suq2 import spectral

    for zs in ([3.5, 2.0], [3.5, math.nan], [4.0, 3.5, -1.0]):
        with pytest.raises(ValueError):
            upsilon_value("identity", zs, 0.1, 400)

    def no_scan(*args):
        raise AssertionError("a scan ran before every z was checked")

    monkeypatch.setattr(spectral, "_scan_prepare", no_scan)
    for call in (lambda: upsilon_value("cstarc", [3.5, 1.0], 0.5, 50),
                 lambda: upsilon_value("cstarc", [3.5], 0.5, 0),
                 lambda: upsilon_value("cstarc", [3.5], 1.5, 50)):
        with pytest.raises(ValueError):
            call()


def _record_upsilon_value(monkeypatch):
    """Replace ``upsilon_value`` by the per-term loop under ``math.fsum``
    at each z and return the list of its calls.  A scan must be one such
    call with every z: the benchmark's
    tracer (``perfbench/tracer.py``) counts and times scans on those
    calls, reading the weight and the cutoff from its positional
    arguments 0 and 3."""
    from suq2 import spectral

    calls = []

    def every_z(omega, zs, q, lmax):
        calls.append((omega, list(zs), q, lmax))
        return [math.fsum(_ref_scan_terms(omega, z, q, lmax)) for z in zs]

    monkeypatch.setattr(spectral, "upsilon_value", every_z)
    return calls


def test_upsilon_scan_is_one_upsilon_value_call(monkeypatch):
    zs = [3.2, 3.6, 4.0]
    got = upsilon_scan("cstarc", 0.5, zs, 30)
    calls = _record_upsilon_value(monkeypatch)
    assert upsilon_scan("cstarc", 0.5, zs, 30) == got
    assert calls == [("cstarc", zs, 0.5, 30)]


@pytest.mark.parametrize("q", (0.3, 0.8))
def test_identity_residue_matches_one_z_at_a_time(q, monkeypatch):
    """The identity, c*c and deltaL2 residues are each one lattice call
    with every z of the schedule, whose values are those of the one-z
    calls; no residue scans to a cutoff or bounds a truncation."""
    from suq2 import spectral

    lattices = {"identity": "_identity_lattice",
                "cstarc": "upsilon_cstarc_lattice",
                "deltaL2-e11": "eigen_lattice_sum"}
    got = {omega: residue_extract(omega, q) for omega in lattices}
    calls = []
    for name in lattices.values():
        def recorded(zs, q_value, *, lattice=getattr(spectral, name),
                     name=name):
            values = lattice(zs, q_value)
            calls.append((name, list(zs)))
            assert values == [lattice([z], q_value)[0] for z in zs]
            return values

        monkeypatch.setattr(spectral, name, recorded)

    def no_scan(*args, **kwargs):
        raise AssertionError("a residue called a cutoff scan")

    monkeypatch.setattr(spectral, "upsilon_value", no_scan)
    monkeypatch.setattr(spectral, "tail_bound", no_scan)
    for omega, name in lattices.items():
        calls.clear()
        assert residue_extract(omega, q) == got[omega]
        assert calls == [(name, [3.0 + eps for eps in got[omega].schedule])]


@pytest.mark.parametrize("q", Q_GRID)
def test_identity_lattice_inside_certified_scan_window(q):
    """The two identity routes pin each other: at cutoff 400 the
    cutoff-free lattice sum lies between the scan's partial sum and that
    sum plus its certified tail bound."""
    from suq2 import spectral

    zs = [3.05, 3.1, 3.2, 3.4]
    partials = upsilon_value("identity", zs, q, 400)
    for z, lattice, partial in zip(zs, spectral._identity_lattice(zs, q),
                                   partials):
        assert partial <= lattice <= (partial
                                      + tail_bound("identity", 400, z, q)), z


@pytest.mark.parametrize("name, cap, short", [
    ("cstarc", 40001, 1.2e-10), ("identity", 60001, 6.3e-6),
    ("admitted", 40001, 5.2e-9), ("every-m", 40001, 3.2e-9)])
def test_lattice_m_cap_error_is_as_stated(name, cap, short, monkeypatch):
    """Every lattice sum stops at m = _M_CAP = 2001 at the latest.  At
    q = 0.99 and z = 3.05 each series still runs there, and the capped
    sum falls short of the same sum with the cap raised, whose series
    then stops on its own, by the relative amount its docstring states.
    The capped value is the raised series' running total at m = 2001."""
    from suq2 import spectral

    route = {"cstarc": upsilon_cstarc_lattice,
             "identity": spectral._identity_lattice,
             "admitted": eigen_lattice_sum,
             "every-m": lambda zs, q: eigen_lattice_sum(zs, q,
                                                        admitted=False)}[name]
    series = spectral._m_series
    seen = []

    def logged(totals, zs, terms, ms, rtol, m_min):
        def term_log(m, zs_m):
            values = terms(m, zs_m)
            seen.append((m, values[0]))
            return values

        seen.append((0, totals[0]))
        return series(totals, zs, term_log, ms, rtol, m_min)

    assert spectral._M_CAP == 2001
    monkeypatch.setattr(spectral, "_m_series", logged)
    monkeypatch.setattr(spectral, "_M_CAP", cap)
    raised = route([3.05], 0.99)[0]
    assert 2001 < seen[-1][0] < cap - 2
    capped = 0.0
    for m, value in seen:
        if m <= 2001:
            capped += value
    assert abs((raised - capped) / raised - short) <= 0.05 * short


@pytest.mark.parametrize("q, m, exact_form", [(0.999, 1, False),
                                              (0.99, 1, True),
                                              (0.5, 1, True),
                                              (0.5, 41, True)])
def test_cstarc_column_bit_identical_to_reference(q, m, exact_form,
                                                  monkeypatch):
    """Both tails of a c*c column against the plain column, whose weight
    is restated with numpy's array powers, bit for bit with the same tail.
    Where the guard holds, alpha + beta t is the full float weight to 2
    ulps at every t of the tail, and the only scalar weights are the
    Euler-Maclaurin close's three, built once for every z; past the guard
    the tail is a quadrature of the full weight."""
    from suq2 import spectral

    tail = spectral._cstarc_tail_weight(m, q)
    assert (tail is not None) == exact_form
    if exact_form:
        alpha, beta = tail
        a = spectral._N_CUT + 1.0
        for u in np.linspace(1.0 / a, 1e-12, 5001).tolist():
            t = 1.0 / u
            w = spectral._cstarc_weight(t, m, q, lambda k: q ** k)
            assert abs(alpha + beta * t - w) <= 2 * math.ulp(w)
    qt = q ** np.arange(2 * (spectral._N_CUT + spectral._M_CAP) + 5,
                        dtype=float)
    weight = spectral._cstarc_weight
    scalar_calls = []

    def counted(n, *args):
        if isinstance(n, float):
            scalar_calls.append(n)
        return weight(n, *args)

    monkeypatch.setattr(spectral, "_cstarc_weight", counted)
    zs = [3.05, 4.0]
    got = spectral._lattice_column(
        zs, q, m, qt,
        lambda n, q_pow: spectral._cstarc_weight(n, m, q, q_pow), tail)
    assert (len(scalar_calls) == 3) == exact_form
    assert got == _ref_lattice_column(
        zs, q, m, qt, lambda n, q_pow: _ref_cstarc_weight(n, m, q), tail)


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
    for call in (lambda: upsilon_value("identity", [3.5], 0.5, 10.5),
                 lambda: upsilon_scan("identity", 0.5, [3.5], 10.5),
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
    assert (upsilon_value("identity", [3.5], 0.5, np.int64(3))
            == upsilon_value("identity", [3.5], 0.5, 3))


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


def _same_float(got, want):
    return (math.isnan(got) and math.isnan(want)) or (
        got == want and math.copysign(1.0, got) == math.copysign(1.0, want))


def _assert_rows_like_fsum(rows, blocks):
    """Each row of a 2-D call is fsum of that row, sign of zero included,
    and the value of a call holding that row alone; a row whose fsum
    raises makes the call raise, the first such row deciding the type."""
    from suq2.spectral import _exact_sum

    want = []
    for row in rows:
        try:
            want.append(math.fsum(row.tolist()))
        except (OverflowError, ValueError) as exc:
            want.append(type(exc))
            with pytest.raises(type(exc)):
                _exact_sum([row])
    raised = [w for w in want if isinstance(w, type)]
    if raised:
        with pytest.raises(raised[0]):
            _exact_sum(blocks)
        return
    got = _exact_sum(blocks)
    assert len(got) == len(rows)
    for row, g, w in zip(rows, got, want):
        assert _same_float(g, w)
        assert _same_float(_exact_sum([row]), g)
        assert _same_float(_exact_sum([row[None]])[0], g)


@st.composite
def _cancelling_rows(draw, elements=_WIDE_FLOATS):
    """Rows of ``_cancelling_blocks`` values, padded with 0.0 to one
    width, and their split into 2-D blocks at drawn column cuts."""
    cases = draw(st.lists(_cancelling_blocks(elements), min_size=1,
                          max_size=4))
    width = max(len(values) for values, _ in cases)
    rows = np.array([values + [0.0] * (width - len(values))
                     for values, _ in cases]).reshape(len(cases), width)
    cuts = sorted(draw(st.lists(st.integers(0, width), max_size=3)))
    return rows, [rows[:, a:b] for a, b in zip([0] + cuts, cuts + [width])]


@settings(max_examples=300, deadline=None)
@given(_cancelling_rows())
def test_exact_sum_rows_are_fsum_of_each_row(case):
    _assert_rows_like_fsum(*case)


@settings(max_examples=150, deadline=None)
@given(_cancelling_rows(st.one_of(
    _WIDE_FLOATS, st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((math.inf, -math.inf, math.nan)))))
def test_exact_sum_rows_non_finite_and_huge_terms_follow_fsum(case):
    _assert_rows_like_fsum(*case)


def test_exact_sum_of_no_block_is_zero():
    from suq2.spectral import _exact_sum

    assert _same_float(_exact_sum([]), 0.0)
    assert _exact_sum([np.zeros((3, 0))]) == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("k", (-900, -1, 0, 52, 1000))
@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_exact_sum_below_a_power_of_two(k, sign):
    """Exact sums 1/4 ulp (of R = 2^k) and a little more below R, where
    the float sum of the remainders rounds onto the midpoint and fsum of
    the level and that sum rounds to R.  The true sum rounds to the float
    below R, whose spacing is half R's ulp: a certificate that took R's
    ulp as the spacing on both sides would return R."""
    from suq2.spectral import _exact_sum

    for j in range(1, 61):
        row = sign * np.array([2.0 ** k, -2.0 ** (k - 54),
                               -2.0 ** (k - 54 - j)])
        want = math.fsum(row.tolist())
        assert want == sign * math.nextafter(2.0 ** k, 0.0)
        assert _exact_sum([row]) == want
        assert _exact_sum([np.stack([row, -row])]) == [want, -want]


def test_exact_sum_ties_and_deeper_levels_beside_settled_rows(monkeypatch):
    """Exact ties round half to even, as in fsum; a row that the first
    level does not settle sits among rows that it does."""
    from suq2 import spectral

    ulp = 2.0 ** -52
    ties = [[1.0, ulp / 2], [1.0 + ulp, ulp / 2], [1.0, ulp / 4, ulp / 4],
            [1.0 + ulp, ulp / 4, ulp / 8, ulp / 8], [-1.0, -ulp / 2],
            [2.0 ** 1000, 2.0 ** 947], [2.0 ** -1000, 2.0 ** -1053]]
    rng = np.random.default_rng(5)
    plain = rng.standard_normal((4, 6)).tolist()
    rows = np.array([r + [0.0] * (6 - len(r)) for r in ties] + plain)
    outcomes = []
    settled = spectral._settled

    def recorded(levels, rest, rest_err):
        out = settled(levels, rest, rest_err)
        outcomes.append((len(levels), math.isnan(out)))
        return out

    monkeypatch.setattr(spectral, "_settled", recorded)
    _assert_rows_like_fsum(rows, [rows[:, :2], rows[:, 2:]])
    assert (1, True) in outcomes and (1, False) in outcomes
    # Rows far apart in size share one sigma per level: the small ones go
    # on from their own size.
    scaled = rng.standard_normal((3, 50)) * np.array([[1.0], [2.0 ** -300],
                                                      [2.0 ** -1000]])
    _assert_rows_like_fsum(scaled, [scaled])


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
    # Decreasing offsets whose z = 3 + eps round to 3, or to one z.
    for sched in ((1e-200, 1e-201, 1e-202), (4e-16, 3e-16, 2.5e-16)):
        with pytest.raises(ValueError, match="off 3"):
            residue_extract("deltaL2-e11", 0.5, schedule=sched)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_z_rejected(bad):
    # A bare "z <= 2" guard is False for NaN and lets it into the sums.
    calls = [
        lambda: upsilon_value("identity", [bad], 0.5, 10),
        lambda: upsilon_value("gamma", [4.0, bad], 0.5, 10),
        lambda: tail_bound("identity", 10, bad, 0.5),
        lambda: tail_bound("gamma", 10, bad, 0.5),
        lambda: eigen_lattice_sum([bad], 0.5),
        lambda: eigen_lattice_sum([4.0, bad], 0.5, admitted=False),
        lambda: upsilon_cstarc_lattice([4.0, bad], 0.5),
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
        upsilon_value("identity", [4.0], 0.5, lmax)
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

def _ref_dirac_matrix(grid):
    """``dirac_matrix`` placed block by block into a zero matrix."""
    labels = []
    blocks = []
    for l2 in range(grid.lmax + 1):
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


def _ref_commutator_growth(q, lmax):
    """``commutator_growth`` with D assembled a second time, each sector
    placed at its spinor slots by ``np.ix_``."""
    grid = SpectralGrid(q, lmax)
    mm = mult_op_matrix(A, grid)
    npw = len(mm.labels)
    pos = {lab: k for k, lab in enumerate(mm.labels)}
    mult_sp = np.kron(mm.matrix, np.eye(2))
    dirac_sp = np.zeros((2 * npw, 2 * npw))
    for l2 in range(grid.lmax + 1):
        sector = dirac_sector_matrix(l2, q)
        for i2 in range(-l2, l2 + 1, 2):
            up = [2 * pos[(l2, i2, j2)] for j2 in range(-l2, l2 + 1, 2)]
            slots = up + [s + 1 for s in up]
            dirac_sp[np.ix_(slots, slots)] = sector
    comm = dirac_sp @ mult_sp - mult_sp @ dirac_sp
    flagged = set(mm.flagged)
    out = []
    for l2 in range(0, lmax):
        best = 0.0
        for lab, p in pos.items():
            if lab[0] != l2 or lab in flagged:
                continue
            for sp in (2 * p, 2 * p + 1):
                best = max(best, float(np.linalg.norm(comm[:, sp])))
        out.append((l2, best))
    return out


@pytest.mark.parametrize("lmax", (1, 3, 5))
@pytest.mark.parametrize("q", Q_GRID)
def test_one_dirac_assembly_matches_placed_blocks(q, lmax):
    grid = SpectralGrid(q, lmax)
    mat, labels = dirac_matrix(grid)
    ref, ref_labels = _ref_dirac_matrix(grid)
    assert mat.shape == ref.shape and labels == ref_labels
    assert mat.tobytes() == ref.tobytes()
    assert commutator_growth(q, lmax) == _ref_commutator_growth(q, lmax)


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
