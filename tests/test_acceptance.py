"""Acceptance battery: one test per headline guarantee, sharing the
check implementations with the command-line verifier.

Each test prints the verifier's formatted line (visible with -s, and in
the captured output of any failing test) and asserts the check's pass
flag with its diagnostic line as the failure message.  Runtime budgets
are asserted where the guarantee states one.  Checks that fail do so as
measured; their diagnostics pin the discrepancy precisely, and the unit
suites freeze the corresponding machine-exact identities.
"""

import itertools
import math
import types

import pytest

from suq2 import acceptance, hochschild, modular, spectral
from suq2.hochschild import Cochain
from suq2.spectral import lambda_eigen


def _run(check_id, budget=None):
    (res,) = acceptance.run_checks([check_id], report=print)
    if budget is not None:
        assert res.seconds < budget, (
            f"{check_id} took {res.seconds:.1f}s, budget {budget}s")
    assert res.passed, res.detail
    return res


def test_algebra_suite_exact_identities():
    _run("algebra-suite", budget=10.0)


def test_hopf_actions_match_sweedler_oracle():
    _run("action-oracle", budget=30.0)


def test_haar_twisted_trace_laws():
    _run("twisted-traces")


def test_cocycle_closure_under_twisted_coboundary():
    _run("cocycle-closure", budget=300.0)


def test_comparison_cochain_identities():
    _run("comparison-identities")


def test_volume_pairings_and_combination():
    _run("volume-pairings")


@pytest.fixture(scope="module")
def pi_split_result():
    """One unmutated pi-split run, shared by the tests that read it."""
    (res,) = acceptance.run_checks(["pi-split"], report=print)
    return res


def test_ladder_split_of_residue_cochain(pi_split_result):
    assert pi_split_result.passed, pi_split_result.detail


def test_residue_details_count_nonzero_tuples(pi_split_result):
    # The residue cochain vanishes on every random 4-tuple of both checks,
    # so their random halves compare zeros; the detail lines say so.  The
    # zero-weight monomial tuples of both checks are where it is nonzero.
    detail = pi_split_result.detail
    assert detail.endswith("; residue cochain nonzero on 12/256 generator, "
                           "168/1468 zero-weight monomial and 0/200 random "
                           "tuples"), detail
    _, detail = acceptance.check_volume_pairings()
    assert detail.endswith("(residue cochain nonzero on 12/61 zero-weight "
                           "monomial and 0/200 random tuples)"), detail


def test_peterweyl_norm_formula():
    _run("peterweyl-norms")


def test_dirac_spectrum_closed_forms():
    _run("dirac-spectrum")


def test_clebsch_gordan_ladder_forms():
    _run("clebsch-forms")


def test_residue_of_modular_weighted_trace():
    _run("residue-deltaL2", budget=360.0)


def test_holomorphy_of_cstarc_trace():
    _run("holomorphy-cstarc")


def test_gamma_trace_vanishes():
    _run("gamma-vanishes")


def test_meromorphic_reference_family():
    _run("mero-reference")


# ---------------------------------------------------------------------------
# The corrected checks must still be able to fail.

def test_comparison_check_rejects_the_plus_sign(monkeypatch):
    # Negating the named phi_132 turns the checked minus into the plus
    # form, which holds only where phi_132 vanishes.
    phi_132 = acceptance.PHI_132
    monkeypatch.setattr(acceptance, "PHI_132",
                        Cochain(3, lambda *a: -phi_132(*a), "-phi_132"))
    passed, detail = acceptance.check_comparison_identities()
    assert not passed
    assert "fails on 2/256 tuples" in detail


def test_comparison_check_rejects_a_vacuous_sweep(monkeypatch):
    # Without d every generator tuple has phi_132 = 0: both identities
    # hold, but the sign is untested, so the check must fail.
    a, b, c, _ = acceptance.gens()
    monkeypatch.setattr(acceptance, "gens", lambda: (a, b, c))
    passed, detail = acceptance.check_comparison_identities()
    assert not passed
    assert "fails on 0/81 tuples" in detail
    assert "phi_132 nonzero on 0/81" in detail


def test_cocycle_closure_rejects_an_untwisted_wrap(monkeypatch):
    # A coboundary whose wrap drops theta^-1 vanishes on every generator
    # and random 5-tuple; only the zero-weight monomial tuples catch it.
    monkeypatch.setattr(hochschild, "theta_inv", lambda x: x)
    passed, detail = acceptance.check_cocycle_closure()
    assert not passed
    assert detail == (
        "24 nonzero coboundary values by cochain: {'phi': 2, "
        "'phi_132': 2, 'phi_213': 2, 'phi_312': 2, 'phi_231': 2, "
        "'phi_321': 2, 'phi_res_over_R': 12}"), detail


def test_cocycle_closure_rejects_a_wrong_ladder_power(monkeypatch):
    # Reading each ladder slot at twist t + 1 gives its torus image the
    # power v^((t+1)w) in place of v^(tw).  The derived coboundary tables
    # still cancel formally; the neighbour products that the sweep forms
    # catch it.
    real = hochschild.slot_image
    monkeypatch.setattr(hochschild, "slot_image",
                        lambda letter, x, t: real(letter, x,
                                                  t + (letter != "h")))
    passed, detail = acceptance.check_cocycle_closure()
    assert not passed
    assert detail == (
        "54 nonzero coboundary values by cochain: {'phi': 4, "
        "'phi_132': 4, 'phi_213': 7, 'phi_312': 6, 'phi_231': 4, "
        "'phi_321': 4, 'phi_res_over_R': 25}"), detail


def test_volume_check_rejects_a_one_sided_combination(monkeypatch):
    # Weighting every cocycle by q^2 breaks the combination identity
    # where the f-first cocycles sum to nonzero: on 6 of the zero-weight
    # monomial tuples and on none of the random ones.
    monkeypatch.setattr(acceptance, "e_first", lambda order: True)
    passed, detail = acceptance.check_volume_pairings()
    assert not passed
    assert ("combination identity exact on 61 zero-weight monomial + 200 "
            "random tuples: False, broken on 6/61 zero-weight monomial and "
            "0/200 random tuples") in detail, detail


def test_pi_split_check_rejects_a_wrong_cup_sign(monkeypatch):
    # One sign for every slot order changes the ladder split; the residue
    # cochain's cup table fixed its signs when modular loaded, so the
    # patch reaches only pi_split, and the modular-matrix reference
    # catches it: the check names the ladder split identity.
    monkeypatch.setattr(modular, "sign", lambda order: 1)
    passed, detail = acceptance.check_pi_split()
    assert not passed
    assert "break the ladder split identity" in detail


def test_pi_split_check_rejects_swapped_weight_shifts(monkeypatch):
    # Swapping the e and f shifts makes the torus route keep exactly the
    # components that the ladders move off the diagonal, so it reads zero
    # on all 180 tuples where the residue cochain is nonzero; the ladder
    # split does not use the shifts and still holds.
    monkeypatch.setattr(hochschild, "SHIFTS", {"h": 0, "e": -2, "f": 2})
    passed, detail = acceptance.check_pi_split()
    assert not passed
    assert detail.startswith("180 of "), detail
    assert "break the torus route identity" in detail
    assert "ladder split identity" not in detail


def test_holomorphy_check_rejects_a_pole(monkeypatch):
    # deltaL2-e11 has a residue of order 1 in place of c*c.
    real = spectral.residue_extract
    monkeypatch.setattr(spectral, "residue_extract",
                        lambda omega, q, **kw: real("deltaL2-e11", q, **kw))
    passed, detail = acceptance.check_holomorphy_cstarc()
    assert not passed, detail


def test_holomorphy_check_rejects_a_small_pole(monkeypatch):
    # A residue of 5e-4 clears both 1e-3 gates; only the collapse
    # condition (refined at most 1/50 of standard) can catch it.
    real = spectral.residue_extract

    def with_small_pole(omega, q, **kw):
        rep = real(omega, q, **kw)
        return rep._replace(estimate=rep.estimate + 5e-4)

    monkeypatch.setattr(spectral, "residue_extract", with_small_pole)
    passed, detail = acceptance.check_holomorphy_cstarc()
    assert not passed, detail
    assert "= 5.0e-04 at q=0.5 and 5.0e-04 at q=0.3 (gate 1e-3)" in detail


def test_dirac_check_rejects_a_pair_block_admitting_n_minus_one(monkeypatch):
    # The pair-block route with its mode filter one step too wide: the
    # modes n = 2j - 1 = -1 (j = 0, at even 2l >= 2) are summed too, each
    # pair +-lambda with multiplicity l2 + 1.
    real = spectral.upsilon_identity_pairblocks

    def too_wide(z, q, lmax):
        extra = math.fsum(
            2 * (l2 + 1) * (1.0 + lambda_eigen(l2, -1, q) ** 2) ** (-0.5 * z)
            for l2 in range(2, lmax + 1, 2))
        return real(z, q, lmax) + extra

    monkeypatch.setattr(spectral, "upsilon_identity_pairblocks", too_wide)
    passed, detail = acceptance.check_dirac_spectrum()
    assert not passed
    assert "pair-block identity scan rel dev" in detail


def _residue_on_target(monkeypatch):
    # Every extraction lands on R itself, so only the time gate can fail.
    real = spectral.residue_extract

    def on_target(omega, q, **kw):
        target = 4.0 * (1.0 / q - q) / math.log(1.0 / q)
        return real(omega, q, **kw)._replace(estimate=target)

    monkeypatch.setattr(spectral, "residue_extract", on_target)


def _clock(monkeypatch, seconds):
    # Each q reads the clock before and after its extraction.
    ticks = itertools.count(0.0, seconds)
    monkeypatch.setattr(acceptance, "time", types.SimpleNamespace(
        perf_counter=lambda: next(ticks)))


def test_residue_detail_does_not_depend_on_timing(monkeypatch):
    _residue_on_target(monkeypatch)
    verdicts = []
    for seconds in (0.01, 95.0):
        _clock(monkeypatch, seconds)
        verdicts.append(acceptance.check_residue_deltaL2())
    assert verdicts[0] == verdicts[1]
    passed, detail = verdicts[0]
    assert passed, detail
    assert "gate 120s" not in detail


def test_residue_check_fails_past_the_time_gate_and_names_it(monkeypatch):
    _residue_on_target(monkeypatch)
    _clock(monkeypatch, 121.0)
    passed, detail = acceptance.check_residue_deltaL2()
    assert not passed
    assert detail.count(" in 121.0s (gate 120s)") == 3, detail
