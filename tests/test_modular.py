"""Tests for the symbolic Dirac-commutator matrix calculus and the
normalized residue functional."""

from fractions import Fraction

import pytest

from suq2 import hochschild
from suq2.acceptance import _zero_weight_monomial_tuples
from suq2.actions import act_e, act_f, act_h, act_k, theta_inv
from suq2.algebra import AlgebraElement, gens
from suq2.functionals import int_one
from suq2.hochschild import (
    COCYCLES,
    ORDERS,
    PHI,
    PHI_132,
    PHI_213,
    PHI_231,
    PHI_312,
    PHI_321,
    VOLUME_CHAIN,
    Cochain,
    boundary,
    cup,
    sign,
)
from suq2.modular import (
    ModularMatrix,
    OutsideEvaluatedDomainError,
    commutator_d,
    mm_mul,
    phi_res_over_r,
    phi_res_via_commutators,
    pi_split,
    stilde,
    tau_over_R,
    ttilde,
)
from suq2.sampling import make_rng, random_element
from suq2.scalars import ONE, ZERO, Scalar

A, B, C, D = gens()
UNIT = AlgebraElement.unit()
ZEL = AlgebraElement.zero()


def residue_combination(a0, a1, a2, a3):
    """q^2 (phi + phi_213 + phi_231) + (phi_132 + phi_312 + phi_321)."""
    args = (a0, a1, a2, a3)
    head = PHI(*args) + PHI_213(*args) + PHI_231(*args)
    tail = PHI_132(*args) + PHI_312(*args) + PHI_321(*args)
    return Scalar.q_pow(2) * head + tail


def _delta(power):
    """DeltaL_hat**power, the unit matrix at that modular power."""
    return ModularMatrix({power: ((UNIT, ZEL), (ZEL, UNIT))})


class TestModularMatrix:
    def test_zero_and_identity(self):
        assert ModularMatrix.zero().is_zero()
        m = ModularMatrix.from_element(B)
        assert mm_mul(_delta(0), m) == m
        assert mm_mul(m, _delta(0)) == m

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            ModularMatrix({-1: ((UNIT, ZEL), (ZEL, UNIT))})

    def test_zero_parts_dropped(self):
        m = ModularMatrix({3: ((ZEL, ZEL), (ZEL, ZEL))})
        assert m.is_zero()
        assert m.powers == ()

    def test_cancelling_entries_dropped(self):
        rng = make_rng(737)
        for _ in range(4):
            x = random_element(rng, max_degree=2, max_terms=2)
            diff = commutator_d(x) - commutator_d(x)
            assert diff.is_zero() and diff.powers == ()
        # Row (1, 1) against column (1, -1), once at power zero and once
        # across one modular power, whose push rescales the lower entry
        # by q^2.
        row = ModularMatrix({0: ((UNIT, UNIT), (ZEL, ZEL))})
        col = ModularMatrix({0: ((B, ZEL), (-B, ZEL))})
        row1 = ModularMatrix({1: ((UNIT, UNIT), (ZEL, ZEL))})
        col1 = ModularMatrix({0: ((B, ZEL), (-B.scale(Scalar.q_pow(-2)),
                                               ZEL))})
        for prod in (mm_mul(row, col), mm_mul(row1, col1)):
            assert prod.is_zero() and prod.powers == ()
        assert not mm_mul(row1, col).is_zero()

    def test_sums_of_other_types_do_not_mix(self):
        with pytest.raises(TypeError):
            ModularMatrix() + AlgebraElement.unit()
        with pytest.raises(TypeError):
            AlgebraElement.unit() - _delta(0)
        with pytest.raises(TypeError):
            _delta(0) + 1
        assert (ModularMatrix.zero() == AlgebraElement.zero()) is False
        assert (_delta(0) == 1) is False

    def test_from_element_multiplicative(self):
        rng = make_rng(731)
        for _ in range(5):
            x = random_element(rng, max_degree=2, max_terms=2)
            y = random_element(rng, max_degree=2, max_terms=2)
            lhs = mm_mul(ModularMatrix.from_element(x),
                         ModularMatrix.from_element(y))
            assert lhs == ModularMatrix.from_element(x * y)

    def test_delta_power_composition(self):
        lhs = mm_mul(_delta(1), _delta(2))
        assert lhs == _delta(3)

    def test_push_rule_on_single_entry(self):
        # Moving one modular power across an upper-right entry multiplies it
        # by q^{-2} and applies the inverse modular automorphism.
        m = ModularMatrix({0: ((ZEL, B), (ZEL, ZEL))})
        pushed = mm_mul(_delta(1), m)
        expected_entry = act_k(B, 2).scale(Scalar.q_pow(-2))
        expected = ModularMatrix({1: ((ZEL, expected_entry), (ZEL, ZEL))})
        assert pushed == expected

    def test_push_rules_for_commutator_parts(self):
        rng = make_rng(732)
        delta = _delta(1)
        for _ in range(8):
            x = random_element(rng, max_degree=3, max_terms=3)
            shifted = act_k(x, 2)
            assert mm_mul(delta, ttilde(x)) == mm_mul(ttilde(shifted), delta)
            assert mm_mul(delta, stilde(x)) == mm_mul(stilde(shifted), delta)

    def test_associativity(self):
        rng = make_rng(733)
        mats = []
        for _ in range(3):
            x = random_element(rng, max_degree=2, max_terms=2)
            mats.append(commutator_d(x))
        m1, m2, m3 = mats
        assert mm_mul(mm_mul(m1, m2), m3) == mm_mul(m1, mm_mul(m2, m3))


class TestCommutator:
    def test_on_unit(self):
        assert commutator_d(UNIT).is_zero()

    def test_on_first_generator(self):
        got = commutator_d(A)
        half = Scalar.from_fraction(Fraction(1, 2))
        s_entry = A.scale(-half)
        t_entry = B.scale(Scalar.q_pow(-1))
        expected = ModularMatrix({
            0: ((s_entry, ZEL), (ZEL, -s_entry)),
            1: ((ZEL, t_entry), (ZEL, ZEL)),
        })
        assert got == expected

    def test_off_diagonal_entries_from_ladder(self):
        rng = make_rng(734)
        for _ in range(5):
            x = random_element(rng, max_degree=3, max_terms=2)
            part = commutator_d(x).part(1)
            half = act_k(x, 1)
            assert part[0][1] == act_e(half).scale(Scalar.v_pow(-1))
            assert part[1][0] == act_f(half).scale(Scalar.v_pow(1))

    def test_derivation_property(self):
        rng = make_rng(735)
        for _ in range(6):
            x = random_element(rng, max_degree=2, max_terms=2)
            y = random_element(rng, max_degree=2, max_terms=2)
            lhs = commutator_d(x * y)
            rhs = (mm_mul(commutator_d(x), ModularMatrix.from_element(y))
                   + mm_mul(ModularMatrix.from_element(x), commutator_d(y)))
            assert lhs == rhs


class TestResidueFunctional:
    def test_unit_diagonal_at_power_two(self):
        m = ModularMatrix({2: ((UNIT, ZEL), (ZEL, ZEL))})
        assert tau_over_R(m) == ONE
        m2 = ModularMatrix({2: ((ZEL, ZEL), (ZEL, UNIT))})
        assert tau_over_R(m2) == ONE

    def test_grading_form_at_power_zero(self):
        grading = ModularMatrix({0: ((UNIT, ZEL), (ZEL, -UNIT))})
        m = mm_mul(ModularMatrix.from_element(B + D), grading)
        assert tau_over_R(m) == ZERO

    def test_off_diagonal_any_power(self):
        for power in (0, 1, 2, 3):
            m = ModularMatrix({power: ((ZEL, B), (C, ZEL))})
            assert tau_over_R(m) == ZERO

    def test_power_two_integrates_unit_coefficient(self):
        rng = make_rng(736)
        for _ in range(5):
            x = random_element(rng, max_degree=3, max_terms=3)
            y = random_element(rng, max_degree=3, max_terms=3)
            m = ModularMatrix({2: ((x, ZEL), (ZEL, y))})
            assert tau_over_R(m) == int_one(x) + int_one(y)

    def test_rejects_unbalanced_diagonal_off_power_two(self):
        for power in (0, 1, 3):
            m = ModularMatrix({power: ((A, ZEL), (ZEL, ZEL))})
            with pytest.raises(OutsideEvaluatedDomainError):
                tau_over_R(m)

    def test_twisted_trace_transport(self):
        # tau(M . Delta^2 . alpha) = tau(theta_inv(alpha) . M . Delta^2) for
        # matrices with algebra entries, evaluated through the symbolic rules.
        rng = make_rng(737)
        delta2 = _delta(2)
        for _ in range(6):
            entries = [random_element(rng, max_degree=2, max_terms=2)
                       for _ in range(4)]
            m = ModularMatrix({0: ((entries[0], entries[1]),
                                   (entries[2], entries[3]))})
            alpha = random_element(rng, max_degree=2, max_terms=2)
            lhs = tau_over_R(mm_mul(mm_mul(m, delta2),
                                    ModularMatrix.from_element(alpha)))
            rhs = tau_over_R(mm_mul(ModularMatrix.from_element(
                theta_inv(alpha)), mm_mul(m, delta2)))
            assert lhs == rhs


class TestResidueCochain:
    def test_units_vanish(self):
        assert phi_res_over_r(UNIT, UNIT, UNIT, UNIT) == ZERO

    def test_off_diagonal_a0_reads_no_cup(self, monkeypatch):
        # Every order reads only the torus image of a0, so an a0 without a
        # diagonal gives zero before any slot image is read; otherwise one
        # call reads each (slot, derivation, twist) image at most once.
        calls = []
        real = hochschild.slot_image

        def counted(letter, x, t):
            calls.append((letter, id(x), t))
            return real(letter, x, t)

        monkeypatch.setattr(hochschild, "slot_image", counted)
        assert phi_res_over_r(B + A * B, D, A, C) == ZERO
        assert calls == []
        want = phi_res_over_r(A, D, A, C)
        calls.clear()
        assert phi_res_over_r(A + B, D, A, C) == want
        assert 0 < len(calls) == len(set(calls)) <= 11
        calls.clear()
        # Every slot image of the generator sum is nonzero, so all 11
        # distinct images of the six orders are read, once each.
        x1, x2, x3 = (A + B + C + D for _ in range(3))
        phi_res_over_r(UNIT, x1, x2, x3)
        assert len(calls) == len(set(calls)) == 11

    def test_matches_the_signed_cup_sum(self):
        # The one-pass evaluation against sum sign(order) int(cup(order)),
        # with the cup products formed as elements: on every zero-weight
        # monomial 4-tuple of degree at most 2, and on seeded two-term
        # tuples that add a random term to a fractional multiple of each
        # factor of one where the residue cochain is nonzero.
        def signed_cup_sum(tup):
            out = ZERO
            for order in ORDERS.values():
                out += sign(order) * int_one(cup(order, *tup))
            return out

        tuples = _zero_weight_monomial_tuples(2, 4)
        assert len(tuples) == 1468
        nonzero = []
        for tup in tuples:
            want = signed_cup_sum(tup)
            assert phi_res_over_r(*tup) == want, tup
            if not want.is_zero():
                nonzero.append(tup)
        assert len(nonzero) == 168
        rng = make_rng(741)
        mixed = 0
        for tup in rng.sample(nonzero, 40):
            tup = tuple(x.scale(Fraction(rng.randint(1, 5), rng.randint(1, 7)))
                        + random_element(rng, max_degree=2, max_terms=1)
                        for x in tup)
            want = signed_cup_sum(tup)
            assert phi_res_over_r(*tup) == want, tup
            mixed += not want.is_zero()
        assert mixed == 40

    def test_no_domain_errors_on_algebra_inputs(self):
        rng = make_rng(738)
        for _ in range(4):
            tup = tuple(random_element(rng, max_degree=2, max_terms=2)
                        for _ in range(4))
            phi_res_over_r(*tup)  # must not raise

    def test_matches_cocycle_combination(self):
        rng = make_rng(739)
        for gen_tup in ((D, A, B, C), (C, B, A, D), (B, D, C, A)):
            assert (phi_res_via_commutators(*gen_tup)
                    == residue_combination(*gen_tup))
        for _ in range(8):
            tup = tuple(random_element(rng, max_degree=3, max_terms=2)
                        for _ in range(4))
            assert phi_res_via_commutators(*tup) == residue_combination(*tup)

    def test_boundary_vanishes(self):
        rng = make_rng(740)
        bres = boundary(Cochain(3, phi_res_over_r, "phi_res_over_R"))
        for _ in range(4):
            tup = tuple(random_element(rng, max_degree=2, max_terms=2)
                        for _ in range(5))
            assert bres(*tup) == ZERO

    def test_volume_pairing_value(self):
        # Equals 3(q^2+1) times the fundamental pairing value, through the
        # combination identity and the equal pairing of all six variants.
        res = Cochain(3, phi_res_over_r, "phi_res_over_R")
        got = res.pair_chain(VOLUME_CHAIN)
        three_halves = Scalar.from_fraction(Fraction(3, 2))
        assert got == three_halves * (Scalar.q_pow(-1) + Scalar.q_pow(1))


class TestPiSplit:
    def test_units(self):
        p1, p2 = pi_split(UNIT, UNIT, UNIT, UNIT)
        assert p1.is_zero() and p2.is_zero()

    def test_swap_symmetry(self):
        # The second entry is the first with the two ladder derivations
        # exchanged and the overall sign flipped; check via an explicit
        # rebuild on random tuples.
        rng = make_rng(741)

        def pi1_with(e_fn, f_fn, a0, a1, a2, a3):
            return (a0 * act_h(a1) * e_fn(act_k(a2, 1)) * f_fn(act_k(a3, 3))
                    - a0 * e_fn(act_k(a1, 1)) * act_h(act_k(a2, 2))
                    * f_fn(act_k(a3, 3))
                    + a0 * e_fn(act_k(a1, 1)) * f_fn(act_k(a2, 3))
                    * act_h(act_k(a3, 4)))

        for _ in range(4):
            tup = tuple(random_element(rng, max_degree=2, max_terms=2)
                        for _ in range(4))
            p1, p2 = pi_split(*tup)
            assert p1 == pi1_with(act_e, act_f, *tup)
            assert p2 == -pi1_with(act_f, act_e, *tup)

    def test_integrals_reproduce_residue_cochain(self):
        rng = make_rng(742)
        for gen_tup in ((D, A, B, C), (A, D, C, B)):
            p1, p2 = pi_split(*gen_tup)
            assert (int_one(p1) + int_one(p2)
                    == phi_res_via_commutators(*gen_tup))
        for _ in range(8):
            tup = tuple(random_element(rng, max_degree=3, max_terms=2)
                        for _ in range(4))
            p1, p2 = pi_split(*tup)
            assert (int_one(p1) + int_one(p2)
                    == phi_res_via_commutators(*tup))
