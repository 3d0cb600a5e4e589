"""Tests for the twisted Hochschild complex, the cup-product cocycles, the
degree-2 comparison cochains, and the volume 3-chain."""

import itertools

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from suq2 import hochschild
from suq2.actions import (
    act_e,
    act_e_right,
    act_f,
    act_f_right,
    act_h,
    act_k,
    theta_inv,
)
from suq2.acceptance import (_monomials_up_to, _random_tuples,
                              _zero_weight_monomial_tuples)
from suq2.algebra import (AlgebraElement, Monomial, _accumulate, gens,
                          normalize_word)
from suq2.functionals import haar, int_one, int_one_product, torus
from suq2.modular import (_CLOSED_COCHAINS, PHI_RES_OVER_R,
                          phi_res_via_commutators)
from suq2.hochschild import (
    COCYCLES,
    PHI,
    PHI_132,
    PHI_213,
    PHI_231,
    PHI_312,
    PHI_321,
    PSI_132,
    ORDERS,
    PSI_213,
    SHIFTS,
    VOLUME_CHAIN,
    Chain,
    Cochain,
    boundary,
    chain_boundary,
    cup,
    cup_cochain,
    e_first,
    factor_image,
    int_one_table,
    sign,
    slot_image,
)
from suq2.sampling import make_rng, random_element, random_monomial
from suq2.scalars import ONE, ZERO, Scalar

A, B, C, D = gens()
GENS = (A, B, C, D)
UNIT = AlgebraElement.unit()


def q_pow(k: int) -> Scalar:
    return Scalar.q_pow(k)


class TestCochainBasics:
    def test_degree_mismatch_rejected(self):
        with pytest.raises(TypeError):
            PHI(A, B, C)

    def test_pair_chain_degree_mismatch(self):
        bad: Chain = [(ONE, (A, B, C))]
        with pytest.raises(ValueError):
            PHI.pair_chain(bad)

    def test_pair_empty_chain(self):
        assert PHI.pair_chain([]) == ZERO

    def test_multilinearity(self):
        rng = make_rng(411)
        lam = Scalar.v_pow(2) + 3
        for _ in range(5):
            fixed = [random_element(rng, max_degree=2, max_terms=2)
                     for _ in range(3)]
            x = random_element(rng, max_degree=2, max_terms=2)
            y = random_element(rng, max_degree=2, max_terms=2)
            for slot in range(4):
                args_combined = list(fixed)
                args_combined.insert(slot, x.scale(lam) + y)
                args_x = list(fixed)
                args_x.insert(slot, x)
                args_y = list(fixed)
                args_y.insert(slot, y)
                assert PHI(*args_combined) == lam * PHI(*args_x) + PHI(*args_y)


class TestBoundaryOperator:
    def test_double_boundary_vanishes(self):
        rng = make_rng(413)

        def raw(x, y, w):
            return haar(x * act_k(y, 2) * w)

        g = Cochain(2, raw, "g")
        bbg = boundary(boundary(g))
        for _ in range(6):
            tup = tuple(random_element(rng, max_degree=2, max_terms=2)
                        for _ in range(5))
            assert bbg(*tup) == ZERO

    def test_boundary_raises_degree(self):
        assert boundary(PSI_132).degree == 3
        assert boundary(PHI).degree == 4

    def test_wrap_term_uses_inverse_twist(self):
        # On a 0-cochain the boundary is f(xy) - f(theta_inv(y) x).
        f = Cochain(0, haar, "h")
        bf = boundary(f)
        rng = make_rng(414)
        for _ in range(8):
            x = random_element(rng, max_degree=3, max_terms=2)
            y = random_element(rng, max_degree=3, max_terms=2)
            assert bf(x, y) == haar(x * y) - haar(theta_inv(y) * x)
        # The Haar state is a trace twisted by the automorphism itself, not
        # its inverse, so this boundary must NOT vanish; the witness value
        # pins the direction of the wrap twist.
        assert bf(A, D) == ONE - q_pow(2)


class TestCocycleClosure:
    # The full generator sweep lives in the acceptance suite; here we keep a
    # fast deterministic slice plus random tuples, including units in inner
    # slots to exercise the degeneracies.
    def test_closed_on_generator_slice(self):
        for name, coc in COCYCLES.items():
            bc = boundary(coc)
            for tup in itertools.product((A, D), repeat=5):
                assert bc(*tup) == ZERO, name
            for tup in ((D, A, B, C, D), (C, B, A, D, A), (B, C, D, A, B),
                        (A, UNIT, B, C, D), (D, C, UNIT, B, A),
                        (UNIT, A, B, C, D), (A, B, C, D, UNIT)):
                assert bc(*tup) == ZERO, name

    def test_closed_on_random_tuples(self):
        rng = make_rng(415)
        boundaries = [boundary(c) for c in COCYCLES.values()]
        for _ in range(6):
            tup = tuple(random_element(rng, max_degree=3, max_terms=2)
                        for _ in range(5))
            for bc in boundaries:
                assert bc(*tup) == ZERO


class TestComparisonCochains:
    """The two degree-2 cochains whose boundaries compare the fundamental
    cocycle with its reordered variants."""

    def test_psi_on_units(self):
        assert PSI_132(UNIT, UNIT, UNIT) == ZERO
        assert PSI_213(UNIT, UNIT, UNIT) == ZERO

    def test_boundary_identities_on_all_generator_tuples(self):
        # Exhaustive over all 4^4 generator 4-tuples: the boundary of each
        # comparison cochain equals the fundamental cocycle MINUS the named
        # variant (the variant definitions absorb a sign into their
        # prefactors, which flips the plus seen at the unprefixed level).
        b132 = boundary(PSI_132)
        b213 = boundary(PSI_213)
        saw_nonzero_132 = False
        saw_nonzero_213 = False
        for tup in itertools.product(GENS, repeat=4):
            v132 = PHI_132(*tup)
            v213 = PHI_213(*tup)
            phi_v = PHI(*tup)
            assert b132(*tup) == phi_v - v132
            assert b213(*tup) == phi_v - v213
            saw_nonzero_132 = saw_nonzero_132 or not v132.is_zero()
            saw_nonzero_213 = saw_nonzero_213 or not v213.is_zero()
        # the sweep must not be vacuous, otherwise the sign is untested
        assert saw_nonzero_132 and saw_nonzero_213

    def test_boundary_identities_on_random_tuples(self):
        rng = make_rng(416)
        b132 = boundary(PSI_132)
        b213 = boundary(PSI_213)
        for _ in range(6):
            tup = tuple(random_element(rng, max_degree=3, max_terms=2)
                        for _ in range(4))
            assert b132(*tup) == PHI(*tup) - PHI_132(*tup)
            assert b213(*tup) == PHI(*tup) - PHI_213(*tup)


class TestVolumeChain:
    def test_term_count(self):
        assert len(VOLUME_CHAIN) == 13

    def _coefficient(self, words):
        target = tuple(normalize_word(w) for w in words)
        total = ZERO
        for coeff, factors in VOLUME_CHAIN:
            if factors == target:
                total = total + coeff
        return total

    def test_marked_coefficients(self):
        assert self._coefficient(("c", "b", "c", "b")) == q_pow(-1) - q_pow(1)
        assert self._coefficient(("d", "c", "b", "a")) == -q_pow(2)
        assert self._coefficient(("d", "a", "b", "c")) == ONE
        assert self._coefficient(("c", "a", "b", "d")) == -q_pow(-1)

    def test_is_cycle_against_probe_cochains(self):
        # A 3-chain is a cycle for the predual differential exactly when the
        # boundary of every 2-cochain pairs to zero against it.  Exercise a
        # structurally diverse batch.
        probes = [
            Cochain(2, lambda x, y, w: haar(x * y * w), "haar3"),
            Cochain(2, lambda x, y, w: int_one(x * y * w), "int3"),
            Cochain(2, lambda x, y, w: int_one(
                x * act_k(y, 2) * act_k(w, 4)), "int-twisted"),
            Cochain(2, lambda x, y, w: haar(x * theta_inv(y) * w),
                    "haar-twisted"),
            PSI_132,
            PSI_213,
        ]
        for g in probes:
            assert boundary(g).pair_chain(VOLUME_CHAIN) == ZERO, g.name


def _expanded(chain):
    """A chain as a map from tuples of monomials to nonzero coefficients,
    each elementary tensor multiplied out over its factors' terms."""
    out = {}
    for coeff, factors in chain:
        for combo in itertools.product(*(f.terms.items() for f in factors)):
            c = coeff
            for _, fc in combo:
                c = c * fc
            _accumulate(out, tuple(m for m, _ in combo), c)
    return out


class TestVolumeBoundary:
    """dvol is a twisted 3-cycle: its `chain_boundary` cancels exactly
    over monomial triples, which no pairing with probe cochains shows."""

    def test_boundary_cancels(self):
        bdry = chain_boundary(VOLUME_CHAIN)
        assert len(bdry) == 52
        assert all(len(factors) == 3 for _, factors in bdry)
        assert _expanded(bdry) == {}

    @pytest.mark.parametrize("k", range(13))
    def test_one_flipped_sign_leaves_a_boundary(self, k):
        chain = list(VOLUME_CHAIN)
        coeff, factors = chain[k]
        chain[k] = (-coeff, factors)
        assert len(_expanded(chain_boundary(chain))) in (4, 5)

    def test_untwisted_wrap_leaves_a_boundary(self, monkeypatch):
        monkeypatch.setattr(hochschild, "theta_inv", lambda x: x)
        assert len(_expanded(chain_boundary(VOLUME_CHAIN))) == 8


class TestVolumePairings:
    """Exact pairings of the cocycles against the volume cycle.

    The value of the fundamental cocycle is pinned by three mutually
    reinforcing exact computations: direct evaluation, equality of all six
    variants (forced by the coboundary comparisons plus the cycle property),
    and the residue-cochain combination identity.
    """

    def test_fundamental_pairing_value(self):
        half = Scalar.from_fraction(Fraction(1, 2))
        assert PHI.pair_chain(VOLUME_CHAIN) == half * q_pow(-1)

    def test_all_variants_pair_equally(self):
        base = PHI.pair_chain(VOLUME_CHAIN)
        for name, coc in COCYCLES.items():
            assert coc.pair_chain(VOLUME_CHAIN) == base, name


class TestCocycleGolden:
    """Values of the six cocycles recorded before they were built from one
    cup-product table, and of the residue cochain before it was evaluated
    through that table; every generator 4-tuple not listed is zero."""

    ORDER = ("phi", "phi_132", "phi_213", "phi_312", "phi_231", "phi_321")
    NONZERO = {
        "abcd": ("0", "0", "0", "0", "0", "-1/2*v^2"),
        "abdc": ("0", "0", "0", "1/2", "0", "0"),
        "acbd": ("0", "0", "0", "0", "1/2*v^2", "0"),
        "acdb": ("0", "0", "-1/2", "0", "0", "0"),
        "adbc": ("0", "-1/2*v^-2", "0", "0", "0", "0"),
        "adcb": ("1/2*v^-2", "0", "0", "0", "0", "0"),
        "dabc": ("0", "1/2*v^-2", "0", "0", "0", "0"),
        "dacb": ("-1/2*v^-2", "0", "0", "0", "0", "0"),
        "dbac": ("0", "0", "0", "-1/2*v^-4", "0", "0"),
        "dbca": ("0", "0", "0", "0", "0", "1/2*v^-6"),
        "dcab": ("0", "0", "1/2*v^-4", "0", "0", "0"),
        "dcba": ("0", "0", "0", "0", "-1/2*v^-6", "0"),
    }

    def test_key_order(self):
        # Iterated in this order by the battery and the benchmark.
        assert tuple(COCYCLES) == self.ORDER
        assert [c.name for c in COCYCLES.values()] == list(self.ORDER)
        assert (PHI, PHI_132, PHI_213, PHI_312, PHI_231, PHI_321) == tuple(
            COCYCLES.values())

    def test_generator_values(self):
        by_letter = dict(zip("abcd", GENS))
        for word in map("".join, itertools.product("abcd", repeat=4)):
            tup = tuple(by_letter[ch] for ch in word)
            got = tuple(str(COCYCLES[name](*tup)) for name in self.ORDER)
            assert got == self.NONZERO.get(word, ("0",) * 6), word

    #: phi_res_over_R on the generator 4-tuples; the cup route and the
    #: modular-matrix reference must both give these strings.
    RESIDUE_NONZERO = {
        "abcd": "-1/2*v^2", "abdc": "1/2", "acbd": "1/2*v^6",
        "acdb": "-1/2*v^4", "adbc": "-1/2*v^-2", "adcb": "1/2*v^2",
        "dabc": "1/2*v^-2", "dacb": "-1/2*v^2", "dbac": "-1/2*v^-4",
        "dbca": "1/2*v^-6", "dcab": "1/2", "dcba": "-1/2*v^-2",
    }

    def test_residue_cochain_generator_values(self):
        by_letter = dict(zip("abcd", GENS))
        for word in map("".join, itertools.product("abcd", repeat=4)):
            tup = tuple(by_letter[ch] for ch in word)
            want = self.RESIDUE_NONZERO.get(word, "0")
            assert str(PHI_RES_OVER_R(*tup)) == want, word
            assert str(phi_res_via_commutators(*tup)) == want, word


# ---------------------------------------------------------------------------
# The bi-grading lemma: h, k and theta^-1 keep a monomial's doubled
# (left, right) weight and the ladders shift it, so each cochain here,
# which has one e and one f, vanishes on a tuple of nonzero total weight.

def _biweight(m: Monomial):
    return m.left_weight2, m.right_weight2


#: Every monomial a^n b^m c^r d^s (n*s == 0) of degree at most 3.
SMALL_MONOMIALS = [Monomial(*e) for e in itertools.product(range(4), repeat=4)
                   if sum(e) <= 3 and e[0] * e[3] == 0]


class TestBiGrading:
    @pytest.mark.parametrize("action, shift", [
        (act_h, (0, 0)),
        (act_k, (0, 0)),
        (lambda x: act_k(x, -3), (0, 0)),
        (theta_inv, (0, 0)),
        (act_e, (2, 0)),
        (act_f, (-2, 0)),
        (act_e_right, (0, -2)),
        (act_f_right, (0, 2)),
    ], ids=["h", "k", "k^-3", "theta_inv", "e", "f", "e_right", "f_right"])
    def test_action_shifts_the_biweight(self, action, shift):
        images = 0
        for m in SMALL_MONOMIALS:
            left, right = _biweight(m)
            for image in action(AlgebraElement.from_mono(m)).terms:
                assert _biweight(image) == (left + shift[0], right + shift[1])
                images += 1
        assert images >= len(SMALL_MONOMIALS) // 2

    def test_cochains_vanish_on_unbalanced_tuples(self):
        rng = make_rng(431)
        closed = [*COCYCLES.values(), PHI_RES_OVER_R]
        for cochains, arity in ((closed, 4), ((PSI_132, PSI_213), 3)):
            drawn = 0
            while drawn < 30:
                monos = [random_monomial(rng, 3) for _ in range(arity)]
                if all(sum(w) == 0 for w in zip(*map(_biweight, monos))):
                    continue
                drawn += 1
                tup = [AlgebraElement.from_mono(m) for m in monos]
                for c in cochains:
                    assert c(*tup) == ZERO, (c.name, monos)


# ---------------------------------------------------------------------------
# The torus route: each cochain reads int_one of its product off the torus
# restriction; the formed product (``cup`` for the cocycles) is the oracle.

class TestTorusRoute:
    def test_cocycles_match_the_formed_cup_product(self):
        tuples = _zero_weight_monomial_tuples(2, 4)
        assert len(tuples) == 1468
        nonzero = 0
        for name, order in ORDERS.items():
            coeff = q_pow(-2 if e_first(order) else 0) * sign(order)
            for tup in tuples:
                want = coeff * int_one(cup(order, *tup))
                assert COCYCLES[name](*tup) == want, (name, tup)
                nonzero += not want.is_zero()
        assert nonzero == 6 * 28

    def test_table_shares_the_first_product_by_derivation_and_twist(self):
        # Both entries apply h to a1, at t = 0 and at t = 2: the product
        # over a prefix of factors may be shared only between entries whose
        # prefixes are the same, twists included.  Sharing by the
        # derivation alone breaks 28 of the 56 nonzero values.
        table = ((ONE, (("k", 0), ("h", 0), ("e", 1), ("f", 3))),
                 (q_pow(2), (("k", 0), ("h", 2), ("f", 1), ("e", 3))))
        derivation = {"h": act_h, "e": act_e, "f": act_f}
        nonzero = 0
        for tup in _zero_weight_monomial_tuples(2, 4):
            want = ZERO
            for coeff, slots in table:
                x = tup[0]
                for (letter, t), a in zip(slots[1:], tup[1:]):
                    x = x * derivation[letter](act_k(a, t))
                want += coeff * int_one(x)
            assert int_one_table(table, *tup) == want, tup
            nonzero += not want.is_zero()
        assert nonzero == 56

    @pytest.mark.parametrize("letter, nonzero",
                             [("h", 8 * 9), ("e", 7 * 9), ("f", 7 * 9)])
    def test_slot_images_match_the_formed_derivation(self, letter, nonzero):
        # Every monomial of degree at most 4 at every twist t in -4..4;
        # the images survive only on a^n d^s (h) or a^n c d^s, a^n b d^s
        # (e, f) with n + s > 0 for h and n + s < 4 for the ladders.
        derivation = {"h": act_h, "e": act_e, "f": act_f}[letter]
        seen = 0
        for m in _monomials_up_to(4):
            x = AlgebraElement.from_mono(m)
            for t in range(-4, 5):
                want = torus(derivation(act_k(x, t)))
                assert slot_image(letter, x, t) == want, (letter, m, t)
                seen += bool(want)
        assert seen == nonzero

    def test_psi_match_the_formed_product(self):
        nonzero = 0
        for a0, a1, a2 in _zero_weight_monomial_tuples(2, 3):
            want_132 = int_one(act_k(a0, -4) * act_k(act_h(a1), -4)
                               * act_k(act_e(act_k(act_f(a2), 1)), -3))
            want_213 = -int_one(act_k(a0, -4)
                                * act_k(act_h(act_k(act_e(a1), 1)), -4)
                                * act_k(act_f(a2), -1))
            assert PSI_132(a0, a1, a2) == want_132
            assert PSI_213(a0, a1, a2) == want_213
            nonzero += (not want_132.is_zero()) + (not want_213.is_zero())
        assert nonzero == 9 + 6


#: Elements of up to five monomials of degree at most 4, each with a
#: fractional coefficient times a power of v.
fractional_elements = st.dictionaries(
    st.sampled_from(list(_monomials_up_to(4))),
    st.builds(lambda fr, k: Scalar.from_fraction(fr) * Scalar.v_pow(k),
              st.fractions(max_denominator=12).filter(bool),
              st.integers(-3, 3)),
    min_size=1, max_size=5).map(AlgebraElement)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from("hefk"), fractional_elements, st.integers(-4, 4))
def test_slot_image_is_the_torus_of_the_derivation(letter, x, t):
    derivation = {"h": act_h, "e": act_e, "f": act_f,
                  "k": lambda y: y}[letter]
    assert factor_image(letter, x, t) == torus(derivation(act_k(x, t)))


# ---------------------------------------------------------------------------
# Derived reads: each closed cochain reads of every slot only the weight
# offsets that its cup table gives it: a0 at 0, and slot i at -SHIFTS[d]
# for each derivation d that an entry applies there, the offset that d
# moves onto the diagonal.

def _restricted(x: AlgebraElement, offsets) -> AlgebraElement:
    return AlgebraElement({m: c for m, c in x.terms.items()
                           if m.left_weight2 - m.right_weight2 in offsets})


def _reads(c: Cochain):
    """Per slot, the offsets that the table of ``c`` reads."""
    return ((0,), *({-SHIFTS[factors[i][0]] for _, factors in c.table}
                    for i in (1, 2, 3)))


def _misread_tuples(c: Cochain, tuples, reads=None) -> int:
    """The number of tuples on which ``c`` changes when each argument is
    restricted to its slot's offsets in ``reads``, by default those of
    its table."""
    return sum(c(*tup) != c(*map(_restricted, tup, reads or _reads(c)))
               for tup in tuples)


class TestDeclaredReads:
    TUPLES = _zero_weight_monomial_tuples(2, 4) + _random_tuples(106, 4)

    @pytest.mark.parametrize("name", list(_CLOSED_COCHAINS))
    def test_closed_cochains_read_only_their_offsets(self, name):
        assert len(self.TUPLES) == 1468 + 200
        assert _misread_tuples(_CLOSED_COCHAINS[name], self.TUPLES) == 0

    def test_swapped_ladder_offsets_misread(self):
        # phi = hef reads e at -2 and f at +2; the swapped read set
        # drops every component that phi reads in those slots.
        assert _reads(PHI) == ((0,), {0}, {-2}, {2})
        swapped = ((0,), (0,), (2,), (-2,))
        assert _misread_tuples(PHI, self.TUPLES, swapped) > 0


def _hef_product(a0, a1, a2, a3):
    return int_one_product(a0, act_h(a1), act_e(a2), act_f(a3))


#: A one-entry cup table without twists that is not closed, so that its
#: derived and plain coboundaries are compared on nonzero values too.
HEF_PRODUCT = cup_cochain("hef_product",
                          ((ONE, (("k", 0), ("h", 0), ("e", 0), ("f", 0))),))


class TestRestrictedBoundary:
    """The derived coboundary tables against the plain loop, which forms
    the neighbour products.  (The class keeps the name of the restricted
    coboundary it was written for, so that its test ids stay stable.)"""
    TUPLES = (list(itertools.product(GENS, repeat=5))
              + _zero_weight_monomial_tuples(1, 5) + _random_tuples(432, 5))

    @pytest.mark.parametrize("name", list(_CLOSED_COCHAINS))
    def test_closed_cochains(self, name):
        c = _CLOSED_COCHAINS[name]
        derived, plain = boundary(c), boundary(Cochain(c.degree, c, name))
        for tup in self.TUPLES:
            assert derived(*tup) == plain(*tup), (name, tup)

    def test_a_cochain_that_is_not_closed(self):
        assert len(self.TUPLES) == 1024 + 221 + 200
        derived = boundary(HEF_PRODUCT)
        plain = boundary(Cochain(3, _hef_product, "hef_product"))
        nonzero = 0
        for tup in self.TUPLES:
            want = plain(*tup)
            assert derived(*tup) == want, tup
            nonzero += not want.is_zero()
        assert nonzero == 6


def _collected(table):
    """The table with equal factor tuples summed and zero sums dropped."""
    sums = {}
    for coeff, factors in table:
        sums[factors] = sums.get(factors, ZERO) + coeff
    return {f: c for f, c in sums.items() if not c.is_zero()}


class TestDerivedTables:
    def test_entry_counts(self):
        # Per entry of a 3-cochain: one entry for the "k" slot 0 in term 0
        # and in the wrap, two per derivation slot.
        for name in ORDERS:
            table = boundary(COCYCLES[name]).table
            assert len(table) == 8 and all(len(f) == 5 for _, f in table)
        assert len(boundary(PHI_RES_OVER_R).table) == 48
        assert PSI_132.table is None and boundary(PSI_132).table is None

    def test_collected_terms_cancel(self, monkeypatch):
        # b f = 0 for the seven is a formal identity of their derived
        # tables: the terms telescope, the wrap's ("k", 4) included.  So it
        # holds on every tuple, whatever the factor images are, and the
        # closure checks sum the definition on formed products instead.
        # An untwisted wrap (theta^-1 the identity, wrap twist 0) leaves
        # its terms standing.
        for name, c in _CLOSED_COCHAINS.items():
            assert _collected(boundary(c).table) == {}, name
        monkeypatch.setattr(hochschild, "theta_inv", lambda x: x)
        for name, c in _CLOSED_COCHAINS.items():
            assert _collected(boundary(c).table) != {}, name

    def test_slot_zero_holds_a_k_factor(self):
        # The wrap reads theta^-1 as k^4 only on a "k" factor, and the
        # evaluator reads an empty a0 image as zero only through one.
        with pytest.raises(ValueError, match="slot 0"):
            cup_cochain("h_first",
                        ((ONE, (("h", 0), ("k", 0), ("e", 1), ("f", 3))),))

    def test_double_coboundary(self):
        # b(b(HEF_PRODUCT)) through the 6-slot derived table against the
        # plain double coboundary, on seeded zero-weight monomial and
        # random 6-tuples.
        rng = make_rng(433)
        tuples = (rng.sample(_zero_weight_monomial_tuples(1, 6), 100)
                  + _random_tuples(434, 6)[:50])
        derived = boundary(boundary(HEF_PRODUCT))
        # Each of the 8 entries of b(HEF_PRODUCT) has two "k" factors and
        # three derivations: 2 + 2 * 3 + 1 entries.
        assert len(derived.table) == 8 * 9 and derived.degree == 5
        plain = boundary(boundary(Cochain(3, _hef_product, "hef_product")))
        for tup in tuples:
            assert derived(*tup) == plain(*tup), tup
