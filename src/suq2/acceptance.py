"""End-to-end verification battery shared by the command-line verifier
and the acceptance test suite.

Each check covers one headline guarantee of the stack, from the exact
rewriting layer through the twisted Hochschild calculus to the spectral
residue numerics.  A check returns only its verdict, a ``(passed,
detail)`` pair whose detail line states exactly what was measured
against what target; `run_checks` times each check and names it by its
id in `ALL_CHECKS`.  A check never raises on a verification failure, so
the battery always runs to the end and a failing line documents the
discrepancy instead of hiding it.
"""

import itertools
import math
import time
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from .actions import (
    act_e,
    act_e_right,
    act_f,
    act_f_right,
    act_weight,
    sigma_left,
    sweedler_oracle,
    sweedler_oracle_right,
    theta,
    theta_inv,
)
from .algebra import AlgebraElement, gens, mono, normalize_word
from .functionals import gns_inner, gns_norm_sq, haar, int_one
from .hochschild import (
    COCYCLES,
    ORDERS,
    PHI,
    PHI_132,
    PHI_213,
    PSI_132,
    PSI_213,
    VOLUME_CHAIN,
    boundary,
    chain_boundary,
    e_first,
)
from .mero import f_residue, h_closed, h_direct, h_err_bound
from .modular import (
    _CLOSED_COCHAINS,
    PHI_RES_OVER_R,
    phi_res_via_commutators,
    pi_split,
)
from .peterweyl import pw_orthobasis
from .rewrite import rewrite_normal_form
from .sampling import make_rng, random_element
from .scalars import ONE, ZERO, Scalar, big_q
from .spectral import (
    _STANDARD_SCHEDULE,
    SpectralGrid,
    c_ratio,
    clebsch_minus,
    clebsch_plus,
    dirac_matrix,
    dirac_sector_matrix,
    lambda_eigen,
    mult_op_matrix,
    residue_extract,
    sector_spectrum_closed,
    upsilon_identity_pairblocks,
    upsilon_value,
)

Q_GRID = (0.3, 0.5, 0.8)


class CheckResult(NamedTuple):
    check_id: str
    passed: bool
    detail: str
    seconds: float


def format_result(res: CheckResult) -> str:
    flag = "PASS" if res.passed else "FAIL"
    return f"{flag}  {res.check_id:<20} ({res.seconds:7.2f}s)  {res.detail}"


Verdict = Tuple[bool, str]


def _random_tuples(seed: int, arity: int) -> List[Tuple[AlgebraElement, ...]]:
    """200 seeded tuples of random elements of degree at most 2."""
    rng = make_rng(seed)
    return [tuple(random_element(rng, 2, 2) for _ in range(arity))
            for _ in range(200)]


def _zero_weight_monomial_tuples(max_degree: int, arity: int,
                                 ) -> List[Tuple[AlgebraElement, ...]]:
    """Every tuple of basis monomials of degree at most ``max_degree``
    whose doubled (left, right) weights add up to (0, 0), as elements."""
    monos = list(_monomials_up_to(max_degree))
    return [tuple(AlgebraElement.from_mono(m) for m in tup)
            for tup in itertools.product(monos, repeat=arity)
            if sum(m.left_weight2 for m in tup) == 0
            and sum(m.right_weight2 for m in tup) == 0]


def _counts(kinds: Dict[str, list]) -> str:
    """The sizes of named tuple sets: "256 generator + 200 random"."""
    return " + ".join(f"{len(t)} {kind}" for kind, t in kinds.items())


def _per_kind(hits: Dict[str, int], kinds: Dict[str, list]) -> str:
    """Hits out of each named tuple set: "12/256 generator and 0/200
    random tuples", the kinds in order."""
    shown = [f"{hits[kind]}/{len(t)} {kind}" for kind, t in kinds.items()]
    return f"{', '.join(shown[:-1])} and {shown[-1]} tuples"


# ---------------------------------------------------------------------------
# 1. Exact algebra layer.

def check_algebra_suite() -> Verdict:
    """Normal forms are confluent, multiplication associates, and star
    reverses products -- all as exact identities."""
    rng = make_rng(101)
    bad: List[str] = []
    for _ in range(1000):
        word = "".join(rng.choice("abcd")
                       for _ in range(rng.randint(1, 8)))
        via_rules = rewrite_normal_form(word)
        via_product = normalize_word(word)
        cut = rng.randint(0, len(word))
        via_split = normalize_word(word[:cut]) * normalize_word(word[cut:])
        if not (via_rules == via_product and via_product == via_split):
            bad.append(f"confluence:{word}")
    for _ in range(100):
        x, y, z = (random_element(rng, 3, 2) for _ in range(3))
        if (x * y) * z != x * (y * z):
            bad.append("associativity")
    for _ in range(200):
        x = random_element(rng, 3, 2)
        y = random_element(rng, 3, 2)
        if (x * y).star() != y.star() * x.star():
            bad.append("star-antihom")
        if x.star().star() != x:
            bad.append("star-involution")
    detail = ("1000 words (3 routes), 100 associativity triples, "
              "200 star pairs, all exact")
    if bad:
        detail = f"{len(bad)} failures, first: {bad[0]}"
    return not bad, detail


# ---------------------------------------------------------------------------
# 2. Hopf actions against the coproduct-pairing oracle.

def _monomials_up_to(max_degree: int):
    for n in range(max_degree + 1):
        for m in range(max_degree + 1 - n):
            for r in range(max_degree + 1 - n - m):
                for s in range(max_degree + 1 - n - m - r):
                    if n and s:
                        continue
                    yield mono(n, m, r, s)


def check_action_oracle() -> Verdict:
    """Left and right ladder and weight actions agree with the
    Sweedler-form oracles on every basis monomial of degree at most 4."""
    bad = 0
    total = 0
    first = ""
    for m in _monomials_up_to(4):
        x = AlgebraElement.from_mono(m)
        total += 1
        pairs = (
            (act_e(x), sweedler_oracle("e", x)),
            (act_f(x), sweedler_oracle("f", x)),
            (act_weight(x, "left", 1), sweedler_oracle("k", x)),
            (act_weight(x, "left", -1), sweedler_oracle("kinv", x)),
            (act_e_right(x), sweedler_oracle_right("e", x)),
            (act_f_right(x), sweedler_oracle_right("f", x)),
            (act_weight(x, "right", 1), sweedler_oracle_right("k", x)),
            (act_weight(x, "right", -1), sweedler_oracle_right("kinv", x)),
        )
        if any(got != want for got, want in pairs):
            bad += 1
            first = first or str(m)
    detail = f"{total} monomials x {len(pairs)} actions, all exact"
    if bad:
        detail = f"{bad}/{total} monomials disagree, first: {first}"
    return bad == 0, detail


# ---------------------------------------------------------------------------
# 3. Twisted trace laws of the invariant functionals.

def check_twisted_traces() -> Verdict:
    """h(xy) = h(theta(y) x) and the unit-component integral obeys the
    sigma_L^2 . theta^{-1} twist, on seeded random pairs, exactly."""
    rng = make_rng(103)
    bad = 0
    for _ in range(500):
        x = random_element(rng, 5, 2)
        y = random_element(rng, 5, 2)
        if haar(x * y) != haar(theta(y) * x):
            bad += 1
        if int_one(x * y) != int_one(sigma_left(theta_inv(y), 4) * x):
            bad += 1
    detail = "500 random pairs, both trace laws exact"
    if bad:
        detail = f"{bad} twisted-trace violations in 500 pairs"
    return bad == 0, detail


# ---------------------------------------------------------------------------
# 4. Cocycle closure under the twisted coboundary.

def coboundary_sweep(tuples: Iterable[Tuple[AlgebraElement, ...]]
                     ) -> Dict[str, int]:
    """For each closed 3-cochain of `modular._CLOSED_COCHAINS`, the number
    of the given 5-tuples on which its twisted coboundary is nonzero.

    The coboundary is evaluated by its definition, as the pairing with
    the `chain_boundary` of the tuple, formed once per tuple for all
    seven cochains, and not by `boundary`: the derived table of a closed
    cochain cancels formally (module docstring of `hochschild`), so only
    formed products test the closed forms of `hochschild.slot_image`
    against the algebra."""
    nonzero = dict.fromkeys(_CLOSED_COCHAINS, 0)
    for tup in tuples:
        chain = chain_boundary([(ONE, tup)])
        for name, c in _CLOSED_COCHAINS.items():
            if not c.pair_chain(chain).is_zero():
                nonzero[name] += 1
    return nonzero


def check_cocycle_closure() -> Verdict:
    """The coboundary of the volume cocycle, its five permuted variants
    and the residue cochain vanishes on all generator 5-tuples, every
    zero-weight 5-tuple of monomials of degree at most 1, and random
    5-tuples.  The zero-weight tuples are where a wrap that drops the
    twist theta^-1 shows: the other two kinds miss it."""
    kinds = {"generator": list(itertools.product(gens(), repeat=5)),
             "zero-weight monomial": _zero_weight_monomial_tuples(1, 5),
             "random": _random_tuples(104, 5)}
    nonzero = coboundary_sweep(tup for tuples in kinds.values()
                               for tup in tuples)
    bad = sum(nonzero.values())
    detail = (f"{len(nonzero)} cochains closed on {_counts(kinds)} "
              "5-tuples")
    if bad:
        detail = f"{bad} nonzero coboundary values by cochain: {nonzero}"
    return bad == 0, detail


# ---------------------------------------------------------------------------
# 5. The two comparison-cochain identities.

def check_comparison_identities() -> Verdict:
    """b(psi_132) = phi - phi_132 and b(psi_213) = phi - phi_213 on all
    256 generator 4-tuples, with phi_132 nonzero on at least one of them
    so that the sign is actually tested.

    The named cocycle phi_132 carries the prefactor -1 (the sign of the
    order hfe), so the plus sign of the bare cup products becomes a minus
    here.  The plus sign is also ruled out by the rest of the battery:
    b(psi_132) pairs to zero against the volume cycle and all six
    cocycles pair equally to it, so a plus would force pair(phi, dvol)
    to vanish.
    """
    b132 = boundary(PSI_132)
    b213 = boundary(PSI_213)
    first_bad = second_bad = nonzero_132 = total = 0
    for tup in itertools.product(gens(), repeat=4):
        total += 1
        phi_v = PHI(*tup)
        v132 = PHI_132(*tup)
        if b132(*tup) != phi_v - v132:
            first_bad += 1
        if b213(*tup) != phi_v - PHI_213(*tup):
            second_bad += 1
        if v132 != ZERO:
            nonzero_132 += 1
    passed = first_bad == 0 and second_bad == 0 and nonzero_132 > 0
    detail = (f"b(psi_132) = phi - phi_132 fails on {first_bad}/{total} "
              f"tuples; b(psi_213) = phi - phi_213 fails on "
              f"{second_bad}/{total}; phi_132 nonzero on "
              f"{nonzero_132}/{total}")
    if passed:
        detail = (f"both comparison identities exact on all {total} tuples "
                  f"(phi_132 nonzero on {nonzero_132})")
    return passed, detail


# ---------------------------------------------------------------------------
# 6. Volume pairings and the residue combination identity.

def check_volume_pairings() -> Verdict:
    """pair(phi, dvol) = 1, the residue cochain pairs to 3(q^{-1}+q),
    and the residue cochain, evaluated by the modular-matrix reference,
    equals its six-cocycle combination.

    The structural web is exact: all six cocycles pair equally to dvol
    and the combination identity, with coefficients q^2 and 1, holds on
    every tuple tried.  The two values miss their targets by different
    factors: pair(phi, dvol) = q^{-1}/2 against 1, and the residue
    pairing is 3/2 (q^{-1}+q), exactly half of 3(q^{-1}+q).  Their ratio
    is therefore 3(1+q^2), as the combination identity forces, and not
    the 3(q^{-1}+q) that the stated targets imply.  The stated pair
    would hold only if every cocycle were q times its present value and
    both values were then doubled; nothing in the package settles which
    of the cocycle twists, the volume chain or the targets is at fault.
    The check keeps the stated targets.

    The identity is tried on every zero-weight 4-tuple of monomials of
    degree at most 1, where the residue cochain is nonzero on some, and on
    random 4-tuples, where it vanishes.  The detail line counts the tuples
    of each kind that break the identity and those on which the residue
    cochain is nonzero.
    """
    got_phi = PHI.pair_chain(VOLUME_CHAIN)
    got_res = PHI_RES_OVER_R.pair_chain(VOLUME_CHAIN)
    three = Scalar.from_fraction(Fraction(3))
    want_res = three * (Scalar.q_pow(-1) + Scalar.q_pow(1))
    equal_bad = sum(1 for c in COCYCLES.values()
                    if c.pair_chain(VOLUME_CHAIN) != got_phi)
    kinds = {"zero-weight monomial": _zero_weight_monomial_tuples(1, 4),
             "random": _random_tuples(106, 4)}
    comb_bad = dict.fromkeys(kinds, 0)
    res_nonzero = dict.fromkeys(kinds, 0)
    q2 = Scalar.q_pow(2)
    for kind, tuples in kinds.items():
        for tup in tuples:
            part = {True: ZERO, False: ZERO}  # e-first and f-first cocycles
            for name, c in COCYCLES.items():
                part[e_first(ORDERS[name])] += c(*tup)
            res = phi_res_via_commutators(*tup)
            comb_bad[kind] += res != q2 * part[True] + part[False]
            res_nonzero[kind] += not res.is_zero()
    comb_ok = not any(comb_bad.values())
    passed = (got_phi == ONE and got_res == want_res
              and comb_ok and equal_bad == 0)
    half = Scalar.from_fraction(Fraction(1, 2))
    phi_is_half_qinv = got_phi == half * Scalar.q_pow(-1)
    half_res = got_res + got_res == want_res
    ratio = got_res / got_phi if got_phi != ZERO else None
    ratio_note = ""
    if ratio is not None and ratio == three * (ONE + q2):
        ratio_note = " = 3(1+q^2)"
    detail = (f"pair(phi, dvol) = {got_phi}"
              f"{' = q^-1/2' if phi_is_half_qinv else ''} (target 1); "
              f"residue pairing = {got_res} (target 3(q^-1+q)"
              f"{', exactly half' if half_res else ''}); "
              f"ratio residue/phi = {ratio}{ratio_note} "
              f"(targets imply 3(q^-1+q)); "
              f"six pairings equal: {equal_bad == 0}; "
              f"combination identity exact on {_counts(kinds)} tuples: "
              f"{comb_ok}")
    if not comb_ok:
        detail += f", broken on {_per_kind(comb_bad, kinds)}"
    detail += (f" (residue cochain nonzero on "
               f"{_per_kind(res_nonzero, kinds)})")
    return passed, detail


# ---------------------------------------------------------------------------
# 7. The ladder split and the torus route of the residue cochain.

def check_pi_split() -> Verdict:
    """Two routes reproduce the residue cochain, as evaluated by the
    modular-matrix reference, exactly: int(pi_1) + int(pi_2) of the
    ladder split, and `phi_res_over_r` read off the torus restriction.
    The tuples are all generator 4-tuples, every zero-weight 4-tuple of
    monomials of degree at most 2, and random 4-tuples.  The detail line
    counts the tuples of each kind on which the residue cochain is
    nonzero: an identity between zeros tests nothing."""
    kinds = {"generator": list(itertools.product(gens(), repeat=4)),
             "zero-weight monomial": _zero_weight_monomial_tuples(2, 4),
             "random": _random_tuples(107, 4)}
    bad = {"ladder split": 0, "torus route": 0}
    nonzero = dict.fromkeys(kinds, 0)
    for kind, tuples in kinds.items():
        for tup in tuples:
            res = phi_res_via_commutators(*tup)
            p1, p2 = pi_split(*tup)
            bad["ladder split"] += int_one(p1) + int_one(p2) != res
            bad["torus route"] += PHI_RES_OVER_R(*tup) != res
            nonzero[kind] += not res.is_zero()
    counts = f"{_counts(kinds)} tuples"
    detail = ("ladder split and torus route reproduce the residue cochain "
              f"on {counts}")
    if any(bad.values()):
        detail = "; ".join(f"{n} of {counts} break the {route} identity"
                           for route, n in bad.items() if n)
    detail += f"; residue cochain nonzero on {_per_kind(nonzero, kinds)}"
    return not any(bad.values()), detail


# ---------------------------------------------------------------------------
# 8. Ladder-transported matrix-coefficient norms.

def check_peterweyl_norms() -> Verdict:
    """Ladder-transport squared norms against q^{-2i} [2l+1]^{-1}: every
    stored norm is re-derived by direct Haar integration, the squared
    rescale factor onto the target is exact, and the anchor vectors
    (spin 1/2, the a-power corners, the central column) carry the target
    norm on the nose.  Exactly normalized representatives for the rest
    live in a quadratic extension, so the squared-factor web is the full
    exact content of the norm formula."""
    bad = 0
    anchors = 0
    total = 0
    for block in pw_orthobasis(4).values():
        for v in block:
            total += 1
            rho = gns_norm_sq(v.monic)
            if rho != v.norm_sq:
                bad += 1
            if v.rescale_sq * rho != v.target_norm_sq:
                bad += 1
            if v.rescale_sq == ONE:
                anchors += 1
                if rho != v.target_norm_sq:
                    bad += 1
    passed = bad == 0
    detail = (f"{total} vectors (2l <= 4): independent Haar norms and "
              f"squared rescales exact; {anchors} anchors normalized "
              f"on the target exactly")
    if not passed:
        detail = f"{bad} norm identities broke across {total} vectors"
    return passed, detail


# ---------------------------------------------------------------------------
# 9. Dirac spectrum against the closed eigenvalue formulas.

def check_dirac_spectrum() -> Verdict:
    """Truncated eigenvalues match {-(l+1/2), +-lambda_{l,2j-1}} to
    1e-9 and the eigenvector component ratios solve the sector
    eigen-equations to 1e-8, for q in {0.3, 0.5, 0.8}, 2l <= 6; the
    identity scan summed through each admitted mode's own 2x2 coupling
    block matches the closed-form scan to 1e-12 relative at z = 3.5, for
    the same q and cutoffs 10 and 60."""
    worst_ev = 0.0
    worst_ratio = 0.0
    for q in Q_GRID:
        for l2 in range(0, 7):
            mat = dirac_sector_matrix(l2, q)
            ev = np.sort(np.linalg.eigvalsh(mat))
            closed = np.array(sector_spectrum_closed(l2, q))
            worst_ev = max(worst_ev, float(np.max(np.abs(ev - closed))))
            for j2 in range(-l2 + 2, l2 + 1, 2):
                up = (j2 + l2) // 2
                down = (l2 + 1) + (j2 - 2 + l2) // 2
                lam = lambda_eigen(l2, j2 - 1, q)
                for sign in (1, -1):
                    w = np.zeros(2 * (l2 + 1))
                    w[up] = 1.0
                    w[down] = c_ratio(l2, j2, sign, q)
                    resid = mat @ w - sign * lam * w
                    rel = float(np.max(np.abs(resid)) / np.max(np.abs(w)))
                    worst_ratio = max(worst_ratio, rel)
    mat, labels = dirac_matrix(SpectralGrid(0.5, 4))
    ev = np.sort(np.linalg.eigvalsh(mat))
    expect = np.sort(np.concatenate(
        [sector_spectrum_closed(l2, 0.5)
         for l2 in range(0, 5) for _ in range(l2 + 1)]))
    worst_full = float(np.max(np.abs(ev - expect)))
    worst_pair = max(abs(upsilon_identity_pairblocks(3.5, q, lmax) - scan)
                     / scan for q in Q_GRID for lmax in (10, 60)
                     for scan in upsilon_value("identity", [3.5], q, lmax))
    passed = (worst_ev < 1e-9 and worst_ratio < 1e-8 and worst_full < 1e-9
              and worst_pair < 1e-12)
    detail = (f"eigenvalue dev {worst_ev:.2e} (tol 1e-9), ratio residual "
              f"{worst_ratio:.2e} (tol 1e-8), assembled-matrix dev "
              f"{worst_full:.2e}, q in {{0.3, 0.5, 0.8}}; pair-block "
              f"identity scan rel dev {worst_pair:.1e} (tol 1e-12)")
    return passed, detail


# ---------------------------------------------------------------------------
# 10. Ladder coefficients of the multiplication operator.

def check_clebsch_forms() -> Verdict:
    """mult_op_matrix(c) matches the two-term ladder closed forms to
    1e-10 for 2l <= 4, and the (c* c) diagonal matches the epsilon-ratio
    display as an exact identity in the coefficient field."""
    q = 0.5
    _, _, c_gen, _ = gens()
    mm = mult_op_matrix(c_gen, SpectralGrid(q, 5))
    pos = {lab: k for k, lab in enumerate(mm.labels)}
    flagged = set(mm.flagged)
    worst = 0.0
    support_bad = 0
    for (l2, i2, j2), col in pos.items():
        if l2 > 4:
            continue
        if (l2, i2, j2) in flagged:
            support_bad += 1
            continue
        colvec = mm.matrix[:, col]
        support = {mm.labels[r]
                   for r in np.nonzero(np.abs(colvec) > 1e-14)[0]}
        expect = set()
        vp = clebsch_plus(l2, i2, j2, q)
        if abs(vp) > 1e-14:
            expect.add((l2 + 1, i2 + 1, j2 - 1))
            worst = max(worst, abs(
                mm.entry((l2 + 1, i2 + 1, j2 - 1), (l2, i2, j2)) - vp))
        down = (l2 - 1, i2 + 1, j2 - 1)
        if down in pos:
            vm = clebsch_minus(l2, i2, j2, q)
            if abs(vm) > 1e-14:
                expect.add(down)
                worst = max(worst, abs(
                    mm.entry(down, (l2, i2, j2)) - vm))
        if support != expect:
            support_bad += 1

    bigq = big_q()

    def eps(t2: int) -> Scalar:
        return bigq * (ONE - Scalar.q_pow(t2))

    diag_bad = 0
    diag_checked = 0
    for block in pw_orthobasis(4).values():
        for v in block:
            diag_checked += 1
            l2, i2, j2 = v.l2, v.i2, v.j2
            image = c_gen * v.monic
            lhs = gns_inner(image, image) / v.norm_sq
            c1 = (eps(l2 + i2 + 2) * eps(l2 - j2 + 2)
                  / (eps(2 * l2 + 2) * eps(2 * l2 + 4)))
            rhs = Scalar.q_pow(j2) * c1
            if l2 > 0:
                c2 = (eps(l2 - i2) * eps(l2 + j2)
                      / (eps(2 * l2) * eps(2 * l2 + 2)))
                rhs = rhs + Scalar.q_pow(i2) * c2
            if lhs != Scalar.q_pow(l2) * rhs:
                diag_bad += 1
    passed = worst < 1e-10 and support_bad == 0 and diag_bad == 0
    detail = (f"ladder coefficients dev {worst:.2e} (tol 1e-10), "
              f"support exact on all unflagged columns, "
              f"(c* c) diagonal exact on {diag_checked} vectors")
    if support_bad or diag_bad:
        detail = (f"{support_bad} support mismatches, {diag_bad} diagonal "
                  f"mismatches, coefficient dev {worst:.2e}")
    return passed, detail


# ---------------------------------------------------------------------------
# 11. Residue of the modularly weighted trace.

def check_residue_deltaL2() -> Verdict:
    """residue_extract on the Delta_L^2 E_11 weight against
    R = 4(q^{-1}-q)/ln(q^{-1}) within 1%, for q in {0.3, 0.5, 0.8}; an
    extraction that takes more than 120 s fails its q too, and only then
    does the detail name its seconds.

    The extrapolation is stable and lands on half of R at every q, with
    half of R inside the reported error bar.  What is known of the
    factor: R is exactly (1-q^2)^{-1} times the residue of the all-m
    lattice sum (mero.f_residue_formula, verified by mero-reference),
    while the admitted modes (jset, confirmed by dirac-spectrum and
    upsilon_identity_pairblocks) all have odd m, and the odd-m geometric
    factor x/(1-x^2) carries half the pole of the all-m x/(1-x).  The
    package does not say whether the projection behind R admits the
    other parity, or whether R refers to the E_11 + E_22 weight, which
    would give R exactly.  The check keeps R.
    """
    lines = []
    passed = True
    for q in Q_GRID:
        tq = time.perf_counter()
        rep = residue_extract("deltaL2-e11", q)
        dt = time.perf_counter() - tq
        target = 4.0 * (1.0 / q - q) / math.log(1.0 / q)
        rel = abs(rep.estimate - target) / target
        rel_half = abs(rep.estimate - 0.5 * target) / (0.5 * target)
        half_inside = abs(rep.estimate - 0.5 * target) <= rep.error_bar
        if rel > 0.01 or dt > 120.0:
            passed = False
        # The seconds vary from run to run, so only a q over the gate
        # names them: the battery's --out file stays the same.
        slow = f" in {dt:.1f}s (gate 120s)" if dt > 120.0 else ""
        lines.append(f"q={q}: est {rep.estimate:.6f} +- {rep.error_bar:.1e} "
                     f"vs target {target:.4f} (rel {rel:.3f}; vs half-target "
                     f"{rel_half:.1e}, half-target inside est +- bar: "
                     f"{half_inside}){slow}")
    return passed, "; ".join(lines)


# ---------------------------------------------------------------------------
# 12. Holomorphy of the (c* c)-weighted trace at the residue point.

def check_holomorphy_cstarc() -> Verdict:
    """|extrapolated (z-3) Upsilon_z(c*c)| <= 1e-3 on the refined 6-point
    epsilon schedule at q = 0.5 and q = 0.3, and at q = 0.5 the refined
    estimate at most 1/50 of the standard 4-point one.

    The gate is applied to the refined schedule because the standard
    schedule does not promise 1e-3 at q = 0.5: its own error bar there is
    ~4e-2 and its estimate ~1.3e-3.  The collapse condition is what tells
    no pole from a small pole: a genuine residue r leaves both schedules
    near r, while for c*c each extra halving of the offsets shrinks the
    extrapolant 40-90 fold (1.3e-3, 3.0e-5, 3.5e-7 at q = 0.5).
    The collapse condition relies on the standard schedule's own
    extrapolation error being well above the refined one's; if
    residue_extract's default schedule is made much more accurate, that
    condition has to be revisited, since it would then fail on a weight
    that is holomorphic.
    """
    refined = _STANDARD_SCHEDULE + (0.025, 0.0125)
    std = residue_extract("cstarc", 0.5)
    fine = residue_extract("cstarc", 0.5, schedule=refined)
    fine_other = residue_extract("cstarc", 0.3, schedule=refined)
    collapsed = abs(fine.estimate) * 50.0 <= abs(std.estimate)
    passed = (abs(fine.estimate) <= 1e-3 and abs(fine_other.estimate) <= 1e-3
              and collapsed)
    ratio = (f"{abs(fine.estimate) / abs(std.estimate):.1e}"
             if std.estimate else "undefined")
    detail = (f"refined 6-point |estimate| = "
              f"{abs(fine.estimate):.1e} at q=0.5 and "
              f"{abs(fine_other.estimate):.1e} at q=0.3 (gate 1e-3); "
              f"standard 4-point {abs(std.estimate):.2e} +- "
              f"{std.error_bar:.1e} at q=0.5, refined/standard {ratio} "
              f"(gate 1/50)")
    return passed, detail


# ---------------------------------------------------------------------------
# 13. The grading operator drops out of every trace.

def check_gamma_vanishes() -> Verdict:
    """Upsilon_z(Gamma) is exactly zero at every truncation and z."""
    zs = (3.05, 3.5, 4.0, 6.0)
    bad = sum(value != 0.0
              for q, lmax in itertools.product(Q_GRID, (1, 10, 100, 400))
              for value in upsilon_value("gamma", zs, q, lmax))
    rep = residue_extract("gamma", 0.5)
    if rep.estimate != 0.0 or rep.error_bar != 0.0:
        bad += 1
    detail = "48 scan points and the residue report identically zero"
    if bad:
        detail = f"{bad} nonzero values for the grading weight"
    return bad == 0, detail


# ---------------------------------------------------------------------------
# 14. Meromorphic reference family.

def check_mero_reference() -> Verdict:
    """|h_direct - h_closed| within the printed bound on a 20-point
    grid for both parameter profiles, and the lattice-sum residue within
    1% of 4 q Q^{-2} / ln(q^{-1})."""
    margins = []
    for q, w in ((0.5, 3), (0.3, 2)):
        bigq = q / (1.0 - q * q)
        x, y, r = 0.5, bigq / math.sqrt(q), math.log(1.0 / q)
        for z in np.linspace(3.2, 4.0, 20):
            bound = h_err_bound(float(z), x, y, r, w)
            diff = abs(h_direct(float(z), x, y, r, w)
                       - h_closed(float(z), x, y, r, w))
            margins.append(bound - diff)
    res_rels = []
    for q in (0.5, 0.3):
        rep = f_residue(q)
        res_rels.append(abs(rep["estimate"] - rep["formula"])
                        / rep["formula"])
    passed = min(margins) > 0.0 and max(res_rels) < 0.01
    detail = (f"40 grid points, min bound margin {min(margins):.3f}; "
              f"lattice residue rel err {max(res_rels):.1e} (gate 1%)")
    return passed, detail


# ---------------------------------------------------------------------------
# Registry and runner.

ALL_CHECKS: Tuple[Tuple[str, Callable[[], Verdict]], ...] = (
    ("algebra-suite", check_algebra_suite),
    ("action-oracle", check_action_oracle),
    ("twisted-traces", check_twisted_traces),
    ("cocycle-closure", check_cocycle_closure),
    ("comparison-identities", check_comparison_identities),
    ("volume-pairings", check_volume_pairings),
    ("pi-split", check_pi_split),
    ("peterweyl-norms", check_peterweyl_norms),
    ("dirac-spectrum", check_dirac_spectrum),
    ("clebsch-forms", check_clebsch_forms),
    ("residue-deltaL2", check_residue_deltaL2),
    ("holomorphy-cstarc", check_holomorphy_cstarc),
    ("gamma-vanishes", check_gamma_vanishes),
    ("mero-reference", check_mero_reference),
)

CHECK_IDS = tuple(name for name, _ in ALL_CHECKS)


def run_checks(ids: Optional[Iterable[str]] = None,
               report: Optional[Callable[[str], None]] = None
               ) -> List[CheckResult]:
    """Run the selected checks (all of them by default) in order, timing
    each and emitting one formatted line per check through ``report``.
    A selection must name at least one check, and each at most once."""
    table = dict(ALL_CHECKS)
    selected = CHECK_IDS if ids is None else tuple(ids)
    unknown = [i for i in selected if i not in table]
    if unknown:
        raise ValueError(f"unknown check ids: {', '.join(unknown)}")
    if not selected or len(set(selected)) < len(selected):
        raise ValueError("select at least one check, naming each id once")
    results = []
    for name in selected:
        t0 = time.perf_counter()
        passed, detail = table[name]()
        res = CheckResult(name, passed, detail, time.perf_counter() - t0)
        if report is not None:
            report(format_result(res))
        results.append(res)
    return results
