"""Twisted Hochschild cochains and the residue-type 3-cocycles.

A degree-n cochain is a multilinear functional on n+1 algebra arguments
with values in Q(v).  The differential is twisted by the inverse modular
automorphism:

    (b f)(a0, ..., a_{n+1}) =
        sum_i (-1)^i f(..., a_i a_{i+1}, ...)
        + (-1)^{n+1} f(theta^-1(a_{n+1}) a0, a1, ..., a_n)

The six cup-product 3-cocycles phi_* are one rule over slot orders, the
derivations (h Cartan, e and f ladders) applied to a1, a2, a3: phi = hef,
phi_132 = hfe, phi_213 = ehf, phi_312 = fhe, phi_231 = efh, phi_321 = feh.
With k^t = act_k(., t), cup(order) = a0 D1(k^t1 a1) D2(k^t2 a2) D3(k^t3 a3),
where a slot's t is 2 per earlier ladder, plus 1 if it holds a ladder, and
phi_order = sign(order) q^{-2 if e precedes f, else 0} int(cup(order)),
with sign +1 on the rotations hef, efh, fhe and -1 on the other orders.
The residue cochain tau(a0 [D,a1] [D,a2] [D,a3]) / R is the plain signed
sum of sign(order) int(cup(order)) over the same six orders, that is
q^2 (phi + phi_213 + phi_231) + (phi_132 + phi_312 + phi_321): q^2 times
the e-first cocycles plus the f-first ones (``modular.phi_res_over_r``).
Each of the seven is a cup table (``CupTable``) of (coefficient, factors)
entries with factors = SLOT_TWISTS[order], one (letter, t) per slot: ("k",
0) on a0, then the derivation and twist of slots 1-3.  A cocycle is the
one entry of its order, the residue cochain the six entries of
sign(order), and ``cup_cochain`` makes a table a cochain.
Two explicit 2-cochains psi_* realize the cohomologies between phi and
its transposition partners.

Bi-grading.  Every monomial carries a doubled (left, right) weight, and
products add weights.  ``act_h``, ``act_k`` and ``theta_inv`` keep the
bi-weight of each component, while ``act_e`` and ``act_f`` shift the left
weight oppositely, by +2 and -2; every cochain here applies one e and one
f, so the shifts cancel, and ``int_one`` reads only the weight-(0, 0)
unit.  Hence every cochain, and every coboundary (its terms multiply
neighbours and apply ``theta_inv``), vanishes on a tuple of nonzero total
bi-weight.

Torus restriction.  The map a -> t, d -> t^-1, b, c -> 0 is an algebra
homomorphism onto the Laurent polynomials Q(v)[t, t^-1]
(``functionals.torus``), and int(x) is the t^0 coefficient of its image,
so int(x0 x1 x2 x3) is the constant term of the product of four Laurent
polynomials (``functionals.laurent_product`` and ``constant_term``).
Each cup slot's image torus(D(k^t x)) has a closed form on the monomials
of x (``slot_image``), so neither k^t x nor D(k^t x) is formed.  A
monomial survives the map only on the diagonal, left weight = right
weight, so only components that the derivation's left shift (``SHIFTS``)
moves onto the diagonal can survive.  Of those, with w the doubled left
weight, the letter sum of ``actions`` leaves a b,c-free word only from

    h:  a^n d^s,    to j v^(tw) t^(n-s), with 2j = w = s - n;
    e:  a^n c d^s,  by its c -> d letter, to v^(tw+n+s) t^(n-s-1);
    f:  a^n b d^s,  by its b -> a letter, to v^(tw+n+s) t^(n-s+1).

The ladder twist v^(n+s) is the e and f pairing of ``actions``.  A "k"
factor is torus(k^t x) itself, read off torus(x): k^t scales a^n d^s,
of doubled left weight s - n, by v^(t(s-n)) (``factor_image``).  One
evaluator, ``int_one_table``, reads every cup table this way in one pass
over its entries and never forms a cup product; ``cup`` stays as the
element-valued route, which ``pi_split`` and the tests use as the oracle.
The two psi use ``int_one_product``, which takes the torus images of
formed elements.

Coboundary of a cup table.  The torus map and every k^t are
multiplicative, and each derivation obeys the twisted Leibniz rule of
``actions``,

    D(k^t(xy)) = D(k^t x) k^(t+d)(y) + k^(t-d)(x) D(k^t y),

with d = 0 for h and d = 1 for e and f.  So every term of the coboundary
of a table cochain is again a sum of table entries, with one factor per
argument.  Term i splits the factor (letter, t) of slot i over the
product a_i a_{i+1}: into ("k", t) twice for "k", and into the two pairs
of the rule for a derivation.  The wrap term splits slot 0's ("k", t)
over theta^-1(a_{n+1}) a0, and theta^-1 scales a^n d^s by v^(4(s-n)),
as k^4 does, so on a torus image it is k^4: the factor of a_{n+1} is
("k", t + 4), with the 4 read off ``theta_inv`` (``_wrap_twist``).
``boundary`` of a table cochain is the table cochain of this derived
table, 8 entries for each entry of the seven 3-cochains, so b(b(f)) is
one more derivation.  The derived table of each closed cochain cancels
formally: collected by equal factors it is empty, and evaluated as
derived its paired terms read the same images, so it is zero on every
tuple whatever ``slot_image`` computes.  That formal zero assumes the
Leibniz rule of the images rather than testing it, so the closure checks
(``acceptance.coboundary_sweep``) sum the definition instead, on
neighbour products and wrap formed once per tuple (``coboundary_terms``,
``coboundary_sum``), the plain loop of ``boundary`` for a cochain
without a table.

``VOLUME_CHAIN`` is the 13-term cyclic 3-chain playing the role of the
volume form; pairing any of the cocycles against it is the package's
master consistency check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .actions import act_e, act_f, act_h, act_k, theta_inv
from .algebra import AlgebraElement, normalize_word
from .functionals import (constant_term, int_one_product, laurent_product,
                          torus)
from .scalars import ONE, ZERO, Scalar


class Cochain:
    """A multilinear functional on ``degree + 1`` algebra arguments.

    ``table`` is the cup table that the functional evaluates when
    `cup_cochain` made it, else None; `boundary` derives the coboundary's
    table from it (module docstring, "Coboundary of a cup table").
    """

    __slots__ = ("degree", "_fn", "name", "table")

    def __init__(self, degree: int, fn: Callable[..., Scalar],
                 name: str = "cochain"):
        self.degree = degree
        self._fn = fn
        self.name = name
        self.table: Optional[CupTable] = None

    def __call__(self, *args: AlgebraElement) -> Scalar:
        if len(args) != self.degree + 1:
            raise TypeError(f"{self.name} takes {self.degree + 1} arguments, "
                            f"got {len(args)}")
        return self._fn(*args)

    def pair_chain(self, chain: "Chain") -> Scalar:
        """Evaluate against a formal sum of elementary tensors."""
        out = ZERO
        for coeff, factors in chain:
            if len(factors) != self.degree + 1:
                raise ValueError(
                    f"chain term has {len(factors)} factors, but {self.name} "
                    f"pairs with {self.degree + 1}")
            out = out + coeff * self(*factors)
        return out


#: A chain: list of (coefficient, tuple of elements).
Chain = List[Tuple[Scalar, Tuple[AlgebraElement, ...]]]


def boundary(f: Cochain) -> Cochain:
    """The twisted Hochschild coboundary of ``f``.  Of a cup-table cochain
    it is the cup-table cochain of the derived table (module docstring,
    "Coboundary of a cup table"); any other cochain gets the sum of the
    definition (`coboundary_sum`), the oracle of the derived tables."""
    if f.table is not None:
        return cup_cochain(f"b({f.name})", _derived(f.table))
    return Cochain(f.degree + 1,
                   lambda *a: coboundary_sum(f, coboundary_terms(a)),
                   f"b({f.name})")


#: The (sign, arguments) of the terms of a coboundary's definition.
Terms = List[Tuple[int, Tuple[AlgebraElement, ...]]]


def coboundary_terms(args: Tuple[AlgebraElement, ...]) -> Terms:
    """The n + 2 terms of the definition on the n + 2 ``args``: each
    neighbour product and the wrap theta^-1(a_{n+1}) a0 formed once, so
    that several cochains can share them."""
    n = len(args) - 2
    terms = [((-1) ** i, args[:i] + (args[i] * args[i + 1],) + args[i + 2:])
             for i in range(n + 1)]
    terms.append(((-1) ** (n + 1),
                  (theta_inv(args[n + 1]) * args[0],) + args[1:n + 1]))
    return terms


def coboundary_sum(f: Cochain, terms: Terms) -> Scalar:
    """(b f)(args) by the definition, from ``coboundary_terms(args)``."""
    out = ZERO
    for sign, inner in terms:
        term = f(*inner)
        if term:
            out = (out + term) if sign > 0 else (out - term)
    return out


# ---------------------------------------------------------------------------
# The six cup-product 3-cocycles.

#: Slot order of each cocycle: the derivations applied to a1, a2, a3.
ORDERS = {"phi": "hef", "phi_132": "hfe", "phi_213": "ehf",
          "phi_312": "fhe", "phi_231": "efh", "phi_321": "feh"}


def sign(order: str) -> int:
    return 1 if order in "hefhe" else -1  # the even orders rotate hef


def e_first(order: str) -> bool:
    return order.index("e") < order.index("f")


def cup(order: str, a0: AlgebraElement, a1: AlgebraElement,
        a2: AlgebraElement, a3: AlgebraElement) -> AlgebraElement:
    """The cup product of the module docstring for one slot order, each
    slot's derivation and twist t read from ``SLOT_TWISTS``."""
    # Built per call, so that a rebound module-level act_* takes effect.
    derivation = {"h": act_h, "e": act_e, "f": act_f}
    out = a0
    for (letter, t), a in zip(SLOT_TWISTS[order][1:], (a1, a2, a3)):
        out = out * derivation[letter](act_k(a, t))
    return out


#: The doubled left-weight shift of each derivation.
SHIFTS = {"h": 0, "e": 2, "f": -2}


def _twists(order: str) -> Tuple[Tuple[str, int], ...]:
    out, t = [("k", 0)], 0
    for letter in order:
        ladder = letter != "h"
        out.append((letter, t + ladder))
        t += 2 * ladder
    return tuple(out)


#: The (letter, t) factors of each order: ("k", 0) on a0, then slots 1-3,
#: where a slot's t is 2 per earlier ladder, plus 1 if it holds a ladder.
SLOT_TWISTS = {order: _twists(order) for order in ORDERS.values()}


#: Per derivation, the (b, c) exponents of the monomials a^n b^m c^r d^s
#: whose image keeps a b,c-free word (module docstring, "Torus restriction").
_TORUS_BC = {"h": (0, 0), "e": (0, 1), "f": (1, 0)}


def slot_image(letter: str, x: AlgebraElement, t: int) -> Dict[int, Scalar]:
    """torus(D(k^t x)) for the derivation D = act_<letter>, read off the
    monomials of x without forming k^t x or D(k^t x) (module docstring,
    "Torus restriction")."""
    shift = SHIFTS[letter]
    bc = _TORUS_BC[letter]
    out: Dict[int, Scalar] = {}
    for m, c in x.terms.items():
        # Only the monomials of the closed form keep a b,c-free word, and
        # only components that the derivation moves onto the diagonal, left
        # weight = right weight, survive the torus.  D keeps the right
        # weight, and a^n d^s maps to t^(n - s) = t^-(right weight).
        if (m.m, m.r) != bc or m.left_weight2 + shift != m.right_weight2:
            continue
        w = m.left_weight2
        if shift:  # the single c -> d (e) or b -> a (f) letter
            coeff = c * Scalar.v_pow(t * w + m.n + m.s)
        elif w:  # h multiplies by the left weight w/2
            coeff = c * Scalar.v_pow(t * w) * Fraction(w, 2)
        else:
            continue
        out[-m.right_weight2] = coeff
    return out


def factor_image(letter: str, x: AlgebraElement, t: int
                 ) -> Dict[int, Scalar]:
    """The torus image of one table factor: torus(k^t x) for the letter
    "k", read off torus(x), and `slot_image` for a derivation."""
    if letter != "k":
        return slot_image(letter, x, t)
    image = torus(x)
    if t:  # k^t scales a^n d^s, of doubled left weight s - n, by v^(t(s-n))
        image = {p: c * Scalar.v_pow(-t * p) for p, c in image.items()}
    return image


#: A cup table: (coefficient, factors) entries, each the signed integral
#: coefficient * int(F0(a0) F1(a1) ... Fn(an)) with one (letter, t) factor
#: per slot, F(x) = k^t x for "k" and D(k^t x) for D = act_<letter>.
#: Slot 0 holds a "k" factor, which `cup_cochain` checks.
CupTable = Tuple[Tuple[Scalar, Tuple[Tuple[str, int], ...]], ...]


def int_one_table(table: CupTable, *args: AlgebraElement) -> Scalar:
    """The value of the cup table on ``args``: each entry's integral is the
    constant term of the product of its factors' torus images, and neither
    a factor nor a product of elements is formed (module docstring, "Torus
    restriction").  Each distinct (slot, factor) image is read once, and
    the products of the images along a common prefix of factors are formed
    once for all entries that share it, in a prefix tree grown as the
    entries are read.  An a0 whose image is zero gives zero before any
    other slot is read, and an entry stops at its first empty product."""
    last = len(args) - 1
    images: Dict[Tuple[int, Tuple[str, int]], Dict[int, Scalar]] = {}

    def image(slot: int, factor: Tuple[str, int]) -> Dict[int, Scalar]:
        key = (slot, factor)
        if key not in images:
            images[key] = factor_image(factor[0], args[slot], factor[1])
        return images[key]

    # Slot 0 holds a "k" factor, and every k^t keeps an empty image empty.
    if not image(0, table[0][1][0]):
        return ZERO
    # A node maps the next factor to (product so far, child node).
    root: Dict = {}
    out = ZERO
    for coeff, factors in table:
        node, acc = root, None
        for slot in range(last):
            factor = factors[slot]
            if factor not in node:
                img = image(slot, factor)
                node[factor] = (img if acc is None
                                else laurent_product(acc, img), {})
            acc, node = node[factor]
            if not acc:
                break
        else:
            value = constant_term(acc, image(last, factors[last]))
            if value:
                out = out + coeff * value
    return out


def cup_cochain(name: str, table: CupTable) -> Cochain:
    """The cochain that evaluates ``table``, of degree one less than its
    number of slots, with the table kept for `boundary`."""
    for _, factors in table:
        if factors[0][0] != "k":
            raise ValueError(f"slot 0 of a cup table holds a 'k' factor, "
                             f"not {factors[0][0]!r}")
    f = Cochain(len(table[0][1]) - 1, lambda *a: int_one_table(table, *a),
                name)
    f.table = table
    return f


def _wrap_twist() -> int:
    """The W with torus(theta^-1(x)) = torus(k^W x) for every x.  theta^-1
    is an automorphism that keeps both weights, so on the torus it scales
    a^n d^s as a power of k does, and its image v^-W a of a, of doubled
    left weight -1, names the power."""
    ((power, _),) = torus(theta_inv(normalize_word("a")))[1].num_terms
    return -power


def _leibniz(letter: str, t: int
             ) -> Tuple[Tuple[Tuple[str, int], Tuple[str, int]], ...]:
    """The factor pairs (of x, of y) whose images sum to the image of the
    factor (letter, t) on xy: the rule of the module docstring,
    "Coboundary of a cup table"."""
    if letter == "k":
        return ((("k", t), ("k", t)),)
    d = letter != "h"
    return (((letter, t), ("k", t + d)), (("k", t - d), (letter, t)))


def _derived(table: CupTable) -> CupTable:
    """The cup table of the coboundary of the cochain of ``table``: term i
    splits the factor of slot i over a_i a_{i+1}, and the wrap term splits
    slot 0's ("k", t) over theta^-1(a_{n+1}) a0."""
    wrap = _wrap_twist()
    out = []
    for coeff, factors in table:
        for i, factor in enumerate(factors):
            signed = -coeff if i % 2 else coeff
            for pair in _leibniz(*factor):
                out.append((signed, factors[:i] + pair + factors[i + 1:]))
        # The sign (-1)^(n+1) of the wrap, with n + 1 slots.
        out.append((-coeff if len(factors) % 2 else coeff,
                    factors + (("k", factors[0][1] + wrap),)))
    return tuple(out)


#: Each cocycle is the one-entry table of its order.
COCYCLES = {
    name: cup_cochain(name, ((Scalar.q_pow(-2 if e_first(order) else 0)
                              * sign(order), SLOT_TWISTS[order]),))
    for name, order in ORDERS.items()}
PHI, PHI_132, PHI_213, PHI_312, PHI_231, PHI_321 = COCYCLES.values()


# ---------------------------------------------------------------------------
# Transposition 2-cochains.

def _psi_132(a0, a1, a2):
    return int_one_product(act_k(a0, -4), act_k(act_h(a1), -4),
                           act_k(act_e(act_k(act_f(a2), 1)), -3))


def _psi_213(a0, a1, a2):
    return -int_one_product(act_k(a0, -4),
                            act_k(act_h(act_k(act_e(a1), 1)), -4),
                            act_k(act_f(a2), -1))


PSI_132 = Cochain(2, _psi_132, "psi_132")
PSI_213 = Cochain(2, _psi_213, "psi_213")


# ---------------------------------------------------------------------------
# The volume chain.

def _volume_chain() -> Chain:
    q = Scalar.q_pow(1)
    qi = Scalar.q_pow(-1)
    qq = Scalar.q_pow(2)
    terms = [
        (ONE, "dabc"), (-ONE, "dacb"), (q, "dcab"), (-qq, "dcba"),
        (qq, "dbca"), (-q, "dbac"),
        (ONE, "cbad"), (-ONE, "cbda"), (q, "cdba"), (-ONE, "cdab"),
        (ONE, "cadb"), (-qi, "cabd"),
        (qi - q, "cbcb"),
    ]
    out: Chain = []
    for coeff, word in terms:
        factors = tuple(normalize_word(ch) for ch in word)
        out.append((coeff, factors))
    return out


VOLUME_CHAIN: Chain = _volume_chain()
