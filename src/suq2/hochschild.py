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
Each of the seven is a cup table (``CupTable``) of (coefficient, slots)
entries with slots = SLOT_TWISTS[order]: a cocycle is the one entry of its
order, the residue cochain the six entries of sign(order), and
``cup_cochain`` makes a table a cochain.
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

Restricted coboundary.  A cochain may carry, per slot, the doubled
weight offsets (left - right) at which it reads its argument
(``Cochain.reads``).  ``cup_cochain`` derives them from the table: slot 0
at offset 0, and slot i at -SHIFTS[letter] for each letter an entry
applies there, the offset that derivation moves onto the diagonal; so a
cocycle reads one offset per slot and the residue cochain all three.
``boundary`` then splits each argument and theta^-1(a_{n+1}) by offset
once per call, and forms each neighbour product only from the pairs of
parts whose offsets add up to an offset its slot reads, since both weights
add under multiplication.  A term with a slot that gets no part is zero by
multilinearity, and the cochain is not called for it.  A cochain without
``reads`` gets every term in full.

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

The ladder twist v^(n+s) is the e and f pairing of ``actions``.  One
evaluator, ``int_one_table``, reads every cup table this way in one pass
over its entries and never forms a cup product; ``cup`` stays as the
element-valued route, which ``pi_split`` and the tests use as the oracle.
The two psi use ``int_one_product``, which takes the torus images of
formed elements.

``VOLUME_CHAIN`` is the 13-term cyclic 3-chain playing the role of the
volume form; pairing any of the cocycles against it is the package's
master consistency check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .actions import act_e, act_f, act_h, act_k, theta_inv
from .algebra import AlgebraElement, Monomial, normalize_word
from .functionals import (constant_term, int_one_product, laurent_product,
                          torus)
from .scalars import ONE, ZERO, Scalar


class Cochain:
    """A multilinear functional on ``degree + 1`` algebra arguments.

    ``reads`` holds, per slot, the doubled weight offsets (left weight
    minus right weight) of the argument components that the functional
    reads: the value is unchanged when each argument is restricted to the
    components at its slot's offsets.  It is None, every offset, unless
    `cup_cochain` derives it from a cup table.  `boundary` uses it to form
    only the parts of neighbour products that are read (module docstring,
    "Restricted coboundary").
    """

    __slots__ = ("degree", "_fn", "name", "reads")

    def __init__(self, degree: int, fn: Callable[..., Scalar],
                 name: str = "cochain"):
        self.degree = degree
        self._fn = fn
        self.name = name
        self.reads: Optional[Tuple[Tuple[int, ...], ...]] = None

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
    """The twisted Hochschild coboundary of ``f``.  When ``f`` has
    ``reads``, each term is formed only from the weight parts that ``f``
    reads (module docstring, "Restricted coboundary")."""
    n = f.degree

    def bf(*args: AlgebraElement) -> Scalar:
        out = ZERO
        sign = 1
        for i in range(n + 1):
            inner = args[:i] + (args[i] * args[i + 1],) + args[i + 2:]
            term = f(*inner)
            out = (out + term) if sign > 0 else (out - term)
            sign = -sign
        wrap = f(theta_inv(args[n + 1]) * args[0], *args[1:n + 1])
        return (out + wrap) if sign > 0 else (out - wrap)

    if f.reads is None:
        return Cochain(n + 1, bf, f"b({f.name})")
    reads = f.reads
    # Factor n + 2 is theta^-1(a_{n+1}).  Term i multiplies factors i and
    # i + 1 into slot i and moves each later factor down one slot; the wrap
    # term (i = n + 1) multiplies factors n + 2 and 0 into slot 0.  Each
    # entry is the product slot, its two factors and the (slot, factor)
    # pairs of the other slots.
    layout = []
    for i in range(n + 2):
        slot, pair = (i, (i, i + 1)) if i <= n else (0, (n + 2, 0))
        rest = [k for k in range(n + 2) if k not in pair]
        others = list(zip([j for j in range(n + 1) if j != slot], rest))
        layout.append((slot, pair, others))

    def restricted(*args: AlgebraElement) -> Scalar:
        # theta^-1 keeps weights, so it splits like a_{n+1}.
        parts = [_by_offset(a) for a in args]
        parts.append(_by_offset(theta_inv(args[n + 1])))
        pieces: Dict[Tuple[int, int], Optional[AlgebraElement]] = {}
        out = ZERO
        for i, (slot, (left, right), others) in enumerate(layout):
            inner: List[Optional[AlgebraElement]] = [None] * (n + 1)
            for j, k in others:
                if (k, j) not in pieces:
                    pieces[k, j] = _restrict(parts[k], reads[j])
                inner[j] = pieces[k, j]
                if inner[j] is None:
                    break  # an empty slot: the term is zero
            else:
                inner[slot] = _restricted_product(parts[left], parts[right],
                                                  reads[slot])
                if inner[slot] is not None:
                    term = f(*inner)
                    out = (out - term) if i % 2 else (out + term)
        return out

    return Cochain(n + 1, restricted, f"b({f.name})")


def _by_offset(x: AlgebraElement) -> Dict[int, AlgebraElement]:
    """Split ``x`` into its components by doubled weight offset, left
    minus right weight."""
    blocks: Dict[int, Dict[Monomial, Scalar]] = {}
    for m, c in x.terms.items():
        blocks.setdefault(m.left_weight2 - m.right_weight2, {})[m] = c
    return {o: AlgebraElement._wrap(t) for o, t in blocks.items()}


def _restrict(parts: Dict[int, AlgebraElement], offsets: Tuple[int, ...]
              ) -> Optional[AlgebraElement]:
    """The sum of the parts at the given offsets, None if there is none."""
    out = None
    for o in offsets:
        if o in parts:
            out = parts[o] if out is None else out + parts[o]
    return out


def _restricted_product(left: Dict[int, AlgebraElement],
                        right: Dict[int, AlgebraElement],
                        offsets: Tuple[int, ...]) -> Optional[AlgebraElement]:
    """The components at the given offsets of the product of two split
    factors, None if no part pair reaches one.  Offsets add under
    multiplication, so only pairs of parts whose offsets add up to one of
    them are multiplied."""
    out = None
    for o1, x in left.items():
        for o2, y in right.items():
            if o1 + o2 in offsets:
                out = x * y if out is None else out + x * y
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
    """The cup product of the module docstring for one slot order."""
    # Built per call, so that a rebound module-level act_* takes effect.
    derivation = {"h": act_h, "e": act_e, "f": act_f}
    out, t = a0, 0
    for letter, a in zip(order, (a1, a2, a3)):
        ladder = letter != "h"
        out = out * derivation[letter](act_k(a, t + ladder))
        t += 2 * ladder
    return out


#: The doubled left-weight shift of each derivation.
SHIFTS = {"h": 0, "e": 2, "f": -2}


def _twists(order: str) -> Tuple[Tuple[str, int], ...]:
    out, t = [], 0
    for letter in order:
        ladder = letter != "h"
        out.append((letter, t + ladder))
        t += 2 * ladder
    return tuple(out)


#: The (derivation, t) of slots 1-3 of each order: a slot's t is 2 per
#: earlier ladder, plus 1 if it holds a ladder.
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


#: A cup table: (coefficient, slots) entries, each the signed integrated
#: cup product coefficient * int(a0 D1(k^t1 a1) D2(k^t2 a2) D3(k^t3 a3)),
#: with slots the (derivation letter, t) of slots 1-3.
CupTable = Tuple[Tuple[Scalar, Tuple[Tuple[str, int], ...]], ...]


def int_one_table(table: CupTable, a0: AlgebraElement, a1: AlgebraElement,
                  a2: AlgebraElement, a3: AlgebraElement) -> Scalar:
    """The value of the cup table on (a0, a1, a2, a3): each entry's
    integral is the constant term of the product of the torus images of
    its four factors, and neither a factor nor a product of elements is
    formed (module docstring, "Torus restriction").  An a0 whose torus
    image is zero gives zero before any slot is read; each distinct (slot,
    derivation, t) image is read once, torus(a0) times the slot-1 image is
    formed once per distinct first (derivation, t), and an entry stops at
    its first empty product."""
    head = torus(a0)
    if not head:
        return ZERO
    args = (a1, a2, a3)
    images: Dict[Tuple[int, str, int], Dict[int, Scalar]] = {}

    def image(slot: int, letter: str, t: int) -> Dict[int, Scalar]:
        key = (slot, letter, t)
        if key not in images:
            images[key] = slot_image(letter, args[slot], t)
        return images[key]

    firsts: Dict[Tuple[str, int], Dict[int, Scalar]] = {}
    out = ZERO
    for coeff, (first, second, third) in table:
        if first not in firsts:
            firsts[first] = laurent_product(head, image(0, *first))
        acc = firsts[first]
        if acc:
            acc = laurent_product(acc, image(1, *second))
        if acc:
            out = out + coeff * constant_term(acc, image(2, *third))
    return out


def cup_cochain(name: str, table: CupTable) -> Cochain:
    """The 3-cochain that evaluates ``table``, reading the weight offsets
    that follow from it: torus(a0) reads only the diagonal of a0, offset 0,
    and slot_image reads of slot i only what an entry's derivation there
    moves onto the diagonal, offset -SHIFTS[letter]."""
    f = Cochain(3, lambda *a: int_one_table(table, *a), name)
    f.reads = ((0,), *(tuple(sorted({-SHIFTS[slots[i][0]]
                                     for _, slots in table}))
                       for i in range(3)))
    return f


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
