"""Left and right actions of the quantized enveloping algebra U_q(su(2)).

The coordinate algebra carries commuting left and right module-algebra
structures.  Everything here is phrased in terms of the doubled integer
weights attached to basis monomials:

* ``act_weight``   -- scale the weight-w component by v**(h*w); this is
  the common engine behind the group-likes k**h, the modular
  automorphism, and its partial powers,
* ``act_e`` / ``act_f`` -- the left ladder operators, extended from the
  generator table by the twisted Leibniz rule e(xy) = e(x) k(y) +
  k^-1(x) e(y), applied as one sum over the letters of a monomial's word
  (``act_e_right`` / ``act_f_right`` likewise on the right),
* ``act_h``        -- the left Cartan action, multiplication by the left
  weight j on a weight-2j component.

The dual pairing has a closed form on basis monomials: k**±1 kill b and
c and give v**±(s-n) on a^n d^s, while e pairs only with a^n c d^s and f
only with a^n b d^s, both to v**(n+s).  ``sweedler_oracle`` recomputes
the actions through the coproduct and that pairing, g . x = sum x_(1)
<g, x_(2)>, and ``sweedler_oracle_right`` the right ones, x . g = sum
<g, x_(1)> x_(2): one body that pairs one leg of each coproduct term and
keeps the other, an independent route used by the verification suite.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Tuple

from .algebra import (AlgebraElement, Monomial, _accumulate, _mono_mul,
                      coproduct)
from .scalars import ONE, ZERO, Scalar

_A = Monomial(1, 0, 0, 0)
_B = Monomial(0, 1, 0, 0)
_C = Monomial(0, 0, 1, 0)
_D = Monomial(0, 0, 0, 1)


# ---------------------------------------------------------------------------
# Weight scalings.

def _weight2(m: Monomial, side: str) -> int:
    return m.left_weight2 if side == "left" else m.right_weight2


def act_weight(x: AlgebraElement, side: str, h: int) -> AlgebraElement:
    """Scale each weight component: the weight-w part picks up v**(h*w).

    ``side`` (``"left"`` or ``"right"``) selects which doubled weight w
    is read; ``h`` is the power of v per unit of w, so act_weight(x,
    "left", h) is the left group-like k**h and act_weight(x, "right", h)
    its right counterpart.  Every named automorphism below is this map
    with a fixed side and h.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    out: Dict[Monomial, Scalar] = {}
    for m, c in x.terms.items():
        out[m] = c * Scalar.v_pow(h * _weight2(m, side))
    return AlgebraElement(out)


def act_k(x: AlgebraElement, h: int = 1) -> AlgebraElement:
    """The left group-like k**h: weight-2j vectors scale by q**(h*j)."""
    return act_weight(x, "left", h)


def sigma_left(x: AlgebraElement, half_steps: int = 2) -> AlgebraElement:
    """sigma_L**(half_steps/2); the full left winding is half_steps=2."""
    return act_weight(x, "left", -half_steps)


def sigma_right(x: AlgebraElement, half_steps: int = 2) -> AlgebraElement:
    """sigma_R**(half_steps/2); the full right winding is half_steps=2."""
    return act_weight(x, "right", -half_steps)


def theta(x: AlgebraElement, power: int = 1) -> AlgebraElement:
    """The modular automorphism sigma_L ∘ sigma_R (or its integer power)."""
    return act_weight(act_weight(x, "left", -2 * power), "right", -2 * power)


def theta_inv(x: AlgebraElement) -> AlgebraElement:
    return theta(x, -1)


# ---------------------------------------------------------------------------
# Ladder operators.
#
# The left action pairs against the second leg of the coproduct and shifts
# the left weight: e raises it (a -> b, c -> d), f lowers it.  The right
# action, x . g = sum x_(2) <g, x_(1)>, pairs against the first leg and
# shifts the right (row) weight: e lowers it (c -> a, d -> b) and f raises
# it (a -> c, b -> d).  Both extend from their generator tables by the same
# twisted Leibniz rule, with the twist k read off the weight of their side.
# Over the letters x_1 ... x_N of a monomial's word it reads
#
#     g(x_1 ... x_N) = sum_i k^-1(x_1 ... x_(i-1)) g(x_i) k(x_(i+1) ... x_N),
#
# and k scales a monomial of doubled weight w by v**w.

_LADDER_TABLES = {
    "left": {"e": {"a": _B, "c": _D}, "f": {"b": _A, "d": _C}},
    "right": {"e": {"c": _A, "d": _B}, "f": {"a": _C, "b": _D}},
}


def _word_mono(word: str) -> Monomial:
    return Monomial(*(word.count(letter) for letter in "abcd"))


def _ladder(m: Monomial, which: str, side: str,
            ) -> Tuple[Tuple[Monomial, Scalar], ...]:
    """Ladder ``which`` of ``side`` on one monomial: letter i contributes
    head * g(x_i) * tail, scaled by v**(w(tail) - w(head))."""
    table = _LADDER_TABLES[side][which]
    word = m.word()
    acc: Dict[Monomial, Scalar] = {}
    for i, letter in enumerate(word):
        img = table.get(letter)
        if img is None:
            continue
        head, tail = _word_mono(word[:i]), _word_mono(word[i + 1:])
        twist = Scalar.v_pow(_weight2(tail, side) - _weight2(head, side))
        for hm, hc in _mono_mul(head, img):
            for mm, cc in _mono_mul(hm, tail):
                _accumulate(acc, mm, twist * hc * cc)
    return tuple(sorted(acc.items()))


@lru_cache(maxsize=None)
def _ladder_cached(m: Monomial, which: str) -> Tuple[Tuple[Monomial, Scalar], ...]:
    return _ladder(m, which, "left")


@lru_cache(maxsize=None)
def _ladder_right_cached(m: Monomial, which: str,
                         ) -> Tuple[Tuple[Monomial, Scalar], ...]:
    return _ladder(m, which, "right")


def _apply_ladder(x: AlgebraElement, which: str,
                  cached: Callable) -> AlgebraElement:
    out: Dict[Monomial, Scalar] = {}
    for m, c in x.terms.items():
        for mm, cc in cached(m, which):
            _accumulate(out, mm, c * cc)
    return AlgebraElement(out)


def act_e(x: AlgebraElement) -> AlgebraElement:
    """Left action of the raising operator e."""
    return _apply_ladder(x, "e", _ladder_cached)


def act_f(x: AlgebraElement) -> AlgebraElement:
    """Left action of the lowering operator f."""
    return _apply_ladder(x, "f", _ladder_cached)


def act_e_right(x: AlgebraElement) -> AlgebraElement:
    """Right action of e: lowers the right weight by one step."""
    return _apply_ladder(x, "e", _ladder_right_cached)


def act_f_right(x: AlgebraElement) -> AlgebraElement:
    """Right action of f: raises the right weight by one step."""
    return _apply_ladder(x, "f", _ladder_right_cached)


_HALF = ONE / 2


def act_h(x: AlgebraElement) -> AlgebraElement:
    """The left Cartan generator: multiply weight-2j components by j."""
    out: Dict[Monomial, Scalar] = {}
    for m, c in x.terms.items():
        if m.left_weight2:
            out[m] = c * m.left_weight2 * _HALF
    return AlgebraElement(out)


# ---------------------------------------------------------------------------
# Dual pairing and the Sweedler-form oracle.

def pairing(g: str, x: AlgebraElement) -> Scalar:
    """<g, x> for g in {k, kinv, e, f} against the coordinate algebra."""
    out = ZERO
    for m, c in x.terms.items():
        out = out + c * _pair_mono(g, m)
    return out


@lru_cache(maxsize=None)
def _pair_mono(g: str, m: Monomial) -> Scalar:
    """<g, a^n b^m c^r d^s> in the closed form of the module docstring;
    the e and f values follow from <g, xy> = <g,x><k,y> + <k^-1,x><g,y>."""
    n, nb, nc, s = m
    if g in ("k", "kinv"):
        if nb or nc:
            return ZERO
        return Scalar.v_pow(s - n if g == "k" else n - s)
    if g in ("e", "f"):
        one_letter = (0, 1) if g == "e" else (1, 0)
        return Scalar.v_pow(n + s) if (nb, nc) == one_letter else ZERO
    raise ValueError(f"unknown dual generator {g!r}")


def _sweedler(g: str, x: AlgebraElement, paired: int) -> AlgebraElement:
    """sum c <g, leg paired> (other leg) over the coproduct's terms."""
    out: Dict[Monomial, Scalar] = {}
    for legs, c in coproduct(x).terms.items():
        p = _pair_mono(g, legs[paired])
        if not p.is_zero():
            _accumulate(out, legs[1 - paired], c * p)
    return AlgebraElement(out)


def sweedler_oracle(g: str, x: AlgebraElement) -> AlgebraElement:
    """g . x computed as sum x_(1) <g, x_(2)> through the coproduct.

    Independent of the ladders' letter sum; used to cross-validate act_e,
    act_f and act_k on a sample of monomials.
    """
    return _sweedler(g, x, 1)


def sweedler_oracle_right(g: str, x: AlgebraElement) -> AlgebraElement:
    """x . g computed as sum x_(2) <g, x_(1)> through the coproduct."""
    return _sweedler(g, x, 0)
