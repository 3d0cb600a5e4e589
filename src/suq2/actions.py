"""Left and right actions of the quantized enveloping algebra U_q(su(2)).

The coordinate algebra carries commuting left and right module-algebra
structures.  Everything here is phrased in terms of the doubled integer
weights attached to basis monomials:

* ``act_weight``   -- scale the weight-w component by v**(h*w); this is
  the common engine behind the group-likes k**h, the modular
  automorphism, and its partial powers,
* ``act_e`` / ``act_f`` -- the left ladder operators, extended from the
  generator table by the twisted Leibniz rule
  e(xy) = e(x) k(y) + k^-1(x) e(y),
* ``act_h``        -- the left Cartan action, multiplication by the left
  weight j on a weight-2j component.

``sweedler_oracle`` recomputes any of these actions through the
coproduct and the dual pairing, g . x = sum x_(1) <g, x_(2)>, giving an
independent route used by the verification suite.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Tuple

from .algebra import AlgebraElement, Monomial, _accumulate, coproduct
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
# twisted Leibniz rule, with the twist read off the weight of their side:
# e(xy) = e(x) k(y) + k^-1(x) e(y) and (xy) . e = (x . e)(y . k) +
# (x . k^-1)(y . e).

_LADDER_TABLES = {
    "left": {"e": {_A: (_B, ONE), _C: (_D, ONE)},
             "f": {_B: (_A, ONE), _D: (_C, ONE)}},
    "right": {"e": {_C: (_A, ONE), _D: (_B, ONE)},
              "f": {_A: (_C, ONE), _B: (_D, ONE)}},
}


def _split_first(m: Monomial) -> Tuple[Monomial, Monomial]:
    """(first letter, rest) of a basis monomial of positive degree."""
    n, mm, r, s = m
    if n:
        return _A, Monomial(n - 1, mm, r, s)
    if mm:
        return _B, Monomial(0, mm - 1, r, s)
    if r:
        return _C, Monomial(0, 0, r - 1, s)
    return _D, Monomial(0, 0, 0, s - 1)


def _ladder(m: Monomial, which: str, side: str, cached: Callable,
            ) -> Tuple[Tuple[Monomial, Scalar], ...]:
    """Ladder ``which`` of ``side`` on one monomial, by the twisted Leibniz
    rule; ``cached`` is the memoized entry point of that side, used for
    the action on the tail."""
    table = _LADDER_TABLES[side][which]
    if m.degree == 0:
        return ()
    if m.degree == 1:
        hit = table.get(m)
        return (hit,) if hit else ()
    head, rest = _split_first(m)
    acc: Dict[Monomial, Scalar] = {}
    hit = table.get(head)
    if hit:
        # e(head) * k(rest): rest is a single monomial, k scales it.
        img, coeff = hit
        kfac = Scalar.v_pow(_weight2(rest, side))
        prod = AlgebraElement.from_mono(img, coeff * kfac) \
            * AlgebraElement.from_mono(rest)
        for mm, cc in prod.terms.items():
            _accumulate(acc, mm, cc)
    sub = cached(rest, which)
    if sub:
        head_el = AlgebraElement.from_mono(
            head, Scalar.v_pow(-_weight2(head, side)))
        tail = AlgebraElement(dict(sub))
        for mm, cc in (head_el * tail).terms.items():
            _accumulate(acc, mm, cc)
    return tuple(sorted(acc.items()))


@lru_cache(maxsize=None)
def _ladder_cached(m: Monomial, which: str) -> Tuple[Tuple[Monomial, Scalar], ...]:
    return _ladder(m, which, "left", _ladder_cached)


@lru_cache(maxsize=None)
def _ladder_right_cached(m: Monomial, which: str,
                         ) -> Tuple[Tuple[Monomial, Scalar], ...]:
    return _ladder(m, which, "right", _ladder_right_cached)


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
    if g in ("k", "kinv"):
        # Group-like: multiplicative along letters; kills b and c.
        if m.m or m.r:
            return ZERO
        exp = m.s - m.n
        return Scalar.v_pow(exp if g == "k" else -exp)
    if g in ("e", "f"):
        if m.degree == 0:
            return ZERO
        if m.degree == 1:
            if g == "e":
                return ONE if m == _C else ZERO
            return ONE if m == _B else ZERO
        head, rest = _split_first(m)
        # <e, xy> = <e,x><k,y> + <k^-1,x><e,y>, and the same shape for f.
        return (_pair_mono(g, head) * _pair_mono("k", rest)
                + _pair_mono("kinv", head) * _pair_mono(g, rest))
    raise ValueError(f"unknown dual generator {g!r}")


def sweedler_oracle(g: str, x: AlgebraElement) -> AlgebraElement:
    """g . x computed as sum x_(1) <g, x_(2)> through the coproduct.

    Independent of the ladder recursion; used to cross-validate act_e,
    act_f and act_k on a sample of monomials.
    """
    out: Dict[Monomial, Scalar] = {}
    for (m1, m2), c in coproduct(x).terms.items():
        p = _pair_mono(g, m2)
        if not p.is_zero():
            _accumulate(out, m1, c * p)
    return AlgebraElement(out)


def sweedler_oracle_right(g: str, x: AlgebraElement) -> AlgebraElement:
    """x . g computed as sum x_(2) <g, x_(1)> through the coproduct."""
    out: Dict[Monomial, Scalar] = {}
    for (m1, m2), c in coproduct(x).terms.items():
        p = _pair_mono(g, m1)
        if not p.is_zero():
            _accumulate(out, m2, c * p)
    return AlgebraElement(out)
