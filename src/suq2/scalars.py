"""Exact coefficient arithmetic over the field Q(v), with v**2 = q.

Every structure constant in this package lives in the rational function
field Q(v) where v is a formal square root of the deformation parameter q.
Working with v rather than q keeps half-integer q-powers (which appear in
the k-pairing and the spin-half Clebsch--Gordan data) exact.

A :class:`Scalar` is a reduced fraction of Laurent polynomials in v with
rational coefficients.  Its canonical form -- what ``num_terms``,
``den_terms``, ``str`` and ``to_json`` show -- is unique:

* numerator and denominator share no polynomial factor (after shifting
  out powers of v, which are units);
* the spare v-power is carried entirely on the numerator;
* the denominator's lowest-degree coefficient is exactly 1;
* zero is represented as 0/1.

It is stored as ``num/den``, two Laurent polynomials with ``int``
coefficients that are coprime as polynomials and share no integer
factor; ``den`` has lowest exponent 0 and a positive lowest coefficient.
The canonical form is this pair divided by that coefficient, so the pair
is unique too: equality is plain structural equality, and Scalars are
hashable and usable as dict values throughout the algebra layer.  A
denominator that is a single monomial -- every denominator the cochain
layer produces -- is canonicalised by an exponent shift and one
``math.gcd`` over the numerator.  A genuine rational function is reduced
by a gcd over Z[v]: a primitive pseudo-remainder sequence with
``math.gcd`` content removal and exact integer division.  No float ever
enters a coefficient: inputs other than ``int`` and ``Fraction`` raise
``TypeError``.
"""

from __future__ import annotations

import numbers
import operator
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import List, Mapping, Optional, Tuple, Union

Coeff = Union[int, Fraction]


class EvaluationSingularityError(ZeroDivisionError):
    """Raised when a Scalar is evaluated at a q where its denominator vanishes."""


#: Sparse Laurent polynomial: v-exponent -> int coefficient.  Zero
#: coefficients are absent.
_Poly = dict

#: The polynomial 1.  Stored dicts are never mutated, so it is shared.
_ONE_POLY: _Poly = {0: 1}


def _ratio(c, lead: str) -> Tuple[int, int]:
    """``c`` as (numerator, positive denominator); TypeError unless
    ``c`` is an int or a Fraction, with ``lead`` opening the message."""
    if type(c) is int:
        return c, 1
    if isinstance(c, (int, Fraction)):
        return int(c.numerator), int(c.denominator)
    raise TypeError(f"{lead} int or Fraction, not {type(c).__name__}")


def _integral(p: Mapping[int, Coeff]) -> Tuple[_Poly, int]:
    """A caller's polynomial as (L * p, L), L the coefficients' lcm denominator."""
    terms = [(operator.index(e), _ratio(c, "Scalar coefficients must be"))
             for e, c in dict(p).items()]
    lcd = lcm(*(d for _, (_, d) in terms))
    return {e: n * (lcd // d) for e, (n, d) in terms if n}, lcd


def _padd(p: _Poly, q: _Poly) -> _Poly:
    out = dict(p)
    for e, c in q.items():
        nc = out.get(e, 0) + c
        if nc:
            out[e] = nc
        else:
            out.pop(e, None)
    return out


def _pmul(p: _Poly, q: _Poly) -> _Poly:
    if len(q) == 1:
        p, q = q, p
    if len(p) == 1:
        # A monomial times a polynomial: no two products share an exponent.
        (e1, c1), = p.items()
        return {e1 + e2: c1 * c2 for e2, c2 in q.items()}
    out: _Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            nc = out.get(e, 0) + c1 * c2
            if nc:
                out[e] = nc
            else:
                out.pop(e, None)
    return out


# ---------------------------------------------------------------------------
# Dense integer polynomials: lists of ints, lowest degree first, with a
# nonzero last entry.

def _primitive(p: _Poly) -> Tuple[int, int, List[int]]:
    """Split ``p`` as v**lo * g * P with P a primitive integer list.

    ``P[0]`` is nonzero and ``g`` is the content (positive).
    """
    lo = min(p)
    ints = [0] * (max(p) - lo + 1)
    for e, c in p.items():
        ints[e - lo] = c
    g = gcd(*ints)
    return lo, g, [c // g for c in ints] if g != 1 else ints


def _prem(a: List[int], b: List[int]) -> List[int]:
    """A nonzero integer multiple of the remainder of a by b (len(b) > 1)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) > db:
        la = a[-1]
        g = gcd(la, lb)
        ma, mb = lb // g, la // g
        if ma != 1:
            a = [ma * c for c in a]
        shift = len(a) - 1 - db
        for i, bc in enumerate(b):
            a[shift + i] -= mb * bc
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a


def _zgcd(a: List[int], b: List[int]) -> List[int]:
    """A gcd of two primitive integer polynomials, by a primitive PRS."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        g = gcd(*r)
        a, b = b, [c // g for c in r] if g != 1 else r
    return [1]


def _zdivexact(a: List[int], b: List[int]) -> List[int]:
    """The quotient a / b over Z[v], where b is primitive and divides a."""
    db, lead = len(b) - 1, b[-1]
    a = list(a)
    out = [0] * (len(a) - db)
    for i in range(len(out) - 1, -1, -1):
        c = a[i + db] // lead
        if c:
            out[i] = c
            for j, bc in enumerate(b):
                a[i + j] -= c * bc
    return out


class Scalar:
    """An element of Q(v), stored as a canonical fraction of Laurent polynomials."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: Mapping[int, Coeff] = (),
                 den: Mapping[int, Coeff] = _ONE_POLY):
        n, ln = _integral(num)
        d, ld = _integral(den)
        if ln != ld:
            n = {e: c * ld for e, c in n.items()}
            d = {e: c * ln for e, c in d.items()}
        self._num, self._den = _canonical(n, d)

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, num: _Poly, den: _Poly) -> "Scalar":
        out = object.__new__(cls)
        out._num, out._den = _canonical(num, den)
        return out

    @classmethod
    def _const(cls, n: int, d: int) -> "Scalar":
        """The constant n/d, for coprime ints n and d > 0."""
        if not n:
            return ZERO
        out = object.__new__(cls)
        out._num = {0: n}
        out._den = _ONE_POLY if d == 1 else {0: d}
        return out

    @classmethod
    def from_fraction(cls, fr: Coeff) -> "Scalar":
        return cls._const(*_ratio(fr, "Scalar coefficients must be"))

    @classmethod
    def v_pow(cls, k: int) -> "Scalar":
        """v**k (so q**(k/2))."""
        out = object.__new__(cls)
        out._num, out._den = {operator.index(k): 1}, _ONE_POLY
        return out

    @classmethod
    def q_pow(cls, k: int) -> "Scalar":
        """q**k as an element of Q(v)."""
        return cls.v_pow(2 * k)

    # -- views ---------------------------------------------------------

    @property
    def num_terms(self) -> Tuple[Tuple[int, Coeff], ...]:
        return _shown(self._num, self._den[0])

    @property
    def den_terms(self) -> Tuple[Tuple[int, Coeff], ...]:
        return _shown(self._den, self._den[0])

    def is_zero(self) -> bool:
        return not self._num

    def is_polynomial(self) -> bool:
        """True when the denominator is a constant (a Laurent polynomial in v)."""
        return len(self._den) == 1

    # -- ring / field operations --------------------------------------

    @staticmethod
    def _coerce(other) -> Optional["Scalar"]:
        """``other`` as a Scalar; None for a type outside the number tower.

        An inexact number (a float, say) raises ``TypeError``: it would
        enter the field as its binary expansion, not as the value meant.
        """
        if isinstance(other, Scalar):
            return other
        if not isinstance(other, numbers.Number):
            return None
        return Scalar._const(*_ratio(other, "Scalar arithmetic takes"))

    def __add__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._den == o._den:
            return Scalar._raw(_padd(self._num, o._num), self._den)
        num = _padd(_pmul(self._num, o._den), _pmul(o._num, self._den))
        return Scalar._raw(num, _pmul(self._den, o._den))

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        out = object.__new__(Scalar)
        out._num, out._den = {e: -c for e, c in self._num.items()}, self._den
        return out

    def __sub__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__add__(-self)

    def __mul__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        sd, od = self._den, o._den
        den = sd if od is _ONE_POLY else od if sd is _ONE_POLY else _pmul(sd, od)
        return Scalar._raw(_pmul(self._num, o._num), den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._num:
            raise ZeroDivisionError("division by the zero Scalar")
        return Scalar._raw(_pmul(self._num, o._den), _pmul(self._den, o._num))

    def __rtruediv__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def inverse(self) -> "Scalar":
        if not self._num:
            raise ZeroDivisionError("the zero Scalar has no inverse")
        return Scalar._raw(self._den, self._num)

    def __pow__(self, k: int) -> "Scalar":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return out

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def __hash__(self) -> int:
        return hash((frozenset(self._num.items()),
                     frozenset(self._den.items())))

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- evaluation ----------------------------------------------------

    def eval_at_q(self, q_value: float) -> float:
        """Evaluate at a numeric q > 0.

        q is taken as its exact ratio N/D of integers (N/2^s for a float).
        Each of the four parts -- the even and the odd v-part of numerator
        and denominator, divided by the denominator's lowest coefficient
        -- is an exact rational A / B of integers, found by one integer
        Horner pass, and is rounded to float by one correctly rounded
        ``int / int`` division.  The only other floating-point steps are
        one square root and the final combine/divide.
        """
        if q_value <= 0:
            raise ValueError("q must be positive")
        qn, qd = Fraction(q_value).as_integer_ratio()
        sv = float(q_value) ** 0.5
        d0 = self._den[0]

        def eval_part(part: _Poly) -> float:
            # part maps a power of q to its coefficient; its value is
            # sum c_k (qn/qd)^k = acc qn^lo / qd^hi, acc an integer.
            if not part:
                return 0.0
            lo, hi = min(part), max(part)
            acc, scale = 0, 1
            for k in range(hi, lo - 1, -1):
                acc = acc * qn + part.get(k, 0) * scale
                scale *= qd
            num, den = acc, d0
            if lo >= 0:
                num *= qn ** lo
            else:
                den *= qn ** -lo
            if hi >= 0:
                den *= qd ** hi
            else:
                num *= qd ** -hi
            return num / den

        def eval_poly(p: _Poly) -> float:
            even: _Poly = {}
            odd: _Poly = {}
            for e, c in p.items():
                if e % 2 == 0:
                    even[e // 2] = c
                else:
                    odd[(e - 1) // 2] = c
            return eval_part(even) + sv * eval_part(odd)

        den = eval_poly(self._den)
        if abs(den) < 1e-300:
            raise EvaluationSingularityError(
                f"denominator vanishes at q={q_value!r}")
        return eval_poly(self._num) / den

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {
            "num": [[e, str(c)] for e, c in self.num_terms],
            "den": [[e, str(c)] for e, c in self.den_terms],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Scalar":
        def poly(terms) -> _Poly:
            # ``to_json`` writes each coefficient as its ``str``.
            return {e: Fraction(c) if isinstance(c, str) else c
                    for e, c in terms}
        return cls(poly(data["num"]), poly(data["den"]))

    # -- display -------------------------------------------------------

    @staticmethod
    def _poly_str(terms: Tuple[Tuple[int, Coeff], ...]) -> str:
        if not terms:
            return "0"
        parts = []
        for e, c in terms:
            if e == 0:
                term = str(c)
            else:
                ve = "v" if e == 1 else f"v^{e}"
                if c == 1:
                    term = ve
                elif c == -1:
                    term = f"-{ve}"
                else:
                    term = f"{c}*{ve}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __str__(self) -> str:
        ns = self._poly_str(self.num_terms)
        if self.is_polynomial():
            return ns
        return f"({ns}) / ({self._poly_str(self.den_terms)})"

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _canonical(num: _Poly, den: _Poly) -> Tuple[_Poly, _Poly]:
    """Reduce num/den to the unique canonical representative."""
    if not den:
        raise ZeroDivisionError("zero denominator in Scalar")
    if not num:
        return {}, _ONE_POLY
    if den is _ONE_POLY:
        return num, _ONE_POLY
    if len(den) == 1:
        # A monomial denominator is a unit times a scale: shift and divide.
        (dlo, s), = den.items()
        g = 1 if s == 1 else gcd(s, *num.values())
        if s < 0:
            g = -g
        if g != 1 or dlo:
            num = {e - dlo: c // g for e, c in num.items()}
        return num, (_ONE_POLY if s == g else {0: s // g})
    nlo, ng, ncoeffs = _primitive(num)
    dlo, dg, dcoeffs = _primitive(den)
    if len(ncoeffs) > 1:
        g = _zgcd(ncoeffs, dcoeffs)
        if len(g) > 1:
            ncoeffs = _zdivexact(ncoeffs, g)
            dcoeffs = _zdivexact(dcoeffs, g)
    # Cancel the common content; the v-shift moves to the numerator and
    # the sign makes the denominator's lowest coefficient positive.
    g = gcd(ng, dg) if dcoeffs[0] > 0 else -gcd(ng, dg)
    ng, dg = ng // g, dg // g
    num_out = {nlo - dlo + i: ng * c for i, c in enumerate(ncoeffs) if c}
    den_out = {i: dg * c for i, c in enumerate(dcoeffs) if c}
    return num_out, (_ONE_POLY if den_out == _ONE_POLY else den_out)


def _shown(p: _Poly, d0: int) -> Tuple[Tuple[int, Coeff], ...]:
    """The terms of p / d0 by exponent, each an int where it is integral."""
    return tuple((e, c // d0 if c % d0 == 0 else Fraction(c, d0))
                 for e, c in sorted(p.items()))


ZERO = object.__new__(Scalar)
ZERO._num, ZERO._den = {}, _ONE_POLY
ONE = object.__new__(Scalar)
ONE._num, ONE._den = dict(_ONE_POLY), _ONE_POLY


def q_number(twice_a: int) -> Scalar:
    """The symmetric q-number [a]_q = (q^-a - q^a)/(q^-1 - q), index doubled.

    ``twice_a`` is 2a, so half-integer spins stay in integer arithmetic:
    q_number(2) == 1, q_number(4) == q^-1 + q, q_number(0) == 0.

    The canonical pair is written down directly.  For t = |2a| = 2n it is
    the Laurent polynomial v^(2n-2) + v^(2n-6) + ... + v^(2-2n).  For odd
    t it is v^(2-t) (1 + v^2 + ... + v^(2t-2)) / (1 + v^2): the numerator
    sums to 1 at v = +-i, the roots of the denominator, so the two are
    coprime.  The sign is the sign of 2a.
    """
    t = abs(twice_a)
    if t == 0:
        return ZERO
    sign = 1 if twice_a > 0 else -1
    out = object.__new__(Scalar)
    if t % 2 == 0:
        out._num = {t - 2 - 4 * j: sign for j in range(t // 2)}
        out._den = _ONE_POLY
    else:
        out._num = {2 - t + 2 * k: sign for k in range(t)}
        out._den = {0: 1, 2: 1}
    return out


def big_q() -> Scalar:
    """Q = (q^-1 - q)^-1, the scale factor of the q-number denominators."""
    return Scalar._raw(_ONE_POLY, {-2: 1, 2: -1})


def scalar_sqrt(x: Scalar) -> Optional[Scalar]:
    """Exact square root in Q(v) when one exists, else None.

    Many natural squared norms, such as the squared rescales of the
    Peter-Weyl anchor vectors, are perfect squares in Q(v); this recovers
    their roots exactly.  The root returned has positive lowest-degree
    coefficients in its numerator and denominator.
    """
    if x.is_zero():
        return ZERO
    nr = _poly_sqrt(x._num)
    if nr is None:
        return None
    dr = _poly_sqrt(x._den)
    if dr is None:
        return None
    return Scalar._raw(nr, dr)


def _poly_sqrt(p: _Poly) -> Optional[_Poly]:
    """The square root of ``p`` with positive lowest coefficient, or None.

    By Gauss's lemma a rational root of an integer polynomial has integer
    coefficients, so the root exists only if they, solved for from the
    lowest one up, are all exact integers.
    """
    lo, hi = min(p), max(p)
    c0 = p[lo]
    if lo % 2 or hi % 2 or c0 < 0:
        return None
    r0 = isqrt(c0)
    if r0 * r0 != c0:
        return None
    root = [r0]
    for i in range(1, (hi - lo) // 2 + 1):
        acc = p.get(lo + i, 0) - sum(root[j] * root[i - j] for j in range(1, i))
        c, rem = divmod(acc, 2 * r0)
        if rem:
            return None
        root.append(c)
    cand = {lo // 2 + i: c for i, c in enumerate(root) if c}
    return cand if _pmul(cand, cand) == p else None


def as_scalar(x: Union[Scalar, int, Fraction]) -> Scalar:
    s = Scalar._coerce(x)
    if s is None:
        raise TypeError(f"cannot interpret {type(x).__name__} as Scalar")
    return s
