"""Exact coefficient arithmetic over the field Q(v), with v**2 = q.

Every structure constant in this package lives in the rational function
field Q(v) where v is a formal square root of the deformation parameter q.
Working with v rather than q keeps half-integer q-powers (which appear in
the k-pairing and the spin-half Clebsch--Gordan data) exact.

A :class:`Scalar` is a reduced fraction of Laurent polynomials in v with
`fractions.Fraction` coefficients.  The canonical form is unique:

* numerator and denominator share no polynomial factor (after shifting
  out powers of v, which are units);
* the spare v-power is carried entirely on the numerator;
* the denominator's lowest-degree coefficient is exactly 1;
* zero is represented as 0/1.

Equality is therefore plain structural equality, and Scalars are hashable
and usable as dict values throughout the algebra layer.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping, Optional, Tuple, Union


class EvaluationSingularityError(ZeroDivisionError):
    """Raised when a Scalar is evaluated at a q where its denominator vanishes."""


#: Sparse Laurent polynomial: v-exponent -> coefficient.  Zero coeffs absent.
_Poly = dict


def _trim(p: _Poly) -> _Poly:
    return {e: c for e, c in p.items() if c}


def _padd(p: _Poly, q: _Poly) -> _Poly:
    out = dict(p)
    for e, c in q.items():
        nc = out.get(e, 0) + c
        if nc:
            out[e] = nc
        else:
            out.pop(e, None)
    return out


def _pneg(p: _Poly) -> _Poly:
    return {e: -c for e, c in p.items()}


def _pmul(p: _Poly, q: _Poly) -> _Poly:
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


def _dense(p: _Poly) -> Tuple[list, int]:
    """Return (coefficient list, lowest exponent) with list[0] != 0."""
    lo = min(p)
    hi = max(p)
    coeffs = [p.get(e, Fraction(0)) for e in range(lo, hi + 1)]
    return coeffs, lo


def _dense_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _dense_mod(a: list, b: list) -> list:
    """Remainder of dense polynomial division a mod b (b nonzero)."""
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        factor = a[-1] / lead
        shift = len(a) - 1 - db
        for i, bc in enumerate(b):
            a[shift + i] -= factor * bc
        _dense_trim(a)
    return a


def _dense_gcd(a: list, b: list) -> list:
    a, b = list(a), list(b)
    while b:
        a, b = b, _dense_mod(a, b)
    lead = a[-1]
    return [c / lead for c in a]


def _dense_divexact(a: list, b: list) -> list:
    """Exact dense quotient a / b (b divides a)."""
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    a = list(a)
    lead = b[-1]
    for i in range(len(out) - 1, -1, -1):
        coeff = a[i + len(b) - 1] / lead
        out[i] = coeff
        if coeff:
            for j, bc in enumerate(b):
                a[i + j] -= coeff * bc
    return out


def _from_dense(coeffs: list, lo: int) -> _Poly:
    return {lo + i: c for i, c in enumerate(coeffs) if c}


_ONE_POLY: _Poly = {0: Fraction(1)}


class Scalar:
    """An element of Q(v), stored as a canonical fraction of Laurent polynomials."""

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, num: Mapping[int, Union[int, Fraction]] = (),
                 den: Mapping[int, Union[int, Fraction]] = _ONE_POLY):
        n = _trim({int(e): Fraction(c) for e, c in dict(num).items()})
        d = _trim({int(e): Fraction(c) for e, c in dict(den).items()})
        self._num, self._den = _canonical(n, d)
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, num: _Poly, den: _Poly) -> "Scalar":
        out = object.__new__(cls)
        out._num, out._den = _canonical(num, den)
        out._hash = None
        return out

    @classmethod
    def zero(cls) -> "Scalar":
        return _ZERO

    @classmethod
    def one(cls) -> "Scalar":
        return _ONE

    @classmethod
    def from_int(cls, k: int) -> "Scalar":
        return cls._raw({0: Fraction(k)}, dict(_ONE_POLY))

    @classmethod
    def from_fraction(cls, fr: Union[Fraction, int]) -> "Scalar":
        return cls._raw({0: Fraction(fr)}, dict(_ONE_POLY))

    @classmethod
    def v_pow(cls, k: int) -> "Scalar":
        """v**k (so q**(k/2))."""
        return cls._raw({k: Fraction(1)}, dict(_ONE_POLY))

    @classmethod
    def q_pow(cls, k: int) -> "Scalar":
        """q**k as an element of Q(v)."""
        return cls._raw({2 * k: Fraction(1)}, dict(_ONE_POLY))

    # -- views ---------------------------------------------------------

    @property
    def num_terms(self) -> Tuple[Tuple[int, Fraction], ...]:
        return tuple(sorted(self._num.items()))

    @property
    def den_terms(self) -> Tuple[Tuple[int, Fraction], ...]:
        return tuple(sorted(self._den.items()))

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        return self._num == _ONE_POLY and self._den == _ONE_POLY

    def is_polynomial(self) -> bool:
        """True when the denominator is 1 (a Laurent polynomial in v)."""
        return self._den == _ONE_POLY

    # -- ring / field operations --------------------------------------

    @staticmethod
    def _coerce(other) -> Optional["Scalar"]:
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar._raw({0: Fraction(other)}, dict(_ONE_POLY))
        return None

    def __add__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._den == o._den:
            return Scalar._raw(_padd(self._num, o._num), dict(self._den))
        num = _padd(_pmul(self._num, o._den), _pmul(o._num, self._den))
        return Scalar._raw(num, _pmul(self._den, o._den))

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        out = object.__new__(Scalar)
        out._num, out._den = _pneg(self._num), dict(self._den)
        out._hash = None
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
        return Scalar._raw(_pmul(self._num, o._num), _pmul(self._den, o._den))

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
        return Scalar._raw(dict(self._den), dict(self._num))

    def __pow__(self, k: int) -> "Scalar":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out, base = _ONE, self
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
        if self._hash is None:
            self._hash = hash((frozenset(self._num.items()),
                               frozenset(self._den.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- evaluation ----------------------------------------------------

    def eval_at_q(self, q_value: float) -> float:
        """Evaluate at a numeric q > 0.

        The even and odd v-parts of numerator and denominator are
        evaluated exactly over Fraction, so the only floating-point steps
        are one square root and the final combine/divide.
        """
        if q_value <= 0:
            raise ValueError("q must be positive")
        qf = Fraction(q_value)
        sv = float(q_value) ** 0.5

        def eval_poly(p: _Poly) -> float:
            even = Fraction(0)
            odd = Fraction(0)
            for e, c in p.items():
                if e % 2 == 0:
                    even += c * qf ** (e // 2)
                else:
                    odd += c * qf ** ((e - 1) // 2)
            return float(even) + sv * float(odd)

        den = eval_poly(self._den)
        if abs(den) < 1e-300:
            raise EvaluationSingularityError(
                f"denominator vanishes at q={q_value!r}")
        return eval_poly(self._num) / den

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {
            "num": [[e, str(c)] for e, c in sorted(self._num.items())],
            "den": [[e, str(c)] for e, c in sorted(self._den.items())],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Scalar":
        num = {int(e): Fraction(c) for e, c in data["num"]}
        den = {int(e): Fraction(c) for e, c in data["den"]}
        return cls._raw(num, den)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "Scalar":
        return cls.from_json(json.loads(text))

    # -- display -------------------------------------------------------

    @staticmethod
    def _poly_str(p: _Poly) -> str:
        if not p:
            return "0"
        parts = []
        for e, c in sorted(p.items()):
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
        ns = self._poly_str(self._num)
        if self._den == _ONE_POLY:
            return ns
        return f"({ns}) / ({self._poly_str(self._den)})"

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _canonical(num: _Poly, den: _Poly) -> Tuple[_Poly, _Poly]:
    """Reduce num/den to the unique canonical representative."""
    if not den:
        raise ZeroDivisionError("zero denominator in Scalar")
    if not num:
        return {}, dict(_ONE_POLY)
    ncoeffs, nlo = _dense(num)
    dcoeffs, dlo = _dense(den)
    if len(ncoeffs) > 1 and len(dcoeffs) > 1:
        g = _dense_gcd(ncoeffs, dcoeffs)
        if len(g) > 1:
            ncoeffs = _dense_divexact(ncoeffs, g)
            dcoeffs = _dense_divexact(dcoeffs, g)
    # Denominator: lowest-degree coefficient 1; v-shift moved to numerator.
    scale = dcoeffs[0]
    num_out = {nlo - dlo + i: c / scale for i, c in enumerate(ncoeffs) if c}
    den_out = {i: c / scale for i, c in enumerate(dcoeffs) if c}
    return num_out, den_out


_ZERO = object.__new__(Scalar)
_ZERO._num, _ZERO._den, _ZERO._hash = {}, dict(_ONE_POLY), None
_ONE = object.__new__(Scalar)
_ONE._num, _ONE._den, _ONE._hash = dict(_ONE_POLY), dict(_ONE_POLY), None

ZERO = _ZERO
ONE = _ONE


def q_number(twice_a: int) -> Scalar:
    """The symmetric q-number [a]_q = (q^-a - q^a)/(q^-1 - q), index doubled.

    ``twice_a`` is 2a, so half-integer spins stay in integer arithmetic:
    q_number(2) == 1, q_number(4) == q^-1 + q, q_number(0) == 0.
    """
    t = twice_a
    if t == 0:
        return _ZERO
    return Scalar._raw({-t: Fraction(1), t: Fraction(-1)},
                       {-2: Fraction(1), 2: Fraction(-1)})


def big_q() -> Scalar:
    """Q = (q^-1 - q)^-1, the scale factor of the q-number denominators."""
    return Scalar._raw(dict(_ONE_POLY), {-2: Fraction(1), 2: Fraction(-1)})


def scalar_sqrt(x: Scalar) -> Optional[Scalar]:
    """Exact square root in Q(v) when one exists, else None.

    Many natural squared norms, such as the squared rescales of the
    Peter-Weyl anchor vectors, are perfect squares in Q(v); this recovers
    their roots exactly.
    """
    if x.is_zero():
        return ZERO

    def poly_sqrt(p: _Poly) -> Optional[_Poly]:
        coeffs, lo = _dense(p)
        if lo % 2 or (len(coeffs) - 1) % 2:
            return None
        lead = coeffs[0]
        root0 = _fraction_sqrt(lead)
        if root0 is None:
            return None
        half = (len(coeffs) - 1) // 2
        out = [Fraction(0)] * (half + 1)
        out[0] = root0
        for i in range(1, half + 1):
            acc = coeffs[i] if i < len(coeffs) else Fraction(0)
            for j in range(1, i):
                if i - j <= half:
                    acc -= out[j] * out[i - j]
            out[i] = acc / (2 * root0)
        cand = _from_dense(out, lo // 2)
        if _pmul(cand, cand) == p:
            return cand
        return None

    nr = poly_sqrt(dict(x._num))
    if nr is None:
        return None
    dr = poly_sqrt(dict(x._den))
    if dr is None:
        return None
    return Scalar._raw(nr, dr)


def _fraction_sqrt(fr: Fraction) -> Optional[Fraction]:
    if fr < 0:
        return None
    import math
    a = math.isqrt(fr.numerator)
    b = math.isqrt(fr.denominator)
    if a * a == fr.numerator and b * b == fr.denominator:
        return Fraction(a, b)
    return None


def as_scalar(x: Union[Scalar, int, Fraction]) -> Scalar:
    s = Scalar._coerce(x)
    if s is None:
        raise TypeError(f"cannot interpret {type(x).__name__} as Scalar")
    return s
