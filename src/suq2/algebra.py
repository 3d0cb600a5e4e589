"""The coordinate *-Hopf algebra of quantum SU(2) in its PBW basis.

Generators a, b, c, d satisfy

    ab = q ba   ac = q ca   bd = q db   cd = q dc   bc = cb
    ad = 1 + q bc          da = 1 + q^-1 bc

with star structure a* = d, b* = -q c, c* = -q^-1 b, d* = a, and the
matrix coproduct of [[a, b], [c, d]].

Elements are stored on the linear basis of ordered monomials
a^n b^m c^r d^s with n*s = 0 (a and d never both present), coefficients
in the exact field Q(v), v^2 = q.  Products of basis monomials are
computed structurally: the only nontrivial step is normal-ordering the
inner block d^s a^n (or a^n d^s), which has a closed form: with t = bc,
a^k d^k = prod_{j=1..k} (1 + q^(2j-1) t) = sum_i q^(ik) [k choose i] t^i
and d^k a^k is the same sum with q^(-ik), [k choose i] the symmetric
q-binomial.  After it the b/c blocks commute past powers of a and d at
the cost of explicit q-powers.

Elements, the coproduct's tensors and the modular matrices of `modular`
share one sparse container, `_SparseSum`, and one accumulate step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, NamedTuple, Tuple, Union

from .scalars import ONE, ZERO, Scalar, as_scalar


class Monomial(NamedTuple):
    """Exponents of an ordered monomial a^n b^m c^r d^s, with n*s == 0."""

    n: int
    m: int
    r: int
    s: int

    @property
    def degree(self) -> int:
        return self.n + self.m + self.r + self.s

    @property
    def left_weight2(self) -> int:
        """Twice the left weight: a, c lower by 1/2; b, d raise by 1/2."""
        return -self.n + self.m - self.r + self.s

    @property
    def right_weight2(self) -> int:
        """Twice the right weight: a, b lower by 1/2; c, d raise by 1/2."""
        return -self.n - self.m + self.r + self.s

    def word(self) -> str:
        return "a" * self.n + "b" * self.m + "c" * self.r + "d" * self.s

    def __str__(self) -> str:
        if self.degree == 0:
            return "1"
        parts = []
        for letter, e in zip("abcd", self):
            if e == 1:
                parts.append(letter)
            elif e > 1:
                parts.append(f"{letter}^{e}")
        return " ".join(parts)


UNIT_MONO = Monomial(0, 0, 0, 0)


def mono(n: int, m: int, r: int, s: int) -> Monomial:
    if min(n, m, r, s) < 0:
        raise ValueError(f"negative exponent in monomial ({n},{m},{r},{s})")
    if n and s:
        raise ValueError(
            f"a^{n}...d^{s} is not a basis monomial (use ad = 1 + q bc)")
    return Monomial(n, m, r, s)


# ---------------------------------------------------------------------------
# Structured monomial multiplication.
#
# _inner(s, n) normal-orders d^s a^n;  _outer(n, s) normal-orders a^n d^s.
# Both return tuples of ((alpha, i, delta), Scalar) meaning
# coeff * a^alpha (bc)^i d^delta, and every term has alpha*delta == 0.
# With k = min(n, s), the block a^k d^k or d^k a^k is the closed form of
# the module docstring, from ad = 1 + q bc, da = 1 + q^-1 bc and
# a bc = q^2 bc a, d bc = q^-2 bc d.  The spare a^(n-k) or d^(s-k) of
# a^n d^s already stands where the basis puts it; that of d^s a^n moves
# past (bc)^i at q^-2 per letter.

def _bc_coefficients(k: int) -> List[Scalar]:
    """q^(ik) [k choose i] for i = 0..k: the (bc)^i coefficients of a^k d^k.

    Expands the product one factor at a time by shifted sums of Laurent
    polynomials, so no Scalar is divided and no gcd is taken.
    """
    coeffs = [ONE]
    for j in range(1, k + 1):
        step = Scalar.q_pow(2 * j - 1)
        coeffs = ([ONE] + [c + prev * step
                           for prev, c in zip(coeffs, coeffs[1:])]
                  + [coeffs[-1] * step])
    return coeffs


@lru_cache(maxsize=None)
def _inner(s: int, n: int) -> Tuple:
    """Normal form of d^s a^n.

    The (bc)^i coefficient is that of a^k d^k times q^(-2ik), which turns
    q^(ik) into q^(-ik), and times q^(-2i(n+s-2k)) for the spare letters.
    """
    k = min(s, n)
    return tuple(((n - k, i, s - k), c * Scalar.q_pow(-2 * i * (n + s - k)))
                 for i, c in enumerate(_bc_coefficients(k)))


@lru_cache(maxsize=None)
def _outer(n: int, s: int) -> Tuple:
    """Normal form of a^n d^s."""
    k = min(n, s)
    return tuple(((n - k, i, s - k), c)
                 for i, c in enumerate(_bc_coefficients(k)))


@lru_cache(maxsize=None)
def _mono_mul(x: Monomial, y: Monomial) -> Tuple:
    """Product of two basis monomials as ((Monomial, Scalar), ...)."""
    n1, m1, r1, s1 = x
    n2, m2, r2, s2 = y
    acc: Dict[Monomial, Scalar] = {}
    for (al, k, dl), c1 in _inner(s1, n2):
        # a^n1 b^m1 c^r1 (c1 a^al (bc)^k d^dl) b^m2 c^r2 d^s2
        shift = -al * (m1 + r1) - dl * (m2 + r2)
        big_n = n1 + al
        big_m = m1 + k + m2
        big_r = r1 + k + r2
        big_s = dl + s2
        pre = c1 * Scalar.v_pow(2 * shift)
        if big_n and big_s:
            # a^N (b^M c^R) d^S: pull the bc-block left, resolve a^N d^S,
            # push the block back right.
            for (al2, k2, dl2), c2 in _outer(big_n, big_s):
                coeff = pre * c2 * Scalar.v_pow(
                    2 * (big_n - al2) * (big_m + big_r))
                key = Monomial(al2, big_m + k2, big_r + k2, dl2)
                _accumulate(acc, key, coeff)
        else:
            _accumulate(acc, Monomial(big_n, big_m, big_r, big_s), pre)
    return tuple(sorted(acc.items()))


def _accumulate(acc: Dict, key, coeff) -> None:
    """Add coeff at key in a sparse term map, dropping keys that cancel.

    A new key takes coeff as it is, so any coefficient with ``+`` and
    ``is_zero`` works: Scalars, and the algebra-element entries of the
    modular matrices.
    """
    old = acc.get(key)
    tot = coeff if old is None else old + coeff
    if not tot.is_zero():
        acc[key] = tot
    elif old is not None:
        del acc[key]


# ---------------------------------------------------------------------------
# Elements.

class _SparseSum:
    """A finite formal sum, stored as a dict from key to nonzero coefficient.

    The constructor drops zero coefficients; a result that can hold none
    (a sum through `_accumulate`, a negation, a scaling by a nonzero
    scalar, a product) is wrapped by `_wrap` as it is.  Each type coerces
    only its own instances, so sums of different types never mix.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping = ()):
        self._terms = {k: c for k, c in dict(terms).items() if not c.is_zero()}

    @classmethod
    def _wrap(cls, terms: Dict):
        """A sum holding ``terms`` itself, which must have no zero."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def _coerce(cls, other):
        return other if isinstance(other, cls) else None

    @property
    def terms(self) -> Dict:
        return dict(self._terms)

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for k, c in o._terms.items():
            _accumulate(out, k, c)
        return self._wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def scale(self, coeff):
        c = as_scalar(coeff)
        if c.is_zero():
            return self._wrap({})
        return self._wrap({k: x * c for k, x in self._terms.items()})

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    __hash__ = None


class AlgebraElement(_SparseSum):
    """A finite Q(v)-linear combination of basis monomials."""

    __slots__ = ()

    @classmethod
    def unit(cls) -> "AlgebraElement":
        return cls({UNIT_MONO: ONE})

    @classmethod
    def from_mono(cls, m: Monomial,
                  coeff: Union[Scalar, int, Fraction] = 1) -> "AlgebraElement":
        m = mono(*m)
        return cls({m: as_scalar(coeff)})

    def coefficient(self, m: Monomial) -> Scalar:
        return self._terms.get(m, ZERO)

    @property
    def degree(self) -> int:
        return max((m.degree for m in self._terms), default=0)

    # -- products -------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return AlgebraElement({UNIT_MONO: as_scalar(other)})
        return None

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        out: Dict[Monomial, Scalar] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                c12 = c1 * c2
                for m, c in _mono_mul(m1, m2):
                    _accumulate(out, m, c12 * c)
        return AlgebraElement._wrap(out)

    def __rmul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int) -> "AlgebraElement":
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = AlgebraElement.unit()
        for _ in range(k):
            out = out * self
        return out

    # -- star structure -----------------------------------------------

    def star(self) -> "AlgebraElement":
        """The *-involution, extended antilinearly (coefficients are real)."""
        out: Dict[Monomial, Scalar] = {}
        for (n, m, r, s), c in self._terms.items():
            sign = -1 if (m + r) % 2 else 1
            coeff = c * Scalar.q_pow(m - r) * sign
            _accumulate(out, Monomial(s, r, m, n), coeff)
        return AlgebraElement._wrap(out)

    # -- serialization / display --------------------------------------

    def to_json(self) -> dict:
        return {"terms": [[list(m), c.to_json()]
                          for m, c in sorted(self._terms.items())]}

    @classmethod
    def from_json(cls, data: Mapping) -> "AlgebraElement":
        return cls({mono(*m): Scalar.from_json(c) for m, c in data["terms"]})

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m, c in sorted(self._terms.items()):
            cs, ms = str(c), str(m)
            if ms == "1":
                parts.append(f"({cs})" if ("+" in cs or " - " in cs) else cs)
            elif cs == "1":
                parts.append(ms)
            else:
                parts.append(f"({cs})*{ms}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<AlgebraElement {self}>"


def gens() -> Tuple[AlgebraElement, AlgebraElement, AlgebraElement, AlgebraElement]:
    """The generators (a, b, c, d) as elements."""
    return (AlgebraElement.from_mono(Monomial(1, 0, 0, 0)),
            AlgebraElement.from_mono(Monomial(0, 1, 0, 0)),
            AlgebraElement.from_mono(Monomial(0, 0, 1, 0)),
            AlgebraElement.from_mono(Monomial(0, 0, 0, 1)))


_GEN_MONO = {"a": Monomial(1, 0, 0, 0), "b": Monomial(0, 1, 0, 0),
             "c": Monomial(0, 0, 1, 0), "d": Monomial(0, 0, 0, 1)}


def normalize_word(word: Union[str, Iterable[str]]) -> AlgebraElement:
    """Product of generators given as a letter string like ``"dcab"``.

    Whitespace is ignored, so ``"d c a b"`` works too.  The result is the
    normal form in the ordered PBW basis.
    """
    out = AlgebraElement.unit()
    for letter in word:
        if letter.isspace():
            continue
        try:
            g = _GEN_MONO[letter]
        except KeyError:
            raise ValueError(f"unknown generator {letter!r}") from None
        out = out * AlgebraElement.from_mono(g)
    return out


# ---------------------------------------------------------------------------
# Coproduct, counit, weights.

class TensorElement(_SparseSum):
    """A finite sum of two-fold tensors of basis monomials."""

    __slots__ = ()

    def __mul__(self, other) -> "TensorElement":
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, TensorElement):
            return NotImplemented
        out: Dict[Tuple[Monomial, Monomial], Scalar] = {}
        for (x1, x2), c1 in self._terms.items():
            for (y1, y2), c2 in other._terms.items():
                c12 = c1 * c2
                for m1, d1 in _mono_mul(x1, y1):
                    for m2, d2 in _mono_mul(x2, y2):
                        _accumulate(out, (m1, m2), c12 * d1 * d2)
        return TensorElement._wrap(out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({c})*{l} (x) {r}"
                          for (l, r), c in sorted(self._terms.items()))


_DELTA_LETTER = {
    # Matrix coproduct of [[a, b], [c, d]].
    "a": ((Monomial(1, 0, 0, 0), Monomial(1, 0, 0, 0)),
          (Monomial(0, 1, 0, 0), Monomial(0, 0, 1, 0))),
    "b": ((Monomial(1, 0, 0, 0), Monomial(0, 1, 0, 0)),
          (Monomial(0, 1, 0, 0), Monomial(0, 0, 0, 1))),
    "c": ((Monomial(0, 0, 1, 0), Monomial(1, 0, 0, 0)),
          (Monomial(0, 0, 0, 1), Monomial(0, 0, 1, 0))),
    "d": ((Monomial(0, 0, 1, 0), Monomial(0, 1, 0, 0)),
          (Monomial(0, 0, 0, 1), Monomial(0, 0, 0, 1))),
}


@lru_cache(maxsize=None)
def _mono_coproduct(m: Monomial) -> TensorElement:
    out = TensorElement({(UNIT_MONO, UNIT_MONO): ONE})
    for letter in m.word():
        step = TensorElement({pair: ONE for pair in _DELTA_LETTER[letter]})
        out = out * step
    return out


def coproduct(x: AlgebraElement) -> TensorElement:
    out = TensorElement()
    for m, c in x.terms.items():
        out = out + _mono_coproduct(m).scale(c)
    return out


def counit(x: AlgebraElement) -> Scalar:
    """The counit: a, d -> 1 and b, c -> 0 on generators."""
    out = ZERO
    for m, c in x.terms.items():
        if m.m == 0 and m.r == 0:
            out = out + c
    return out


def weight_decompose(x: AlgebraElement
                     ) -> Dict[Tuple[int, int], AlgebraElement]:
    """Split into joint (left, right) weight components, weights doubled."""
    blocks: Dict[Tuple[int, int], Dict[Monomial, Scalar]] = {}
    for m, c in x.terms.items():
        key = (m.left_weight2, m.right_weight2)
        blocks.setdefault(key, {})[m] = c
    return {k: AlgebraElement(t) for k, t in sorted(blocks.items())}
