"""Symbolic calculus for Dirac commutators on the doubled GNS space.

The Dirac operator acts on two copies of the GNS space, and its commutator
with a (left-multiplication by a) coordinate-algebra element decomposes as

    [D, alpha] = S(alpha) + T(alpha) * DeltaL_hat

where ``S(alpha) = d_H(alpha) * Gamma`` is diagonal (``Gamma = diag(1, -1)``
is the grading), ``T(alpha)`` is off-diagonal with entries built from the
twisted ladder derivations, and ``DeltaL_hat`` is the left modular operator
rescaled per component.  Products of such commutators live in the algebra of
formal sums

    sum_p  M_p * DeltaL_hat**p

with ``M_p`` a 2x2 matrix of algebra elements.  Moving a power of
``DeltaL_hat`` across a matrix twists each entry by a power of the left
modular automorphism together with a component-dependent power of q; this is
the only commutation rule needed, and it keeps the whole calculus exact over
the scalar field.

The residue functional of the spectral triple evaluates such formal sums via
three rules (off-diagonal terms vanish, grading-diagonal terms at modular
power zero vanish, and full diagonals at modular power two integrate against
the unit-coefficient functional).  Dividing out the overall residue constant
R keeps every value inside the exact scalar field; `tau_over_R` implements
exactly that normalized functional, and `phi_res_over_r` the resulting
residue 3-cochain, `PHI_RES_OVER_R`.  `pi_split` gives the same diagonal
as signed sums of `hochschild.cup`; this route is its reference.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

from .actions import act_e, act_f, act_h, act_k
from .algebra import AlgebraElement
from .functionals import int_one
from .hochschild import ORDERS, Cochain, cup, e_first, sign
from .scalars import Scalar

__all__ = [
    "OutsideEvaluatedDomainError",
    "ModularMatrix",
    "stilde",
    "ttilde",
    "commutator_d",
    "mm_mul",
    "tau_over_R",
    "phi_res_over_r",
    "PHI_RES_OVER_R",
    "pi_split",
]

Matrix2 = Tuple[Tuple[AlgebraElement, AlgebraElement],
                Tuple[AlgebraElement, AlgebraElement]]

_ZERO_EL = AlgebraElement.zero()


class OutsideEvaluatedDomainError(ValueError):
    """Raised when the residue functional is applied outside the forms it
    is defined on (a genuinely diagonal part at a modular power other than
    two that is not proportional to the grading)."""


def _as_matrix(rows: Iterable[Iterable[AlgebraElement]]) -> Matrix2:
    (m11, m12), (m21, m22) = ((tuple(r)) for r in rows)
    return ((m11, m12), (m21, m22))


def _is_zero_matrix(m: Matrix2) -> bool:
    return all(entry.is_zero() for row in m for entry in row)


def _mat_add(x: Matrix2, y: Matrix2) -> Matrix2:
    return _as_matrix(
        (x[i][0] + y[i][0], x[i][1] + y[i][1]) for i in range(2))


def _conjugate_entry(x: AlgebraElement, power: int, i: int, j: int) -> AlgebraElement:
    """Entry (i, j) (0-indexed) of DeltaL_hat**power * M * DeltaL_hat**-power.

    Each crossing of DeltaL_hat replaces an entry by the inverse left modular
    automorphism of it, times q**(2(i - j)) with 1-indexed component labels;
    the sign of the q-power only depends on the difference, so 0-indexing is
    equivalent.
    """
    if x.is_zero() or power == 0:
        return x
    shifted = act_k(x, 2 * power)  # inverse modular automorphism, iterated
    return shifted.scale(Scalar.q_pow(2 * power * (i - j)))


class ModularMatrix:
    """A formal sum of 2x2 algebra-valued matrices times powers of the
    (component-rescaled) left modular operator."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Mapping[int, Matrix2] | None = None):
        cleaned: Dict[int, Matrix2] = {}
        if parts:
            for power, mat in parts.items():
                if power < 0:
                    raise ValueError("modular power must be nonnegative")
                m = _as_matrix(mat)
                if not _is_zero_matrix(m):
                    cleaned[power] = m
        self._parts = cleaned

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "ModularMatrix":
        return cls()

    @classmethod
    def identity(cls) -> "ModularMatrix":
        one = AlgebraElement.unit()
        return cls({0: ((one, _ZERO_EL), (_ZERO_EL, one))})

    @classmethod
    def from_element(cls, alpha: AlgebraElement) -> "ModularMatrix":
        """Left multiplication by alpha on both components."""
        return cls({0: ((alpha, _ZERO_EL), (_ZERO_EL, alpha))})

    @classmethod
    def delta_power(cls, power: int) -> "ModularMatrix":
        one = AlgebraElement.unit()
        return cls({power: ((one, _ZERO_EL), (_ZERO_EL, one))})

    @classmethod
    def gamma(cls) -> "ModularMatrix":
        one = AlgebraElement.unit()
        return cls({0: ((one, _ZERO_EL), (_ZERO_EL, -one))})

    # -- views ----------------------------------------------------------

    @property
    def powers(self) -> Tuple[int, ...]:
        return tuple(sorted(self._parts))

    def part(self, power: int) -> Matrix2:
        zero_row = (_ZERO_EL, _ZERO_EL)
        return self._parts.get(power, (zero_row, zero_row))

    def is_zero(self) -> bool:
        return not self._parts

    # -- linear structure -----------------------------------------------

    def __add__(self, other: "ModularMatrix") -> "ModularMatrix":
        if not isinstance(other, ModularMatrix):
            return NotImplemented
        parts = dict(self._parts)
        for power, mat in other._parts.items():
            if power in parts:
                parts[power] = _mat_add(parts[power], mat)
            else:
                parts[power] = mat
        return ModularMatrix(parts)

    def __neg__(self) -> "ModularMatrix":
        return ModularMatrix({
            p: _as_matrix((-e for e in row) for row in m)
            for p, m in self._parts.items()})

    def __sub__(self, other: "ModularMatrix") -> "ModularMatrix":
        if not isinstance(other, ModularMatrix):
            return NotImplemented
        return self + (-other)

    def scale(self, coeff) -> "ModularMatrix":
        return ModularMatrix({
            p: _as_matrix((e.scale(coeff) for e in row) for row in m)
            for p, m in self._parts.items()})

    def __mul__(self, other: "ModularMatrix") -> "ModularMatrix":
        if not isinstance(other, ModularMatrix):
            return NotImplemented
        return mm_mul(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModularMatrix):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if not self._parts:
            return "ModularMatrix(0)"
        chunks = []
        for power in self.powers:
            m = self._parts[power]
            rows = "; ".join(
                ", ".join(str(e) for e in row) for row in m)
            chunks.append(f"power {power}: [{rows}]")
        return "ModularMatrix(" + " + ".join(chunks) + ")"


def mm_mul(x: ModularMatrix, y: ModularMatrix) -> ModularMatrix:
    """Product, normalized so every modular-operator power sits rightmost."""
    parts: Dict[int, Matrix2] = {}
    for p, left in x._parts.items():
        for r, right in y._parts.items():
            shifted = _as_matrix(
                (_conjugate_entry(right[i][j], p, i, j) for j in range(2))
                for i in range(2))
            prod_rows = []
            for i in range(2):
                row = []
                for j in range(2):
                    row.append(left[i][0] * shifted[0][j]
                               + left[i][1] * shifted[1][j])
                prod_rows.append(tuple(row))
            mat = (prod_rows[0], prod_rows[1])
            key = p + r
            if key in parts:
                parts[key] = _mat_add(parts[key], mat)
            else:
                parts[key] = mat
    return ModularMatrix(parts)


def stilde(alpha: AlgebraElement) -> ModularMatrix:
    """Diagonal part of [D, alpha]: the weight derivation times the grading."""
    s = act_h(alpha)
    return ModularMatrix({0: ((s, _ZERO_EL), (_ZERO_EL, -s))})


def ttilde(alpha: AlgebraElement) -> ModularMatrix:
    """Off-diagonal coefficient matrix of [D, alpha] (without the trailing
    modular operator): ladder derivations of the half-twisted argument."""
    half = act_k(alpha, 1)
    upper = act_e(half).scale(Scalar.v_pow(-1))
    lower = act_f(half).scale(Scalar.v_pow(1))
    return ModularMatrix({0: ((_ZERO_EL, upper), (lower, _ZERO_EL))})


def commutator_d(alpha: AlgebraElement) -> ModularMatrix:
    """[D, alpha] as a modular matrix: diagonal weight part at power zero
    plus off-diagonal ladder part at power one."""
    return ModularMatrix({0: stilde(alpha).part(0), 1: ttilde(alpha).part(0)})


def tau_over_R(m: ModularMatrix) -> Scalar:
    """The residue functional with the overall constant R divided out.

    Off-diagonal entries contribute nothing at any modular power.  A diagonal
    at power zero must be proportional to the grading (entries (x, -x)) and
    contributes nothing.  A diagonal at power two contributes the sum of the
    unit-coefficient integrals of its entries.  Any other diagonal is outside
    the domain on which the functional is defined and raises.
    """
    total = Scalar.zero()
    for power in m.powers:
        ((m11, _m12), (_m21, m22)) = m.part(power)
        if power == 2:
            total = total + int_one(m11) + int_one(m22)
            continue
        if m11.is_zero() and m22.is_zero():
            continue
        if power == 0 and (m11 + m22).is_zero():
            continue  # grading-proportional: evaluates to zero
        raise OutsideEvaluatedDomainError(
            f"diagonal part at modular power {power} is not grading-"
            "proportional; the residue functional is undefined there")
    return total


def phi_res_over_r(a0: AlgebraElement, a1: AlgebraElement,
                   a2: AlgebraElement, a3: AlgebraElement) -> Scalar:
    """The residue 3-cochain, normalized by R: evaluate
    tau(a0 [D,a1] [D,a2] [D,a3]) through the symbolic rules."""
    prod = ModularMatrix.from_element(a0)
    for arg in (a1, a2, a3):
        prod = mm_mul(prod, commutator_d(arg))
    return tau_over_R(prod)


# The lambda looks `phi_res_over_r` up at call time.
PHI_RES_OVER_R = Cochain(3, lambda *a: phi_res_over_r(*a), "phi_res_over_R")


def pi_split(a0: AlgebraElement, a1: AlgebraElement,
             a2: AlgebraElement, a3: AlgebraElement,
             ) -> Tuple[AlgebraElement, AlgebraElement]:
    """The two diagonal entries of the reduced commutator product.

    Collapsing a0 [D,a1] [D,a2] [D,a3] to its modular-power-two diagonal and
    pulling the modular twists into the arguments leaves the signed sums of
    sign(order) * cup(order, ...) over the orders with e before f and with
    f before e; their unit-coefficient integrals add up to `phi_res_over_r`.
    """
    pi = {True: AlgebraElement.zero(), False: AlgebraElement.zero()}
    for order in ORDERS.values():
        pi[e_first(order)] += sign(order) * cup(order, a0, a1, a2, a3)
    return pi[True], pi[False]
