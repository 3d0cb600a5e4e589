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

with ``M_p`` a 2x2 matrix of algebra elements, kept as one sparse sum over
(power, row, column) in the container that algebra elements and tensors
share.  Moving a power of ``DeltaL_hat`` across a matrix twists each entry
by a power of the left modular automorphism together with a
component-dependent power of q; this is the only commutation rule needed,
and it keeps the whole calculus exact over the scalar field.

The residue functional of the spectral triple evaluates such formal sums via
three rules (off-diagonal terms vanish, grading-diagonal terms at modular
power zero vanish, and full diagonals at modular power two integrate against
the unit-coefficient functional).  Dividing out the overall residue constant
R keeps every value inside the exact scalar field; `tau_over_R` implements
exactly that normalized functional.

This matrix calculus is the reference, not the working route.  The residue
3-cochain `phi_res_over_r` (shared as `PHI_RES_OVER_R`) is the signed sum
of the integrated cup products of `hochschild.ORDERS`: a six-entry cup
table, read off the torus restriction by `hochschild.int_one_table`, the
evaluator of the cocycles too, and made a cochain by
`hochschild.cup_cochain`; its coboundary is the cochain of the table
that `hochschild.boundary` derives from it.  `pi_split` forms the same
cup products as elements, in its two diagonal entries, and
`phi_res_via_commutators` evaluates the value by multiplying the
commutators here, as the independent oracle.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from .actions import act_e, act_f, act_h, act_k
from .algebra import AlgebraElement, _accumulate, _SparseSum
from .functionals import int_one
from .hochschild import (COCYCLES, ORDERS, SLOT_TWISTS, cup, cup_cochain,
                         e_first, int_one_table, sign)
from .scalars import ONE, ZERO, Scalar

Matrix2 = Tuple[Tuple[AlgebraElement, AlgebraElement],
                Tuple[AlgebraElement, AlgebraElement]]
Key = Tuple[int, int, int]  # (modular power, row, column)

_ZERO_EL = AlgebraElement.zero()


class OutsideEvaluatedDomainError(ValueError):
    """Raised when the residue functional is applied outside the forms it
    is defined on (a genuinely diagonal part at a modular power other than
    two that is not proportional to the grading)."""


def _conjugate_entry(x: AlgebraElement, power: int, i: int, j: int) -> AlgebraElement:
    """Entry (i, j) (0-indexed) of DeltaL_hat**power * M * DeltaL_hat**-power.

    Each crossing of DeltaL_hat replaces an entry by the inverse left modular
    automorphism of it, times q**(2(i - j)) with 1-indexed component labels;
    the sign of the q-power only depends on the difference, so 0-indexing is
    equivalent.
    """
    if power == 0:
        return x
    shifted = act_k(x, 2 * power)  # inverse modular automorphism, iterated
    return shifted.scale(Scalar.q_pow(2 * power * (i - j)))


class ModularMatrix(_SparseSum):
    """A formal sum of 2x2 algebra-valued matrices times powers of the
    (component-rescaled) left modular operator, stored sparsely as
    ``(power, row, col) -> nonzero entry`` in the shared sparse-sum
    container of `algebra`."""

    __slots__ = ()

    def __init__(self, parts: Mapping[int, Matrix2] | None = None):
        entries: Dict[Key, AlgebraElement] = {}
        for power, rows in (parts or {}).items():
            if power < 0:
                raise ValueError("modular power must be nonnegative")
            for i, row in enumerate(rows):
                for j, entry in enumerate(row):
                    entries[power, i, j] = entry
        super().__init__(entries)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_element(cls, alpha: AlgebraElement) -> "ModularMatrix":
        """Left multiplication by alpha on both components."""
        return cls({0: ((alpha, _ZERO_EL), (_ZERO_EL, alpha))})

    # -- views ----------------------------------------------------------

    @property
    def powers(self) -> Tuple[int, ...]:
        return tuple(sorted({power for power, _, _ in self._terms}))

    def part(self, power: int) -> Matrix2:
        get = self._terms.get
        return ((get((power, 0, 0), _ZERO_EL), get((power, 0, 1), _ZERO_EL)),
                (get((power, 1, 0), _ZERO_EL), get((power, 1, 1), _ZERO_EL)))

    def __repr__(self) -> str:
        if not self._terms:
            return "ModularMatrix(0)"
        chunks = []
        for power in self.powers:
            rows = "; ".join(
                ", ".join(str(e) for e in row) for row in self.part(power))
            chunks.append(f"power {power}: [{rows}]")
        return "ModularMatrix(" + " + ".join(chunks) + ")"


def mm_mul(x: ModularMatrix, y: ModularMatrix) -> ModularMatrix:
    """Product, normalized so every modular-operator power sits rightmost:
    only nonzero entries meet, and an entry of y moved left of
    DeltaL_hat**p is conjugated by it."""
    entries: Dict[Key, AlgebraElement] = {}
    for (p, i, k), left in x._terms.items():
        for (r, k2, j), right in y._terms.items():
            if k2 == k:
                _accumulate(entries, (p + r, i, j),
                            left * _conjugate_entry(right, p, k, j))
    return ModularMatrix._wrap(entries)


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
    total = ZERO
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


def phi_res_via_commutators(a0: AlgebraElement, a1: AlgebraElement,
                            a2: AlgebraElement, a3: AlgebraElement) -> Scalar:
    """Reference for `phi_res_over_r`: tau(a0 [D,a1] [D,a2] [D,a3]) / R
    evaluated literally, by multiplying the commutators as modular
    matrices and applying `tau_over_R`.

    This route shares no code with the cup products of `pi_split`; it is
    the independent oracle that the `pi-split` and `volume-pairings`
    checks compare the residue cochain against.
    """
    prod = ModularMatrix.from_element(a0)
    for arg in (a1, a2, a3):
        prod = mm_mul(prod, commutator_d(arg))
    return tau_over_R(prod)


#: The residue cochain's cup table: sign(order) for each of the six orders.
_RESIDUE_TABLE = tuple((ONE * sign(order), SLOT_TWISTS[order])
                       for order in ORDERS.values())


def phi_res_over_r(a0: AlgebraElement, a1: AlgebraElement,
                   a2: AlgebraElement, a3: AlgebraElement) -> Scalar:
    """The residue 3-cochain tau(a0 [D,a1] [D,a2] [D,a3]) / R: the sum of
    sign(order) * int(cup(order, ...)) over the six orders.  It equals the
    unit-coefficient integral of the two entries of `pi_split`.

    It is the six-entry cup table read by `hochschild.int_one_table`,
    which shares what the orders have in common: each distinct (slot,
    derivation, twist) image is read once (11 for the 18 slots), and
    torus(a0) times the slot-1 image is formed once for the two orders
    that begin with the same (derivation, twist)."""
    return int_one_table(_RESIDUE_TABLE, a0, a1, a2, a3)


PHI_RES_OVER_R = cup_cochain("phi_res_over_R", _RESIDUE_TABLE)

#: The seven closed 3-cochains by name: the six cup cocycles and the
#: residue cochain.
_CLOSED_COCHAINS = {**COCYCLES, "phi_res_over_R": PHI_RES_OVER_R}


def pi_split(a0: AlgebraElement, a1: AlgebraElement,
             a2: AlgebraElement, a3: AlgebraElement,
             ) -> Tuple[AlgebraElement, AlgebraElement]:
    """The two diagonal entries of the reduced commutator product.

    Collapsing a0 [D,a1] [D,a2] [D,a3] to its modular-power-two diagonal and
    pulling the modular twists into the arguments leaves, in each diagonal
    entry, a signed sum sign(order) * cup(order, ...) over the slot orders
    of `hochschild.ORDERS`: the orders with e before f in the first entry,
    those with f before e in the second.
    """
    pi = {True: AlgebraElement.zero(), False: AlgebraElement.zero()}
    for order in ORDERS.values():
        pi[e_first(order)] += sign(order) * cup(order, a0, a1, a2, a3)
    return pi[True], pi[False]
