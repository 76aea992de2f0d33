"""Classification of Galois ring units by their low base-p digits.

Every unit gamma of GR(p^a, m) with a >= 2 falls into exactly one of two
classes, read off from its digit expansion gamma = z0 + p*z1 + p^2*z:

    Type1: z0 != 0 and z1 != 0
    Type0: z0 != 0 and z1 == 0

with z0, z1 Teichmuller representatives and z an ordinary ring element.
For a = 1 every unit is a Teichmuller representative already and is
classified Type0 by convention.  Nonzero elements with z0 == 0 are not
units and classify as NonUnit.

The class drives everything downstream: the length-p^s constacyclic
ambient ring is a chain ring precisely for Type1 constants.  Type1 and
Type0 units also admit closed-form inverses built from a short telescoping
product, implemented here without any Newton iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAUnitError, WrongUnitTypeError
from .galois_ring import (
    GrElement,
    RingContext,
    exact_quotient,
    invert,
    p_adic_decompose,
)

NON_UNIT = "NonUnit"
TYPE0 = "Type0"
TYPE1 = "Type1"


@dataclass(frozen=True)
class UnitClass:
    """Digit-level classification of one ring element.

    zeta0_idx and zeta1_idx are Teichmuller table indices (None where the
    witness does not apply); z is the p^2 cofactor, chosen as the exact
    coefficient-wise quotient so that recompose() reproduces the element.
    """

    element: GrElement
    variant: str
    zeta0_idx: int | None
    zeta1_idx: int | None
    z: GrElement | None

    @property
    def ctx(self) -> RingContext:
        return self.element.ctx

    @property
    def zeta0(self) -> GrElement:
        if self.zeta0_idx is None:
            raise WrongUnitTypeError("no zeta0 witness for a non-unit")
        return self.ctx.teich_table[self.zeta0_idx]

    @property
    def zeta1(self) -> GrElement:
        if self.zeta1_idx is None:
            raise WrongUnitTypeError("zeta1 witness exists only for Type1")
        return self.ctx.teich_table[self.zeta1_idx]

    def recompose(self) -> GrElement:
        """Rebuild the element from its witnesses."""
        if self.variant == NON_UNIT:
            raise WrongUnitTypeError("non-units carry no decomposition")
        p = self.ctx.params.p
        acc = self.zeta0
        if self.variant == TYPE1:
            acc = acc + self.zeta1.scale(p)
        return acc + self.z.scale(p * p)

    def to_json_dict(self) -> dict:
        return {
            "unit": list(self.element.coeffs),
            "type": self.variant,
            "zeta0": self.zeta0_idx,
            "zeta1": self.zeta1_idx,
            "z": None if self.z is None else list(self.z.coeffs),
        }


def classify_unit(x: GrElement) -> UnitClass:
    """Classify x as Type0, Type1, or NonUnit with digit witnesses."""
    ctx = x.ctx
    digits = p_adic_decompose(x).digits
    if digits[0] == 0:
        return UnitClass(x, NON_UNIT, None, None, None)
    if ctx.params.a == 1:
        return UnitClass(x, TYPE0, digits[0], None, ctx.zero)
    p = ctx.params.p
    t0 = ctx.teich_table[digits[0]]
    if digits[1] != 0:
        t1 = ctx.teich_table[digits[1]]
        rem = x - t0 - t1.scale(p)
        z = exact_quotient(rem.coeffs, p * p)
        return UnitClass(x, TYPE1, digits[0], digits[1], GrElement(ctx, z))
    z = exact_quotient((x - t0).coeffs, p * p)
    return UnitClass(x, TYPE0, digits[0], None, GrElement(ctx, z))


def is_chain_ambient(gamma: GrElement, s: int) -> bool:
    """Whether GR(p^a, m)[x] / <x^(p^s) - gamma> is a chain ring.

    For a >= 2 this holds exactly for Type1 constants.  For a = 1 the
    quotient is a chain ring for every unit.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if not gamma.is_unit:
        raise NotAUnitError(f"{gamma!r} is not a unit")
    if gamma.ctx.params.a == 1:
        return True
    return classify_unit(gamma).variant == TYPE1


def _a0(a: int) -> int:
    """Smallest integer >= 2 with 2^a0 >= a."""
    a0 = 2
    while (1 << a0) < a:
        a0 += 1
    return a0


def _teich_inverse(ctx: RingContext, idx: int) -> GrElement:
    q1 = ctx.params.residue_size - 1
    return ctx.teich_exp((q1 - (idx - 1)) % q1)


def type1_inverse(gamma: GrElement) -> GrElement:
    """Closed-form inverse of a Type1 unit.

    With gamma = z0(1 + p*w) for w = z0^-1 z1 + p z0^-1 z, the telescoping
    identity (1 + pw)(1 - pw) prod_j (1 + (pw)^(2^j)) = 1 - (pw)^(2^a0)
    kills the tail because p^(2^a0) = 0.
    """
    cls = classify_unit(gamma)
    if cls.variant != TYPE1:
        raise WrongUnitTypeError(f"expected a Type1 unit, got {cls.variant}")
    ctx = gamma.ctx
    p, q = ctx.params.p, ctx.q
    z0_inv = _teich_inverse(ctx, cls.zeta0_idx)
    w = z0_inv * cls.zeta1 + (z0_inv * cls.z).scale(p)
    acc = z0_inv * (ctx.one - w.scale(p))
    for j in range(1, _a0(ctx.params.a)):
        pk = pow(p, 1 << j, q)
        if pk == 0:
            break
        acc = acc * (ctx.one + (w ** (1 << j)).scale(pk))
    return acc


def type0_inverse(gamma: GrElement) -> GrElement:
    """Closed-form inverse of a Type0 unit gamma = z0 + p^2 z."""
    cls = classify_unit(gamma)
    if cls.variant != TYPE0:
        raise WrongUnitTypeError(f"expected a Type0 unit, got {cls.variant}")
    ctx = gamma.ctx
    p, q = ctx.params.p, ctx.q
    z0_inv = _teich_inverse(ctx, cls.zeta0_idx)
    y = (z0_inv * cls.z).scale(pow(p, 2, q))
    acc = ctx.one - y
    for j in range(1, _a0(ctx.params.a)):
        yk = y ** (1 << j)
        if yk.is_zero:
            break
        acc = acc * (ctx.one + yk)
    return z0_inv * acc


def type_product_class(cx: UnitClass, cy: UnitClass) -> str | None:
    """Predicted variant of a product from the factors' variants.

    Products mixing Type1 with Type0 are Type1; Type0 with Type0 stays
    Type0; anything with a non-unit is a non-unit.  Type1 with Type1 has
    no prediction, so the result is None.
    """
    if NON_UNIT in (cx.variant, cy.variant):
        return NON_UNIT
    if cx.variant == TYPE0 and cy.variant == TYPE0:
        return TYPE0
    if TYPE0 in (cx.variant, cy.variant):
        return TYPE1
    return None


def generic_inverse(gamma: GrElement) -> GrElement:
    """Inverse through the structured formulas, dispatching on the class."""
    cls = classify_unit(gamma)
    if cls.variant == TYPE1:
        return type1_inverse(gamma)
    if cls.variant == TYPE0:
        return type0_inverse(gamma)
    raise NotAUnitError(f"{gamma!r} is not a unit")


__all__ = [
    "NON_UNIT",
    "TYPE0",
    "TYPE1",
    "UnitClass",
    "classify_unit",
    "is_chain_ambient",
    "type1_inverse",
    "type0_inverse",
    "type_product_class",
    "generic_inverse",
    "invert",
]
