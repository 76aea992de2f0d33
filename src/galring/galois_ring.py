"""Exact arithmetic in Galois rings GR(p^a, m).

GR(p^a, m) is the degree-m Galois extension of the integers modulo p^a,
realized as Z_{p^a}[u] / <h(u)> for a monic polynomial h of degree m
whose reduction modulo p is irreducible over F_p.  Elements are stored
as coefficient vectors (c_0, ..., c_{m-1}) with respect to the basis
1, u, ..., u^{m-1}, every coefficient reduced to [0, p^a).

A RingContext fixes (p, a, m), the modulus h, a root of unity zeta of
order p^m - 1, and the Teichmuller table

    [0, 1, zeta, zeta^2, ..., zeta^{p^m - 2}]

whose entries form a complete set of representatives for the residues
modulo p.  The table index convention is 0 -> the zero element and
k >= 1 -> zeta^{k-1}.  Contexts are immutable once built and safe to
share between threads; all operations are pure functions of their
inputs.

Construction is deterministic: h lifts the lexicographically smallest
monic irreducible of degree m over F_p, and zeta is obtained by driving
a lift of a multiplicative generator of the residue field to the fixed
point of t -> t^{p^m}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from . import fppoly
from .errors import (
    ContextMismatchError,
    NonPrimeError,
    NotAUnitError,
    NotTeichmullerError,
    ZeroElementError,
    check_budget,
)

DEFAULT_TABLE_CAP = 1 << 16
DEFAULT_ENUM_CAP = 1 << 20

Raw = tuple[int, ...]


@dataclass(frozen=True)
class RingParams:
    """Shape parameters (p, a, m) of GR(p^a, m)."""

    p: int
    a: int
    m: int

    def validate(self) -> None:
        if not fppoly.is_prime(self.p):
            raise NonPrimeError(f"p = {self.p} is not prime")
        if self.a < 1:
            raise ValueError(f"a must be >= 1, got {self.a}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")

    @property
    def q(self) -> int:
        """Characteristic p^a."""
        return self.p**self.a

    @property
    def size(self) -> int:
        """Number of ring elements, p^(a*m)."""
        return self.p ** (self.a * self.m)

    @property
    def residue_size(self) -> int:
        """Size p^m of the residue field."""
        return self.p**self.m


class GrElement:
    """One element of GR(p^a, m), held as a reduced coefficient tuple.

    Arithmetic is defined between elements of interchangeable contexts
    only (same p, a, m and the same modulus h); anything else raises
    ContextMismatchError.  Plain integers coerce to constants.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: "RingContext", coeffs: Raw):
        self.ctx = ctx
        self.coeffs = coeffs

    # -- predicates ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def is_unit(self) -> bool:
        p = self.ctx.params.p
        return any(c % p for c in self.coeffs)

    def residue(self) -> Raw:
        """Coefficient tuple reduced modulo p."""
        p = self.ctx.params.p
        return tuple(c % p for c in self.coeffs)

    # -- arithmetic ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GrElement):
            if other.ctx is not self.ctx and other.ctx.key != self.ctx.key:
                raise ContextMismatchError(
                    f"elements of {self.ctx} and {other.ctx} do not mix"
                )
            return other
        if isinstance(other, int):
            return self.ctx.const(other)
        return None

    def _binary(self, other, op):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GrElement(self.ctx, op(self.coeffs, other.coeffs))

    def __add__(self, other):
        return self._binary(other, self.ctx.add_raw)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, self.ctx.sub_raw)

    def __rsub__(self, other):
        return self._binary(other, lambda x, y: self.ctx.sub_raw(y, x))

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        return self._binary(other, self.ctx.mul_raw)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return invert(self) ** (-e)
        return GrElement(self.ctx, self.ctx.pow_raw(self.coeffs, e))

    def scale(self, k: int) -> "GrElement":
        """Multiply by the integer scalar k."""
        q = self.ctx.q
        return GrElement(self.ctx, tuple((c * k) % q for c in self.coeffs))

    # -- conversions and comparisons --------------------------------

    def to_int(self) -> int:
        """Encode the coefficient vector as sum(c_j * (p^a)^j)."""
        q = self.ctx.q
        value = 0
        for c in reversed(self.coeffs):
            value = value * q + c
        return value

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.const(other)
        if not isinstance(other, GrElement):
            return NotImplemented
        return self.coeffs == other.coeffs and (
            self.ctx is other.ctx or self.ctx.key == other.ctx.key
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"GrElement({list(self.coeffs)} in {self.ctx})"


@dataclass(frozen=True)
class PadicCoords:
    """Base-p digit vector of an element, as Teichmuller table indices."""

    digits: tuple[int, ...]


class RingContext:
    """Immutable arithmetic context for one realization of GR(p^a, m)."""

    __slots__ = (
        "params",
        "h",
        "q",
        "key",
        "_red",
        "zeta",
        "teich_table",
        "teich_log",
        "zero",
        "one",
    )

    def __init__(
        self,
        params: RingParams,
        h: Raw | None = None,
        zeta_coeffs: Raw | None = None,
        table_cap: int | None = None,
    ):
        params.validate()
        # checked before the search for h, which is exponential in m
        check_budget(
            "Teichmuller table", params.residue_size - 1, table_cap, DEFAULT_TABLE_CAP
        )
        if h is None:
            h = fppoly.smallest_irreducible(params.p, params.m)
        self.params = params
        self.q = params.q
        h = tuple(int(c) % self.q for c in h)
        if len(h) != params.m + 1 or h[-1] != 1:
            raise ValueError(f"h must be monic of degree {params.m}")
        hbar = tuple(c % params.p for c in h)
        if not fppoly.is_irreducible(hbar, params.p):
            raise ValueError("h is not basic irreducible (reducible mod p)")
        self.h = h
        self.key = (params.p, params.a, params.m, h)
        self._red = self._reduction_rows()
        self.zero = GrElement(self, (0,) * params.m)
        self.one = GrElement(self, (1,) + (0,) * (params.m - 1))
        if zeta_coeffs is None:
            self.zeta = self._find_zeta()
        else:
            self.zeta = self.element(zeta_coeffs)
            if not self._order_is_maximal(self.zeta):
                raise ValueError(f"zeta does not have order {params.residue_size - 1}")
        self.teich_table, self.teich_log = self._build_teich_table()

    # -- construction internals -------------------------------------

    def _reduction_rows(self) -> tuple[Raw, ...]:
        # row j expresses u^(m+j) as a vector over the basis 1..u^(m-1)
        p_m, q = self.params.m, self.q
        if p_m == 1:
            return ()
        rows = [tuple((-self.h[t]) % q for t in range(p_m))]
        for _ in range(p_m - 2):
            prev = rows[-1]
            carry = prev[p_m - 1]
            row = [0] + list(prev[: p_m - 1])
            if carry:
                base = rows[0]
                for t in range(p_m):
                    row[t] = (row[t] + carry * base[t]) % q
            rows.append(tuple(row))
        return tuple(rows)

    def _order_is_maximal(self, t: GrElement) -> bool:
        q1 = self.params.residue_size - 1
        if (t ** q1) != self.one:
            return False
        return all(t ** (q1 // r) != self.one for r in fppoly.prime_factors(q1))

    def _find_zeta(self) -> GrElement:
        p, a, m = self.params.p, self.params.a, self.params.m
        q_res = self.params.residue_size
        hbar = tuple(c % p for c in self.h)
        radicals = fppoly.prime_factors(q_res - 1)
        for k in range(1, q_res):
            cand = _int_digits(k, p, m)
            # candidate must generate the residue field multiplicatively
            if fppoly.pow_mod(cand, q_res - 1, hbar, p) != (1,):
                continue
            if any(
                fppoly.pow_mod(cand, (q_res - 1) // r, hbar, p) == (1,)
                for r in radicals
            ):
                continue
            t = self.element(cand)
            for _ in range(a + 2):
                t_next = t**q_res
                if t_next == t:
                    break
                t = t_next
            else:
                continue
            if self._order_is_maximal(t):
                return t
        raise RuntimeError("no Teichmuller generator found")

    def _build_teich_table(self):
        q_res = self.params.residue_size
        table = [self.zero, self.one]
        acc = self.one
        for _ in range(q_res - 2):
            acc = acc * self.zeta
            table.append(acc)
        log: dict[Raw, int] = {}
        for idx, el in enumerate(table):
            res = el.residue()
            if res in log:
                raise RuntimeError("Teichmuller entries collide modulo p")
            log[res] = idx
        return tuple(table), log

    # -- raw coefficient arithmetic ----------------------------------

    def add_raw(self, x: Raw, y: Raw) -> Raw:
        q = self.q
        return tuple((xi + yi) % q for xi, yi in zip(x, y))

    def sub_raw(self, x: Raw, y: Raw) -> Raw:
        q = self.q
        return tuple((xi - yi) % q for xi, yi in zip(x, y))

    def mul_raw(self, x: Raw, y: Raw) -> Raw:
        q = self.q
        m = self.params.m
        if m == 1:
            return ((x[0] * y[0]) % q,)
        prod = [0] * (2 * m - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    prod[i + j] += xi * yj
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k] % q
            if c:
                row = self._red[k - m]
                for t, rt in enumerate(row):
                    if rt:
                        prod[t] += c * rt
        return tuple(prod[t] % q for t in range(m))

    def pow_raw(self, x: Raw, e: int) -> Raw:
        result = self.one.coeffs
        base = x
        while e > 0:
            if e & 1:
                result = self.mul_raw(result, base)
            base = self.mul_raw(base, base)
            e >>= 1
        return result

    # -- element helpers ---------------------------------------------

    def element(self, coeffs: Sequence[int]) -> GrElement:
        if len(coeffs) != self.params.m:
            raise ValueError(
                f"expected {self.params.m} coefficients, got {len(coeffs)}"
            )
        return GrElement(self, tuple(int(c) % self.q for c in coeffs))

    def const(self, k: int) -> GrElement:
        """The integer k as the constant k * 1."""
        return GrElement(self, (k % self.q,) + (0,) * (self.params.m - 1))

    def from_int(self, v: int) -> GrElement:
        """Inverse of GrElement.to_int: base-q digits become coefficients.

        Only the int encodings 0 <= v < q^m are accepted; use const() for
        an integer constant.
        """
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"encoding must be an int, got {v!r}")
        if not 0 <= v < self.size:
            raise ValueError(f"encoding {v} outside [0, {self.size}) for {self!r}")
        return GrElement(self, _int_digits(v, self.q, self.params.m))

    def teich(self, idx: int) -> GrElement:
        """Teichmuller table entry (0 -> zero, k >= 1 -> zeta^(k-1))."""
        return self.teich_table[idx]

    def teich_exp(self, e: int) -> GrElement:
        """zeta^e for an exponent e taken modulo p^m - 1."""
        q1 = self.params.residue_size - 1
        return self.teich_table[(e % q1) + 1]

    @property
    def size(self) -> int:
        return self.params.size

    def iter_raw(self) -> Iterator[Raw]:
        return itertools.product(range(self.q), repeat=self.params.m)

    def iter_elements(self) -> Iterator[GrElement]:
        for raw in self.iter_raw():
            yield GrElement(self, raw)

    def iter_units(self) -> Iterator[GrElement]:
        return (x for x in self.iter_elements() if x.is_unit)

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "p": self.params.p,
            "a": self.params.a,
            "m": self.params.m,
            "h": list(self.h),
            "zeta": list(self.zeta.coeffs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RingContext":
        params = RingParams(int(data["p"]), int(data["a"]), int(data["m"]))
        return cls(params, tuple(data["h"]), zeta_coeffs=tuple(data["zeta"]))

    def __eq__(self, other):
        if not isinstance(other, RingContext):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        p, a, m = self.params.p, self.params.a, self.params.m
        return f"GR({p**a},{m})"


def exact_quotient(raw: Raw, d: int) -> Raw:
    """Coefficient-wise quotient by d, which must divide every coefficient."""
    if any(c % d for c in raw):
        raise ValueError(f"coefficients {list(raw)} are not all divisible by {d}")
    return tuple(c // d for c in raw)


def _int_digits(k: int, base: int, m: int) -> Raw:
    digits = []
    for _ in range(m):
        digits.append(k % base)
        k //= base
    return tuple(digits)


def build_ring(params: RingParams, table_cap: int | None = None) -> RingContext:
    """Construct the canonical context for GR(p^a, m).

    The modulus lifts the lexicographically smallest monic irreducible of
    degree m over F_p verbatim to Z_{p^a}.
    """
    return RingContext(params, table_cap=table_cap)


@lru_cache(maxsize=None)
def ring(p: int, a: int, m: int) -> RingContext:
    """Cached convenience wrapper around build_ring."""
    return build_ring(RingParams(p, a, m))


# -- digit decomposition and unit structure ---------------------------


def p_adic_decompose(x: GrElement) -> PadicCoords:
    """Digits (k_0, ..., k_{a-1}) with x = sum p^i * teich(k_i).

    Digits are Teichmuller table indices; the expansion is unique.
    """
    ctx = x.ctx
    p = ctx.params.p
    digits = []
    cur = list(x.coeffs)
    modulus = ctx.q
    for _ in range(ctx.params.a):
        residue = tuple(c % p for c in cur)
        idx = ctx.teich_log[residue]
        digits.append(idx)
        t = ctx.teich_table[idx].coeffs
        cur = [((c - tc) % modulus) // p for c, tc in zip(cur, t)]
        modulus //= p
    return PadicCoords(tuple(digits))


def p_adic_recompose(ctx: RingContext, coords: PadicCoords) -> GrElement:
    """Inverse of p_adic_decompose."""
    if len(coords.digits) != ctx.params.a:
        raise ValueError(f"expected {ctx.params.a} digits")
    p = ctx.params.p
    acc = ctx.zero
    for k, idx in enumerate(coords.digits):
        acc = acc + ctx.teich_table[idx].scale(p**k)
    return acc


def unit_p_power_form(x: GrElement) -> tuple[GrElement, int]:
    """Write a nonzero x as v * p^k with v a unit.

    v is the coefficient-wise exact quotient by p^k, which picks one
    representative of the class of v modulo p^(a-k).
    """
    if x.is_zero:
        raise ZeroElementError("zero has no v * p^k form")
    p = x.ctx.params.p
    k = 0
    while not any(c % p ** (k + 1) for c in x.coeffs):
        k += 1
    return GrElement(x.ctx, exact_quotient(x.coeffs, p**k)), k


def invert(x: GrElement) -> GrElement:
    """Multiplicative inverse of a unit.

    The residue-field inverse x^(p^m - 2) seeds a Newton iteration
    y -> y(2 - xy), which doubles the precision each step.
    """
    if not x.is_unit:
        raise NotAUnitError(f"{x!r} is not a unit")
    ctx = x.ctx
    y = x ** (ctx.params.residue_size - 2)
    two = ctx.const(2)
    for _ in range((ctx.params.a - 1).bit_length()):
        y = y * (two - x * y)
    return y


def teichmuller_log(x: GrElement) -> int:
    """Exponent e in [0, p^m - 1) with x = zeta^e."""
    ctx = x.ctx
    idx = ctx.teich_log.get(x.residue())
    if idx is None or idx == 0 or ctx.teich_table[idx] != x:
        raise NotTeichmullerError(f"{x!r} is not a nonzero Teichmuller element")
    return idx - 1
