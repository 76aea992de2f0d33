"""The length-p^s constacyclic ambient ring over a Galois ring.

For a context GR(p^a, m), a length exponent s >= 1 and a unit constant
gamma, the ambient ring is

    R = GR(p^a, m)[x] / <x^(p^s) - gamma>.

Elements are polynomials of degree < p^s; multiplying by x wraps the top
coefficient around with a factor gamma, which is exactly the constacyclic
shift on coefficient words.  R is local for every unit gamma: reducing
modulo p sends it onto F_{p^m}[x] / <(x - alpha)^(p^s)> where alpha is
the Teichmuller solution of alpha^(p^s) = zeta0(gamma), so an element is
a unit iff its evaluation at alpha is nonzero modulo p.

verify_chain_structure is the exhaustive oracle of the package: it
materializes every principal ideal of R as a literal set {f*g : f in R},
checks whether the distinct ideals form a single inclusion chain, and
compares them against the tower generated by powers of x - alpha.

Every exhaustive scan of R (these ideals, the survey's unit flags and
the brute-force dual of constacodes) lists L(f) for each f of R and a
Z_{p^a}-linear map L in one engine, _packed_images: L(f) is the sum of
f's coefficients times the images of the n*m basis words u^j x^k, the
only images computed directly, on packed words (one int per word, one
bit field per coefficient), where one integer addition and a carry
correction add two words modulo p^a.  Single products use _mul_raw.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Iterator

from .errors import (
    ContextMismatchError,
    NotAUnitError,
    ParamsMismatchError,
    check_budget,
)
from .galois_ring import GrElement, Raw, RingContext, exact_quotient
from .unit_types import TYPE1, UnitClass, classify_unit

PolyRaw = tuple[Raw, ...]

DEFAULT_CHAIN_BUDGET = 1 << 16


class AmbientParams:
    """Immutable description of one ambient ring R = GR[x]/<x^n - gamma>."""

    __slots__ = ("ctx", "s", "gamma", "n", "key", "_gamma_class", "_alpha", "_packing")

    def __init__(self, ctx: RingContext, s: int, gamma: GrElement):
        if s < 1:
            raise ValueError(f"s must be >= 1, got {s}")
        if gamma.ctx is not ctx and gamma.ctx.key != ctx.key:
            raise ContextMismatchError("gamma lives in a different context")
        if not gamma.is_unit:
            raise NotAUnitError("the constacyclic constant must be a unit")
        self.ctx = ctx
        self.s = s
        self.gamma = gamma
        self.n = ctx.params.p**s
        self.key = (ctx.key, s, gamma.coeffs)
        self._gamma_class: UnitClass | None = None
        self._alpha: GrElement | None = None
        self._packing: _Packing | None = None  # built on first use

    @property
    def gamma_class(self) -> UnitClass:
        if self._gamma_class is None:
            self._gamma_class = classify_unit(self.gamma)
        return self._gamma_class

    @property
    def alpha(self) -> GrElement:
        """The Teichmuller element with alpha^(p^s) = zeta0(gamma)."""
        if self._alpha is None:
            self._alpha = solve_alpha(self.gamma_class, self.s)
        return self._alpha

    @property
    def size(self) -> int:
        return self.ctx.size**self.n

    # -- constructors -------------------------------------------------

    def zero(self) -> "AmbientPoly":
        return AmbientPoly(self, (self.ctx.zero.coeffs,) * self.n)

    def one(self) -> "AmbientPoly":
        return self.monomial(0)

    def monomial(self, k: int, coeff: GrElement | None = None) -> "AmbientPoly":
        if not 0 <= k < self.n:
            raise ValueError(f"monomial degree {k} outside [0, {self.n})")
        c = self.ctx.one if coeff is None else coeff
        raw = [self.ctx.zero.coeffs] * self.n
        raw[k] = c.coeffs
        return AmbientPoly(self, tuple(raw))

    def constant(self, c: GrElement | int) -> "AmbientPoly":
        if isinstance(c, int):
            c = self.ctx.const(c)
        return self.monomial(0, c)

    def x_minus(self, c: GrElement) -> "AmbientPoly":
        return self.monomial(1) - self.constant(c)

    def from_raw(self, raw: PolyRaw) -> "AmbientPoly":
        return AmbientPoly(self, raw)

    def iter_raw(self) -> Iterator[PolyRaw]:
        return itertools.product(self.ctx.iter_raw(), repeat=self.n)

    def iter_elements(self) -> Iterator["AmbientPoly"]:
        for raw in self.iter_raw():
            yield AmbientPoly(self, raw)

    def __eq__(self, other):
        if not isinstance(other, AmbientParams):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Ambient({self.ctx!r}, n={self.n}, gamma={list(self.gamma.coeffs)})"


class AmbientPoly:
    """A residue class in the ambient ring, as a length-n coefficient tuple."""

    __slots__ = ("params", "raw")

    def __init__(self, params: AmbientParams, raw: PolyRaw):
        self.params = params
        self.raw = raw

    @property
    def coeffs(self) -> tuple[GrElement, ...]:
        ctx = self.params.ctx
        return tuple(GrElement(ctx, c) for c in self.raw)

    @property
    def is_zero(self) -> bool:
        return not any(any(c) for c in self.raw)

    def _check(self, other: "AmbientPoly") -> None:
        if other.params is not self.params and other.params.key != self.params.key:
            raise ParamsMismatchError("ambient elements from different rings")

    def _coefficientwise(self, other, op):
        if not isinstance(other, AmbientPoly):
            return NotImplemented
        self._check(other)
        return AmbientPoly(
            self.params, tuple(op(x, y) for x, y in zip(self.raw, other.raw))
        )

    def __add__(self, other):
        return self._coefficientwise(other, self.params.ctx.add_raw)

    def __sub__(self, other):
        return self._coefficientwise(other, self.params.ctx.sub_raw)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, AmbientPoly):
            return NotImplemented
        self._check(other)
        return AmbientPoly(self.params, _mul_raw(self.params, self.raw, other.raw))

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        result = self.params.one()
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, k: int) -> "AmbientPoly":
        q = self.params.ctx.q
        return AmbientPoly(
            self.params, tuple(tuple((v * k) % q for v in c) for c in self.raw)
        )

    def __eq__(self, other):
        if not isinstance(other, AmbientPoly):
            return NotImplemented
        return self.raw == other.raw and self.params.key == other.params.key

    def __hash__(self):
        return hash(self.raw)

    def __repr__(self):
        return f"AmbientPoly({[list(c) for c in self.raw]})"


def _mul_raw(params: AmbientParams, f: PolyRaw, g: PolyRaw) -> PolyRaw:
    ctx = params.ctx
    n = params.n
    mul = ctx.mul_raw
    add = ctx.add_raw
    zero = ctx.zero.coeffs
    gamma = params.gamma.coeffs
    acc = [zero] * n
    for i, ci in enumerate(f):
        if not any(ci):
            continue
        for j, dj in enumerate(g):
            if not any(dj):
                continue
            prod = mul(ci, dj)
            k = i + j
            if k >= n:
                k -= n
                prod = mul(prod, gamma)
            acc[k] = add(acc[k], prod)
    return tuple(acc)


def constacyclic_shift(word: PolyRaw, gamma: GrElement) -> PolyRaw:
    """One constacyclic step on a raw word:
    (x_0, .., x_{n-1}) -> (gamma*x_{n-1}, x_0, .., x_{n-2})."""
    return (gamma.ctx.mul_raw(gamma.coeffs, word[-1]),) + word[:-1]


def solve_alpha(gamma_class: UnitClass, s: int) -> GrElement:
    """Teichmuller solution alpha of alpha^(p^s) = zeta0.

    p^s is invertible modulo p^m - 1, so the exponent equation
    i * p^s = e (mod p^m - 1) has exactly one solution.
    """
    if gamma_class.zeta0_idx in (None, 0):
        raise NotAUnitError("alpha exists only for units (zeta0 != 0)")
    ctx = gamma_class.ctx
    p = ctx.params.p
    q1 = ctx.params.residue_size - 1
    if q1 == 1:
        return ctx.one
    e = gamma_class.zeta0_idx - 1
    i = (e * pow(pow(p, s, q1), -1, q1)) % q1
    return ctx.teich_exp(i)


def _unit_witness(params: AmbientParams, f: PolyRaw) -> Raw:
    # p^(a-1) * f(alpha), linear in f: f(alpha) modulo p is well defined on
    # R and nonzero exactly for its units, and p^(a-1) kills exactly pGR.
    ctx = params.ctx
    alpha = params.alpha.coeffs
    mul, add = ctx.mul_raw, ctx.add_raw
    acc = ctx.zero.coeffs
    for c in reversed(f):
        acc = add(mul(acc, alpha), c)
    return tuple(v * ctx.params.p ** (ctx.params.a - 1) % ctx.q for v in acc)


def is_unit(f: AmbientPoly) -> bool:
    """Whether f is invertible in its ambient ring."""
    return any(_unit_witness(f.params, f.raw))


def nilpotency_index(f: AmbientPoly, cap: int | None = None) -> int | None:
    """Smallest k >= 1 with f^k = 0, or None if f is not nilpotent.

    Units are rejected immediately; for the rest, iterated multiplication
    runs up to the cap (default a*p^s + 1, which bounds the nilpotency of
    every non-unit of the ambient ring).
    """
    params = f.params
    if cap is None:
        cap = params.ctx.params.a * params.n + 1
    if is_unit(f):
        return None
    power = f
    for k in range(1, cap + 1):
        if power.is_zero:
            return k
        power = power * f
    return None


class _Packing:
    """The packed word format of one ambient ring.

    Coefficient j of coordinate k of a raw word sits in bit field k*m + j
    of one int.  A field is b = q.bit_length() + 1 bits wide, so the sum
    of two reduced coefficients (below 2q <= 2^b) never carries into the
    next field, and adding 2^(b-1) - q to a field sets its top bit
    exactly when the sum is at least q.
    """

    __slots__ = ("q", "m", "fields", "width", "mask", "ones", "bias")

    def __init__(self, q: int, n: int, m: int):
        self.q, self.m, self.fields = q, m, n * m
        self.width = q.bit_length() + 1
        self.mask = (1 << self.width) - 1
        self.ones = sum(1 << (self.width * i) for i in range(self.fields))
        self.bias = ((1 << (self.width - 1)) - q) * self.ones

    def pack(self, word: PolyRaw) -> int:
        width = self.width
        coeffs = itertools.chain.from_iterable(word)
        return sum(v << (width * i) for i, v in enumerate(coeffs))

    def unpack(self, packed: int) -> PolyRaw:
        width, mask, m = self.width, self.mask, self.m
        coeffs = [(packed >> (width * i)) & mask for i in range(self.fields)]
        return tuple(tuple(coeffs[i : i + m]) for i in range(0, self.fields, m))

    def sums(self, xs: list[int], ys: list[int]) -> list[int]:
        """[x + y for x in xs for y in ys], each field reduced modulo q."""
        q, bias, ones, top = self.q, self.bias, self.ones, self.width - 1
        return [(t := x + y) - q * (((t + bias) >> top) & ones) for x in xs for y in ys]


def _packing(params: AmbientParams) -> _Packing:
    if params._packing is None:
        params._packing = _Packing(params.ctx.q, params.n, params.ctx.params.m)
    return params._packing


def _packed_images(params: AmbientParams, image) -> list[int]:
    """L(f) as a packed word for every f of R, in iter_raw order, where L
    is Z_{p^a}-linear with L(e) = image(e), a word of at most n coordinates,
    on each basis word e = u^j x^k.  Starting from the list [0], each
    coefficient of f, slowest first, replaces every listed word w by
    w + c*L(e) for c = 0, .., q-1: one packed addition per word.
    """
    pk = _packing(params)
    ctx = params.ctx
    zero, m = ctx.zero.coeffs, ctx.params.m
    words = [0]
    for k in range(params.n):
        for j in range(m):
            e_j = zero[:j] + (1,) + zero[j + 1 :]
            monomial = (zero,) * k + (e_j,) + (zero,) * (params.n - k - 1)
            packed = [pk.pack(image(monomial))]
            multiples = [0]
            for _ in range(ctx.q - 1):
                multiples += pk.sums(multiples[-1:], packed)
            words = pk.sums(words, multiples)
    return words


def ideal_raw(params: AmbientParams, g: PolyRaw) -> frozenset:
    """The principal ideal <g> materialized as the literal set {f*g : f in R}.

    Every f of R is visited: f*g is built by linearity from n*m schoolbook
    basis products (see _packed_images), and the distinct packed words
    are unpacked into raw words.
    """
    products = _packed_images(params, partial(_mul_raw, params, g))
    return frozenset(map(_packing(params).unpack, set(products)))


@dataclass
class ChainReport:
    """Result of the exhaustive principal-ideal survey of one ambient ring."""

    is_chain: bool
    ideal_count: int
    ideal_sizes: tuple[int, ...]
    maximal_ideal_principal: bool
    alpha: GrElement
    tower_match: bool | None = None
    p_in_x_alpha: bool | None = None
    x_alpha_in_p: bool | None = None

    def to_json_dict(self) -> dict:
        return {
            "is_chain": self.is_chain,
            "ideal_count": self.ideal_count,
            "ideal_sizes": list(self.ideal_sizes),
            "maximal_ideal_principal": self.maximal_ideal_principal,
            "alpha": list(self.alpha.coeffs),
        }


def verify_chain_structure(
    params: AmbientParams, budget: int | None = None
) -> ChainReport:
    """Materialize every principal ideal of R and survey the lattice.

    Generators are grouped into unit-multiple orbits: <u*g> = <g> for any
    unit u, so materializing one representative per orbit still covers
    {<g> : g in R} completely.  Each ideal is the literal set of f*g over
    every f of R, built by linearity from n*m schoolbook basis products
    and kept as a set of packed words; the unit multiples of g are read
    off the same list, at the positions of the units of R.  The report
    records whether the distinct ideals are totally ordered by inclusion,
    whether they coincide with the tower <(x - alpha)^i> when a chain is
    expected, and whether the set of non-units (the unique maximal ideal)
    is itself principal.
    """
    check_budget("principal ideal survey", params.size, budget, DEFAULT_CHAIN_BUDGET)
    ctx = params.ctx
    pk = _packing(params)
    unit_flags = _packed_images(params, lambda e: (_unit_witness(params, e),))
    elements = _packed_images(params, lambda e: e)
    nonunits = frozenset(f for f, u in zip(elements, unit_flags) if not u)

    def ideal(g: PolyRaw) -> frozenset[int]:
        return frozenset(_packed_images(params, partial(_mul_raw, params, g)))

    ideals: set[frozenset] = set()
    assigned: set[int] = set()
    for g in elements:
        if g in assigned:
            continue
        images = _packed_images(params, partial(_mul_raw, params, pk.unpack(g)))
        ideals.add(frozenset(images))
        assigned.update(itertools.compress(images, unit_flags))

    by_size = sorted(ideals, key=len, reverse=True)
    is_chain = True
    for big, small in zip(by_size, by_size[1:]):
        if len(small) == len(big) or not small <= big:
            is_chain = False
            break

    maximal_principal = nonunits in ideals

    x_alpha = params.x_minus(params.alpha).raw
    p_const = params.constant(ctx.params.p).raw
    p_in_x_alpha = pk.pack(p_const) in ideal(x_alpha)
    x_alpha_in_p = pk.pack(x_alpha) in ideal(p_const)

    a = ctx.params.a
    expect_chain = a == 1 or params.gamma_class.variant == TYPE1
    tower_match = None
    if expect_chain:
        tower: set[frozenset] = set()
        gpow = params.one().raw
        for _ in range(a * params.n + 1):
            tower.add(ideal(gpow))
            gpow = _mul_raw(params, gpow, x_alpha)
        tower_match = tower == ideals

    return ChainReport(
        is_chain=is_chain,
        ideal_count=len(ideals),
        ideal_sizes=tuple(len(i) for i in by_size),
        maximal_ideal_principal=maximal_principal,
        alpha=params.alpha,
        tower_match=tower_match,
        p_in_x_alpha=p_in_x_alpha,
        x_alpha_in_p=x_alpha_in_p,
    )


def freshman_congruence_check(
    params: AmbientParams,
    b: GrElement,
    n: int,
    budget: int | None = None,
) -> bool:
    """Check the p-th power congruence for (x + b)^(p^n) in the ambient ring.

    The difference D = (x + b)^(p^n) - x^(p^n) - b^(p^n) must vanish
    modulo p.  For odd p, D must moreover lie in the ideal generated by
    p*(x + b) (verified by materializing that ideal, subject to budget).
    For p = 2 and a Type1 constant, D/2 must be a unit.
    """
    if not 1 <= n <= params.s:
        raise ValueError(f"n must lie in [1, {params.s}], got {n}")
    if not b.is_unit:
        raise NotAUnitError("b must be a unit")
    ctx = params.ctx
    p = ctx.params.p
    pn = p**n
    x_plus_b = params.x_minus(-b)
    d_poly = (x_plus_b**pn) - (params.monomial(1) ** pn) - params.constant(b**pn)
    if any(v % p for c in d_poly.raw for v in c):
        return False
    if p == 2:
        if params.gamma_class.variant == TYPE1:
            half = tuple(exact_quotient(c, 2) for c in d_poly.raw)
            return any(_unit_witness(params, half))
        return True
    check_budget("freshman ideal membership", params.size, budget, DEFAULT_CHAIN_BUDGET)
    gen = x_plus_b.scale(p)
    return d_poly.raw in ideal_raw(params, gen.raw)
