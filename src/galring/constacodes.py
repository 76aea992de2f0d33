"""Constacyclic codes of length p^s over GR(p^a, m) and their duals.

A constacyclic code is an ideal of the ambient ring; for a Type1
constant the ambient ring is a chain ring, so every code is one of

    C_i = <(x - alpha)^i>,   0 <= i <= a * p^s,

with |C_i| = p^(m (a p^s - i)).  The Euclidean dual of C_i lives in the
ambient ring with constant gamma^-1 and equals <(x - alpha^-1)^(a p^s - i)>.

Codewords are coefficient words, i.e. tuples of p^s ring elements; the
word set of a code is materialized literally as {f*g : f in R} so the
formula layer always has a brute-force counterpart to answer to.
"""

from __future__ import annotations

import random
from typing import Iterable

from .ambient_ring import AmbientParams, ideal_raw, _mul_raw
from .errors import (
    IndexOutOfRangeError,
    NotAUnitError,
    ParamsMismatchError,
    WrongUnitTypeError,
    check_budget,
)
from .galois_ring import DEFAULT_ENUM_CAP, GrElement
from .unit_types import TYPE1, _teich_inverse, type1_inverse

DEFAULT_DUAL_CAP = 1 << 16

Word = tuple[GrElement, ...]


class ConstaCode:
    """The code <(x - alpha)^i> inside one Type1 ambient ring."""

    __slots__ = ("ambient", "i", "alpha", "generator")

    def __init__(self, ambient: AmbientParams, i: int):
        if ambient.gamma_class.variant != TYPE1:
            raise WrongUnitTypeError(
                f"codes require a Type1 constant, got {ambient.gamma_class.variant}"
            )
        top = ambient.ctx.params.a * ambient.n
        if not 0 <= i <= top:
            raise IndexOutOfRangeError(f"exponent {i} outside [0, {top}]")
        self.ambient = ambient
        self.i = i
        self.alpha = ambient.alpha
        self.generator = ambient.x_minus(self.alpha) ** i

    @property
    def gamma(self) -> GrElement:
        return self.ambient.gamma

    @property
    def cardinality(self) -> int:
        params = self.ambient.ctx.params
        return params.p ** (params.m * (params.a * self.ambient.n - self.i))

    def to_json_dict(self) -> dict:
        params = self.ambient.ctx.params
        return {
            "p": params.p,
            "a": params.a,
            "m": params.m,
            "s": self.ambient.s,
            "gamma": list(self.gamma.coeffs),
            "alpha": list(self.alpha.coeffs),
            "i": self.i,
            "cardinality": self.cardinality,
        }

    def __repr__(self):
        return f"ConstaCode(i={self.i}, ambient={self.ambient!r})"


def build_code(ambient: AmbientParams, i: int) -> ConstaCode:
    return ConstaCode(ambient, i)


def enumerate_codewords(
    code: ConstaCode, budget: int | None = None
) -> frozenset[Word]:
    """All codewords, by materializing {f*g : f in R}."""
    check_budget("codeword enumeration", code.ambient.size, budget, DEFAULT_ENUM_CAP)
    ctx = code.ambient.ctx
    raws = ideal_raw(code.ambient, code.generator.raw)
    return frozenset(tuple(GrElement(ctx, c) for c in raw) for raw in raws)


def dual_code(code: ConstaCode) -> ConstaCode:
    """The dual <(x - alpha^-1)^(a p^s - i)> over the constant gamma^-1."""
    ambient = code.ambient
    gamma_inv = type1_inverse(ambient.gamma)
    dual_ambient = AmbientParams(ambient.ctx, ambient.s, gamma_inv)
    top = ambient.ctx.params.a * ambient.n
    return ConstaCode(dual_ambient, top - code.i)


def word_dot(w1: Word, w2: Word) -> GrElement:
    """Euclidean inner product of two words."""
    if len(w1) != len(w2):
        raise ParamsMismatchError("words of different lengths")
    ctx = w1[0].ctx
    acc = ctx.zero
    for x, y in zip(w1, w2):
        acc = acc + x * y
    return acc


def brute_force_dual(
    code: ConstaCode, budget: int | None = None
) -> frozenset[Word]:
    """Every length-n word orthogonal to all codewords, found by scanning
    the full ambient module."""
    ambient = code.ambient
    check_budget("brute-force dual scan", ambient.size, budget, DEFAULT_DUAL_CAP)
    ctx = ambient.ctx
    mul, add = ctx.mul_raw, ctx.add_raw
    zero = ctx.zero.coeffs
    cw = [raw for raw in ideal_raw(ambient, code.generator.raw)]
    out = []
    for w in ambient.iter_raw():
        for c in cw:
            acc = zero
            for x, y in zip(w, c):
                acc = add(acc, mul(x, y))
            if any(acc):
                break
        else:
            out.append(tuple(GrElement(ctx, v) for v in w))
    return frozenset(out)


def dual_spot_check(code: ConstaCode, trials: int = 1000, seed: int = 0) -> bool:
    """Pair random codewords of C and of its formula dual and test
    orthogonality, for rings too large to scan exhaustively."""
    dual = dual_code(code)
    ambient, dual_ambient = code.ambient, dual.ambient
    ctx = ambient.ctx
    rng = random.Random(seed)
    q, m, n = ctx.q, ctx.params.m, ambient.n

    def random_multiple(params: AmbientParams, gen_raw) -> tuple:
        f = tuple(
            tuple(rng.randrange(q) for _ in range(m)) for _ in range(n)
        )
        return _mul_raw(params, f, gen_raw)

    zero = ctx.zero.coeffs
    mul, add = ctx.mul_raw, ctx.add_raw
    for _ in range(trials):
        c = random_multiple(ambient, code.generator.raw)
        d = random_multiple(dual_ambient, dual.generator.raw)
        acc = zero
        for x, y in zip(c, d):
            acc = add(acc, mul(x, y))
        if any(acc):
            return False
    return True


def is_self_orthogonal(code: ConstaCode) -> bool:
    """Decide C subset of C-dual from the exponent thresholds.

    When zeta0 is its own Teichmuller inverse the cutoff is
    ceil(a p^s / 2); otherwise it is ceil(a/2) * p^s.
    """
    ambient = code.ambient
    a = ambient.ctx.params.a
    n = ambient.n
    if _zeta0_self_inverse(ambient):
        return code.i >= (a * n + 1) // 2
    return code.i >= ((a + 1) // 2) * n


def _zeta0_self_inverse(ambient: AmbientParams) -> bool:
    cls = ambient.gamma_class
    return cls.zeta0 == _teich_inverse(ambient.ctx, cls.zeta0_idx)


def self_dual_codes(ambient: AmbientParams) -> list[ConstaCode]:
    """All self-dual codes of the ambient ring (at most one exists)."""
    if ambient.gamma_class.variant != TYPE1:
        raise WrongUnitTypeError("self-dual search requires a Type1 constant")
    params = ambient.ctx.params
    a, p, n = params.a, params.p, ambient.n
    if _zeta0_self_inverse(ambient):
        if (a * p) % 2 == 0:
            return [ConstaCode(ambient, a * n // 2)]
        return []
    if a % 2 == 0:
        return [ConstaCode(ambient, (a // 2) * n)]
    return []


def is_gamma2_constacyclic(
    code: ConstaCode, gamma2: GrElement, budget: int | None = None
) -> bool:
    """Whether the codeword set is closed under the gamma2 shift."""
    ctx = code.ambient.ctx
    if gamma2.ctx is not ctx and gamma2.ctx.key != ctx.key:
        raise ParamsMismatchError("gamma2 from a different context")
    if not gamma2.is_unit:
        raise NotAUnitError("shift constant must be a unit")
    check_budget("shift-closure scan", code.ambient.size, budget, DEFAULT_ENUM_CAP)
    raws = ideal_raw(code.ambient, code.generator.raw)
    mul = ctx.mul_raw
    g2 = gamma2.coeffs
    for w in raws:
        shifted = (mul(g2, w[-1]),) + w[:-1]
        if shifted not in raws:
            return False
    return True


def sort_words(words: Iterable[Word]) -> list[Word]:
    """Deterministic word order for serialization."""
    return sorted(words, key=lambda w: tuple(el.to_int() for el in w))
