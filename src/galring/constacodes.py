"""Constacyclic codes of length p^s over GR(p^a, m) and their duals.

A constacyclic code is an ideal of the ambient ring; for a Type1
constant the ambient ring is a chain ring, so every code is one of

    C_i = <(x - alpha)^i>,   0 <= i <= a * p^s,

with |C_i| = p^(m (a p^s - i)).  The Euclidean dual of C_i lives in the
ambient ring with constant gamma^-1 and equals <(x - alpha^-1)^(a p^s - i)>.

A codeword is a raw word: a tuple of p^s raw coefficient tuples, one per
coordinate, exactly as ideal_raw yields it and AmbientPoly.raw holds it.
The word set of a code is the literal set {f*g : f in R} and its dual is
found by a scan of all of R, both as linear images on packed words (see
ambient_ring), so the formula layer always has a brute-force counterpart.
GrElement views of coordinates belong at the API edge only.
"""

from __future__ import annotations

import random
from typing import Iterable

from .ambient_ring import AmbientParams, PolyRaw, constacyclic_shift, ideal_raw
from .ambient_ring import _mul_raw, _packed_images
from .errors import (
    IndexOutOfRangeError,
    NotAUnitError,
    ParamsMismatchError,
    WrongUnitTypeError,
    check_budget,
)
from .galois_ring import DEFAULT_ENUM_CAP, GrElement, Raw, RingContext
from .unit_types import TYPE1, _teich_inverse, type1_inverse

DEFAULT_DUAL_CAP = 1 << 16

Word = PolyRaw


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
    return ideal_raw(code.ambient, code.generator.raw)


def dual_code(code: ConstaCode) -> ConstaCode:
    """The dual <(x - alpha^-1)^(a p^s - i)> over the constant gamma^-1."""
    ambient = code.ambient
    gamma_inv = type1_inverse(ambient.gamma)
    dual_ambient = AmbientParams(ambient.ctx, ambient.s, gamma_inv)
    top = ambient.ctx.params.a * ambient.n
    return ConstaCode(dual_ambient, top - code.i)


def word_dot(ctx: RingContext, w1: Word, w2: Word) -> Raw:
    """Euclidean inner product of two raw words."""
    mul, add = ctx.mul_raw, ctx.add_raw
    acc = ctx.zero.coeffs
    for x, y in zip(w1, w2, strict=True):
        acc = add(acc, mul(x, y))
    return acc


def brute_force_dual(
    code: ConstaCode, budget: int | None = None
) -> frozenset[Word]:
    """Every length-n word orthogonal to all codewords, found by scanning
    the full ambient module.  The shifts x^k*g (k < n) span C over GR and
    word_dot is GR-bilinear, so the dual is the kernel of the linear map
    w -> (w . x^k g)_{k<n}, listed for every w on packed words; no dual
    formula is used."""
    ambient = code.ambient
    check_budget("brute-force dual scan", ambient.size, budget, DEFAULT_DUAL_CAP)
    shifts = [code.generator.raw]
    for _ in range(ambient.n - 1):
        shifts.append(constacyclic_shift(shifts[-1], ambient.gamma))
    images = _packed_images(ambient, lambda w: [word_dot(ambient.ctx, w, c) for c in shifts])
    return frozenset(w for w, image in zip(ambient.iter_raw(), images) if not image)


def dual_spot_check(code: ConstaCode, trials: int = 1000, seed: int = 0) -> bool:
    """Pair random codewords of C and of its formula dual and test
    orthogonality, for rings too large to scan exhaustively."""
    dual = dual_code(code)
    ctx = code.ambient.ctx
    rng = random.Random(seed)
    q, m, n = ctx.q, ctx.params.m, code.ambient.n

    def random_word(c: ConstaCode) -> Word:
        f = tuple(
            tuple(rng.randrange(q) for _ in range(m)) for _ in range(n)
        )
        return _mul_raw(c.ambient, f, c.generator.raw)

    for _ in range(trials):
        if any(word_dot(ctx, random_word(code), random_word(dual))):
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
    words = enumerate_codewords(code, budget)
    return all(constacyclic_shift(w, gamma2) in words for w in words)


def sort_words(words: Iterable[Word]) -> list[Word]:
    """Words in the order of their coordinates' integer encodings
    sum(c_j * (p^a)^j), which compare like the coefficient tuples read
    from the top coefficient down."""
    return sorted(words, key=lambda w: tuple(c[::-1] for c in w))
