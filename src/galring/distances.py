"""Hamming and homogeneous distances of chain-ring constacyclic codes.

Both minimum distances of C_i = <(x - alpha)^i> depend only on where i
falls among a fixed set of exponent bands.  The band tables are built
once per (a, p, s) and asserted to partition [0, a p^s] exactly, so a
lookup can never fall between bands.  Every formula here has a
brute-force counterpart that scans codewords directly.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields
from functools import lru_cache, partial
from typing import ClassVar, Iterable, Iterator

from .constacodes import ConstaCode, Word, enumerate_codewords
from .errors import CharacteristicTooSmallError, IndexOutOfRangeError
from .galois_ring import GrElement, RingContext

HAMMING = "hamming"
HOMOGENEOUS = "homogeneous"

Band = tuple[int, int, int]  # (lo, hi, distance), inclusive bounds


def hamming_weight(word: Word) -> int:
    return sum(1 for c in word if any(c))


def homogeneous_weight(x: GrElement) -> int:
    """Homogeneous weight of one element of GR(p^a, m)."""
    return homogeneous_word_weight(x.ctx, (x.coeffs,))


def homogeneous_word_weight(ctx: RingContext, word: Word) -> int:
    """Homogeneous weight on GR(p^a, m), defined for a >= 2, summed over
    the coordinates of a raw word.

    Zero weighs 0; nonzero elements of p^(a-1) GR weigh p^(m(a-1));
    everything else weighs (p^m - 1) p^(m(a-2)).
    """
    p, a, m = ctx.params.p, ctx.params.a, ctx.params.m
    if a < 2:
        raise CharacteristicTooSmallError(
            "homogeneous weight needs a >= 2"
        )
    top = p ** (a - 1)
    w_top = p ** (m * (a - 1))
    w_free = (p**m - 1) * p ** (m * (a - 2))
    return sum(
        w_top if all(v % top == 0 for v in c) else w_free for c in word if any(c)
    )


def _assert_partition(bands: tuple[Band, ...], top: int) -> tuple[Band, ...]:
    expect = 0
    for lo, hi, _ in bands:
        assert lo == expect and lo <= hi, bands
        expect = hi + 1
    assert expect == top + 1, bands
    return bands


def _band_tail(a: int, p: int, s: int, w: int) -> Iterator[Band]:
    """The bands above n(a - 1) = a p^s - p^s, where the code lies in
    p^(a-1) GR[x] and every distance is a multiple of the weight w of a
    nonzero element there, ending with the zero code at a p^s."""
    n = p**s
    base = n * (a - 1)
    step = p ** (s - 1)
    for l in range(p - 1):
        yield (base + l * step + 1, base + (l + 1) * step, (l + 2) * w)
    for k in range(1, s):
        for t in range(1, p):
            lo = a * n - p ** (s - k) + (t - 1) * p ** (s - k - 1) + 1
            hi = a * n - p ** (s - k) + t * p ** (s - k - 1)
            yield (lo, hi, (t + 1) * w * p**k)
    yield (a * n, a * n, 0)


@lru_cache(maxsize=None)
def _hamming_bands(a: int, p: int, s: int) -> tuple[Band, ...]:
    n = p**s
    bands = ((0, n * (a - 1), 1), *_band_tail(a, p, s, 1))
    return _assert_partition(bands, a * n)


@lru_cache(maxsize=None)
def _homogeneous_bands(a: int, p: int, m: int, s: int) -> tuple[Band, ...]:
    n = p**s
    w_free = (p**m - 1) * p ** (m * (a - 2))
    w_top = p ** (m * (a - 1))
    bands = (
        (0, n * (a - 2), w_free),
        (n * (a - 2) + 1, n * (a - 1), w_top),
        *_band_tail(a, p, s, w_top),
    )
    return _assert_partition(bands, a * n)


def _lookup(bands: tuple[Band, ...], i: int) -> int:
    top = bands[-1][1]
    if not 0 <= i <= top:
        raise IndexOutOfRangeError(f"exponent {i} outside [0, {top}]")
    for lo, hi, d in bands:
        if lo <= i <= hi:
            return d
    raise AssertionError(f"exponent {i} not covered by {bands}")


def hamming_distance_formula(a: int, p: int, s: int, i: int) -> int:
    return _lookup(_hamming_bands(a, p, s), i)


def field_hamming_distance_formula(p: int, s: int, i: int) -> int:
    """Hamming distance of <(x - alpha)^i> over a field, i.e. a = 1."""
    return _lookup(_hamming_bands(1, p, s), i)


def homogeneous_distance_formula(a: int, p: int, m: int, s: int, i: int) -> int:
    if a < 2:
        raise CharacteristicTooSmallError("homogeneous distance needs a >= 2")
    return _lookup(_homogeneous_bands(a, p, m, s), i)


def min_weight(ctx: RingContext, words: Iterable[Word], kind: str = HAMMING) -> int:
    """Minimum weight over the nonzero words of a word set; 0 if there are
    none.  Only the zero word weighs 0, under either weight."""
    weigh = {HAMMING: hamming_weight, HOMOGENEOUS: partial(homogeneous_word_weight, ctx)}[kind]
    return min(filter(None, map(weigh, words)), default=0)


def brute_force_min_weight(
    code: ConstaCode, kind: str = HAMMING, budget: int | None = None
) -> int:
    """Minimum weight over all nonzero codewords; 0 for the zero code."""
    return min_weight(code.ambient.ctx, enumerate_codewords(code, budget=budget), kind)


@dataclass(frozen=True)
class DistanceRow:
    """One row of the distance table for a fixed ambient ring."""

    p: int
    a: int
    m: int
    s: int
    gamma: int
    i: int
    cardinality: int
    d_hamming_formula: int
    d_hamming_oracle: int | None
    d_hom_formula: int | None
    d_hom_oracle: int | None

    COLUMNS: ClassVar[tuple[str, ...]]  # the field names in order, set below

    @property
    def agree(self) -> bool | None:
        if self.d_hamming_oracle is None:
            return None
        ham_ok = self.d_hamming_formula == self.d_hamming_oracle
        hom_ok = self.d_hom_oracle is None or self.d_hom_formula == self.d_hom_oracle
        return ham_ok and hom_ok

    def to_row(self) -> tuple:
        return astuple(self)

    def to_json_dict(self) -> dict:
        return dict(asdict(self), agree=self.agree)


DistanceRow.COLUMNS = tuple(f.name for f in fields(DistanceRow))


def distance_table(
    ambient, with_oracle: bool = False, budget: int | None = None
) -> list[DistanceRow]:
    """One row per exponent i for a single Type1 ambient ring."""
    params = ambient.ctx.params
    p, a, m, s = params.p, params.a, params.m, ambient.s
    rows = []
    for i in range(a * ambient.n + 1):
        code = ConstaCode(ambient, i)
        d_ham = hamming_distance_formula(a, p, s, i)
        d_hom = homogeneous_distance_formula(a, p, m, s, i) if a >= 2 else None
        ham_oracle = hom_oracle = None
        if with_oracle:
            words = enumerate_codewords(code, budget)
            ham_oracle = min_weight(ambient.ctx, words, HAMMING)
            if a >= 2:
                hom_oracle = min_weight(ambient.ctx, words, HOMOGENEOUS)
        rows.append(
            DistanceRow(
                p=p,
                a=a,
                m=m,
                s=s,
                gamma=ambient.gamma.to_int(),
                i=i,
                cardinality=code.cardinality,
                d_hamming_formula=d_ham,
                d_hamming_oracle=ham_oracle,
                d_hom_formula=d_hom,
                d_hom_oracle=hom_oracle,
            )
        )
    return rows
