"""Property tests for element arithmetic, and for the raw codeword
helpers, on rings with m >= 2 or a = 1.

The other suites lean on Z_{p^a} (m = 1); these rings exercise the
reduction modulo h and the residue-field case.  Examples are drawn with
a fixed seed, so every run checks the same cases.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galring import (
    AmbientParams,
    RingContext,
    constacyclic_shift,
    homogeneous_weight,
    homogeneous_word_weight,
    invert,
    ring,
    sort_words,
    word_dot,
)
from galring.ambient_ring import _Packing

# (p, a, m): GR(2,2), GR(2,3), GR(9,1)'s residue field GR(3,2), GR(4,2),
# GR(9,2) and GR(8,2)
RINGS = ((2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 2, 2), (2, 3, 2))

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def ring_elements(draw, count):
    """A ring from RINGS and `count` elements of it."""
    ctx = ring(*draw(st.sampled_from(RINGS)))
    coeffs = st.lists(
        st.integers(0, ctx.q - 1), min_size=ctx.params.m, max_size=ctx.params.m
    )
    return ctx, [ctx.element(draw(coeffs)) for _ in range(count)]


@PROPERTY
@given(ring_elements(3))
def test_commutative_ring_axioms(case):
    ctx, (x, y, z) = case
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ctx.zero == x
    assert x * ctx.one == x
    assert x + (-x) == ctx.zero
    assert x - y == x + (-y)


@PROPERTY
@given(ring_elements(1), st.integers(-1000, 1000))
def test_int_operands_are_constants(case, k):
    ctx, (x,) = case
    assert x * k == x.scale(k)
    assert k * x == x.scale(k)
    assert x + k == x + ctx.const(k)
    assert k + x == x + ctx.const(k)
    assert x - k == x - ctx.const(k)
    assert k - x == ctx.const(k) - x
    assert ctx.const(k) == ctx.one.scale(k)
    assert ctx.one.scale(k) == k


@PROPERTY
@given(st.sampled_from(RINGS), st.data())
def test_int_encoding_roundtrip(row, data):
    ctx = ring(*row)
    v = data.draw(st.integers(0, ctx.size - 1))
    x = ctx.from_int(v)
    assert x.to_int() == v
    assert ctx.from_int(x.to_int()) == x


@PROPERTY
@given(ring_elements(1))
def test_context_dict_roundtrip(case):
    ctx, (x,) = case
    clone = RingContext.from_dict(ctx.to_dict())
    assert clone == ctx
    assert clone.to_dict() == ctx.to_dict()
    assert clone.element(x.coeffs) == x
    assert clone.element(x.coeffs) * clone.zeta == x * ctx.zeta


@PROPERTY
@given(ring_elements(1))
def test_invert_units(case):
    ctx, (u,) = case
    assume(u.is_unit)
    assert invert(u) * u == ctx.one


# raw codewords over GR(2,2) (a = 1), GR(4,2) and GR(9,2)
WORD_RINGS = ((2, 1, 2), (2, 2, 2), (3, 2, 2))


@st.composite
def raw_words(draw, rings, count):
    """A ring from `rings` and `count` raw words of length p over it."""
    ctx = ring(*draw(st.sampled_from(rings)))
    coeff = st.integers(0, ctx.q - 1)
    raw = st.tuples(*[coeff] * ctx.params.m)
    word = st.tuples(*[raw] * ctx.params.p)
    return ctx, [draw(word) for _ in range(count)]


@PROPERTY
@given(raw_words(WORD_RINGS, 2))
def test_word_dot_is_sum_of_products(case):
    ctx, (w1, w2) = case
    expect = ctx.zero
    for x, y in zip(w1, w2):
        expect = expect + ctx.element(x) * ctx.element(y)
    assert word_dot(ctx, w1, w2) == expect.coeffs


@PROPERTY
@given(raw_words(WORD_RINGS[1:], 1))
def test_homogeneous_word_weight_is_sum(case):
    ctx, (w,) = case
    expect = sum(homogeneous_weight(ctx.element(c)) for c in w)
    assert homogeneous_word_weight(ctx, w) == expect


@PROPERTY
@given(raw_words(WORD_RINGS, 6))
def test_sort_words_follows_integer_encoding(case):
    ctx, words = case
    ints = [[ctx.element(c).to_int() for c in w] for w in sort_words(words)]
    assert ints == sorted(ints)


@PROPERTY
@given(raw_words(WORD_RINGS, 1), st.data())
def test_shift_is_multiplication_by_x(case, data):
    ctx, (w,) = case
    gamma = data.draw(st.sampled_from(list(ctx.iter_units())))
    amb = AmbientParams(ctx, 1, gamma)
    f = amb.from_raw(w)
    assert constacyclic_shift(f.raw, gamma) == (amb.monomial(1) * f).raw


# q = 2, 4, 8, 9, 25 and 27; for odd p a field of q.bit_length() bits
# overflows, while for q = 2^a it would still be wide enough
PACK_RINGS = ((2, 1, 2), (2, 2, 2), (2, 3, 1), (3, 2, 2), (5, 2, 1), (3, 3, 1))


@st.composite
def packed_words(draw, count):
    """A ring from PACK_RINGS, the packing of its words of length n in
    [1, 4], and `count` raw words of that length."""
    ctx = ring(*draw(st.sampled_from(PACK_RINGS)))
    n = draw(st.integers(1, 4))
    coeff = st.integers(0, ctx.q - 1)
    word = st.tuples(*[st.tuples(*[coeff] * ctx.params.m)] * n)
    return ctx, _Packing(ctx.q, n, ctx.params.m), [draw(word) for _ in range(count)]


@PROPERTY
@given(packed_words(1))
def test_pack_roundtrip(case):
    _, pk, (w,) = case
    assert pk.unpack(pk.pack(w)) == w


@PROPERTY
@given(packed_words(3))
def test_packed_sums_are_add_raw(case):
    ctx, pk, (x0, x1, y) = case
    q = ctx.q
    # complements of x0 make field sums of exactly q and q - 1, the two
    # sides of the reduction threshold
    ys = [y] + [tuple(tuple((q - v - d) % q for v in c) for c in x0) for d in (0, 1)]
    got = pk.sums([pk.pack(x0), pk.pack(x1)], [pk.pack(w) for w in ys])
    expect = [tuple(map(ctx.add_raw, x, w)) for x in (x0, x1) for w in ys]
    assert [pk.unpack(v) for v in got] == expect
