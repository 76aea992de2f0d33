"""Ring construction, Teichmuller machinery, and element arithmetic."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galring import (
    BudgetExceededError,
    ContextMismatchError,
    GrElement,
    NonPrimeError,
    NotAUnitError,
    NotTeichmullerError,
    RingContext,
    RingParams,
    ZeroElementError,
    build_ring,
    invert,
    p_adic_decompose,
    p_adic_recompose,
    ring,
    teichmuller_log,
    unit_p_power_form,
)
from galring import fppoly
from galring.fppoly import is_irreducible, smallest_irreducible


def test_params_validation():
    with pytest.raises(NonPrimeError):
        ring(4, 2, 1)
    with pytest.raises(NonPrimeError):
        ring(1, 2, 1)
    with pytest.raises(ValueError):
        RingParams(2, 0, 1).validate()
    with pytest.raises(ValueError):
        RingParams(2, 2, 0).validate()


def test_modulus_is_smallest_irreducible():
    # lexicographically smallest on (c0, ..., c_{m-1}); for p=2, m=2
    # that is u^2 + u + 1, the only irreducible quadratic over F2.
    assert smallest_irreducible(2, 2) == (1, 1, 1)
    assert smallest_irreducible(2, 1) == (0, 1)
    assert smallest_irreducible(3, 1) == (0, 1)
    assert smallest_irreducible(2, 3) == (1, 0, 1, 1)
    for p, m in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        h = smallest_irreducible(p, m)
        assert len(h) == m + 1 and h[-1] == 1
        assert is_irreducible(h, p)
        # nothing smaller works: every lexicographically earlier monic
        # of the same degree is reducible
        earlier = itertools.takewhile(
            lambda f: f[:-1] < h[:-1],
            (lo + (1,) for lo in itertools.product(range(p), repeat=m)),
        )
        assert all(not is_irreducible(f, p) for f in earlier)


def test_zeta_order(gr42, z9):
    # zeta generates the Teichmuller group of order p^m - 1
    assert gr42.zeta.coeffs == (0, 1)
    acc = gr42.one
    seen = set()
    for _ in range(3):
        acc = acc * gr42.zeta
        seen.add(acc.coeffs)
    assert acc == gr42.one and len(seen) == 3
    # Z9: the unique lift of 2 with x^2 = 1 ... x = 8
    assert z9.zeta.coeffs == (8,)
    assert (z9.zeta * z9.zeta) == z9.one
    lifts = [k for k in range(9) if k % 3 == 2 and k * k % 9 == 1]
    assert lifts == [8]


def test_teichmuller_table(z9, gr42):
    assert [t.coeffs[0] for t in z9.teich_table] == [0, 1, 8]
    assert len(gr42.teich_table) == 4
    assert gr42.teich_table[0].is_zero
    for idx, t in enumerate(gr42.teich_table):
        assert t ** 4 == t  # t^(p^m) = t characterizes the table
        if idx >= 1:
            assert t ** 3 == gr42.one
    assert gr42.teich(2) == gr42.zeta
    assert gr42.teich_exp(0) == gr42.one
    assert gr42.teich_exp(1) == gr42.zeta


def test_element_arithmetic_z4(z4):
    three = z4.from_int(3)
    assert three + three == z4.from_int(2)
    assert three * three == z4.one
    assert -three == z4.one
    assert three - three == z4.zero
    assert (three ** 2) == z4.one
    assert 2 * three == z4.from_int(2)
    assert three + 1 == z4.zero
    assert three.to_int() == 3


def test_element_arithmetic_gr42(gr42):
    u = gr42.element([0, 1])
    # u^2 = 3u + 3 because u^2 + u + 1 = 0 lifts verbatim
    assert u * u == gr42.element([3, 3])
    assert (u * u).to_int() == 3 + 3 * 4
    assert gr42.from_int(u.to_int()) == u


def test_pow_negative_is_inverse(z8):
    five = z8.from_int(5)
    assert five ** -1 == invert(five)
    assert five ** -2 == invert(five) * invert(five)


@pytest.mark.parametrize("p,a,m", [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2)])
def test_ring_axioms_exhaustive(p, a, m):
    ctx = ring(p, a, m)
    els = list(ctx.iter_elements())
    for x in els:
        assert x + ctx.zero == x
        assert x * ctx.one == x
        assert x + (-x) == ctx.zero
    for x, y in itertools.product(els, repeat=2):
        assert x + y == y + x
        assert x * y == y * x
    # spot-check associativity and distributivity on a fixed slice
    for x, y, z in itertools.islice(itertools.product(els, repeat=3), 500):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5 ** 4 - 1), st.integers(0, 5 ** 4 - 1), st.integers(0, 5 ** 4 - 1))
def test_ring_axioms_random_z625(i, j, k):
    ctx = ring(5, 4, 1)
    x, y, z = ctx.from_int(i), ctx.from_int(j), ctx.from_int(k)
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x - y == -(y - x)


def test_unit_count():
    for p, a, m in [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2), (3, 3, 1)]:
        ctx = ring(p, a, m)
        units = [x for x in ctx.iter_elements() if x.is_unit]
        assert len(units) == p ** (a * m) - p ** ((a - 1) * m)
        assert len(list(ctx.iter_units())) == len(units)


def test_is_unit_is_invertibility(z8, gr42):
    for ctx in (z8, gr42):
        for x in ctx.iter_elements():
            has_inverse = any(x * y == ctx.one for y in ctx.iter_elements())
            assert x.is_unit == has_inverse


def test_p_adic_decompose_examples(z4, z8, z9):
    # 3 = 1 + 2*1 in Z4
    assert p_adic_decompose(z4.from_int(3)).digits == (1, 1)
    # 5 = 1 + 0*2 + 4*1 in Z8: table indices (1, 0, 1)
    assert p_adic_decompose(z8.from_int(5)).digits == (1, 0, 1)
    # 2 = zeta + 3*1 in Z9 with zeta = 8: 2 - 8 = -6 = 3 mod 9
    assert p_adic_decompose(z9.from_int(2)).digits == (2, 1)


@pytest.mark.parametrize("p,a,m", [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2)])
def test_p_adic_roundtrip_exhaustive(p, a, m):
    ctx = ring(p, a, m)
    seen = set()
    for x in ctx.iter_elements():
        coords = p_adic_decompose(x)
        assert len(coords.digits) == a
        assert all(0 <= d < p ** m for d in coords.digits)
        assert p_adic_recompose(ctx, coords) == x
        seen.add(coords.digits)
    assert len(seen) == ctx.size  # digit strings are unique


def test_unit_p_power_form(z8, z9):
    v, k = unit_p_power_form(z8.from_int(6))
    assert (v.is_unit, k) == (True, 1) and v == z8.from_int(3)
    v, k = unit_p_power_form(z8.from_int(4))
    assert (v.is_unit, k) == (True, 2)
    v, k = unit_p_power_form(z9.from_int(5))
    assert (v, k) == (z9.from_int(5), 0)
    with pytest.raises(ZeroElementError):
        unit_p_power_form(z8.zero)


def test_p_power_ideal_sizes(z8):
    # p^k GR has p^(m(a-k)) elements
    for k in range(4):
        ideal = {(z8.from_int(2) ** k * x).coeffs for x in z8.iter_elements()}
        assert len(ideal) == 2 ** (3 - k)


def test_invert_matches_brute_force(z9, gr42):
    for ctx in (z9, gr42):
        for x in ctx.iter_units():
            y = invert(x)
            assert x * y == ctx.one
            brute = [z for z in ctx.iter_elements() if x * z == ctx.one]
            assert brute == [y]
    assert invert(z9.from_int(2)) == z9.from_int(5)
    with pytest.raises(NotAUnitError):
        invert(z9.from_int(3))


def test_teichmuller_log(gr42, z9):
    for e in range(3):
        assert teichmuller_log(gr42.teich_exp(e)) == e
    assert teichmuller_log(z9.from_int(8)) == 1
    assert teichmuller_log(z9.one) == 0
    with pytest.raises(NotTeichmullerError):
        teichmuller_log(z9.from_int(2))
    with pytest.raises(NotTeichmullerError):
        teichmuller_log(z9.zero)


def test_teichmuller_differences_are_units(gr42, z9):
    # zeta^i - zeta^j is a unit for i != j: distinct residues mod p
    for ctx in (gr42, z9):
        q1 = ctx.params.residue_size - 1
        for i in range(q1):
            for j in range(q1):
                if i != j:
                    assert (ctx.teich_exp(i) - ctx.teich_exp(j)).is_unit


def test_context_serialization_roundtrip(gr42, z9):
    for ctx in (gr42, z9):
        data = ctx.to_dict()
        clone = RingContext.from_dict(data)
        assert clone == ctx
        assert clone.zeta.coeffs == ctx.zeta.coeffs
        assert clone.h == ctx.h


def test_context_mismatch(z4, z8):
    with pytest.raises(ContextMismatchError):
        z4.one + z8.one


def test_table_budget():
    with pytest.raises(BudgetExceededError) as exc:
        build_ring(RingParams(2, 1, 17), table_cap=1 << 16)
    assert exc.value.required == 2 ** 17 - 1
    assert exc.value.cap == 1 << 16


def test_ring_cache():
    assert ring(2, 2, 1) is ring(2, 2, 1)


def test_element_hash_and_int_coercion(z4):
    assert hash(z4.from_int(3)) == hash(z4.from_int(3))
    assert z4.from_int(3) == 3
    assert {z4.from_int(3), z4.from_int(3), 3 * z4.one} == {z4.from_int(3)}


def test_int_operands_are_constants(gr42):
    # a plain int means k * 1, never the base-q encoding read by from_int
    x = gr42.element([1, 1])
    assert x * 5 == x.scale(5)
    assert x + (-1) == x - 1
    assert gr42.one.scale(5) == 5
    assert gr42.const(6) == gr42.element([2, 0])


def test_from_int_rejects_out_of_range(z4, gr42):
    assert gr42.from_int(15).coeffs == (3, 3)
    # non-int encodings too: a float would otherwise become float coefficients
    for ctx, v in ((z4, 4), (z4, -1), (gr42, 16), (z4, 3.0), (z4, "3"), (z4, True)):
        with pytest.raises(ValueError):
            ctx.from_int(v)


def test_table_budget_checked_before_modulus_search(monkeypatch):
    def search(p, m):
        raise AssertionError("modulus search ran before the table check")

    monkeypatch.setattr(fppoly, "smallest_irreducible", search)
    with pytest.raises(BudgetExceededError) as exc:
        build_ring(RingParams(2, 1, 17))
    assert exc.value.cap == 1 << 16
