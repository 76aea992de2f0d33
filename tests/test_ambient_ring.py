"""Ambient ring arithmetic, unit tests at alpha, ideal surveys, and the
p-th power congruences."""

import itertools
from functools import partial

import pytest

from galring import (
    AmbientParams,
    BudgetExceededError,
    NotAUnitError,
    ParamsMismatchError,
    constacyclic_shift,
    freshman_congruence_check,
    ideal_raw,
    is_unit,
    nilpotency_index,
    ring,
    solve_alpha,
    verify_chain_structure,
)
from galring.ambient_ring import _mul_raw, _packed_images, _packing, _unit_witness
from galring.galois_ring import GrElement
from galring.unit_types import classify_unit
from galring.verification import CHAIN_SUITE, DUALITY_SUITE


@pytest.fixture(scope="module")
def neg4(z4):
    # Z4[x]/<x^4 - 3>: gamma = 3 = -1, the length-4 negacyclic ambient
    return AmbientParams(z4, 2, z4.from_int(3))


def test_poly_arithmetic(neg4, z4):
    x = neg4.monomial(1)
    one = neg4.one()
    f = (x - one) ** 4
    # (x-1)^4 = x^4 - 4x^3 + 6x^2 - 4x + 1 = 3 + 2x^2 + 1 = 2x^2 over Z4
    assert f == neg4.monomial(2, z4.from_int(2))
    assert f.coeffs[2] == z4.from_int(2)
    assert (x ** 4) == neg4.constant(3)  # wraparound brings in gamma


def test_ideal_collapse(neg4):
    # <(x-1)^4> = <2>: the generator collapse, checked as literal sets
    x_minus_1 = neg4.x_minus(neg4.ctx.one)
    lhs = ideal_raw(neg4, (x_minus_1 ** 4).raw)
    rhs = ideal_raw(neg4, neg4.constant(2).raw)
    assert lhs == rhs


def test_ambient_axioms(z9):
    amb = AmbientParams(z9, 1, z9.from_int(2))
    els = list(itertools.islice(amb.iter_elements(), 40))
    for f, g in itertools.product(els[:12], repeat=2):
        assert f + g == g + f
        assert f * g == g * f
    for f, g, h in itertools.islice(itertools.product(els, repeat=3), 120):
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_shift_is_multiplication_by_x(neg4, z4):
    for f in itertools.islice(neg4.iter_elements(), 64):
        shifted = constacyclic_shift(f.raw, neg4.gamma)
        assert (neg4.monomial(1) * f).raw == shifted


def test_solve_alpha(z4, z9, gr42):
    assert solve_alpha(classify_unit(z4.from_int(3)), 2) == z4.one
    # GR(4,2), s=1, zeta0 = zeta: 2i = 1 mod 3 gives i = 2, alpha = zeta^2
    zeta = gr42.zeta
    gamma = zeta + 2 * zeta  # Type1 with zeta0 = zeta1 = zeta
    cls = classify_unit(gamma)
    assert cls.zeta0 == zeta
    alpha = solve_alpha(cls, 1)
    assert alpha == zeta * zeta
    assert alpha ** 2 == zeta
    assert solve_alpha(classify_unit(z9.from_int(4)), 1) == z9.one
    with pytest.raises(NotAUnitError):
        solve_alpha(classify_unit(z9.from_int(3)), 1)


def test_alpha_power_is_zeta0_exactly():
    for p, a, m, s in [(2, 2, 1, 2), (2, 3, 1, 1), (3, 2, 1, 1), (2, 2, 2, 1)]:
        ctx = ring(p, a, m)
        for g in ctx.iter_units():
            amb = AmbientParams(ctx, s, g)
            assert amb.alpha ** (p ** s) == classify_unit(g).zeta0


def test_is_unit_matches_brute_force(z4):
    amb = AmbientParams(z4, 1, z4.from_int(3))
    els = list(amb.iter_elements())
    for f in els:
        brute = any(f * g == amb.one() for g in els)
        assert is_unit(f) == brute


def test_nilpotency_index(neg4, z4, z8):
    x_minus_1 = neg4.x_minus(z4.one)
    assert nilpotency_index(x_minus_1) == 8  # a * p^s = 2 * 4
    amb1 = AmbientParams(z4, 2, z4.one)  # gamma = 1 is Type0 with z = 0
    assert nilpotency_index(amb1.x_minus(z4.one)) == 6  # 8 - 1 * 2
    assert nilpotency_index(neg4.one()) is None  # units never vanish
    assert nilpotency_index(neg4.zero()) == 1  # smallest k >= 1
    amb8 = AmbientParams(z8, 2, z8.from_int(3))
    assert nilpotency_index(amb8.x_minus(z8.one)) == 12


def test_chain_report_type1(neg4):
    rep = verify_chain_structure(neg4)
    assert rep.is_chain
    assert rep.ideal_count == 9
    assert rep.ideal_sizes == (256, 128, 64, 32, 16, 8, 4, 2, 1)
    assert rep.maximal_ideal_principal
    assert rep.tower_match
    assert rep.p_in_x_alpha and not rep.x_alpha_in_p
    assert rep.alpha == neg4.ctx.one
    d = rep.to_json_dict()
    assert set(d) == {
        "is_chain",
        "ideal_count",
        "ideal_sizes",
        "maximal_ideal_principal",
        "alpha",
    }


def test_chain_report_type0(z4):
    amb = AmbientParams(z4, 2, z4.one)
    rep = verify_chain_structure(amb)
    assert not rep.is_chain
    assert not rep.maximal_ideal_principal
    assert rep.ideal_count == 16
    assert not rep.p_in_x_alpha and not rep.x_alpha_in_p


def test_chain_budget(z9):
    amb = AmbientParams(z9, 2, z9.from_int(2))
    with pytest.raises(BudgetExceededError) as exc:
        verify_chain_structure(amb)
    assert exc.value.required == 9 ** 9


def test_freshman_congruence(z4, z9):
    amb = AmbientParams(z4, 2, z4.from_int(3))
    for b in z4.iter_units():
        assert freshman_congruence_check(amb, b, 1)
        assert freshman_congruence_check(amb, b, 2)
    amb9 = AmbientParams(z9, 1, z9.from_int(2))
    for b in z9.iter_units():
        assert freshman_congruence_check(amb9, b, 1)
    with pytest.raises(ValueError):
        freshman_congruence_check(amb, z4.one, 3)
    with pytest.raises(NotAUnitError):
        freshman_congruence_check(amb, z4.from_int(2), 1)


def test_params_mismatch(z4, z8):
    amb_a = AmbientParams(z4, 2, z4.from_int(3))
    amb_b = AmbientParams(z4, 1, z4.from_int(3))
    with pytest.raises(ParamsMismatchError):
        amb_a.one() + amb_b.one()
    with pytest.raises(NotAUnitError):
        AmbientParams(z8, 1, z8.from_int(2))
    with pytest.raises(ValueError):
        AmbientParams(z8, 0, z8.from_int(3))


def test_ambient_size_and_key(neg4, z4):
    assert neg4.size == 256
    assert neg4 == AmbientParams(z4, 2, z4.from_int(3))
    assert neg4 != AmbientParams(z4, 2, z4.one)
    assert hash(neg4) == hash(AmbientParams(z4, 2, z4.from_int(3)))


def test_p_is_zero_when_a_is_1():
    # in GR(2,2) = F_4 the constant p is 0, which lies in <x - alpha>,
    # while x - alpha is not in <p> = 0
    f4 = ring(2, 1, 2)
    amb = AmbientParams(f4, 1, f4.one)
    assert amb.constant(2).is_zero
    rep = verify_chain_structure(amb)
    assert rep.p_in_x_alpha and not rep.x_alpha_in_p


# every chain and duality suite ring, plus the a = 1 rings GR(2,2),
# GR(3,2) and the m = 3 ring GR(2,3)
CROSS_CHECK_RINGS = sorted(set(CHAIN_SUITE) | set(DUALITY_SUITE)) + [
    (2, 1, 2, 1),
    (3, 1, 2, 1),
    (2, 1, 3, 1),
]


@pytest.mark.parametrize("p, a, m, s", CROSS_CHECK_RINGS)
def test_packed_products_match_schoolbook(p, a, m, s):
    # the products built by linearity, in iter_raw order, against one
    # schoolbook product per element of R
    ctx = ring(p, a, m)
    units = list(ctx.iter_units())
    for gamma in (units[0], units[-1]):
        amb = AmbientParams(ctx, s, gamma)
        x_alpha = amb.x_minus(amb.alpha)
        unit = amb.one() + x_alpha
        assert is_unit(unit)
        unpack = _packing(amb).unpack
        for g in (amb.zero(), unit, amb.constant(p), x_alpha, x_alpha ** amb.n):
            expect = [_mul_raw(amb, f, g.raw) for f in amb.iter_raw()]
            products = _packed_images(amb, partial(_mul_raw, amb, g.raw))
            assert [unpack(w) for w in products] == expect
            assert ideal_raw(amb, g.raw) == frozenset(expect)


# the chain suite, the a = 1 rings GR(2,2), GR(3,2) and GR(2,3) with
# s = 1, and the prime fields GR(2,1) with s = 2 and GR(3,1) with s = 1
UNIT_FLAG_RINGS = sorted(
    set(CHAIN_SUITE) | {(2, 1, 2, 1), (3, 1, 2, 1), (2, 1, 3, 1), (2, 1, 1, 2), (3, 1, 1, 1)}
)


@pytest.mark.parametrize("p, a, m, s", UNIT_FLAG_RINGS)
def test_unit_flags_match_evaluation_at_alpha(p, a, m, s):
    # the survey's unit flags, the packed images p^(a-1) f(alpha) in
    # iter_raw order, against evaluating f at alpha with GrElement
    # arithmetic, for every unit constant (Type0 and Type1 alike)
    ctx = ring(p, a, m)
    for gamma in ctx.iter_units():
        amb = AmbientParams(ctx, s, gamma)
        flags = _packed_images(amb, lambda e: (_unit_witness(amb, e),))
        expect = []
        for f in amb.iter_raw():
            value = ctx.zero
            for c in reversed(f):
                value = value * amb.alpha + GrElement(ctx, c)
            expect.append(value.is_unit)
        assert [bool(v) for v in flags] == expect
