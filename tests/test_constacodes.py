"""Code construction, enumeration, duals, and self-duality decisions."""

import pytest

from galring import (
    AmbientParams,
    BudgetExceededError,
    ConstaCode,
    IndexOutOfRangeError,
    WrongUnitTypeError,
    brute_force_dual,
    build_code,
    classify_unit,
    dual_code,
    dual_spot_check,
    enumerate_codewords,
    is_gamma2_constacyclic,
    is_self_orthogonal,
    ring,
    self_dual_codes,
    sort_words,
    word_dot,
)
from galring.unit_types import TYPE1
from galring.verification import DUALITY_SUITE


@pytest.fixture(scope="module")
def neg4(z4):
    return AmbientParams(z4, 2, z4.from_int(3))


def test_build_code_boundaries(neg4):
    assert build_code(neg4, 0).cardinality == 2 ** 8
    assert build_code(neg4, 8).cardinality == 1
    assert build_code(neg4, 3).cardinality == 32
    with pytest.raises(IndexOutOfRangeError):
        build_code(neg4, 9)
    with pytest.raises(IndexOutOfRangeError):
        build_code(neg4, -1)


def test_type1_required(z4):
    amb = AmbientParams(z4, 2, z4.one)
    with pytest.raises(WrongUnitTypeError):
        build_code(amb, 1)
    with pytest.raises(WrongUnitTypeError):
        self_dual_codes(amb)


def test_codeword_sets_frozen(neg4, z4):
    words = enumerate_codewords(build_code(neg4, 7))
    assert sorted(words) == [((0,), (0,), (0,), (0,)), ((2,), (2,), (2,), (2,))]
    # i = 4 is the code <2>: exactly the words with every entry even
    words4 = enumerate_codewords(build_code(neg4, 4))
    assert len(words4) == 16
    evens = {w for w in neg4.iter_raw() if all(c[0] % 2 == 0 for c in w)}
    assert words4 == evens
    # zero code and full code
    assert len(enumerate_codewords(build_code(neg4, 8))) == 1
    assert len(enumerate_codewords(build_code(neg4, 0))) == 256


def test_cardinality_and_nesting(z9):
    amb = AmbientParams(z9, 1, z9.from_int(2))
    prev = None
    for i in range(7):
        words = enumerate_codewords(build_code(amb, i))
        assert len(words) == 3 ** (6 - i)
        if prev is not None:
            assert words < prev
        prev = words


def test_shift_closure(neg4):
    from galring import constacyclic_shift

    for i in (1, 3, 5):
        words = enumerate_codewords(build_code(neg4, i))
        for w in words:
            assert constacyclic_shift(w, neg4.gamma) in words


def test_dual_code_formula(neg4, z4):
    code = build_code(neg4, 5)
    dual = dual_code(code)
    assert dual.gamma == z4.from_int(3)  # 3 is its own inverse
    assert dual.i == 3
    assert dual.cardinality == 2 ** 5
    assert code.cardinality * dual.cardinality == 2 ** 8
    assert code.alpha * dual.alpha == z4.one
    # dual of the full code is the zero code
    assert dual_code(build_code(neg4, 0)).i == 8


def test_dual_matches_brute_force(z8, z9):
    for ctx, s in [(z8, 1), (z9, 1)]:
        units = [g for g in ctx.iter_units() if classify_unit(g).variant == TYPE1]
        for g in units:
            amb = AmbientParams(ctx, s, g)
            top = ctx.params.a * amb.n
            for i in range(top + 1):
                code = build_code(amb, i)
                assert brute_force_dual(code) == enumerate_codewords(
                    dual_code(code)
                )


def test_word_dot_and_orthogonality(neg4, z4):
    code = build_code(neg4, 5)
    dual = dual_code(code)
    for c in enumerate_codewords(code):
        for d in enumerate_codewords(dual):
            assert word_dot(z4, c, d) == z4.zero.coeffs
    assert dual_spot_check(code, trials=100)


def test_self_orthogonal_thresholds(neg4):
    # zeta0 = 1 is its own inverse: cutoff is ceil(8/2) = 4
    assert [is_self_orthogonal(build_code(neg4, i)) for i in range(9)] == [
        False, False, False, False, True, True, True, True, True,
    ]


def test_self_orthogonal_matches_oracle(z8, gr42):
    for ctx, s in [(z8, 1), (gr42, 1)]:
        units = [g for g in ctx.iter_units() if classify_unit(g).variant == TYPE1]
        for g in units:
            amb = AmbientParams(ctx, s, g)
            top = ctx.params.a * amb.n
            for i in range(top + 1):
                code = build_code(amb, i)
                oracle = enumerate_codewords(code) <= brute_force_dual(code)
                assert is_self_orthogonal(code) == oracle


def test_gr42_threshold_uses_teich_inverse(gr42):
    # gamma with zeta0 = zeta: zeta^-1 = zeta^2 != zeta, so the cutoff
    # is ceil(a/2) * p^s = 2 rather than ceil(a p^s / 2)
    gamma = gr42.zeta + 2 * gr42.zeta
    amb = AmbientParams(gr42, 1, gamma)
    assert [is_self_orthogonal(build_code(amb, i)) for i in range(5)] == [
        False, False, True, True, True,
    ]


def test_self_dual_lists(neg4, z8, z9):
    sd = self_dual_codes(neg4)
    assert [c.i for c in sd] == [4]
    code = sd[0]
    assert enumerate_codewords(code) == brute_force_dual(code)
    # Z8 s=1: a*p = 6 even, i = 3
    for g in (3, 7):
        amb = AmbientParams(z8, 1, z8.from_int(g))
        sd = self_dual_codes(amb)
        assert [c.i for c in sd] == [3]
        assert enumerate_codewords(sd[0]) == brute_force_dual(sd[0])
    # Z9 s=1 gamma=2: zeta0 = 8 = zeta0^-1 and a*p = 6 even, i = 3
    amb = AmbientParams(z9, 1, z9.from_int(2))
    assert [c.i for c in self_dual_codes(amb)] == [3]


def test_no_self_dual_when_parity_fails():
    z27 = ring(3, 3, 1)
    amb = AmbientParams(z27, 1, z27.from_int(4))
    assert classify_unit(z27.from_int(4)).variant == TYPE1
    assert self_dual_codes(amb) == []


def test_multi_constacyclic_z8(z8):
    # 3 and 7 share zeta0 = 1: codes coincide and shifts interchange
    amb3 = AmbientParams(z8, 1, z8.from_int(3))
    amb7 = AmbientParams(z8, 1, z8.from_int(7))
    for i in range(7):
        c3 = build_code(amb3, i)
        assert is_gamma2_constacyclic(c3, z8.from_int(7))
        assert is_gamma2_constacyclic(build_code(amb7, i), z8.from_int(3))
        assert enumerate_codewords(c3) == enumerate_codewords(
            build_code(amb7, i)
        )


def test_same_zeta0_codes_coincide(z9, gr42):
    # Z9: Type1 units group as {4, 7} (zeta0 = 1) and {2, 5} (zeta0 = 8)
    for group in ({4, 7}, {2, 5}):
        ambs = [AmbientParams(z9, 1, z9.from_int(g)) for g in sorted(group)]
        for i in range(7):
            sets = {enumerate_codewords(build_code(a, i)) for a in ambs}
            assert len(sets) == 1
    # GR(4,2): nine Type1 units in three zeta0 groups of three
    groups = {}
    for g in gr42.iter_units():
        cls = classify_unit(g)
        if cls.variant == TYPE1:
            groups.setdefault(cls.zeta0_idx, []).append(g)
    assert sorted(len(v) for v in groups.values()) == [3, 3, 3]
    for members in groups.values():
        ambs = [AmbientParams(gr42, 1, g) for g in members]
        for i in range(5):
            sets = {enumerate_codewords(build_code(a, i)) for a in ambs}
            assert len(sets) == 1


def test_gamma2_cyclic_closure_observed(neg4, z4, z9):
    # observed shift-closure fact: over Z4/s=2/gamma=3 every code is
    # also closed under the plain cyclic shift
    for i in range(9):
        assert is_gamma2_constacyclic(build_code(neg4, i), z4.one)
    # and a genuine negative: Z9 gamma=2 codes are not cyclic for i=1
    amb = AmbientParams(z9, 1, z9.from_int(2))
    assert not is_gamma2_constacyclic(build_code(amb, 1), z9.one)
    assert is_gamma2_constacyclic(build_code(amb, 1), z9.from_int(2))


def test_code_json_and_sorting(neg4):
    code = build_code(neg4, 7)
    d = code.to_json_dict()
    assert d == {
        "p": 2,
        "a": 2,
        "m": 1,
        "s": 2,
        "gamma": [3],
        "alpha": [1],
        "i": 7,
        "cardinality": 2,
    }
    assert sort_words(enumerate_codewords(code)) == [
        ((0,), (0,), (0,), (0,)),
        ((2,), (2,), (2,), (2,)),
    ]


def test_enumeration_budget(neg4):
    with pytest.raises(BudgetExceededError):
        enumerate_codewords(build_code(neg4, 4), budget=100)
    with pytest.raises(BudgetExceededError):
        brute_force_dual(build_code(neg4, 4), budget=100)
    with pytest.raises(BudgetExceededError):
        is_gamma2_constacyclic(build_code(neg4, 4), neg4.ctx.one, budget=100)


def _literal_dual(code):
    """The dual as the literal set {w in R : w . c = 0 for every c in C}."""
    ctx = code.ambient.ctx
    words = enumerate_codewords(code)
    return frozenset(
        w
        for w in code.ambient.iter_raw()
        if not any(any(word_dot(ctx, w, c)) for c in words)
    )


# every Type1 constant of the duality suite rings, and Z27 with s = 1,
# gamma = 4 from the self-duality check
@pytest.mark.parametrize(
    "p, a, m, s, gamma", [(*row, None) for row in DUALITY_SUITE] + [(3, 3, 1, 1, 4)]
)
def test_brute_force_dual_matches_literal_scan(p, a, m, s, gamma):
    ctx = ring(p, a, m)
    if gamma is None:
        gammas = [g for g in ctx.iter_units() if classify_unit(g).variant == TYPE1]
    else:
        gammas = [ctx.from_int(gamma)]
    for g in gammas:
        amb = AmbientParams(ctx, s, g)
        for i in range(ctx.params.a * amb.n + 1):
            code = build_code(amb, i)
            assert brute_force_dual(code) == _literal_dual(code)
