"""Weight functions, distance band formulas, and the exhaustive oracle."""

import itertools

import pytest

from galring import (
    AmbientParams,
    BudgetExceededError,
    CharacteristicTooSmallError,
    HAMMING,
    HOMOGENEOUS,
    IndexOutOfRangeError,
    brute_force_min_weight,
    build_code,
    classify_unit,
    distance_table,
    field_hamming_distance_formula,
    hamming_distance_formula,
    hamming_weight,
    homogeneous_distance_formula,
    homogeneous_weight,
    homogeneous_word_weight,
    ring,
)
from galring.distances import _hamming_bands, _homogeneous_bands
from galring.unit_types import TYPE1


def test_hamming_weight():
    assert hamming_weight(((0,), (2,), (0,), (1,))) == 2
    assert hamming_weight(((0,),) * 4) == 0
    assert hamming_weight(((2,),) * 4) == 4
    # over GR(4,2) a coordinate is nonzero if any coefficient is
    assert hamming_weight(((0, 0), (0, 2), (1, 0))) == 2


def test_homogeneous_weight_z4_is_lee(z4):
    # matches the Lee weight on Z4: w(1) = w(3) = 1, w(2) = 2
    assert [homogeneous_weight(z4.from_int(v)) for v in range(4)] == [0, 1, 2, 1]


def test_homogeneous_weight_z8(z8):
    assert [homogeneous_weight(z8.from_int(v)) for v in range(8)] == [
        0, 2, 2, 2, 4, 2, 2, 2,
    ]


def test_homogeneous_weight_gr42(gr42):
    # p^(a-1) GR \ {0} = 2*T \ {0} weighs p^(m(a-1)) = 4; other nonzero 3
    for x in gr42.iter_elements():
        w = homogeneous_weight(x)
        if x.is_zero:
            assert w == 0
        elif all(c % 2 == 0 for c in x.coeffs):
            assert w == 4
        else:
            assert w == 3


def test_homogeneous_weight_needs_a2():
    f4 = ring(2, 1, 2)
    with pytest.raises(CharacteristicTooSmallError):
        homogeneous_weight(f4.one)
    with pytest.raises(CharacteristicTooSmallError):
        homogeneous_distance_formula(1, 2, 1, 1, 0)


def test_word_weight_additive(z8):
    els = list(z8.iter_elements())
    for x, y in itertools.product(els[:6], els[:6]):
        weight = homogeneous_word_weight(z8, (x.coeffs, y.coeffs))
        assert weight == homogeneous_weight(x) + homogeneous_weight(y)


def test_band_partition_grid():
    # the piecewise ranges must tile [0, a p^s] exactly; the builders
    # assert this internally, so building is the test
    for a, p, s in itertools.product((1, 2, 3, 4), (2, 3, 5, 7), (1, 2, 3)):
        bands = _hamming_bands(a, p, s)
        assert bands[-1] == (a * p ** s, a * p ** s, 0)
        if a >= 2:
            for m in (1, 2):
                _homogeneous_bands(a, p, m, s)


def test_hamming_profile_z4():
    assert [hamming_distance_formula(2, 2, 2, i) for i in range(9)] == [
        1, 1, 1, 1, 1, 2, 2, 4, 0,
    ]


def test_homogeneous_profiles():
    assert [homogeneous_distance_formula(2, 2, 1, 2, i) for i in range(9)] == [
        1, 2, 2, 2, 2, 4, 4, 8, 0,
    ]
    assert [homogeneous_distance_formula(3, 2, 1, 1, i) for i in range(7)] == [
        2, 2, 2, 4, 4, 8, 0,
    ]


def test_formula_monotone_before_zero():
    for a, p, s in itertools.product((1, 2, 3), (2, 3, 5), (1, 2)):
        vals = [hamming_distance_formula(a, p, s, i) for i in range(a * p ** s)]
        assert vals == sorted(vals)
        if a >= 2:
            vals = [
                homogeneous_distance_formula(a, p, 1, s, i)
                for i in range(a * p ** s)
            ]
            assert vals == sorted(vals)


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        hamming_distance_formula(2, 2, 2, 9)
    with pytest.raises(IndexOutOfRangeError):
        field_hamming_distance_formula(2, 2, -1)
    with pytest.raises(IndexOutOfRangeError):
        homogeneous_distance_formula(2, 2, 1, 2, 9)


def test_field_formula_examples():
    assert field_hamming_distance_formula(2, 2, 0) == 1
    assert field_hamming_distance_formula(2, 2, 3) == 4
    assert field_hamming_distance_formula(2, 2, 4) == 0
    assert [field_hamming_distance_formula(3, 1, i) for i in range(4)] == [
        1, 2, 3, 0,
    ]


def test_field_formula_against_field_codes():
    # independent oracle: a = 1 cyclic codes <(x-1)^i> over F_p, with the
    # ideal materialized directly since ConstaCode is for a >= 2 constants
    from galring import ideal_raw

    for p, s in [(2, 2), (3, 1), (2, 3)]:
        ctx = ring(p, 1, 1)
        amb = AmbientParams(ctx, s, ctx.one)
        gen, zero = amb.one(), amb.zero().raw
        for i in range(p ** s + 1):
            words = ideal_raw(amb, gen.raw)
            nonzero = [hamming_weight(w) for w in words if w != zero]
            oracle = min(nonzero) if nonzero else 0
            assert field_hamming_distance_formula(p, s, i) == oracle
            assert len(words) == p ** (p ** s - i)
            gen = gen * amb.x_minus(ctx.one)


def test_oracle_agreement_z9(z9):
    for g in (2, 4, 5, 7):
        amb = AmbientParams(z9, 1, z9.from_int(g))
        for i in range(7):
            code = build_code(amb, i)
            assert brute_force_min_weight(code, HAMMING) == \
                hamming_distance_formula(2, 3, 1, i)
            assert brute_force_min_weight(code, HOMOGENEOUS) == \
                homogeneous_distance_formula(2, 3, 1, 1, i)


def test_oracle_agreement_gr42(gr42):
    type1 = [g for g in gr42.iter_units() if classify_unit(g).variant == TYPE1]
    for g in type1:
        amb = AmbientParams(gr42, 1, g)
        for i in range(5):
            code = build_code(amb, i)
            assert brute_force_min_weight(code, HAMMING) == \
                hamming_distance_formula(2, 2, 1, i)
            assert brute_force_min_weight(code, HOMOGENEOUS) == \
                homogeneous_distance_formula(2, 2, 2, 1, i)


def test_zero_code_distance(z4):
    amb = AmbientParams(z4, 2, z4.from_int(3))
    assert brute_force_min_weight(build_code(amb, 8), HAMMING) == 0
    assert brute_force_min_weight(build_code(amb, 8), HOMOGENEOUS) == 0


def test_oracle_budget(z4):
    amb = AmbientParams(z4, 2, z4.from_int(3))
    with pytest.raises(BudgetExceededError):
        brute_force_min_weight(build_code(amb, 0), HAMMING, budget=10)


def test_distance_report(z4):
    # one DistanceRow carries formula, oracle and verdict for each kind
    amb = AmbientParams(z4, 2, z4.from_int(3))
    row = distance_table(amb, with_oracle=True)[7]
    assert (row.i, row.d_hamming_formula, row.d_hamming_oracle, row.agree) == (
        7, 4, 4, True,
    )
    row = distance_table(amb)[7]
    assert (row.d_hom_formula, row.d_hom_oracle, row.agree) == (8, None, None)


def test_distance_table_schema(z4):
    amb = AmbientParams(z4, 2, z4.from_int(3))
    rows = distance_table(amb, with_oracle=True)
    assert len(rows) == 9
    assert [r.i for r in rows] == list(range(9))
    assert all(r.agree for r in rows)
    assert rows[0].to_row() == (2, 2, 1, 2, 3, 0, 256, 1, 1, 1, 1)
    d = rows[7].to_json_dict()
    assert d["d_hamming_formula"] == 4 and d["agree"] is True
    # without the oracle the agree verdict is absent
    assert distance_table(amb)[0].agree is None
    # deterministic: two runs produce equal rows
    assert distance_table(amb, with_oracle=True) == rows
