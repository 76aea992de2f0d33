"""Formula-vs-oracle verification sweeps over small parameter sets.

Every closed-form claim the package makes (chain structure, nilpotency,
cardinality, duality, self-duality, both distance formulas, shift
closure, unit algebra, p-th power congruences) is re-checked here
against exhaustive enumeration on rings small enough to scan.  The
default suite is what `galring verify` runs and what the acceptance
tests report on.

GR(9,1) with s = 2 appears only in the nilpotency checks: its ambient
ring has 9^9 elements, far beyond the enumeration budget, while
nilpotency needs nothing but repeated squaring.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .ambient_ring import (
    AmbientParams,
    freshman_congruence_check,
    nilpotency_index,
    verify_chain_structure,
)
from .constacodes import (
    ConstaCode,
    brute_force_dual,
    dual_code,
    enumerate_codewords,
    is_gamma2_constacyclic,
    is_self_orthogonal,
    self_dual_codes,
)
from .distances import (
    HAMMING,
    HOMOGENEOUS,
    hamming_distance_formula,
    homogeneous_distance_formula,
    min_weight,
)
from .errors import BudgetExceededError, GalringError
from .galois_ring import GrElement, RingParams, invert, ring
from .unit_types import (
    TYPE1,
    classify_unit,
    generic_inverse,
    is_chain_ambient,
    type0_inverse,
    type1_inverse,
    type_product_class,
)

# (p, a, m, s) rows small enough for exhaustive ideal/codeword scans.
CHAIN_SUITE = (
    (2, 2, 1, 1),
    (2, 2, 1, 2),
    (2, 3, 1, 1),
    (2, 3, 1, 2),
    (3, 2, 1, 1),
    (2, 2, 2, 1),
)
# Nilpotency is formula-cheap, so GR(9,1)/s=2 can come back in.
NILPOTENCY_SUITE = CHAIN_SUITE + ((3, 2, 1, 2),)
# Duality and self-duality scan the full ambient module; keep |R| <= 2^16.
DUALITY_SUITE = (
    (2, 2, 1, 1),
    (2, 2, 1, 2),
    (2, 3, 1, 1),
    (3, 2, 1, 1),
    (2, 2, 2, 1),
)
UNIT_ALGEBRA_RINGS = ((2, 2, 1), (2, 3, 1), (2, 4, 1), (2, 2, 2))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.name}{suffix}"


def _type1_ambients(p: int, a: int, m: int, s: int):
    ctx = ring(p, a, m)
    for g in _selected_gammas(ctx, "all-type1"):
        yield AmbientParams(ctx, s, g)


def _codes(amb: AmbientParams) -> list[ConstaCode]:
    """Every code C_0, ..., C_{a p^s} of a Type1 ambient, by exponent."""
    return [ConstaCode(amb, i) for i in range(amb.ctx.params.a * amb.n + 1)]


def _chain_verdict(amb: AmbientParams, budget: int | None = None) -> tuple[bool, bool]:
    """(predicted, agrees): the unit-type chain verdict, and whether the
    ideal survey matches it.  A chain must have the a p^s + 1 ideals of
    sizes p^(m(a p^s - i)), equal to the tower of powers of x - alpha,
    and a principal maximal ideal; a non-chain a non-principal one."""
    p, a, m = amb.ctx.params.p, amb.ctx.params.a, amb.ctx.params.m
    n = amb.n
    predicted = is_chain_ambient(amb.gamma, amb.s)
    rep = verify_chain_structure(amb, budget)
    if not predicted:
        return False, not rep.is_chain and rep.maximal_ideal_principal is False
    sizes = tuple(p ** (m * (a * n - i)) for i in range(a * n + 1))
    agrees = (
        rep.is_chain
        and rep.ideal_count == a * n + 1
        and rep.ideal_sizes == sizes
        and rep.tower_match is True
        and rep.maximal_ideal_principal is True
    )
    return True, agrees


def _distance_mismatches(
    amb: AmbientParams, kinds: tuple[str, ...], budget: int | None = None
) -> list[str]:
    """Distance formula vs exhaustive minimum weight, for each kind and
    every exponent i of a Type1 ambient; one entry per disagreement.
    Each code's word set is enumerated once and weighed for every kind."""
    p, a, m = amb.ctx.params.p, amb.ctx.params.a, amb.ctx.params.m
    s = amb.s
    bad = []
    for code in _codes(amb):
        words = enumerate_codewords(code, budget)
        for kind in kinds:
            if kind == HAMMING:
                formula = hamming_distance_formula(a, p, s, code.i)
            else:
                formula = homogeneous_distance_formula(a, p, m, s, code.i)
            oracle = min_weight(amb.ctx, words, kind)
            if formula != oracle:
                bad.append(
                    f"GR({p}^{a},{m}) s={s} gamma={amb.gamma.to_int()}"
                    f" i={code.i} {kind}: {formula} != {oracle}"
                )
    return bad


def check_chain_classification() -> CheckResult:
    """Exhaustive ideal survey vs the unit-type verdict, for every unit.
    Constants over the survey budget are skipped and counted."""
    bad = []
    constants = skipped = 0
    for p, a, m, s in CHAIN_SUITE:
        ctx = ring(p, a, m)
        for g in ctx.iter_units():
            constants += 1
            try:
                _, agrees = _chain_verdict(AmbientParams(ctx, s, g))
            except BudgetExceededError:
                skipped += 1
                continue
            if not agrees:
                bad.append(f"GR({p}^{a},{m}) s={s} gamma={g.to_int()}")
    counts = f"{len(CHAIN_SUITE)} rings, {constants} constants, {skipped} skipped"
    return CheckResult("chain-classification", not bad, "; ".join(bad + [counts]))


def check_nilpotency() -> CheckResult:
    """Nilpotency of x - alpha: a*p^s for Type1, lower for gamma in T."""
    bad = []
    for p, a, m, s in NILPOTENCY_SUITE:
        ctx = ring(p, a, m)
        n = p**s
        for amb in _type1_ambients(p, a, m, s):
            got = nilpotency_index(amb.x_minus(amb.alpha))
            if got != a * n:
                bad.append(f"Type1 gamma={amb.gamma.to_int()}: {got}")
        expect = a * n - (a - 1) * p ** (s - 1)
        for e in range(ctx.params.residue_size - 1):
            g = ctx.teich_exp(e)
            amb = AmbientParams(ctx, s, g)
            got = nilpotency_index(amb.x_minus(amb.alpha))
            if got != expect:
                bad.append(f"gamma=zeta^{e}: {got} != {expect}")
    return CheckResult("nilpotency", not bad, "; ".join(bad))


def check_cardinality_nesting() -> CheckResult:
    """|C_i| = p^(m(a p^s - i)) and strict nesting in i, by enumeration."""
    bad = []
    for row in CHAIN_SUITE:
        for amb in _type1_ambients(*row):
            prev = None
            for code in _codes(amb):
                words = enumerate_codewords(code)
                label = f"gamma={amb.gamma.to_int()} i={code.i}"
                if len(words) != code.cardinality:
                    bad.append(f"{label}: {len(words)}")
                if prev is not None and not words < prev:
                    bad.append(f"{label}: not nested")
                prev = words
    return CheckResult("cardinality-nesting", not bad, "; ".join(bad))


def check_duality() -> CheckResult:
    """brute_force_dual == enumerate(dual_code) and the cardinality product."""
    bad = []
    for row in DUALITY_SUITE:
        for amb in _type1_ambients(*row):
            for code in _codes(amb):
                dual = dual_code(code)
                label = f"gamma={amb.gamma.to_int()} i={code.i}"
                if brute_force_dual(code) != enumerate_codewords(dual):
                    bad.append(f"{label}: sets differ")
                if code.cardinality * dual.cardinality != amb.size:
                    bad.append(f"{label}: cardinality")
                if code.alpha * dual.alpha != amb.ctx.one:
                    bad.append(f"{label}: alpha")
    return CheckResult("duality", not bad, "; ".join(bad))


def _self_duality_mismatches(amb: AmbientParams) -> list[str]:
    """Threshold decisions and the self-dual inventory of one Type1
    ambient vs the C subset-of C-dual oracle, over every code."""
    label = f"{amb.ctx!r} s={amb.s} gamma={amb.gamma.to_int()}"
    bad = []
    oracle = set()
    for code in _codes(amb):
        words = enumerate_codewords(code)
        dual_words = brute_force_dual(code)
        if is_self_orthogonal(code) != (words <= dual_words):
            bad.append(f"self-orth {label} i={code.i}")
        if words == dual_words:
            oracle.add(code.i)
    found = {c.i for c in self_dual_codes(amb)}
    if found != oracle:
        bad.append(f"self-dual {label}: {found} != {oracle}")
    return bad


def check_self_duality() -> CheckResult:
    """Threshold decisions vs the C subset-of C-dual oracle, and the
    self-dual inventory for the pinned rings."""
    bad = []
    for row in DUALITY_SUITE:
        for amb in _type1_ambients(*row):
            bad += _self_duality_mismatches(amb)

    # Pinned inventory: Z4/s=2/gamma=3 has exactly <(x-1)^4> = <2>.
    z4 = ring(2, 2, 1)
    amb = AmbientParams(z4, 2, z4.from_int(3))
    sd = self_dual_codes(amb)
    if [c.i for c in sd] != [4]:
        bad.append("Z4 s=2 gamma=3 self-dual list")
    else:
        doubles = frozenset(
            w for w in amb.iter_raw() if all(v % 2 == 0 for c in w for v in c)
        )
        if enumerate_codewords(sd[0]) != doubles:
            bad.append("Z4 s=2 self-dual code is not <2>")

    # Z27/s=1: a*p = 9 odd, so no self-dual code exists for any Type1 gamma.
    z27 = ring(3, 3, 1)
    amb27 = AmbientParams(z27, 1, z27.from_int(4))
    if self_dual_codes(amb27):
        bad.append("Z27 s=1 gamma=4 should have no self-dual code")
    bad += _self_duality_mismatches(amb27)
    return CheckResult("self-duality", not bad, "; ".join(bad))


def check_hamming_distances() -> CheckResult:
    """Band formula vs exhaustive minimum weight, all suites and exponents."""
    bad = []
    for row in CHAIN_SUITE:
        for amb in _type1_ambients(*row):
            bad += _distance_mismatches(amb, (HAMMING,))
    profile = [hamming_distance_formula(2, 2, 2, i) for i in range(9)]
    if profile != [1, 1, 1, 1, 1, 2, 2, 4, 0]:
        bad.append(f"Z4 s=2 profile {profile}")
    return CheckResult("hamming-distances", not bad, "; ".join(bad))


def check_homogeneous_distances() -> CheckResult:
    bad = []
    for row in CHAIN_SUITE:
        for amb in _type1_ambients(*row):
            bad += _distance_mismatches(amb, (HOMOGENEOUS,))
    if [homogeneous_distance_formula(2, 2, 1, 2, i) for i in range(9)] != [
        1, 2, 2, 2, 2, 4, 4, 8, 0,
    ]:
        bad.append("Z4 s=2 profile")
    if [homogeneous_distance_formula(3, 2, 1, 1, i) for i in range(7)] != [
        2, 2, 2, 4, 4, 8, 0,
    ]:
        bad.append("Z8 s=1 profile")
    return CheckResult("homogeneous-distances", not bad, "; ".join(bad))


def check_multi_constacyclicity() -> CheckResult:
    """Type1 constants sharing zeta0 carry the same codes (Z8, s=1)."""
    bad = []
    z8 = ring(2, 3, 1)
    type1 = _selected_gammas(z8, "all-type1")
    pairs = [
        (g1, g2)
        for g1 in type1
        for g2 in type1
        if classify_unit(g1).zeta0 == classify_unit(g2).zeta0
    ]
    for g1, g2 in pairs:
        codes1 = _codes(AmbientParams(z8, 1, g1))
        codes2 = _codes(AmbientParams(z8, 1, g2))
        for c1, c2 in zip(codes1, codes2):
            if not is_gamma2_constacyclic(c1, g2):
                bad.append(f"i={c1.i} {g1.to_int()}->{g2.to_int()} not closed")
            if enumerate_codewords(c1) != enumerate_codewords(c2):
                bad.append(f"i={c1.i} {g1.to_int()} vs {g2.to_int()} sets differ")
    detail = f"{len(pairs)} ordered pairs" if not bad else "; ".join(bad)
    return CheckResult("multi-constacyclicity", not bad, detail)


def check_unit_algebra() -> CheckResult:
    """Structured inverses vs Newton inversion, and the product type rules,
    exhaustively over Z4, Z8, Z16, GR(4,2)."""
    bad = []
    for p, a, m in UNIT_ALGEBRA_RINGS:
        ctx = ring(p, a, m)
        units = list(ctx.iter_units())
        for g in units:
            cls = classify_unit(g)
            inv = invert(g)
            structured = (
                type1_inverse(g) if cls.variant == TYPE1 else type0_inverse(g)
            )
            if structured != inv or g * structured != ctx.one:
                bad.append(f"GR({p}^{a},{m}) inverse of {g.to_int()}")
            if generic_inverse(g) != inv:
                bad.append(f"GR({p}^{a},{m}) generic inverse of {g.to_int()}")
            if classify_unit(structured).variant != cls.variant:
                bad.append(f"GR({p}^{a},{m}) inverse type of {g.to_int()}")
        for x in units:
            cx = classify_unit(x)
            for y in units:
                rule = type_product_class(cx, classify_unit(y))
                if rule is None:
                    continue
                if classify_unit(x * y).variant != rule:
                    bad.append(
                        f"GR({p}^{a},{m}) {x.to_int()}*{y.to_int()} != {rule}"
                    )
    return CheckResult("unit-algebra", not bad, "; ".join(bad))


def check_freshman_congruence() -> CheckResult:
    """(x+b)^(p^n) congruences for every unit constant, unit b, n <= s."""
    bad = []
    for p, a, m, s in CHAIN_SUITE:
        ctx = ring(p, a, m)
        for g in ctx.iter_units():
            amb = AmbientParams(ctx, s, g)
            for b in ctx.iter_units():
                for n in range(1, s + 1):
                    if not freshman_congruence_check(amb, b, n):
                        bad.append(
                            f"GR({p}^{a},{m}) s={s} gamma={g.to_int()}"
                            f" b={b.to_int()} n={n}"
                        )
    return CheckResult("freshman-congruence", not bad, "; ".join(bad))


ALL_CHECKS = (
    check_chain_classification,
    check_nilpotency,
    check_cardinality_nesting,
    check_duality,
    check_self_duality,
    check_hamming_distances,
    check_homogeneous_distances,
    check_multi_constacyclicity,
    check_unit_algebra,
    check_freshman_congruence,
)


def run_default_verification() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass
class SweepConfig:
    """A configured verification sweep: which rings, which constants,
    what budget, and how to report."""

    rings: list[tuple[int, int, int, int]]
    gammas: str | list[int] = "all-units"
    budget: int | None = None
    format: str = "json"
    output: str | None = None

    def __post_init__(self):
        # JSON configs can carry strings, floats and booleans anywhere, so
        # every number must be a plain int before it reaches the ring code
        rows = self.rings
        if not isinstance(rows, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) and len(row) == 4 and all(map(_is_int, row))
            for row in rows
        ):
            raise ValueError(f"rings must be a list of integer (p, a, m, s) rows: {rows!r}")
        self.rings = [tuple(row) for row in rows]
        for p, a, m, s in self.rings:
            RingParams(p, a, m).validate()
            if s < 1:
                raise ValueError(f"s must be >= 1, got {s}")
        if isinstance(self.gammas, str):
            if self.gammas not in ("all-units", "all-type1"):
                raise ValueError(f"unknown gamma selection {self.gammas!r}")
        elif not isinstance(self.gammas, (list, tuple)) or not all(
            map(_is_int, self.gammas)
        ):
            raise ValueError(f"gammas must be integer encodings: {self.gammas!r}")
        if self.budget is not None and not (_is_int(self.budget) and self.budget > 0):
            raise ValueError(f"budget must be a positive integer, got {self.budget!r}")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")
        if self.output is not None and not isinstance(self.output, str):
            raise ValueError(f"output must be a file name, got {self.output!r}")

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepConfig":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        extra = set(data) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        if "rings" not in data:
            raise ValueError("config must list rings")
        return cls(**data)


def _selected_gammas(ctx, selection) -> list[GrElement]:
    if selection == "all-units":
        return list(ctx.iter_units())
    if selection == "all-type1":
        return [
            g for g in ctx.iter_units() if classify_unit(g).variant == TYPE1
        ]
    out = []
    for enc in selection:
        g = ctx.from_int(enc)
        if not g.is_unit:
            raise GalringError(f"gamma encoding {enc} is not a unit")
        out.append(g)
    return out


def run_sweep(config: SweepConfig) -> list[CheckResult]:
    """The chain verdict of criterion 1 for each selected (ring, gamma),
    plus the distance verdicts of criteria 6 and 7 for each Type1 gamma.
    Budget errors propagate to the caller."""
    results = []
    for p, a, m, s in config.rings:
        ctx = ring(p, a, m)
        kinds = (HAMMING, HOMOGENEOUS) if a >= 2 else (HAMMING,)
        for g in _selected_gammas(ctx, config.gammas):
            amb = AmbientParams(ctx, s, g)
            label = f"p={p} a={a} m={m} s={s} gamma={g.to_int()}"
            predicted, agrees = _chain_verdict(amb, config.budget)
            results.append(
                CheckResult(
                    f"chain {label}",
                    agrees,
                    "chain" if predicted else "expected-non-chain",
                )
            )
            if amb.gamma_class.variant != TYPE1:
                continue
            bad = _distance_mismatches(amb, kinds, config.budget)
            results.append(CheckResult(f"distances {label}", not bad, "; ".join(bad)))
    return results
