"""Exact arithmetic in Galois rings GR(p^a, m) and the structure theory
of repeated-root constacyclic codes of length p^s over them: unit
classification, chain-ring criteria, code construction, duals,
self-duality, and closed-form Hamming/homogeneous distances, each
backed by an exhaustive brute-force oracle at small scale.
"""

from .ambient_ring import (
    AmbientParams,
    AmbientPoly,
    ChainReport,
    constacyclic_shift,
    freshman_congruence_check,
    ideal_raw,
    is_unit,
    nilpotency_index,
    solve_alpha,
    verify_chain_structure,
)
from .constacodes import (
    ConstaCode,
    brute_force_dual,
    build_code,
    dual_code,
    dual_spot_check,
    enumerate_codewords,
    is_gamma2_constacyclic,
    is_self_orthogonal,
    self_dual_codes,
    sort_words,
    word_dot,
)
from .distances import (
    HAMMING,
    HOMOGENEOUS,
    DistanceRow,
    brute_force_min_weight,
    distance_table,
    field_hamming_distance_formula,
    hamming_distance_formula,
    hamming_weight,
    homogeneous_distance_formula,
    homogeneous_weight,
    homogeneous_word_weight,
    min_weight,
)
from .errors import (
    BudgetExceededError,
    CharacteristicTooSmallError,
    ContextMismatchError,
    GalringError,
    IndexOutOfRangeError,
    NonPrimeError,
    NotAUnitError,
    NotTeichmullerError,
    ParamsMismatchError,
    WrongUnitTypeError,
    ZeroElementError,
)
from .galois_ring import (
    GrElement,
    PadicCoords,
    RingContext,
    RingParams,
    build_ring,
    invert,
    p_adic_decompose,
    p_adic_recompose,
    ring,
    teichmuller_log,
    unit_p_power_form,
)
from .unit_types import (
    NON_UNIT,
    TYPE0,
    TYPE1,
    UnitClass,
    classify_unit,
    generic_inverse,
    is_chain_ambient,
    type0_inverse,
    type1_inverse,
    type_product_class,
)
from .verification import (
    CHAIN_SUITE,
    CheckResult,
    SweepConfig,
    run_default_verification,
    run_sweep,
)

__version__ = "0.1.0"
