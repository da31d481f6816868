"""Exact arithmetic with the primes of number fields.

Primes here means both orderings (real embeddings) and p-valuations with
their relative type (e, f).  The package decides root existence in real and
p-adic closures, searches denseness and weak-approximation witnesses,
emits and evaluates the associated first-order formula families, and covers
the sums-of-squares side (four squares, levels, the Kochen operator).
"""

from .config import Config, DEFAULT
from .qpoly import QPoly, parse_poly, format_poly
from .ffield import FF, FFElem, poly_factor_mod_p
from .numberfield import (
    FieldElement,
    KPoly,
    NumberField,
    Ordering,
    elements_by_height,
    format_element,
    parse_element,
)
from .primes import (
    INFINITE_PLACE,
    PrimeType,
    PValuation,
    chi_member,
    holomorphy_member,
    in_ring,
    is_infinite_place,
    primes_above,
    primes_of_type,
    quadratic_step_search,
    residue,
    valuation,
)
from .closure import RootReport, has_root_in_closure, padic_root
from .dense import (
    WitnessReport,
    d_witness,
    ud_witness,
    weak_approx_value,
    zgroup_witness,
)
from .formulas import (
    EvalVerdict,
    MPoly,
    build_phi_n,
    emit_chi,
    emit_nu,
    eval_bounded,
    eval_qf,
    parse_formula,
    print_formula,
    prove_nu,
    rootless_poly,
    substitute,
)
from .squares import (
    KochenValue,
    ShortCheckResult,
    SquareDecomposition,
    d_sos_witness,
    four_squares,
    kochen,
    level_finite_field,
    no_short_representation_check,
    r_infinity_member,
)
from .suite import run_suite, transcript

__all__ = [
    "Config",
    "DEFAULT",
    "QPoly",
    "parse_poly",
    "format_poly",
    "FF",
    "FFElem",
    "poly_factor_mod_p",
    "FieldElement",
    "KPoly",
    "NumberField",
    "Ordering",
    "elements_by_height",
    "format_element",
    "parse_element",
    "INFINITE_PLACE",
    "PrimeType",
    "PValuation",
    "chi_member",
    "holomorphy_member",
    "in_ring",
    "is_infinite_place",
    "primes_above",
    "primes_of_type",
    "quadratic_step_search",
    "residue",
    "valuation",
    "RootReport",
    "has_root_in_closure",
    "padic_root",
    "WitnessReport",
    "d_witness",
    "ud_witness",
    "weak_approx_value",
    "zgroup_witness",
    "EvalVerdict",
    "MPoly",
    "build_phi_n",
    "emit_chi",
    "emit_nu",
    "eval_bounded",
    "eval_qf",
    "parse_formula",
    "print_formula",
    "prove_nu",
    "rootless_poly",
    "substitute",
    "KochenValue",
    "ShortCheckResult",
    "SquareDecomposition",
    "d_sos_witness",
    "four_squares",
    "kochen",
    "level_finite_field",
    "no_short_representation_check",
    "r_infinity_member",
    "run_suite",
    "transcript",
]

__version__ = "0.1.0"
