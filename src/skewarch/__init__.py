"""Exact arithmetic for twisted polynomials and truncated twisted power
series over finite coefficient rings, plus decision procedures for the
Archimedean-style shrinking-power property and related structure tests."""

from .rings import (  # noqa: F401
    RingConstructionError,
    RingMismatchError,
    NonEnumerableError,
    construct_ring,
    units,
    nonunits,
    is_unit,
    is_nilpotent,
    is_reduced,
    is_domain,
    zero_divisors,
    idempotents,
    jacobson_radical,
    principal_power_chain,
    subring_generated,
    quotient_by_ideal,
)
from .endos import (  # noqa: F401
    Endo,
    EndoValidationError,
    build_endo,
    is_injective,
    is_rigid,
    is_compatible,
    preserves_nonunits,
    rigid_decomposition_check,
)
from .skew import (  # noqa: F401
    SkewPoly,
    TruncSeries,
    parse_poly_text,
    geometric_inverse,
    series_inverse,
    nilpotency_probe,
    solve_right_divisibility,
)
from .props import (  # noqa: F401
    Verdict,
    ClassificationReport,
    is_archimedean,
    derived_archimedean,
    archimedean_consequence_suite,
    subring_inheritance_check,
    regular_ring_division_check,
    archimedean_field_census,
    poly_ring_conditions,
    series_ring_conditions,
    geometric_termination_check,
    poly_radical_check,
    series_reduced_check,
    rigidity_decomposition_verdict,
    twisted_power_product_equivalence,
    archimedean_falsifier,
    induction_audit,
    classify,
    quotient_intersection_check,
    first_incomparable_principal_pair,
)

__version__ = "0.1.0"
