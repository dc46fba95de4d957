"""Exact characteristic classes, multiplicative genera, elliptic-genus
q-expansions, and rational-cobordism linear algebra for manifolds built
from complex and quaternionic projective spaces and projectivized
line-bundle sums.

Everything is computed over exact rationals; there is not a single
floating-point number in the pipeline.
"""
from .algebra import (
    GradedElement,
    QSeries,
    RationalMatrix,
    RingSpec,
    as_rational,
    interpolate_polynomial,
)
from .cobordism import (
    CharNumberVector,
    FamilySpec,
    Functional,
    Partition,
    basis_manifolds,
    designated_families,
    distinct_cobordism_types,
    elliptic_span,
    family_polynomial,
    genus_as_functional,
    partitions_of,
    pontryagin_numbers,
    span_membership,
    standard_family,
    unbounded_verdict,
    x12,
    y16,
    z20,
)
from .errors import ConsistencyError, FunctionalParseError
from .genera import (
    CharacteristicSeries,
    MultiplicativeSequence,
    ahat,
    ahat_sequence,
    elliptic_q_coefficients,
    evaluate_genus,
    l_sequence,
    signature,
    twisted_ahat_tangent,
    universal_k_polynomials,
)
from .manifolds import (
    LineBundleSum,
    ManifoldModel,
    build_cp,
    build_hp,
    build_point,
    build_proj_bundle,
    is_spin,
    pair,
    pontryagin_classes,
    product,
    total_pontryagin,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # algebra
    "GradedElement", "QSeries", "RationalMatrix", "RingSpec",
    "as_rational", "interpolate_polynomial",
    # errors
    "ConsistencyError", "FunctionalParseError",
    # manifolds
    "LineBundleSum", "ManifoldModel",
    "build_cp", "build_hp", "build_point", "build_proj_bundle",
    "is_spin", "pair", "pontryagin_classes", "product", "total_pontryagin",
    # genera
    "CharacteristicSeries", "MultiplicativeSequence", "ahat", "ahat_sequence",
    "elliptic_q_coefficients", "evaluate_genus", "l_sequence", "signature",
    "twisted_ahat_tangent", "universal_k_polynomials",
    # cobordism
    "CharNumberVector", "FamilySpec", "Functional", "Partition",
    "basis_manifolds", "designated_families", "distinct_cobordism_types",
    "elliptic_span", "family_polynomial", "genus_as_functional",
    "partitions_of", "pontryagin_numbers", "span_membership",
    "standard_family", "unbounded_verdict", "x12", "y16", "z20",
]
