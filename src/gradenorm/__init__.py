"""Homogeneous-norm candidates on graded real vector spaces.

The library computes the candidate norm and its dilations, reduces the
triangle inequality to scalar profiles, proves the scalar statement per
length with exact Hölder/Muirhead certificates, and hunts numerically
for counterexamples.
"""

__version__ = "0.1.0"

from .exactmath import (
    ExponentPair,
    Rational,
    binom,
    majorizes,
    muirhead_pair_holds,
    rational_from_str,
    rational_to_str,
)
from .graded_space import (
    GradedVector,
    GradingSignature,
    ScalarProfile,
    dilate,
    hnorm,
    homogeneity_defect,
    profile_from_json,
    profile_to_json,
    random_vector,
    scalar_norm,
    scalar_profile,
    triangle_defect,
    vector_from_json,
    vector_to_json,
)
from .expansion import (
    RhsOrbit,
    ShadowPair,
    TermOrbit,
    holder_shadow_bound_check,
    lhs_orbits,
    orbit_exponents,
    pure_terms_cancel,
    rhs_orbits,
    shadow,
)
from .certificate import (
    Certificate,
    CertificateLine,
    CheckReport,
    ProofReport,
    Violation,
    certificate_from_json,
    certificate_to_json,
    certificate_to_report,
    check_certificate,
    check_line,
    search_certificate,
)
from .numeric_search import (
    SearchConfig,
    SearchOutcome,
    check_line_numeric,
    hunt,
    line_defect,
    scalar_defect,
)

__all__ = [
    "__version__",
    "Rational",
    "ExponentPair",
    "binom",
    "majorizes",
    "muirhead_pair_holds",
    "rational_from_str",
    "rational_to_str",
    "GradingSignature",
    "GradedVector",
    "ScalarProfile",
    "hnorm",
    "dilate",
    "homogeneity_defect",
    "scalar_profile",
    "scalar_norm",
    "triangle_defect",
    "random_vector",
    "vector_to_json",
    "vector_from_json",
    "profile_to_json",
    "profile_from_json",
    "TermOrbit",
    "RhsOrbit",
    "ShadowPair",
    "lhs_orbits",
    "rhs_orbits",
    "shadow",
    "orbit_exponents",
    "pure_terms_cancel",
    "holder_shadow_bound_check",
    "CertificateLine",
    "Certificate",
    "CheckReport",
    "Violation",
    "ProofReport",
    "check_line",
    "check_certificate",
    "search_certificate",
    "certificate_to_report",
    "certificate_to_json",
    "certificate_from_json",
    "SearchConfig",
    "SearchOutcome",
    "scalar_defect",
    "hunt",
    "line_defect",
    "check_line_numeric",
]
