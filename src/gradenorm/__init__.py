"""Homogeneous-norm candidates on graded real vector spaces.

The library computes the candidate norm and its dilations, reduces the
triangle inequality to scalar profiles, proves the scalar statement per
length with exact Hölder/Muirhead certificates, and hunts numerically
for counterexamples.

The exact core (``exactmath``, ``expansion``, ``certificate``) imports
only the standard library; numpy and floats belong to ``graded_space``
and ``numeric_search``. Importing the package loads none of them: each
public name below is imported from its module on first access (PEP 562),
so ``from gradenorm import check_certificate`` never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "ExponentPair": "exactmath",
    "GradingSignature": "exactmath",
    "binom": "exactmath",
    "majorizes": "exactmath",
    "TermOrbit": "expansion",
    "ShadowPair": "expansion",
    "lhs_orbits": "expansion",
    "shadow": "expansion",
    "orbit_exponents": "expansion",
    "CertificateLine": "certificate",
    "Certificate": "certificate",
    "CheckReport": "certificate",
    "Violation": "certificate",
    "ProofReport": "certificate",
    "check_line": "certificate",
    "check_certificate": "certificate",
    "search_certificate": "certificate",
    "certificate_to_report": "certificate",
    "report_pieces": "certificate",
    "certificate_to_json": "certificate",
    "certificate_from_json": "certificate",
    "InvalidCertificateError": "exactmath",
    "REASONS": "certificate",
    "GradedVector": "graded_space",
    "ScalarProfile": "graded_space",
    "hnorm": "graded_space",
    "dilate": "graded_space",
    "homogeneity_defect": "graded_space",
    "scalar_profile": "graded_space",
    "scalar_norm": "graded_space",
    "scalar_defect": "graded_space",
    "triangle_defect": "graded_space",
    "random_vector": "graded_space",
    "vector_to_json": "graded_space",
    "vector_from_json": "graded_space",
    "profile_to_json": "graded_space",
    "SearchConfig": "numeric_search",
    "SearchOutcome": "numeric_search",
    "hunt": "numeric_search",
    "line_defect": "numeric_search",
    "pure_terms_cancel": "numeric_search",
    "holder_shadow_bound_check": "numeric_search",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
