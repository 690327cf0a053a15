"""Orthogonal double covers of complete graphs by Hamiltonian paths.

For odd n with 2n+1 prime, the discrete logarithms of 1..n modulo 2n+1,
reduced mod n, list the vertices of a Hamiltonian path that is both a
terrace for Z_n and an ODC-starter: its n translates cover every edge of
K_n exactly twice while any two of them share exactly one edge.  This
package builds those starters, verifies all defining properties by direct
counting, enumerates starters exhaustively for small n, and classifies
which odd orders the known existence criteria cover.
"""

from .construction import (
    NotEligibleError,
    StarterInstance,
    WitnessPair,
    build_starter,
    eligibility_modulus,
    log_sequence,
    witness_certificate,
)
from .coverage import (
    CoverageVerdict,
    FormTag,
    NewValue,
    ProductCertificate,
    classify,
    enumerate_eligible,
    enumerate_new_values,
    qualifies_base,
    qualifies_prime_power,
)
from .modnum import (
    discrete_log_table,
    factorize,
    find_primitive_root,
    is_prime,
    is_primitive_root,
    primitive_roots,
)
from .odc import (
    OdcCollection,
    VerificationReport,
    Violation,
    is_odc_starter,
    translates,
    verify_odc,
)
from .pathcore import (
    DirectedTerrace,
    VertexPath,
    edge_lengths,
    format_path,
    is_symmetric_directed_terrace,
    is_terrace,
    parse_paths,
    project_to_half,
)
from .search import (
    ConstructionComparison,
    PruneLevel,
    SearchConfig,
    SearchResult,
    canonical_form,
    compare_with_construction,
    enumerate_starters,
)

__version__ = "0.1.0"

__all__ = [
    "NotEligibleError",
    "StarterInstance",
    "WitnessPair",
    "build_starter",
    "eligibility_modulus",
    "log_sequence",
    "witness_certificate",
    "CoverageVerdict",
    "FormTag",
    "NewValue",
    "ProductCertificate",
    "classify",
    "enumerate_eligible",
    "enumerate_new_values",
    "qualifies_base",
    "qualifies_prime_power",
    "discrete_log_table",
    "factorize",
    "find_primitive_root",
    "is_prime",
    "is_primitive_root",
    "primitive_roots",
    "OdcCollection",
    "VerificationReport",
    "Violation",
    "is_odc_starter",
    "translates",
    "verify_odc",
    "DirectedTerrace",
    "VertexPath",
    "edge_lengths",
    "format_path",
    "is_symmetric_directed_terrace",
    "is_terrace",
    "parse_paths",
    "project_to_half",
    "ConstructionComparison",
    "PruneLevel",
    "SearchConfig",
    "SearchResult",
    "canonical_form",
    "compare_with_construction",
    "enumerate_starters",
    "__version__",
]
