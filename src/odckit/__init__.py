"""Orthogonal double covers of complete graphs by Hamiltonian paths.

For odd n with 2n+1 prime, the discrete logarithms of 1..n modulo 2n+1,
reduced mod n, list the vertices of a Hamiltonian path that is both a
terrace for Z_n and an ODC-starter: its n translates cover every edge of
K_n exactly twice while any two of them share exactly one edge.  This
package builds those starters, verifies all defining properties by direct
counting, enumerates starters exhaustively for small n, and classifies
which odd orders the known existence criteria cover.

Importing the package loads none of its modules.  Each public name below
imports the module that defines it on first access (PEP 562) and is then
bound here like any other attribute, so a call loads only what it uses.
"""

__version__ = "0.1.0"

# each public name, under the module that defines it
_EXPORTS = {
    "construction": ("NotEligibleError", "StarterInstance", "WitnessPair", "build_starter",
                     "eligibility_modulus", "log_sequence", "witness_certificate"),
    "coverage": ("CoverageVerdict", "FormTag", "NewValue", "ProductCertificate", "classify",
                 "enumerate_eligible", "enumerate_new_values", "qualifies_base", "qualifies_prime_power"),
    "modnum": ("discrete_log_table", "factorize", "find_primitive_root", "is_prime",
               "is_primitive_root", "primitive_roots"),
    "odc": ("OdcCollection", "VerificationReport", "Violation", "translates", "verify_odc"),
    "pathcore": ("DirectedTerrace", "VertexPath", "edge_lengths", "format_path", "is_odc_starter",
                 "is_symmetric_directed_terrace", "is_terrace", "parse_paths", "project_to_half"),
    "search": ("ConstructionComparison", "PruneLevel", "SearchConfig", "SearchResult", "canonical_form",
               "compare_with_construction", "enumerate_starters"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli"})

__all__ = [*_OWNER, "__version__"]


def _submodule(name: str):
    # the import binds the submodule here; the builtin, unlike importlib's
    # import_module, is what python -X importtime reports
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(module), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
