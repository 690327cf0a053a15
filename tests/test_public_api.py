"""The package's public surface: README's library example, odckit.__all__,
and the names the package resolves on first access."""

from __future__ import annotations

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import odckit

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = [
    "ConstructionComparison",
    "CoverageVerdict",
    "DirectedTerrace",
    "FormTag",
    "NewValue",
    "NotEligibleError",
    "OdcCollection",
    "ProductCertificate",
    "PruneLevel",
    "SearchConfig",
    "SearchResult",
    "StarterInstance",
    "VerificationReport",
    "VertexPath",
    "Violation",
    "WitnessPair",
    "__version__",
    "build_starter",
    "canonical_form",
    "classify",
    "compare_with_construction",
    "discrete_log_table",
    "edge_lengths",
    "eligibility_modulus",
    "enumerate_eligible",
    "enumerate_new_values",
    "enumerate_starters",
    "factorize",
    "find_primitive_root",
    "format_path",
    "is_odc_starter",
    "is_prime",
    "is_primitive_root",
    "is_symmetric_directed_terrace",
    "is_terrace",
    "log_sequence",
    "parse_paths",
    "primitive_roots",
    "project_to_half",
    "qualifies_base",
    "qualifies_prime_power",
    "translates",
    "verify_odc",
    "witness_certificate",
]


def library_example() -> str:
    """The python block under README's '## Library' heading, as written."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs_as_documented():
    code = library_example()
    ns: dict = {}
    exec(compile(code, str(README), "exec"), ns)
    # the four values its comments show
    assert "# (0, 1, 4, 2, 7, 5, 6, 3, 8)" in code
    assert ns["inst"].terrace.vertices == (0, 1, 4, 2, 7, 5, 6, 3, 8)
    assert "# (4, 3, 2, 1)" in code
    assert ns["profile"] == (4, 3, 2, 1)
    assert "report.ok                               # True" in code
    assert ns["report"].ok is True
    assert "odckit.classify(23).is_new              # True" in code
    assert ns["odckit"].classify(23).is_new is True


def test_all_is_pinned_and_resolves():
    assert sorted(odckit.__all__) == PUBLIC_NAMES
    for name in odckit.__all__:
        assert getattr(odckit, name) is not None, name


def test_submodules_resolve_after_a_bare_import():
    # a fresh interpreter, where no other test has imported a submodule yet
    script = (
        "import odckit\n"
        "assert odckit.search.SearchConfig is odckit.SearchConfig\n"
        "for name in ('cli', 'construction', 'coverage', 'modnum', 'odc', 'pathcore', 'search'):\n"
        "    assert getattr(odckit, name).__name__ == 'odckit.' + name, name\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(odckit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_starter_scan_is_one_object_under_three_names():
    # the scan lives in pathcore; odc binds it too, for callers of odc.is_odc_starter
    assert odckit.is_odc_starter is odckit.pathcore.is_odc_starter is odckit.odc.is_odc_starter
    assert odckit.is_odc_starter.__module__ == "odckit.pathcore"


def test_star_import_binds_every_public_name():
    ns: dict = {}
    exec("from odckit import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == PUBLIC_NAMES


def test_dir_lists_every_public_name():
    assert set(odckit.__all__) <= set(dir(odckit))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        odckit.no_such_name


@pytest.mark.parametrize(
    ("valid", "change", "message"),
    [
        (odckit.VertexPath((0, 1, 3, 2, 4)), {"vertices": (0, 1, 3, 2, 2)}, "permutation"),
        (odckit.SearchConfig(n=9), {"n": 10}, "odd"),
    ],
    ids=["VertexPath", "SearchConfig"],
)
def test_validating_types_revalidate_on_replace(valid, change, message):
    # why these stay frozen dataclasses: replace re-runs __post_init__, where a named
    # tuple's _replace would build the invalid value (DirectedTerrace: test_pathcore)
    assert dataclasses.is_dataclass(valid) and type(valid).__dataclass_params__.frozen
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(valid, **change)
