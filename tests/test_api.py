"""The package namespace holds the pipeline only; the layers under it stay
importable from their own modules."""

import importlib
import re
from pathlib import Path

import pytest

import finpow

PUBLIC = [
    "BoundarySpec",
    "Certificate",
    "ConfigError",
    "DegenerateWindowError",
    "DivergentSeriesError",
    "DomainError",
    "FinpowError",
    "InfiniteMatrixSpec",
    "InvalidBoundaryError",
    "LatticeModelParams",
    "MalformedSpecError",
    "NotConvergedError",
    "NumericalFailureError",
    "SingularityError",
    "SpectralEnvelope",
    "Window",
    "approximate_element",
    "banded_spec",
    "convergence_table",
    "dispersion_integral_element",
    "evaluate_window",
    "lattice_spec",
    "local_solve",
    "periodic_policy",
    "zero_boundary",
]

# names the package no longer exports, by the module that keeps them
INTERNAL = {
    "FiniteHermitian": "finpow.core",
    "truncate": "finpow.core",
    "validate_truncation": "finpow.core",
    "TruncationDepth": "finpow.series",
    "truncation_depth": "finpow.series",
    "certify": "finpow.certificates",
    "full_series_sum": "finpow.certificates",
    "tail_bound": "finpow.certificates",
    "finite_power": "finpow.powers",
    "fourier_symbol": "finpow.lattice",
    "periodic_boundary": "finpow.lattice",
}

# what perfbench/worker.py reads as fp.*
BENCHMARK = [
    "LatticeModelParams",
    "SpectralEnvelope",
    "approximate_element",
    "banded_spec",
    "lattice_spec",
    "local_solve",
    "periodic_policy",
    "zero_boundary",
]


def test_all_is_the_pipeline():
    assert sorted(finpow.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(finpow, name) is not None


@pytest.mark.parametrize("name,module", sorted(INTERNAL.items()))
def test_internals_stay_in_their_modules(name, module):
    assert not hasattr(finpow, name)
    assert getattr(importlib.import_module(module), name) is not None


def test_validation_report_is_gone():
    assert not hasattr(finpow, "ValidationReport")
    assert not hasattr(importlib.import_module("finpow.core"), "ValidationReport")


def test_binomial_coefficients_is_gone():
    assert not hasattr(finpow, "binomial_coefficients")
    assert not hasattr(importlib.import_module("finpow.powers"), "binomial_coefficients")


def test_benchmark_names_are_exported():
    assert set(BENCHMARK) <= set(finpow.__all__)
    worker = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
    assert set(re.findall(r"\bfp\.(\w+)", worker.read_text())) == set(BENCHMARK)


def test_readme_lists_the_pipeline():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("### Public API", 1)[1].split("\n## ", 1)[0]
    exported = section.split("The layers under them", 1)[0]
    assert set(re.findall(r"`(\w+)`", exported)) - {"finpow"} == set(PUBLIC)
    count = re.search(r"nothing under it, (\d+) names", " ".join(exported.split()))
    assert int(count.group(1)) == len(finpow.__all__)
