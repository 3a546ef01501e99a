"""The package's public surface: ``haarmi.__all__`` is exactly what the
package exports, and every name in it resolves; and the module attributes
the benchmark's tracer wraps by name exist."""

import importlib
import inspect

import haarmi

PUBLIC_SURFACE = {
    "__version__",
    # dims
    "CasimirCounts", "Dimensions", "casimir_counts", "leading_order",
    # errors
    "HaarMIError", "InvalidDimensionError", "DomainError", "RegimeError",
    "NonConvergenceError", "NumericalValidityError", "OracleWorkerError",
    # special functions
    "BERNOULLI_LIMIT", "EULER_GAMMA", "bernoulli", "digamma",
    "harmonic_rational", "zeta_negative_odd",
    # closed forms
    "MutualInformationBreakdown", "page_entropy", "page_entropy_rational",
    "diagonal_entropy_avg", "diagonal_entropy_avg_rational", "schur_deficit",
    "mutual_information_exact", "mutual_information_rational",
    "forced_factorised_value", "i_diag_rational", "lubkin_purity",
    "diagonal_second_moment", "bloch_variance",
    # series
    "K_MAX_DEFAULT", "SeriesExpansion", "bernoulli_term", "expand",
    # integral
    "QuadratureResult", "binet_tail", "bound_deficit", "compute_J",
    "folded_integrand", "kernel_R", "mutual_information_integral",
    # sampling
    "CHUNK_SIZE", "RNG_IDENTITY", "STATE_DIMENSION_CAP",
    "HaarSampleStats", "run_oracle",
}


def test_every_exported_name_resolves():
    assert len(haarmi.__all__) == len(set(haarmi.__all__))
    for name in haarmi.__all__:
        assert hasattr(haarmi, name), name


def test_exports_are_the_public_surface():
    # a deleted name cannot linger: the surface is pinned, and the package
    # namespace holds nothing public beyond __all__ and its submodules;
    # dir() also lists the names the package resolves on first use
    assert set(haarmi.__all__) == PUBLIC_SURFACE
    public = {
        name for name in dir(haarmi)
        if not name.startswith("_")
        and not inspect.ismodule(getattr(haarmi, name))
    }
    assert public == PUBLIC_SURFACE - {"__version__"}


#: Module attributes that the benchmark's tracer (``perfbench/child.py``)
#: looks up by name and wraps; a refactor that drops one breaks every
#: traced benchmark run.
TRACED_ATTRIBUTES = {
    "haarmi.cli": ("run", "emit", "compute_J", "expand",
                   "mutual_information_exact", "mutual_information_rational",
                   "run_oracle"),
    "haarmi.page": ("digamma", "harmonic_rational",
                    "mutual_information_rational"),
    "haarmi.series": ("zeta_negative_odd",),
    "haarmi.sampling": ("np",),
}


def test_traced_attributes_exist():
    for module_name, attributes in TRACED_ATTRIBUTES.items():
        module = importlib.import_module(module_name)
        for attribute in attributes:
            assert hasattr(module, attribute), f"{module_name}.{attribute}"
