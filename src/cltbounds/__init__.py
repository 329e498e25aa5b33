"""cltbounds: samplers, tight frames, and certified normal-approximation
error bounds for linear functionals of high-dimensional symmetric random
vectors.

Each public name, and each submodule, is imported on first use, so
importing the package (or the CLI's numpy-free paths) loads no numpy."""

__version__ = "0.1.0"

import importlib

_MODULES = {
    "contract": ["InapplicableBoundError", "InsufficientDataError"],
    "core": ["MomentSummary", "lp_norm", "merge_summaries", "normal_pdf", "summarize"],
    "frames": ["SimplexGeometry", "TightFrame", "check_tight", "simplex_edges",
               "simplex_geometry", "simplex_projections", "standard_frame"],
    "samplers": ["DistributionSpec", "Kind", "SampleBatch", "calibrate_isotropic",
                 "exact_moments", "sample", "sample_projections"],
    "bounds": ["BoundInputs", "BoundValue", "DensePairMoments", "SimplexPairMoments",
               "bound_frame_bounded", "bound_frame_general", "bound_poincare", "bound_simplex",
               "bound_sncp_bounded", "bound_sph_symm", "bound_unconditional",
               "bound_unconditional_bounded", "exact_kolmogorov", "exact_projection_density",
               "exact_tv_vs_normal", "simplex_Y_moment", "simplex_pair_moment"],
    "empirical": ["DistanceEstimate", "conditional_second_moment", "dkw_slack",
                  "kolmogorov_vs_normal", "project", "tv_vs_normal_histogram"],
    "subspaces": ["AnkEstimate", "PairDiagnostics", "RotationDiagnostics", "estimate_Ank",
                  "haar_orthogonal", "haar_orthogonal_sample", "random_subspace",
                  "reflection_pair_diagnostics", "rotation_pair_diagnostics"],
    "certify": ["BoundReport", "applicable_route", "certify_cell", "certify_grid"],
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}
__all__ = [*_MODULES, *_MODULE_OF]


def __getattr__(name):
    """Import submodule ``name``, or the module of public ``name`` and keep
    the name here."""
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
