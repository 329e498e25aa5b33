"""cltbounds: samplers, tight frames, and certified normal-approximation
error bounds for linear functionals of high-dimensional symmetric random
vectors."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    InsufficientDataError,
    MomentSummary,
    lp_norm,
    merge_summaries,
    normal_pdf,
    summarize,
)
from .frames import (  # noqa: F401
    SimplexGeometry,
    TightFrame,
    check_tight,
    simplex_geometry,
    standard_frame,
)
from .samplers import (  # noqa: F401
    DistributionSpec,
    Kind,
    SampleBatch,
    calibrate_isotropic,
    exact_moments,
    sample,
    sample_projections,
)
from .bounds import (  # noqa: F401
    BoundInputs,
    BoundValue,
    DensePairMoments,
    SimplexPairMoments,
    bound_frame_bounded,
    bound_frame_general,
    bound_poincare,
    bound_simplex,
    bound_sncp_bounded,
    bound_sph_symm,
    bound_unconditional,
    bound_unconditional_bounded,
    exact_kolmogorov,
    exact_projection_density,
    exact_tv_vs_normal,
    simplex_Y_moment,
    simplex_pair_moment,
)
from .empirical import (  # noqa: F401
    DistanceEstimate,
    conditional_second_moment,
    dkw_slack,
    kolmogorov_vs_normal,
    project,
    tv_vs_normal_histogram,
)
from .subspaces import (  # noqa: F401
    AnkEstimate,
    PairDiagnostics,
    RotationDiagnostics,
    estimate_Ank,
    haar_orthogonal,
    haar_orthogonal_sample,
    random_subspace,
    reflection_pair_diagnostics,
    rotation_pair_diagnostics,
)
from .certify import (  # noqa: F401
    BoundReport,
    InapplicableBoundError,
    applicable_route,
    certify_cell,
    certify_grid,
)
