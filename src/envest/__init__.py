"""Envelope estimation: minimal reducing subspaces containing a target span.

The package fits envelope models by minimizing a log-determinant objective
over subspaces, either one direction at a time (fast, sequential) or by
trust-region Newton on the full subspace.  Estimator plug-ins cover
response, partial, predictor and mean reductions; a simulation harness and
a residual bootstrap round out the toolkit.  ``python -m envest`` exposes
everything on the command line.
"""

from .errors import (
    AllFitsFailed,
    BootstrapUnstable,
    DimensionMismatch,
    EmptyComplement,
    EnvestError,
    InvalidDimension,
    InvalidInput,
    InvalidUhat,
    IoError,
    NoConvergence,
    NotPositiveDefinite,
    ParseError,
    RankDeficientCandidates,
    SingularCovariance,
    SingularGram,
    ZeroVector,
)
from .linalg import (
    SpectralDecomposition,
    fix_column_signs,
    orthonormal_complement,
    orthonormalize,
    project,
    subspace_distance,
    sym_eig,
    symmetrize,
)
from .objective import (
    ObjectivePair,
    d_tilde_gradient,
    d_tilde_hessian,
    d_tilde_value,
    j_decomposition,
    j_gradient,
    j_value,
)
from .onedim import EnvelopeFit, OneDimSettings, solve_direction
from .onedim import fit as onedim_fit
from .grassmann import FgSettings, eigenvector_scan_start
from .grassmann import fit as grassmann_fit
from .estimators import (
    ALGORITHMS,
    KINDS,
    CovarianceKit,
    DimensionSelection,
    EnvelopeRegressionFit,
    RegressionData,
    constrained_mean_envelope,
    covariance_kit,
    mean_envelope,
    partial_envelope,
    predictor_envelope,
    response_envelope,
    select_dimension_bic,
    select_dimension_cv,
)
from .simulate import (
    BootstrapResult,
    ExperimentReport,
    GeneratedInstance,
    ReplicationRecord,
    generate_instance,
    oracle_envelope,
    population_experiment,
    residual_bootstrap,
    sample_data,
    sample_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AllFitsFailed",
    "BootstrapResult",
    "BootstrapUnstable",
    "CovarianceKit",
    "DimensionMismatch",
    "DimensionSelection",
    "EmptyComplement",
    "EnvelopeFit",
    "EnvelopeRegressionFit",
    "EnvestError",
    "ExperimentReport",
    "FgSettings",
    "GeneratedInstance",
    "InvalidDimension",
    "InvalidInput",
    "InvalidUhat",
    "IoError",
    "KINDS",
    "NoConvergence",
    "NotPositiveDefinite",
    "ObjectivePair",
    "OneDimSettings",
    "ParseError",
    "RankDeficientCandidates",
    "RegressionData",
    "ReplicationRecord",
    "SingularCovariance",
    "SingularGram",
    "SpectralDecomposition",
    "ZeroVector",
    "constrained_mean_envelope",
    "covariance_kit",
    "d_tilde_gradient",
    "d_tilde_hessian",
    "d_tilde_value",
    "eigenvector_scan_start",
    "fix_column_signs",
    "generate_instance",
    "grassmann_fit",
    "j_decomposition",
    "j_gradient",
    "j_value",
    "mean_envelope",
    "onedim_fit",
    "oracle_envelope",
    "orthonormal_complement",
    "orthonormalize",
    "partial_envelope",
    "population_experiment",
    "predictor_envelope",
    "project",
    "residual_bootstrap",
    "response_envelope",
    "sample_data",
    "sample_experiment",
    "select_dimension_bic",
    "select_dimension_cv",
    "solve_direction",
    "subspace_distance",
    "sym_eig",
    "symmetrize",
    "__version__",
]
