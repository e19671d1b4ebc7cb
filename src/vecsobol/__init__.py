"""Sensitivity indices for vector-valued models.

Trace-based generalized Sobol indices, estimated from pick-freeze samples
and verified against exact decomposition oracles.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    ContractError,
    DegenerateModelError,
    DegenerateSampleError,
    IllPosedIndexError,
    ReportError,
    ResourceError,
    VecSobolError,
)
from .inference import (
    IndexEstimate,
    ReplicationReport,
    bootstrap_ci,
    clt_diagnostic,
    delta_ci,
    delta_variance,
)
from .models import (
    VectorModel,
    apply_transform,
    corpus_names,
    get_model,
    linear_model,
    load_external_model,
)
from .oracle import (
    CovarianceTriple,
    ExactIndex,
    HoeffdingComponents,
    covariances_linear,
    covariances_monte_carlo,
    covariances_quadrature,
    decompose_grid,
    exact_index,
)
from .pickfreeze import (
    PairMoments,
    PickFreezeSample,
    SharedDesign,
    estimate_index,
    estimate_index_general,
    evaluate_pairs,
    evaluate_shared,
    generate_design,
    read_sample_csv,
    write_sample_csv,
)
from .spaces import (
    Discrete,
    InputSpace,
    Normal,
    SubsetIndex,
    Uniform,
    sample_inputs,
)

__all__ = [
    "__version__",
    # errors
    "VecSobolError",
    "ConfigurationError",
    "ContractError",
    "DegenerateModelError",
    "DegenerateSampleError",
    "IllPosedIndexError",
    "ReportError",
    "ResourceError",
    # spaces
    "Uniform",
    "Normal",
    "Discrete",
    "InputSpace",
    "SubsetIndex",
    "sample_inputs",
    # models
    "VectorModel",
    "apply_transform",
    "linear_model",
    "get_model",
    "corpus_names",
    "load_external_model",
    # oracle
    "CovarianceTriple",
    "HoeffdingComponents",
    "ExactIndex",
    "covariances_linear",
    "covariances_quadrature",
    "covariances_monte_carlo",
    "decompose_grid",
    "exact_index",
    # pick-freeze
    "PickFreezeSample",
    "SharedDesign",
    "PairMoments",
    "generate_design",
    "evaluate_pairs",
    "evaluate_shared",
    "estimate_index",
    "estimate_index_general",
    "write_sample_csv",
    "read_sample_csv",
    # inference
    "IndexEstimate",
    "ReplicationReport",
    "delta_variance",
    "delta_ci",
    "bootstrap_ci",
    "clt_diagnostic",
]
