"""fracspec: fractional spectral analysis of signals on Cartesian product graphs.

The package builds unitary fractional Fourier operators from graph adjacency
eigenbases and from the commuting-matrix DFRFT, couples heterogeneous temporal
bases along the unitary geodesic, applies the resulting separable transforms
to time-vertex signals, and learns Wiener-type diagonal spectral filters (and
the fractional orders themselves) by gradient descent. A seeded benchmark
harness and a property-verification suite sit on top.
"""

from .coupling import (
    CouplingDecomposition,
    coupling_operator,
    geodesic_temporal_basis,
    phase_decompose,
    swapped_geodesic_temporal_basis,
)
from .errors import (
    ConfigError,
    DecompositionError,
    FracspecError,
    GraphError,
    MarginViolationError,
    NotUnitaryError,
)
from .graphs import Graph, cartesian_product, knn_graph, path_graph
from .harness import (
    BenchmarkConfig,
    GraphSpec,
    MetricReport,
    MetricRow,
    Metrics,
    add_awgn,
    metrics,
    random_planar_points,
    run_benchmark,
    synth_signal,
)
from .operators import (
    FractionalOperator,
    SpectralBasis,
    dfrft_matrix,
    eigendecompose,
    gft_matrix,
    graph_frft,
    unitarity_error,
    unitary_fractional_power,
)
from .properties import PropertyReport, verify_properties
from .transforms import (
    FAMILIES,
    TimeVertexSignal,
    TransformContext,
    TransformPlan,
    forward,
    inverse,
)
from .wiener import (
    FilterParams,
    GridRow,
    TrainConfig,
    TrainStep,
    closed_form_h,
    denoise,
    denoise_complex,
    grad_h,
    grad_orders,
    lambda_grid_search,
    loss,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkConfig",
    "ConfigError",
    "CouplingDecomposition",
    "DecompositionError",
    "FAMILIES",
    "FilterParams",
    "FracspecError",
    "FractionalOperator",
    "Graph",
    "GraphError",
    "GraphSpec",
    "GridRow",
    "MarginViolationError",
    "MetricReport",
    "MetricRow",
    "Metrics",
    "NotUnitaryError",
    "PropertyReport",
    "SpectralBasis",
    "TimeVertexSignal",
    "TrainConfig",
    "TrainStep",
    "TransformContext",
    "TransformPlan",
    "add_awgn",
    "cartesian_product",
    "closed_form_h",
    "coupling_operator",
    "denoise",
    "denoise_complex",
    "dfrft_matrix",
    "eigendecompose",
    "forward",
    "geodesic_temporal_basis",
    "gft_matrix",
    "grad_h",
    "grad_orders",
    "graph_frft",
    "inverse",
    "knn_graph",
    "lambda_grid_search",
    "loss",
    "metrics",
    "path_graph",
    "phase_decompose",
    "random_planar_points",
    "run_benchmark",
    "swapped_geodesic_temporal_basis",
    "synth_signal",
    "train",
    "unitarity_error",
    "unitary_fractional_power",
    "verify_properties",
]
