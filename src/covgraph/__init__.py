"""covgraph: learn graph Laplacians, jointly with vertex importances, from
covariance matrices by coordinate minimization."""

from types import ModuleType as _ModuleType

from .bench import (
    ExperimentTable,
    MetricsRow,
    SpatialSample,
    VariogramSpec,
    baseline_variogram_edge_bound,
    bound_curves,
    compute_metrics,
    kernel_initial_graph,
    run_experiment,
    sample_locations,
    variogram_covariance,
    variogram_edge_bound,
)
from .graphs import (
    CovarianceMatrix,
    Graph,
    GraphValidationError,
    all_pairs,
    as_covariance,
    build_graph,
    incidence_vector,
    laplacian,
)
from .learn import LearnConfig, LearnResult, epoch, learn_cgl_baseline, learn_joint
from .solver import (
    CoordinateUpdate,
    SingularModelError,
    SolverState,
    edge_cost,
    edge_update,
    evaluate_objective,
    init_state,
    refresh_phi,
    vertex_update,
)
from .spectral import (
    Spectrum,
    compute_gft,
    forward_gft,
    inverse_gft,
    joint_model_psd,
    laplacian_model_psd,
    model_covariance,
    sample_stationary_signals,
)
from .verify import (
    BoundReport,
    KKTReport,
    bound_report,
    edge_weight_bound,
    kkt_report,
    screen_edges,
    trim_violations,
)

__version__ = "0.1.0"

# The submodules that the imports above bind (learn, verify, ...) are not exported.
__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
