"""The package namespace: what ``from covgraph import *`` binds."""
import types

import covgraph

EXPORTED = {
    "BoundReport", "CoordinateUpdate", "CovarianceMatrix", "ExperimentTable", "Graph",
    "GraphValidationError", "KKTReport", "LearnConfig", "LearnResult", "MetricsRow",
    "SingularModelError", "SolverState", "SpatialSample", "Spectrum", "VariogramSpec",
    "all_pairs", "as_covariance", "baseline_variogram_edge_bound", "bound_curves", "bound_report",
    "build_graph", "compute_gft", "compute_metrics", "edge_cost", "edge_update",
    "edge_weight_bound", "epoch", "evaluate_objective", "forward_gft", "incidence_vector",
    "init_state", "inverse_gft", "joint_model_psd", "kernel_initial_graph", "kkt_report",
    "laplacian", "laplacian_model_psd", "learn_cgl_baseline", "learn_joint", "model_covariance",
    "refresh_phi", "run_experiment", "sample_locations", "sample_stationary_signals",
    "screen_edges", "trim_violations", "variogram_covariance", "variogram_edge_bound",
    "vertex_update",
}


def test_all_lists_the_public_names_and_no_module():
    # The submodules bench, graphs, learn, solver, spectral and verify were
    # once exported, so after a star import `learn` named the module.
    modules = [name for name in covgraph.__all__ if isinstance(getattr(covgraph, name), types.ModuleType)]
    assert modules == []
    assert len(covgraph.__all__) == len(EXPORTED)
    assert set(covgraph.__all__) == EXPORTED

