"""Near-degenerate inputs under the default certified protocol: which rows
certify, and that the others stop "stalled", unconverged, with a finite
graph.

Each input runs both methods. The rows span nearly coincident locations,
a 3 x 3 covariance with one correlation near 1, and sills from 1e-8 to 1e6.
A stalled row is one the solver does not certify yet: a change that
certifies it moves its row to "certified", and no certified row may
stall. The stops were the same with 1 and 2 BLAS threads.
"""
import numpy as np
import pytest

from covgraph import LearnConfig, kkt_report
from covgraph.bench import VariogramSpec, sample_locations, variogram_covariance
from covgraph.learn import KKT_EXIT, learn

CERTIFIED, STALLED = "certified", "stalled"


def near_duplicate(delta):
    """``sample_locations(20, 0)`` with point 1 moved to point 0 + delta in
    both coordinates, at range 0.1."""
    points = np.array(sample_locations(20, 0).points)
    points[1] = points[0] + delta
    return variogram_covariance(points, VariogramSpec(range_=0.1)), {}


def near_collinear(epsilon):
    """Unit variances, rho_02 = rho_12 = 0.1 and rho_01 = 1 - epsilon."""
    S = np.eye(3)
    S[0, 2] = S[2, 0] = S[1, 2] = S[2, 1] = 0.1
    S[0, 1] = S[1, 0] = 1.0 - epsilon
    return S, {}


def small_sill(sill):
    """n = 20, trial 0, range 0.2, uniform start."""
    return variogram_covariance(sample_locations(20, 0), VariogramSpec(sill=sill, range_=0.2)), {}


def scaled_sill(sill):
    """n = 50, trial 0, range 1, kernel start."""
    sample = sample_locations(50, 0)
    start = {"init": "kernel", "points": sample.points}
    return variogram_covariance(sample, VariogramSpec(sill=sill, range_=1.0)), start


# (input, argument, stop of the joint method, stop of the baseline method)
ROWS = [
    (near_duplicate, 1e-2, CERTIFIED, CERTIFIED),
    (near_duplicate, 1e-4, CERTIFIED, CERTIFIED),
    (near_duplicate, 1e-6, STALLED, CERTIFIED),
    (near_duplicate, 1e-8, STALLED, STALLED),
    (near_duplicate, 1e-12, STALLED, STALLED),
    (near_collinear, 1e-4, CERTIFIED, CERTIFIED),
    (near_collinear, 1e-6, STALLED, CERTIFIED),
    (near_collinear, 1e-10, STALLED, CERTIFIED),
    (near_collinear, 1e-14, STALLED, STALLED),
    (small_sill, 1e-8, STALLED, STALLED),
    (small_sill, 1e-6, CERTIFIED, STALLED),
    (small_sill, 1e-4, CERTIFIED, STALLED),
    (scaled_sill, 1e-6, STALLED, STALLED),
    (scaled_sill, 1e-4, CERTIFIED, STALLED),
    (scaled_sill, 1e-2, CERTIFIED, CERTIFIED),
    (scaled_sill, 1e2, CERTIFIED, CERTIFIED),
    (scaled_sill, 1e4, CERTIFIED, CERTIFIED),
    (scaled_sill, 1e6, CERTIFIED, CERTIFIED),
]
CASES = [
    pytest.param(make, argument, method, stop, id=f"{make.__name__}-{argument:g}-{method}")
    for make, argument, joint, baseline in ROWS
    for method, stop in (("joint", joint), ("baseline", baseline))
]


@pytest.mark.parametrize("make, argument, method, stop", CASES)
def test_near_degenerate_stop(make, argument, method, stop):
    S, start = make(argument)
    result = learn(S, LearnConfig(method=method, **start))
    assert result.stop == stop
    assert result.converged is (stop == CERTIFIED)
    if stop == CERTIFIED:
        assert result.kkt_residual <= KKT_EXIT
        assert kkt_report(result, S).passed
    assert np.isfinite(result.graph.edges).all()
    if result.graph.q is not None:
        assert np.isfinite(result.graph.q).all()


@pytest.mark.parametrize("method", ["joint", "baseline"])
def test_a_failed_line_search_ends_the_run(method):
    # The first Newton round finds no acceptable point; the state is left
    # as it was, so the run ends there instead of repeating the round.
    S, start = near_collinear(1e-14)
    result = learn(S, LearnConfig(method=method, **start))
    assert (result.newton_rounds, result.failed_line_searches, result.stop) == (1, 1, STALLED)
