"""Shared fixtures-by-function for the test suite: seeded instance generators."""
from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np

import covgraph.solver
from covgraph import CovarianceMatrix


@contextmanager
def batched_path(size=4):
    """Solver states built inside the block take the batched update path
    at any n and flush every ``size`` updates, so flushes land mid-sweep."""
    with mock.patch.multiple(covgraph.solver, _MIN_BATCH_N=1, _BATCH_SIZE=size):
        yield


def kernel_spd_covariance(n, seed, sill_low=20.0, sill_high=60.0):
    """Random SPD covariance with strictly positive off-diagonals.

    Exponential kernel of random planar locations, scaled by random
    per-variable standard deviations. Always SPD, always positive entries,
    and exactly symmetric by construction. Variances default to the same
    order as the spatial benchmark (sill ~10+); the absolute stationarity
    tolerances of the acceptance suite are calibrated to that scale.
    """
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    corr = np.exp(-dist / 0.8)
    scale = np.sqrt(rng.uniform(sill_low, sill_high, size=n))
    S = corr * np.outer(scale, scale)
    S = (S + S.T) / 2.0
    return CovarianceMatrix(entries=S)


def mixed_sign_spd_covariance(n, seed, shift=0.5):
    """Random SPD covariance containing nonpositive off-diagonal entries."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, 2 * n))
    S = A @ A.T / (2 * n) + shift * np.eye(n)
    S = (S + S.T) / 2.0
    assert np.any(S[~np.eye(n, dtype=bool)] <= 0), "generator must produce nonpositive entries"
    return CovarianceMatrix(entries=S)


def edge_weight_map(graph):
    return {(i, j): w for i, j, w in graph.edges}


def pair_list(pairs):
    """A pair set ``(idx_i, idx_j)`` as a list of (i, j) tuples of ints, the
    form the loop oracles take and return."""
    idx_i, idx_j = pairs
    return list(zip(idx_i.tolist(), idx_j.tolist()))


def assert_pair_set(pairs, expected):
    """``pairs`` is a pair set, two 1-D int arrays of endpoints, that holds
    the (i, j) tuples of ``expected`` in their order."""
    idx_i, idx_j = pairs
    assert idx_i.ndim == idx_j.ndim == 1
    assert idx_i.dtype.kind == idx_j.dtype.kind == "i"
    assert pair_list(pairs) == list(expected)
