"""The threaded ``map_coordinates`` gather is bitwise the seed's serial loop.

The default engine prefilters each field once and then gathers contiguous
point spans on the shared worker pool.  These tests pin it against the
seed implementation, one whole-field ``map_coordinates`` call per field,
for every worker count, batch size, kernel, field dtype and awkward point
count, and check that concurrent callers sharing the pool neither deadlock
nor write into each other's output.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest
from scipy import ndimage

from repro.runtime.workers import INTERP_WORKERS_ENV_VAR
from repro.transport.kernels import ScipyInterpolationBackend

SHAPE = (9, 10, 11)
ORDERS = {"cubic_bspline": 3, "linear": 1}

#: odd, prime, and smaller than some worker counts
POINT_COUNTS = (1, 2, 3, 97, 1001)


def _fields(batch: int, dtype, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, *SHAPE)).astype(dtype)


def _coordinates(num_points: int, seed: int) -> np.ndarray:
    """Wrapped index coordinates in ``[0, N_d)``, as the interpolator passes them."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(3, num_points)) * np.array(SHAPE, float)[:, None]


def _seed_gather(fields: np.ndarray, coordinates: np.ndarray, method: str) -> np.ndarray:
    """The seed implementation: one prefiltering call per whole field."""
    order = ORDERS[method]
    return np.stack(
        [
            ndimage.map_coordinates(field, coordinates, order=order, mode="grid-wrap")
            for field in fields
        ],
        axis=0,
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("method", sorted(ORDERS))
@pytest.mark.parametrize("batch", [1, 2, 3, 4])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_gather_is_bitwise_the_seed_loop(workers, batch, method, dtype, monkeypatch):
    monkeypatch.setenv(INTERP_WORKERS_ENV_VAR, str(workers))
    backend = ScipyInterpolationBackend()
    fields = _fields(batch, dtype, seed=batch)
    for num_points in POINT_COUNTS:
        coordinates = _coordinates(num_points, seed=num_points)
        reference = _seed_gather(fields, coordinates, method)
        got = backend.gather(fields, coordinates, None, method)
        assert got.dtype == reference.dtype == dtype
        np.testing.assert_array_equal(got, reference)


@pytest.mark.parametrize("method", sorted(ORDERS))
def test_concurrent_callers_share_the_pool_without_deadlock_or_bleed(method, monkeypatch):
    """Two threads gather at once through a pool wider than the machine."""
    workers = (os.cpu_count() or 1) + 2
    monkeypatch.setenv(INTERP_WORKERS_ENV_VAR, str(workers))
    backend = ScipyInterpolationBackend()
    jobs = [
        (_fields(3, np.float64, seed=40 + k), _coordinates(2003 + k, seed=50 + k))
        for k in range(2)
    ]
    references = [_seed_gather(fields, coords, method) for fields, coords in jobs]
    results = [[] for _ in jobs]
    errors = []

    def caller(k: int) -> None:
        fields, coords = jobs[k]
        try:
            for _ in range(8):
                results[k].append(backend.gather(fields, coords, None, method))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "concurrent gathers deadlocked"
    finally:
        sys.setswitchinterval(old_interval)
    assert not errors, errors
    for k, reference in enumerate(references):
        assert len(results[k]) == 8
        for got in results[k]:
            np.testing.assert_array_equal(got, reference)
