"""Tests for the unified worker-pool manager (repro.runtime.workers)."""

import os

import numpy as np
import pytest

from repro.runtime.workers import (
    FFT_WORKERS_ENV_VAR,
    INTERP_WORKERS_ENV_VAR,
    WORKERS_ENV_VAR,
    get_executor,
    resolve_workers,
    set_default_workers,
)
from repro.spectral.backends import _resolve_workers as resolve_fft_workers
from repro.spectral.grid import Grid
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import build_stencil_plan, execute_stencil_plan

from tests.fixtures import smooth_scalar_field


@pytest.fixture(autouse=True)
def clean_policy(monkeypatch):
    """Isolate every test from ambient env vars and the process default."""
    for var in (
        WORKERS_ENV_VAR,
        FFT_WORKERS_ENV_VAR,
        INTERP_WORKERS_ENV_VAR,
    ):
        monkeypatch.delenv(var, raising=False)
    set_default_workers(None)
    yield
    set_default_workers(None)


class TestResolution:
    def test_subsystem_defaults(self):
        assert resolve_workers("fft") == max(1, os.cpu_count() or 1)
        # threaded by default, like the FFT engines: the gather is bitwise
        # independent of its worker count
        assert resolve_workers("interp") == max(1, os.cpu_count() or 1)

    def test_shared_env_var_applies_to_every_subsystem(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert resolve_workers("fft") == 3
        assert resolve_workers("interp") == 3

    def test_io_subsystem_is_gone(self):
        with pytest.raises(ValueError, match="unknown worker subsystem"):
            resolve_workers("io")

    def test_per_subsystem_env_overrides_shared(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        monkeypatch.setenv(INTERP_WORKERS_ENV_VAR, "2")
        monkeypatch.setenv(FFT_WORKERS_ENV_VAR, "5")
        assert resolve_workers("interp") == 2
        assert resolve_workers("fft") == 5

    def test_process_default_between_shared_and_subsystem(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        set_default_workers(4)  # the CLI --workers path
        assert resolve_workers("interp") == 4
        monkeypatch.setenv(INTERP_WORKERS_ENV_VAR, "2")
        assert resolve_workers("interp") == 2

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(FFT_WORKERS_ENV_VAR, "5")
        assert resolve_workers("fft", explicit=2) == 2

    def test_explicit_counts_clamped_to_at_least_one(self):
        assert resolve_workers("fft", explicit=-3) == 1

    @pytest.mark.parametrize(
        "var", [WORKERS_ENV_VAR, INTERP_WORKERS_ENV_VAR, FFT_WORKERS_ENV_VAR]
    )
    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_non_positive_env_counts_rejected(self, monkeypatch, var, value):
        monkeypatch.setenv(var, value)
        subsystem = "fft" if var == FFT_WORKERS_ENV_VAR else "interp"
        with pytest.raises(ValueError, match=var):
            resolve_workers(subsystem)

    def test_non_integer_env_counts_rejected(self, monkeypatch):
        monkeypatch.setenv(INTERP_WORKERS_ENV_VAR, "two")
        with pytest.raises(ValueError, match=INTERP_WORKERS_ENV_VAR):
            resolve_workers("interp")

    @pytest.mark.parametrize("value", [0, -4])
    def test_non_positive_default_rejected(self, value):
        with pytest.raises(ValueError, match="workers must be a positive count"):
            set_default_workers(value)
        assert resolve_workers("interp") == max(1, os.cpu_count() or 1)

    def test_unknown_subsystem_rejected(self):
        with pytest.raises(ValueError, match="unknown worker subsystem"):
            resolve_workers("gpu")

    def test_fft_backend_resolution_is_the_runtime_policy(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        assert resolve_fft_workers(None) == 2
        monkeypatch.setenv(FFT_WORKERS_ENV_VAR, "6")
        assert resolve_fft_workers(None) == 6
        assert resolve_fft_workers(4) == 4


class TestExecutors:
    def test_executors_shared_per_width(self):
        assert get_executor(2) is get_executor(2)
        assert get_executor(2) is not get_executor(3)

    def test_executor_runs_work(self):
        results = list(get_executor(2).map(lambda x: x * x, range(8)))
        assert results == [0, 1, 4, 9, 16, 25, 36, 49]


class TestThreadedStencilExecution:
    def test_threaded_gather_bitwise_matches_serial(self):
        shape = (16, 16, 16)
        rng = np.random.default_rng(5)
        flat = rng.standard_normal(shape).reshape(1, -1)
        coords = rng.uniform(0, 16, size=(3, 30000))
        plan = build_stencil_plan(shape, coords, "catmull_rom")
        serial = execute_stencil_plan(flat, plan, workers=1)
        for workers in (2, 4):
            threaded = execute_stencil_plan(flat, plan, chunk=1024, workers=workers)
            np.testing.assert_array_equal(threaded, serial)

    def test_env_var_threads_the_interpolator(self, monkeypatch):
        """REPRO_INTERP_WORKERS threads the production gather path, bitwise."""
        grid = Grid((16, 16, 16))
        field = smooth_scalar_field(grid, seed=6)
        rng = np.random.default_rng(7)
        points = rng.uniform(0, 2 * np.pi, size=(3, 20000))
        interp = PeriodicInterpolator(grid, "catmull_rom", backend="numpy")
        serial = interp(field, points)
        monkeypatch.setenv(INTERP_WORKERS_ENV_VAR, "4")
        np.testing.assert_array_equal(interp(field, points), serial)
