"""Tests of the memory-mapped problem I/O (:func:`repro.data.io.open_problem`).

The classic :func:`load_problem` round trip is covered in ``test_data.py``;
this module pins the memory-mapped disk format: uncompressed archives whose
volume members can be mapped in place, lazy read-only views, and the clear
errors raised for the formats that cannot be mapped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.io import load_problem, memmap_npz_member, open_problem, save_problem
from repro.spectral.grid import Grid


@pytest.fixture()
def problem_arrays(rng):
    shape = (6, 7, 8)
    reference = rng.standard_normal(shape)
    template = rng.standard_normal(shape)
    velocity = rng.standard_normal((3, *shape))
    return reference, template, velocity


@pytest.fixture()
def stored_path(tmp_path, problem_arrays):
    reference, template, velocity = problem_arrays
    return save_problem(
        tmp_path / "problem.npz",
        reference,
        template,
        grid=Grid(reference.shape, (1.0, 2.0, 3.0)),
        velocity=velocity,
        metadata={"beta": 1e-2, "iterations": 3.0},
        compress=False,
    )


class TestSaveProblemCompressFlag:
    def test_uncompressed_archive_is_larger_and_loads_identically(
        self, tmp_path, problem_arrays
    ):
        reference, template, _ = problem_arrays
        stored = save_problem(tmp_path / "s.npz", reference, template, compress=False)
        deflated = save_problem(tmp_path / "d.npz", reference, template, compress=True)
        assert stored.stat().st_size > deflated.stat().st_size
        for path in (stored, deflated):
            loaded = load_problem(path)
            np.testing.assert_array_equal(loaded["reference"], reference)
            np.testing.assert_array_equal(loaded["template"], template)


class TestMemmapNpzMember:
    def test_maps_the_exact_array(self, stored_path, problem_arrays):
        reference, _, velocity = problem_arrays
        mapped = memmap_npz_member(stored_path, "reference")
        assert isinstance(mapped, np.memmap)
        np.testing.assert_array_equal(np.asarray(mapped), reference)
        np.testing.assert_array_equal(
            np.asarray(memmap_npz_member(stored_path, "velocity")), velocity
        )

    def test_views_are_read_only(self, stored_path):
        mapped = memmap_npz_member(stored_path, "reference")
        with pytest.raises(ValueError):
            mapped[0, 0, 0] = 1.0

    def test_key_with_npy_suffix_also_accepted(self, stored_path, problem_arrays):
        np.testing.assert_array_equal(
            np.asarray(memmap_npz_member(stored_path, "reference.npy")),
            problem_arrays[0],
        )

    def test_missing_member_lists_available(self, stored_path):
        with pytest.raises(KeyError, match="reference"):
            memmap_npz_member(stored_path, "does-not-exist")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            memmap_npz_member(tmp_path / "nope.npz", "reference")

    def test_compressed_member_error_points_at_the_fix(self, tmp_path, problem_arrays):
        reference, template, _ = problem_arrays
        path = save_problem(tmp_path / "c.npz", reference, template, compress=True)
        with pytest.raises(ValueError, match="compress=False"):
            memmap_npz_member(path, "reference")

    def test_fortran_order_member_rejected(self, tmp_path):
        path = tmp_path / "fortran.npz"
        np.savez(path, fields=np.asfortranarray(np.arange(24.0).reshape(2, 3, 4)))
        with pytest.raises(ValueError, match="C-contiguous|Fortran"):
            memmap_npz_member(path, "fields")

    @pytest.mark.parametrize(
        "dtype",
        [
            np.float16,
            np.float32,
            np.float64,
            np.int8,
            np.int16,
            np.int32,
            np.int64,
            np.uint8,
            np.uint16,
            np.complex64,
            np.complex128,
            np.bool_,
            ">f8",
        ],
    )
    def test_maps_every_plain_dtype(self, tmp_path, dtype):
        """Any plain numeric member maps in place with its on-disk dtype
        (byte order included)."""
        values = (np.arange(60) % 7).reshape(3, 4, 5).astype(dtype)
        path = tmp_path / "typed.npz"
        np.savez(path, fields=values)
        mapped = memmap_npz_member(path, "fields")
        assert mapped.dtype == values.dtype
        assert mapped.shape == values.shape
        np.testing.assert_array_equal(np.asarray(mapped), values)

    @pytest.mark.parametrize("shape", [(0,), (7,), (2, 3, 4, 5)], ids=["empty", "1d", "4d"])
    def test_maps_any_rank(self, tmp_path, shape):
        values = np.arange(int(np.prod(shape)), dtype=np.float64).reshape(shape)
        path = tmp_path / "ranked.npz"
        np.savez(path, fields=values)
        mapped = memmap_npz_member(path, "fields")
        assert mapped.shape == shape
        np.testing.assert_array_equal(np.asarray(mapped), values)

    def test_maps_a_version_2_npy_header(self, tmp_path):
        """Members written with the ``.npy`` 2.0 header format map too."""
        import io
        import zipfile

        from numpy.lib import format as npy_format

        values = np.arange(24.0).reshape(2, 3, 4)
        buffer = io.BytesIO()
        npy_format.write_array(buffer, values, version=(2, 0))
        path = tmp_path / "v2.npz"
        with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as archive:
            archive.writestr("fields.npy", buffer.getvalue())
        mapped = memmap_npz_member(path, "fields")
        np.testing.assert_array_equal(np.asarray(mapped), values)

    def test_object_dtype_member_rejected(self, tmp_path):
        path = tmp_path / "obj.npz"
        np.savez(path, fields=np.array([{"a": 1}], dtype=object), allow_pickle=True)
        with pytest.raises(ValueError, match="object dtype"):
            memmap_npz_member(path, "fields")


class TestOpenProblem:
    def test_mmap_round_trip(self, stored_path, problem_arrays):
        reference, template, velocity = problem_arrays
        problem = open_problem(stored_path, mmap=True)
        assert isinstance(problem["reference"], np.memmap)
        assert isinstance(problem["template"], np.memmap)
        assert isinstance(problem["velocity"], np.memmap)
        np.testing.assert_array_equal(np.asarray(problem["reference"]), reference)
        np.testing.assert_array_equal(np.asarray(problem["template"]), template)
        np.testing.assert_array_equal(np.asarray(problem["velocity"]), velocity)
        assert problem["grid"].shape == reference.shape
        assert problem["grid"].lengths == pytest.approx((1.0, 2.0, 3.0))
        assert problem["metadata"] == {"beta": 1e-2, "iterations": 3.0}

    def test_matches_load_problem_exactly(self, stored_path):
        resident = load_problem(stored_path)
        mapped = open_problem(stored_path, mmap=True)
        for key in ("reference", "template", "velocity"):
            np.testing.assert_array_equal(np.asarray(mapped[key]), resident[key])

    def test_mmap_false_degrades_to_load_problem(self, tmp_path, problem_arrays):
        reference, template, _ = problem_arrays
        path = save_problem(tmp_path / "c.npz", reference, template, compress=True)
        problem = open_problem(path, mmap=False)
        assert not isinstance(problem["reference"], np.memmap)
        np.testing.assert_array_equal(problem["reference"], reference)

    def test_compressed_archive_raises_under_mmap(self, tmp_path, problem_arrays):
        reference, template, _ = problem_arrays
        path = save_problem(tmp_path / "c.npz", reference, template, compress=True)
        with pytest.raises(ValueError, match="compress=False"):
            open_problem(path, mmap=True)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_problem(tmp_path / "nope.npz")

    def test_without_optional_fields(self, tmp_path, problem_arrays):
        reference, template, _ = problem_arrays
        path = save_problem(tmp_path / "bare.npz", reference, template, compress=False)
        problem = open_problem(path)
        assert "velocity" not in problem
        assert "metadata" not in problem
        np.testing.assert_array_equal(np.asarray(problem["template"]), template)
