"""Unit tests: mpi4py-style buffer-specification parsing."""

import numpy as np
import pytest

from repro.mpi import MPI
from repro.mpi.buffers import parse_buffer, parse_vector_buffer
from repro.mpi.errors import InvalidCountError

pytestmark = pytest.mark.usefixtures("mpi_backend")


class TestParseBuffer:
    def test_bare_array(self):
        arr = np.arange(10, dtype="i")
        spec = parse_buffer(arr)
        assert spec.count == 10
        assert spec.datatype == MPI.INT
        assert spec.nbytes == 40

    def test_list_with_datatype(self):
        arr = np.arange(10, dtype="d")
        spec = parse_buffer([arr, MPI.DOUBLE])
        assert spec.count == 10
        assert spec.datatype == MPI.DOUBLE

    def test_count_inferred_from_byte_size(self):
        # [data, TYPE]: count = nbytes / extent, per the mpi4py tutorial.
        arr = np.zeros(4, dtype="i8")  # 32 bytes
        spec = parse_buffer([arr, MPI.INT])  # 4-byte elements
        assert spec.count == 8

    def test_explicit_count(self):
        arr = np.arange(10, dtype="i")
        spec = parse_buffer([arr, 6, MPI.INT])
        assert spec.count == 6
        np.testing.assert_array_equal(spec.data(), np.arange(6))

    def test_count_and_type_any_order(self):
        arr = np.arange(10, dtype="i")
        assert parse_buffer([arr, MPI.INT, 6]).count == 6

    def test_count_exceeding_capacity_raises(self):
        arr = np.arange(4, dtype="i")
        with pytest.raises(InvalidCountError):
            parse_buffer([arr, 5, MPI.INT])

    def test_duplicate_datatype_raises(self):
        arr = np.arange(4, dtype="i")
        with pytest.raises(ValueError, match="duplicate datatype"):
            parse_buffer([arr, MPI.INT, MPI.INT])

    def test_duplicate_count_raises(self):
        arr = np.arange(4, dtype="i")
        with pytest.raises(ValueError, match="duplicate count"):
            parse_buffer([arr, 2, 3])

    def test_object_dtype_rejected(self):
        with pytest.raises(TypeError, match="dtype=object"):
            parse_buffer(np.array([{"a": 1}]))

    def test_multidimensional_array_flattened(self):
        arr = np.zeros((4, 5), dtype="d")
        spec = parse_buffer(arr)
        assert spec.count == 20

    def test_noncontiguous_rejected(self):
        arr = np.zeros((6, 6), dtype="d")[::2, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            parse_buffer(arr)

    def test_fill_writes_through_to_caller(self):
        arr = np.zeros(5, dtype="d")
        spec = parse_buffer(arr)
        spec.fill(np.arange(5.0))
        np.testing.assert_array_equal(arr, np.arange(5.0))

    def test_fill_overflow_raises(self):
        spec = parse_buffer(np.zeros(3, dtype="d"))
        with pytest.raises(InvalidCountError):
            spec.fill(np.arange(4.0))

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            parse_buffer([])


class TestParseVectorBuffer:
    def test_counts_and_displs(self):
        arr = np.arange(10, dtype="i")
        spec = parse_vector_buffer([arr, [2, 3], [0, 5], MPI.INT], size=2)
        assert spec.counts == (2, 3)
        assert spec.displs == (0, 5)

    def test_default_packed_displacements(self):
        arr = np.arange(10, dtype="i")
        spec = parse_vector_buffer([arr, [4, 6]], size=2)
        assert spec.displs == (0, 4)

    def test_wrong_counts_length_raises(self):
        arr = np.arange(10, dtype="i")
        with pytest.raises(InvalidCountError, match="counts has"):
            parse_vector_buffer([arr, [5, 5, 5]], size=2)

    def test_negative_count_raises(self):
        arr = np.arange(10, dtype="i")
        with pytest.raises(InvalidCountError, match="non-negative"):
            parse_vector_buffer([arr, [-1, 3]], size=2)

    def test_segment_overflow_raises(self):
        arr = np.arange(4, dtype="i")
        with pytest.raises(InvalidCountError, match="exceeds buffer"):
            parse_vector_buffer([arr, [2, 3], [0, 2]], size=2)

    def test_zero_counts_allowed(self):
        arr = np.arange(4, dtype="i")
        spec = parse_vector_buffer([arr, [0, 4]], size=2)
        assert spec.counts == (0, 4)
