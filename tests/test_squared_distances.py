"""Bit-for-bit parity and memory of the dense kernel's squared-distance triangle.

:func:`repro.infotheory.ksg._squared_distances` builds a variable's squared
distances on the upper triangle from one ``dsyr2k`` and one ``dsyrk`` call.
Every dense k-NN estimator reads its counts from that triangle, so it must
equal the ``(sq_i + sq_j) - 2·(x @ x.T)`` formulation it replaced, kept
below verbatim as the reference, in every bit of every entry on and above
the diagonal.  The diagonal must be exactly 0.0: the k-NN of an all-NaN
sample can select the sample itself and read it.

The reference's gram runs through numpy's BLAS and the triangle through
SciPy's, two separate OpenBLAS builds; the parity holds for both at one and
at two BLAS threads.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.infotheory import ksg
from repro.infotheory.ksg import (
    _mirror_upper,
    _squared_distances,
    _triangle_counts,
    ksg_multi_information_with_diagnostics,
)

SIZES = list(range(1, 141)) + [255, 256, 257, 448, 511, 512, 513, 600]
DIMENSIONS = list(range(1, 9)) + [20, 50, 100]
KINDS = ("gauss", "grid", "duplicates", "nonfinite")
# At 1e154 the formulation's -2·g passes the largest double (BLAS would fuse it).
SCALES = (1.0, 1e150, 1e-150, 1e154)


def reference_squared_distances(samples: np.ndarray) -> np.ndarray:
    """The full-matrix formulation the triangle replaced, with numpy's gram."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    m = samples.shape[0]
    out = np.empty((m, m))
    np.matmul(samples, samples.T, out=out)
    sq = np.einsum("ij,ij->i", samples, samples)
    out *= -2.0
    out += sq[:, None] + sq[None, :]
    np.fill_diagonal(out, 0.0)
    return out


def _cloud(kind: str, m: int, d: int, scale: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((m, d))
    if kind == "grid":  # rounded coordinates: exact products, massive ties
        x = np.round(x * 4.0 / scale) * (scale / 4.0)
    elif kind == "duplicates":
        x[m // 4 : m // 2] = x[: m // 2 - m // 4]
    elif kind == "nonfinite":
        rows = rng.integers(0, m, size=max(1, m // 8))
        x[rows] = rng.choice([np.nan, np.inf, -np.inf], size=(rows.size, 1))
        x[rows[: max(1, rows.size // 2)], 0] = 1.0  # rows with finite entries beside the others
    return x


def _upper_bits(q: np.ndarray) -> np.ndarray:
    return q[np.triu_indices(q.shape[0])].view(np.int64)


def assert_triangle_parity(samples: np.ndarray) -> None:
    """The triangle equals the reference in every bit on and above the diagonal."""
    with np.errstate(invalid="ignore", over="ignore"):
        expected = reference_squared_distances(samples)
        actual = _squared_distances(samples)
    np.testing.assert_array_equal(_upper_bits(actual), _upper_bits(expected))
    assert not np.diagonal(actual).view(np.int64).any()  # +0.0 exactly


def check_thread_parity() -> None:
    """The sizes where BLAS splits its work, at whatever thread count it runs."""
    for m in (255, 256, 257, 511, 512, 513):
        for d in (1, 2, 20, 100):
            for seed, scale in enumerate(SCALES):
                assert_triangle_parity(_cloud("gauss", m, d, scale, seed))


class TestTriangleParity:
    @pytest.mark.parametrize("m", SIZES)
    def test_sizes_dimensions_and_scales(self, m):
        for d in DIMENSIONS:
            for seed, scale in enumerate(SCALES):
                assert_triangle_parity(_cloud("gauss", m, d, scale, seed + 10 * d))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [1, 2, 3, 63, 64, 65, 256, 513])
    def test_degenerate_clouds(self, kind, m):
        for d in (1, 2, 3, 8):
            for seed, scale in enumerate(SCALES):
                assert_triangle_parity(_cloud(kind, m, d, scale, seed + 10 * d))

    @pytest.mark.parametrize("m", [5, 64, 448, 512])
    def test_strided_and_fortran_ordered_samples(self, m):
        # Views of an (m, n, d) cloud (what `as_variable_list` hands the
        # kernel), every other row, and Fortran order, whose reference is
        # the formulation on the C-ordered copy the kernel works on.
        cloud = np.random.default_rng(m).standard_normal((2 * m, 6, 3))
        for i in range(6):
            assert_triangle_parity(cloud[:m, i, :])
        assert_triangle_parity(cloud[::2, 1, :])
        for fortran in (np.asfortranarray(cloud[:m, 2, :]), np.asfortranarray(cloud[:m].reshape(m, -1))):
            expected = reference_squared_distances(np.ascontiguousarray(fortran))
            np.testing.assert_array_equal(_upper_bits(_squared_distances(fortran)), _upper_bits(expected))

    @pytest.mark.parametrize("m", [7, 100, 512])
    def test_non_blas_layouts_take_the_gram_of_a_c_ordered_copy(self, m):
        # For a negative or non-unit inner stride, numpy's `x @ x.T` runs its
        # own loop, which rounds differently from BLAS.  The triangle takes
        # the gram and the row norms of a C-ordered copy.
        base = np.random.default_rng(m).standard_normal((m, 4))
        for view in (np.repeat(base, 2, axis=1)[:, ::2], np.ascontiguousarray(base[::-1])[::-1]):
            sq = np.einsum("ij,ij->i", base, base)
            expected = (sq[:, None] + sq[None, :]) + -2.0 * (base @ base.T)
            np.fill_diagonal(expected, 0.0)
            np.testing.assert_array_equal(_upper_bits(_squared_distances(view)), _upper_bits(expected))

    @pytest.mark.parametrize("m", [7, 300, 513])
    def test_memory_layout_does_not_change_the_triangle(self, m):
        # C order, Fortran order, every other row and every other column of
        # one cloud: numpy sums the row norms of the last two layouts in
        # another order for d >= 3, so the kernel must not read them there.
        for d in DIMENSIONS:
            base = np.random.default_rng(m + d).standard_normal((m, d))
            expected = _upper_bits(_squared_distances(base))
            for view in (
                np.asfortranarray(base),
                np.repeat(base, 2, axis=0)[::2],
                np.repeat(base, 2, axis=1)[:, ::2],
            ):
                np.testing.assert_array_equal(_upper_bits(_squared_distances(view)), expected)

    def test_two_blas_threads(self):
        # Each OpenBLAS reads its thread count when it loads, so the check
        # runs in a fresh interpreter.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(sys.path))
        code = "import test_squared_distances as t; t.check_thread_parity(); print('parity')"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "parity"


class TestBuffers:
    @pytest.mark.parametrize("scale", [1.0, 1e154])
    @pytest.mark.parametrize("m", [1, 2, 64, 300])
    def test_output_buffer_is_written_in_place(self, m, scale):
        samples = scale * np.random.default_rng(m).standard_normal((m, 2))
        out = np.full((m, m), np.nan)
        with np.errstate(invalid="ignore", over="ignore"):
            assert _squared_distances(samples, out) is out
            expected = reference_squared_distances(samples)
        np.testing.assert_array_equal(_upper_bits(out), _upper_bits(expected))
        assert np.isnan(out[np.tril_indices(m, -1)]).all()  # the strict lower triangle is untouched

    def test_slots_of_a_stacked_workspace(self):
        samples = np.random.default_rng(3).standard_normal((40, 2))
        work = np.zeros((3, 40, 40))
        _squared_distances(samples, work[1])
        np.testing.assert_array_equal(
            _upper_bits(work[1]), _upper_bits(reference_squared_distances(samples))
        )
        assert not work[[0, 2]].any()

    @pytest.mark.parametrize(
        "out",
        [np.zeros((8, 8), order="F"), np.zeros((8, 16))[:, ::2], np.zeros((8, 8), np.float32), np.zeros((7, 7))],
        ids=["fortran", "strided", "float32", "wrong-shape"],
    )
    def test_a_buffer_blas_would_copy_is_refused(self, out):
        samples = np.random.default_rng(0).standard_normal((8, 2))
        with pytest.raises(ValueError, match="C-contiguous"):
            _squared_distances(samples, out)


class TestTriangleReaders:
    @pytest.mark.parametrize("budget", [1, 100, 1000, 12289, ksg.KSG_BLOCK_ELEMENTS, 1 << 20])
    @pytest.mark.parametrize("m", [1, 2, 33, 130, 300])
    def test_counts_and_mirror_read_only_the_upper_triangle(self, budget, m):
        # A stack of triangles whose strict lower parts hold NaN, ±inf and 0.
        # At m = 300 a 2^20 budget asks for more rows than a uint8 column
        # count holds, and every fifth column's bound is +inf.
        rng = np.random.default_rng(m)
        clouds = [rng.integers(0, 3, size=(m, 2)).astype(float) for _ in range(4)]  # ties
        expected = np.stack([reference_squared_distances(x) for x in clouds])
        bound = expected[:, np.arange(m), rng.integers(0, m, size=m)]  # every bound is some q
        bound[:, ::5] = np.resize([np.nan, np.inf, -1.0, 0.0], bound[:, ::5].shape)
        full_rows = np.count_nonzero(expected <= bound[:, :, None], axis=2) - (bound >= 0)
        q = np.stack([np.full((m, m), lower) for lower in (np.nan, -np.inf, np.inf, 0.0)])
        for samples, slot in zip(clouds, q):
            _squared_distances(samples, slot)
        with mock.patch.object(ksg, "KSG_BLOCK_ELEMENTS", budget):
            counts = _triangle_counts(q, bound)
            assert counts.dtype == full_rows.dtype
            np.testing.assert_array_equal(counts, full_rows)
            for slot, want in zip(q, expected):
                np.testing.assert_array_equal(_mirror_upper(slot).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("variant", ["ksg1", "ksg2", "paper"])
def test_dense_multi_information_peaks_below_four_matrices(variant):
    # Each variable's triangle is built twice, one at a time, into a small
    # scratch instead of being kept: the joint maximum, the k-NN's copy of it
    # and its rank table are the most that is ever alive at once.  Keeping
    # every variable's squared distances took more than 20 matrices here.
    m, n_vars = 256, 20
    rng = np.random.default_rng(4)
    blocks = [rng.standard_normal((m, 2)) for _ in range(n_vars)]
    matrix_bytes = m * m * 8
    ksg_multi_information_with_diagnostics(blocks, 4, variant=variant, backend="dense")  # warm caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ksg_multi_information_with_diagnostics(blocks, 4, variant=variant, backend="dense")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * matrix_bytes, peak / matrix_bytes
