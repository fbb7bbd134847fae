"""Cross-module property-based tests on the core invariants of the pipeline.

These hypothesis tests stress the invariances the paper's construction relies
on: the dynamics are equivariant under the symmetry group F = ISO+(2) × S*_n,
the symmetry reduction is idempotent on already-reduced data, and the
estimators respect the invariances of the quantities they estimate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alignment.procrustes import RigidTransform
from repro.alignment.symmetry import align_snapshot, center_configurations
from repro.infotheory.ksg import ksg_multi_information
from repro.particles.engine import sparse_drift_batch
from repro.particles.forces import drift_batch
from repro.particles.types import InteractionParams

#: Per-push CI runs these at 25 examples (`-m "not slow"`); the nightly job at 400.
pytestmark = pytest.mark.fuzz


def _system(seed: int, n: int, n_types: int):
    rng = np.random.default_rng(seed)
    params = InteractionParams.random(n_types, rng=rng)
    types = rng.integers(0, n_types, size=n)
    positions = rng.uniform(-4.0, 4.0, size=(n, 2))
    return positions, types, params


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=12),
    n_types=st.integers(min_value=1, max_value=3),
    angle=st.floats(min_value=-3.1, max_value=3.1),
    tx=st.floats(min_value=-10.0, max_value=10.0),
    ty=st.floats(min_value=-10.0, max_value=10.0),
    force=st.sampled_from(["F1", "F2"]),
)
def test_drift_equivariant_under_isometries(seed, n, n_types, angle, tx, ty, force):
    """Eq. 10: the dynamics commute with every direct isometry of the plane."""
    positions, types, params = _system(seed, n, n_types)
    transform = RigidTransform.from_angle(angle, (tx, ty))
    moved = transform.apply(positions)
    drift_then_move = drift_batch(positions[None], types, params, force)[0] @ transform.rotation.T
    move_then_drift = drift_batch(moved[None], types, params, force)[0]
    np.testing.assert_allclose(move_then_drift, drift_then_move, atol=1e-8)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=4, max_value=12),
    n_types=st.integers(min_value=1, max_value=3),
    force=st.sampled_from(["F1", "F2"]),
    cutoff=st.one_of(st.none(), st.floats(min_value=1.0, max_value=6.0)),
)
def test_drift_equivariant_under_same_type_permutations(seed, n, n_types, force, cutoff):
    """Permuting same-type particles permutes the drift the same way (S*_n symmetry)."""
    positions, types, params = _system(seed, n, n_types)
    rng = np.random.default_rng(seed + 1)
    perm = np.arange(n)
    for t in range(n_types):
        idx = np.nonzero(types == t)[0]
        perm[idx] = rng.permutation(idx)
    # note: types[perm] == types, so the permuted system is the same experiment.
    permuted_drift = drift_batch(positions[perm][None], types, params, force, cutoff=cutoff)[0]
    np.testing.assert_allclose(
        permuted_drift,
        drift_batch(positions[None], types, params, force, cutoff=cutoff)[0][perm],
        atol=1e-8,
    )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=16),
    m=st.integers(min_value=1, max_value=4),
    n_types=st.integers(min_value=1, max_value=3),
    force=st.sampled_from(["F1", "F2"]),
    cutoff=st.floats(min_value=0.5, max_value=6.0),
    backend=st.sampled_from(["brute", "cell", "kdtree"]),
)
def test_sparse_engine_matches_dense_kernel(seed, n, m, n_types, force, cutoff, backend):
    """The unified engine invariant: kernel choice never changes the dynamics."""
    rng = np.random.default_rng(seed)
    params = InteractionParams.random(n_types, rng=rng)
    types = rng.integers(0, n_types, size=n)
    batch = rng.uniform(-4.0, 4.0, size=(m, n, 2))
    dense = drift_batch(batch, types, params, force, cutoff=cutoff)
    sparse = sparse_drift_batch(batch, types, params, force, cutoff, backend)
    np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-10)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=12),
    force=st.sampled_from(["F1", "F2"]),
    backend=st.sampled_from(["brute", "cell", "kdtree"]),
)
def test_sparse_drift_conserves_momentum(seed, n, force, backend):
    """Drift antisymmetry survives the sparse pair representation."""
    rng = np.random.default_rng(seed)
    params = InteractionParams.random(2, rng=rng)
    types = rng.integers(0, 2, size=n)
    batch = rng.uniform(-3.0, 3.0, size=(2, n, 2))
    drift = sparse_drift_batch(batch, types, params, force, 2.5, backend)
    np.testing.assert_allclose(drift.sum(axis=1), 0.0, atol=1e-9)


@settings(max_examples=10)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_symmetry_reduction_preserves_shape(seed):
    """The reduction only applies elements of F, so intra-sample geometry is untouched.

    A rigid motion plus a permutation leaves the multiset of pairwise
    distances of every sample invariant — if the reduced snapshot violated
    this, the pipeline would be measuring an artefact of the alignment rather
    than the shape statistics of the collective.
    """
    rng = np.random.default_rng(seed)
    types = np.array([0, 0, 0, 1, 1, 1])
    snapshot = rng.uniform(-3, 3, size=(5, types.size, 2))
    result = align_snapshot(snapshot, types, reference=0)
    from repro.particles.forces import pairwise_distance_matrix

    for m in range(snapshot.shape[0]):
        original = np.sort(pairwise_distance_matrix(snapshot[m]), axis=None)
        reduced = np.sort(pairwise_distance_matrix(result.reduced[m]), axis=None)
        np.testing.assert_allclose(reduced, original, atol=1e-8)


@settings(max_examples=10)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_centering_idempotent(seed):
    rng = np.random.default_rng(seed)
    batch = rng.normal(size=(4, 9, 2))
    once = center_configurations(batch)
    twice = center_configurations(once)
    np.testing.assert_allclose(once, twice, atol=1e-12)


@settings(max_examples=10)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    scale=st.floats(min_value=0.1, max_value=10.0),
)
def test_ksg_invariant_under_global_scaling(seed, scale):
    """Multi-information is invariant under rescaling all observers jointly."""
    rng = np.random.default_rng(seed)
    m = 150
    shared = rng.standard_normal((m, 2))
    variables = [shared + 0.5 * rng.standard_normal((m, 2)) for _ in range(3)]
    base = ksg_multi_information(variables, k=3)
    scaled = ksg_multi_information([scale * v for v in variables], k=3)
    np.testing.assert_allclose(scaled, base, atol=1e-9)


@settings(max_examples=10)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_ksg_nonnegative_in_expectation_regime(seed):
    """For strongly dependent data the estimate is clearly positive (never NaN)."""
    rng = np.random.default_rng(seed)
    m = 120
    shared = rng.standard_normal((m, 1))
    variables = [shared + 0.1 * rng.standard_normal((m, 1)) for _ in range(2)]
    value = ksg_multi_information(variables, k=3)
    assert np.isfinite(value)
    assert value > 0.5
