"""Bitwise parity of the lockstep ICP with the per-sample registration loop.

``TypeAwareICP.align`` registers a whole stack of samples in lockstep and
``align_snapshot`` makes one call per frame.  Stored results depend on every
bit of the reduced coordinates, so the stacked code must reproduce the
per-sample loop exactly.  The reference below is that loop, kept verbatim
apart from its input checks: one ``cKDTree`` per type per sample per
iteration, one Kabsch solve per sample, and the restarts per sample, one
descent per start angle.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import asdict, dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

from repro.alignment import correspondences
from repro.alignment import icp as icp_module
from repro.alignment.correspondences import type_classes
from repro.alignment.icp import ICPResult, TypeAwareICP
from repro.alignment.procrustes import RigidTransform
from repro.alignment.symmetry import align_snapshot, center_configurations, select_reference
from repro.core.experiments import fig4_multi_information
from repro.core.pipeline import run_simulation_only


# --- The per-sample reference implementation -------------------------------


@dataclass(frozen=True)
class _LoopTransform:
    rotation: np.ndarray
    translation: np.ndarray

    def apply(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation

    def compose(self, other: "_LoopTransform") -> "_LoopTransform":
        return _LoopTransform(
            rotation=self.rotation @ other.rotation,
            translation=self.rotation @ other.translation + self.translation,
        )

    @classmethod
    def identity(cls) -> "_LoopTransform":
        return cls(rotation=np.eye(2), translation=np.zeros(2))

    @classmethod
    def from_angle(cls, angle: float) -> "_LoopTransform":
        c, s = np.cos(angle), np.sin(angle)
        return cls(rotation=np.array([[c, -s], [s, c]]), translation=np.zeros(2))


def _loop_nearest(source, target, types):
    corr = np.empty(source.shape[0], dtype=int)
    for type_id in np.unique(types):
        idx = np.nonzero(types == type_id)[0]
        tree = cKDTree(target[idx])
        _dist, local = tree.query(source[idx], k=1)
        corr[idx] = idx[np.atleast_1d(local)]
    return corr


def _loop_assignment(source, target, types):
    perm = np.empty(source.shape[0], dtype=int)
    for type_id in np.unique(types):
        idx = np.nonzero(types == type_id)[0]
        delta = source[idx][:, None, :] - target[idx][None, :, :]
        cost = np.einsum("ijk,ijk->ij", delta, delta)
        rows, cols = linear_sum_assignment(cost)
        perm[idx[rows]] = idx[cols]
    return perm


def _loop_distances(source, target, correspondence):
    delta = source - target[correspondence]
    return np.sqrt(np.einsum("ij,ij->i", delta, delta))


def _loop_kabsch(source, target):
    n = source.shape[0]
    if n == 0:
        return _LoopTransform.identity()
    w = np.ones(n) / n

    source_mean = w @ source
    target_mean = w @ target
    source_centered = source - source_mean
    target_centered = target - target_mean

    cross = (source_centered * w[:, None]).T @ target_centered
    u, _singular, vt = np.linalg.svd(cross)
    det = np.linalg.det(vt.T @ u.T)
    correction = np.diag([1.0, np.sign(det) if det != 0 else 1.0])
    rotation = vt.T @ correction @ u.T
    translation = target_mean - rotation @ source_mean
    return _LoopTransform(rotation=rotation, translation=translation)


@dataclass(frozen=True)
class _LoopResult:
    transform: _LoopTransform
    aligned: np.ndarray
    correspondence: np.ndarray
    rmse: float
    n_iterations: int
    converged: bool


@dataclass
class _LoopICP:
    max_iterations: int = 50
    tolerance: float = 1e-6
    global_init_angles: int = 4
    good_enough_rmse: float = 0.1

    def align(self, source, target, types):
        source = np.asarray(source, dtype=float)
        target = np.asarray(target, dtype=float)
        types = np.asarray(types, dtype=int)
        best = self._align_once(source, target, types, _LoopTransform.identity())
        centered = target - target.mean(axis=0)
        scale = float(np.sqrt(np.einsum("ij,ij->i", centered, centered).mean()))
        if best.rmse <= self.good_enough_rmse * max(scale, 1e-12) or self.global_init_angles == 0:
            return best
        source_mean = source.mean(axis=0)
        target_mean = target.mean(axis=0)
        for angle in np.linspace(0.0, 2.0 * np.pi, self.global_init_angles, endpoint=False)[1:]:
            rotation_only = _LoopTransform.from_angle(float(angle))
            translation = target_mean - rotation_only.rotation @ source_mean
            start = _LoopTransform(rotation=rotation_only.rotation, translation=translation)
            candidate = self._align_once(source, target, types, start)
            if candidate.rmse < best.rmse:
                best = candidate
        return best

    def _align_once(self, source, target, types, initial_transform):
        transform = initial_transform
        current = transform.apply(source)
        previous_error = np.inf
        converged = False
        iterations = 0

        for iterations in range(1, self.max_iterations + 1):
            corr = _loop_nearest(current, target, types)
            step = _loop_kabsch(current, target[corr])
            transform = step.compose(transform)
            current = transform.apply(source)
            error = float(_loop_distances(current, target, corr).mean())
            if abs(previous_error - error) < self.tolerance:
                converged = True
                break
            previous_error = error

        final_corr = _loop_assignment(current, target, types)
        rmse = float(np.sqrt((_loop_distances(current, target, final_corr) ** 2).mean()))
        return _LoopResult(
            transform=transform,
            aligned=current,
            correspondence=final_corr,
            rmse=rmse,
            n_iterations=iterations,
            converged=converged,
        )


def _loop_align_snapshot(snapshot, types, icp, reference=None):
    samples = center_configurations(snapshot)
    if reference is None:
        reference = select_reference(samples)
    if isinstance(reference, (int, np.integer)):
        reference_index = int(reference)
        reference_config = samples[reference_index]
    else:
        reference_index = -1
        reference_config = center_configurations(np.asarray(reference, dtype=float))
    reduced = np.empty_like(samples)
    rmse = np.empty(snapshot.shape[0])
    for m in range(snapshot.shape[0]):
        if m == reference_index:
            reduced[m] = reference_config
            rmse[m] = 0.0
            continue
        result = icp.align(samples[m], reference_config, types)
        reduced[m, result.correspondence] = result.aligned
        rmse[m] = result.rmse
    return reduced, rmse, reference_index


# --- Helpers ----------------------------------------------------------------


def _frame(rng, counts, n_samples, *, jitter=0.05, near=0, near_angle=0.3):
    """A frame of ``n_samples`` configurations with type layout ``counts``.

    The first ``near`` samples are small rotations (at most ``near_angle``)
    plus jitter of one base shape, so they pass ``good_enough_rmse`` from
    the identity start; the rest are independent random shapes, so they
    need the rotated restarts.
    """
    types = np.repeat(np.arange(len(counts)), counts)
    base = rng.uniform(-3.0, 3.0, size=(types.size, 2))
    snapshot = np.empty((n_samples, types.size, 2))
    for m in range(n_samples):
        if m < near:
            angle = rng.uniform(-near_angle, near_angle)
            c, s = np.cos(angle), np.sin(angle)
            shape = base @ np.array([[c, -s], [s, c]]).T
        else:
            shape = rng.uniform(-3.0, 3.0, size=(types.size, 2))
        perm = np.arange(types.size)
        for t in range(len(counts)):
            idx = np.nonzero(types == t)[0]
            perm[idx] = rng.permutation(idx)
        snapshot[m] = shape[perm] + rng.uniform(-5.0, 5.0, size=2) + jitter * rng.standard_normal((types.size, 2))
    return snapshot, types


def _assert_icp_parity(icp: TypeAwareICP, stack, target, types):
    """The stacked registration equals the per-sample loop field by field."""
    stacked = icp.align(stack, target, types)
    loop = [_LoopICP(**asdict(icp)).align(source, target, types) for source in stack]
    n = target.shape[0]
    np.testing.assert_array_equal(stacked.aligned, np.array([r.aligned for r in loop]).reshape(-1, n, 2))
    np.testing.assert_array_equal(stacked.correspondence, np.array([r.correspondence for r in loop], dtype=int).reshape(-1, n))
    np.testing.assert_array_equal(stacked.rmse, np.array([r.rmse for r in loop]))
    np.testing.assert_array_equal(stacked.n_iterations, np.array([r.n_iterations for r in loop], dtype=int))
    np.testing.assert_array_equal(stacked.converged, np.array([r.converged for r in loop], dtype=bool))
    np.testing.assert_array_equal(stacked.transform.rotation, np.array([r.transform.rotation for r in loop]).reshape(-1, 2, 2))
    np.testing.assert_array_equal(stacked.transform.translation, np.array([r.transform.translation for r in loop]).reshape(-1, 2))
    return stacked, loop


def _assert_snapshot_parity(snapshot, types, icp, reference=None):
    result = align_snapshot(snapshot, types, icp=icp, reference=reference)
    reduced, rmse, reference_index = _loop_align_snapshot(snapshot, types, _LoopICP(**asdict(icp)), reference)
    np.testing.assert_array_equal(result.reduced, reduced)
    np.testing.assert_array_equal(result.rmse, rmse)
    assert result.reference_index == reference_index
    return result


def _stack_and_reference(snapshot, types):
    samples = center_configurations(snapshot)
    reference = select_reference(samples)
    return np.delete(samples, reference, axis=0), samples[reference]


# --- Parity ----------------------------------------------------------------


class TestLockstepParity:
    def test_fig4_like_three_types(self, rng):
        snapshot, types = _frame(rng, (17, 17, 16), 8, near=2)
        icp = TypeAwareICP(max_iterations=30, tolerance=1e-5)
        _assert_icp_parity(icp, *_stack_and_reference(snapshot, types), types)
        _assert_snapshot_parity(snapshot, types, icp)

    def test_fig9_like_singleton_types(self, rng):
        snapshot, types = _frame(rng, (1,) * 20, 8)
        icp = TypeAwareICP(max_iterations=30, tolerance=1e-5)
        _assert_icp_parity(icp, *_stack_and_reference(snapshot, types), types)
        _assert_snapshot_parity(snapshot, types, icp)

    def test_iteration_cap_stops_samples_unconverged(self, rng):
        snapshot, types = _frame(rng, (6, 6), 10, near=4, jitter=0.0)
        icp = TypeAwareICP(max_iterations=2)
        stacked, _loop = _assert_icp_parity(icp, *_stack_and_reference(snapshot, types), types)
        assert stacked.converged.any() and not stacked.converged.all()
        _assert_snapshot_parity(snapshot, types, icp)

    def test_samples_freeze_at_different_iterations(self, rng):
        snapshot, types = _frame(rng, (17, 17, 16), 10, near=4, jitter=0.3)
        icp = TypeAwareICP(max_iterations=5, tolerance=1e-9)
        stacked, _loop = _assert_icp_parity(icp, *_stack_and_reference(snapshot, types), types)
        assert len(set(stacked.n_iterations.tolist())) > 1
        assert not stacked.converged.all()
        _assert_snapshot_parity(snapshot, types, icp)

    def test_some_samples_restart_and_others_do_not(self, rng):
        snapshot, types = _frame(rng, (5, 5, 4), 9, near=4, jitter=0.01)
        stack, reference = _stack_and_reference(snapshot, types)
        first_fit = _LoopICP(global_init_angles=0)
        centered = reference - reference.mean(axis=0)
        threshold = 0.1 * np.sqrt(np.einsum("ij,ij->i", centered, centered).mean())
        passes = np.array([first_fit.align(source, reference, types).rmse <= threshold for source in stack])
        assert passes.any() and not passes.all()
        _assert_icp_parity(TypeAwareICP(), stack, reference, types)
        _assert_snapshot_parity(snapshot, types, TypeAwareICP())

    @pytest.mark.parametrize("counts", [(17, 17, 16), (1,) * 20])
    def test_type_classes_are_found_once_per_registration(self, rng, counts):
        # A frame's type layout never changes, so every descent and restart
        # of one align() call shares one type_classes() result.
        snapshot, types = _frame(rng, counts, 6)
        stack, reference = _stack_and_reference(snapshot, types)
        real = correspondences.type_classes
        found = []

        def counted(caller):
            def type_classes(layout):
                found.append(caller)
                return real(layout)

            return type_classes

        with mock.patch.object(icp_module, "type_classes", counted("icp")), mock.patch.object(
            correspondences, "type_classes", counted("search")
        ):
            stacked, _ = _assert_icp_parity(TypeAwareICP(), stack, reference, types)
        assert (stacked.n_iterations > 1).any()
        assert found == ["icp"]

    def test_without_restarts(self, rng):
        snapshot, types = _frame(rng, (5, 5, 4), 8)
        icp = TypeAwareICP(global_init_angles=0)
        _assert_icp_parity(icp, *_stack_and_reference(snapshot, types), types)
        _assert_snapshot_parity(snapshot, types, icp)

    @pytest.mark.parametrize("angles", [1, 2, 3, 8])
    def test_restart_angle_counts(self, rng, angles):
        # One start angle leaves no rotated start: nothing restarts.
        snapshot, types = _frame(rng, (5, 5, 4), 9, near=3)
        icp = TypeAwareICP(global_init_angles=angles)
        _assert_icp_parity(icp, *_stack_and_reference(snapshot, types), types)
        _assert_snapshot_parity(snapshot, types, icp)

    def test_every_sample_restarts_without_a_good_enough_threshold(self, rng):
        snapshot, types = _frame(rng, (5, 5, 4), 9, near=4, jitter=0.01)
        icp = TypeAwareICP(good_enough_rmse=0.0)
        _assert_icp_parity(icp, *_stack_and_reference(snapshot, types), types)
        _assert_snapshot_parity(snapshot, types, icp)

    def test_explicit_reference_configuration(self, rng):
        snapshot, types = _frame(rng, (4, 4), 6, near=3)
        reference = snapshot[2] + 0.1 * rng.standard_normal(snapshot[2].shape)
        result = _assert_snapshot_parity(snapshot, types, TypeAwareICP(), reference=reference)
        assert result.reference_index == -1

    def test_single_sample_frame_is_an_empty_stack(self, rng):
        snapshot, types = _frame(rng, (4, 3), 1)
        result = _assert_snapshot_parity(snapshot, types, TypeAwareICP())
        np.testing.assert_array_equal(result.rmse, [0.0])
        empty = TypeAwareICP().align(np.empty((0, types.size, 2)), snapshot[0], types)
        assert empty.aligned.shape == (0, types.size, 2)
        assert empty.correspondence.shape == (0, types.size)
        assert empty.rmse.shape == empty.n_iterations.shape == empty.converged.shape == (0,)

    def test_duplicated_reference_points_break_ties_identically(self, rng):
        snapshot, types = _frame(rng, (6, 6), 8, near=3)
        # Exact duplicates of same-type particles in the reference: nearest
        # neighbour and assignment both face ties that must resolve alike.
        snapshot[0, 1] = snapshot[0, 0]
        snapshot[0, 3] = snapshot[0, 0]
        snapshot[0, 7] = snapshot[0, 8]
        samples = center_configurations(snapshot)
        _assert_icp_parity(TypeAwareICP(), samples[1:], samples[0], types)
        _assert_snapshot_parity(snapshot, types, TypeAwareICP(), reference=0)

    def test_single_configuration_is_the_one_sample_stack(self, rng):
        snapshot, types = _frame(rng, (5, 5), 3)
        icp = TypeAwareICP()
        single = icp.align(snapshot[1], snapshot[0], types)
        stacked = icp.align(snapshot[1:2], snapshot[0], types)
        loop = _LoopICP().align(snapshot[1], snapshot[0], types)
        np.testing.assert_array_equal(single.aligned, stacked.aligned[0])
        np.testing.assert_array_equal(single.aligned, loop.aligned)
        np.testing.assert_array_equal(single.transform.rotation, loop.transform.rotation)
        assert (single.rmse, single.n_iterations, single.converged) == (loop.rmse, loop.n_iterations, loop.converged)
        assert isinstance(single.rmse, float) and isinstance(single.n_iterations, int)


@pytest.mark.slow
def test_final_fig4_frame_matches_the_per_sample_loop():
    """The last frame of a quick fig4 ensemble (seed 1) under the analysis' ICP.

    Its samples stop at iterations 6 to 19 of the identity-started descent
    and every one of them restarts, which synthetic frames rarely combine.
    """
    spec = fig4_multi_information(full=False, seed=1)
    ensemble, _simulator = run_simulation_only(spec.simulation, spec.n_samples, seed=spec.seed)
    snapshot, types = ensemble.snapshot(ensemble.n_steps - 1), ensemble.types
    icp = spec.analysis.icp()
    stack, reference = _stack_and_reference(snapshot, types)
    first_fit = TypeAwareICP(**{**asdict(icp), "global_init_angles": 0}).align(stack, reference, types)
    centered = reference - reference.mean(axis=0)
    threshold = icp.good_enough_rmse * np.sqrt(np.einsum("ij,ij->i", centered, centered).mean())
    assert (first_fit.rmse > threshold).all()
    assert len(set(first_fit.n_iterations.tolist())) > 5
    _assert_snapshot_parity(snapshot, types, icp)


# --- The rotated restarts in blocks of angles -------------------------------


def _one_descent_multi_start(icp: TypeAwareICP, sources, target, types) -> ICPResult:
    """Every (start angle, restarted sample) pair in one lockstep descent.

    The restarts as they ran before they were cut into blocks of angles,
    kept verbatim on the ICP's own ``_descend``.
    """
    classes = type_classes(types)
    best = icp._descend(sources, target, types, classes, RigidTransform.identity())
    angles = np.linspace(0.0, 2.0 * np.pi, icp.global_init_angles, endpoint=False)[1:]
    if angles.size == 0:
        return best
    centered = target - target.mean(axis=0)
    scale = float(np.sqrt(np.einsum("ij,ij->i", centered, centered).mean()))
    restart = np.flatnonzero(~(best.rmse <= icp.good_enough_rmse * max(scale, 1e-12)))
    if restart.size == 0:
        return best
    restarted = sources[restart]
    source_mean = restarted.mean(axis=1)
    target_mean = target.mean(axis=0)
    rotations = [RigidTransform.from_angle(float(angle)).rotation for angle in angles]
    start = RigidTransform(
        rotation=np.repeat(rotations, restart.size, axis=0),
        translation=np.concatenate(
            [target_mean - (rotation @ source_mean[..., None])[..., 0] for rotation in rotations]
        ),
    )
    candidates = icp._descend(
        np.tile(restarted, (angles.size, 1, 1)), target, types, classes, start
    )
    for picks in np.arange(candidates.rmse.size).reshape(angles.size, restart.size):
        improved = candidates.rmse[picks] < best.rmse[restart]
        best._take(restart[improved], candidates, picks[improved])
    return best


def _assert_same_fits(actual: ICPResult, expected: ICPResult) -> None:
    for field in ("aligned", "correspondence", "rmse", "n_iterations", "converged"):
        assert getattr(actual, field).tobytes() == getattr(expected, field).tobytes(), field
    assert actual.transform.rotation.tobytes() == expected.transform.rotation.tobytes()
    assert actual.transform.translation.tobytes() == expected.transform.translation.tobytes()


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRestartBlocks:
    @pytest.mark.parametrize("angles", [2, 3, 5, 16, 64])
    @pytest.mark.parametrize("per_block", [1, 3, 5, None])
    @pytest.mark.parametrize("good_enough_rmse", [0.0, 0.1])
    def test_blocks_of_angles_match_one_descent(self, rng, angles, per_block, good_enough_rmse):
        # good_enough_rmse 0 restarts every sample; 0.1 (the default) lets
        # the four near samples keep their identity-started fits.
        snapshot, types = _frame(rng, (5, 5, 4), 10, near=4, jitter=0.01)
        stack, target = _stack_and_reference(snapshot, types)
        icp = TypeAwareICP(global_init_angles=angles, good_enough_rmse=good_enough_rmse)
        expected = _one_descent_multi_start(icp, stack, target, types)
        restarted = len(stack) if good_enough_rmse == 0.0 else None
        budget = icp_module.RESTART_BLOCK_ELEMENTS
        if per_block is not None:
            # per_block angles of every sample (of the restarted ones, at
            # most), so the last block of angles is ragged.
            budget = per_block * stack[..., 0].size
        descents = []
        descend = icp._descend
        with mock.patch.object(icp_module, "RESTART_BLOCK_ELEMENTS", budget), mock.patch.object(
            icp, "_descend", lambda *args: descents.append(len(args[0])) or descend(*args)
        ):
            actual = icp.align(stack, target, types)
        _assert_same_fits(actual, expected)
        if restarted is not None:
            per_call = (angles - 1) if per_block is None else min(per_block, angles - 1)
            assert descents == [restarted] + [
                restarted * min(per_call, angles - 1 - first)
                for first in range(0, angles - 1, per_call)
            ]

    def test_the_peak_does_not_grow_with_the_angle_count(self, rng):
        # 40 sources of 20 particles, every one restarted, seven angles per
        # descent: 64 angles peak like 8, and far below the one descent of
        # all 63 rotated starts, whose final assignment alone builds a
        # (2520, 10, 10, 2) displacement block (4 MB).
        snapshot, types = _frame(rng, (10, 10), 41)
        stack, target = _stack_and_reference(snapshot, types)
        eight, many = (
            TypeAwareICP(global_init_angles=angles, good_enough_rmse=0.0) for angles in (8, 64)
        )
        with mock.patch.object(icp_module, "RESTART_BLOCK_ELEMENTS", 7 * stack[..., 0].size):
            peak_eight = _traced_peak(lambda: eight.align(stack, target, types))
            peak_many = _traced_peak(lambda: many.align(stack, target, types))
        one_descent = _traced_peak(lambda: _one_descent_multi_start(many, stack, target, types))
        assert peak_many < 1.25 * peak_eight
        assert peak_many < one_descent / 4

    def test_the_default_budget_keeps_the_quick_units_at_one_restart_descent(self):
        # 63 restarted samples of fig4's 50 particles, or of fig9's 20, and
        # the default three rotated starts: one descent, as before blocks.
        for n in (50, 20):
            assert icp_module.RESTART_BLOCK_ELEMENTS // (63 * n) >= 3


@pytest.mark.fuzz
@given(
    counts=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
    n_samples=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    near=st.integers(min_value=0, max_value=6),
    max_iterations=st.sampled_from([1, 3, 30]),
    angles=st.integers(min_value=0, max_value=8),
)
def test_lockstep_matches_the_per_sample_loop(counts, n_samples, seed, near, max_iterations, angles):
    rng = np.random.default_rng(seed)
    snapshot, types = _frame(rng, tuple(counts), n_samples, near=near)
    icp = TypeAwareICP(max_iterations=max_iterations, tolerance=1e-5, global_init_angles=angles)
    _assert_icp_parity(icp, *_stack_and_reference(snapshot, types), types)
    _assert_snapshot_parity(snapshot, types, icp)
