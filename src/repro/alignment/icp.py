"""Type-aware iterative closest point (ICP) registration.

The paper aligns all ensemble samples of a given time step to a common frame
with an ICP whose input is the particle configuration lifted to 3-D: the third
coordinate is the particle type scaled by a factor "a magnitude larger than
the diameter of the collective", so nearest-neighbour correspondences never
cross type boundaries (§5.2).  The rigid update itself acts only in the plane
— the transformation group being factored out is ``ISO+(2)``.

This implementation reproduces that construction with NumPy/SciPy:

1. find same-type nearest-neighbour correspondences (exactly equivalent to
   nearest neighbours in the lifted space once the type scale dominates),
2. solve the planar Kabsch problem for the matched pairs,
3. iterate until the correspondence set and error stabilise.

All samples of a frame are registered against the same reference, so
:meth:`TypeAwareICP.align` takes the whole stack ``(S, n, 2)`` of them and
runs every descent for all samples in **lockstep**: each iteration makes one
correspondence call and one Kabsch call over the stack.  The reference never
changes within a frame, so an iteration matches the particles of every
sample against it at once, **type by type**, by brute force over the
reference particles of that type (a type with a single particle maps to
itself without a search); the type classes are found once per call.  A
per-sample **convergence mask** freezes each sample at the iteration where
its own error improvement drops below the tolerance; later iterations only
move the samples still descending.  The multi-start rotations then run
**only for the samples whose identity-started fit missed**
``good_enough_rmse``, and **every (start angle, sample) pair descends in one
lockstep call**; the restarted fits replace a sample's fit in increasing
angle order, each only when its residual is strictly smaller.  Every
per-sample operation — nearest-neighbour ranking, Kabsch matrix products and
SVD, residual means — is the same floating-point computation a
single-sample registration makes, so a stacked result is bitwise equal to
registering each sample on its own, one descent per start angle; a single
configuration ``(n, 2)`` is the ``S = 1`` case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.alignment.correspondences import (
    assignment_correspondence,
    correspondence_distances,
    nearest_neighbor_correspondence,
    type_classes,
)
from repro.alignment.procrustes import RigidTransform, kabsch_2d

__all__ = ["ICPResult", "TypeAwareICP"]


@dataclass(frozen=True)
class ICPResult:
    """Outcome of an ICP registration.

    For a stack of sources every field carries a leading sample axis:
    ``transform`` is a stack of transforms and ``rmse``, ``n_iterations`` and
    ``converged`` are arrays.

    Attributes
    ----------
    transform:
        The fitted direct isometry mapping the source onto the target frame.
    aligned:
        The source configuration after applying ``transform``.
    correspondence:
        Final one-to-one, type-preserving permutation: ``correspondence[i]``
        is the target particle matched to source particle ``i``.
    rmse:
        Root-mean-square distance between matched pairs after alignment.
    n_iterations:
        Number of ICP iterations performed.
    converged:
        Whether the error improvement dropped below the tolerance before the
        iteration cap.
    """

    transform: RigidTransform
    aligned: np.ndarray
    correspondence: np.ndarray
    rmse: float | np.ndarray
    n_iterations: int | np.ndarray
    converged: bool | np.ndarray

    def _take(self, rows: np.ndarray, other: "ICPResult", picks: np.ndarray) -> None:
        """Overwrite stacked samples ``rows`` in place with ``other``'s samples ``picks``."""
        self.transform.rotation[rows] = other.transform.rotation[picks]
        self.transform.translation[rows] = other.transform.translation[picks]
        self.aligned[rows] = other.aligned[picks]
        self.correspondence[rows] = other.correspondence[picks]
        self.rmse[rows] = other.rmse[picks]
        self.n_iterations[rows] = other.n_iterations[picks]
        self.converged[rows] = other.converged[picks]

    def _sample(self, s: int) -> "ICPResult":
        """The single-configuration result of stacked sample ``s``."""
        return ICPResult(
            transform=RigidTransform(self.transform.rotation[s], self.transform.translation[s]),
            aligned=self.aligned[s],
            correspondence=self.correspondence[s],
            rmse=float(self.rmse[s]),
            n_iterations=int(self.n_iterations[s]),
            converged=bool(self.converged[s]),
        )


@dataclass
class TypeAwareICP:
    """Iterative closest point restricted to same-type correspondences.

    Parameters
    ----------
    max_iterations:
        Upper bound on ICP iterations.
    tolerance:
        Convergence threshold on the improvement of the RMS correspondence
        distance between consecutive iterations.  The iterations match
        nearest neighbours; the final correspondence is the one-to-one
        assignment.
    global_init_angles:
        ICP is a local optimiser; when the source is rotated far from the
        target it can converge to a poor local minimum.  If the
        identity-initialised registration does not reach
        ``good_enough_rmse`` × (target radius of gyration), the search is
        restarted from this many evenly spaced initial rotations (the
        identity start being the first of them) and the best result is kept.
        Set to 0 or 1 to disable the multi-start search.
    good_enough_rmse:
        Relative RMSE below which the identity-initialised result is accepted
        without trying further initial rotations.
    """

    max_iterations: int = 50
    tolerance: float = 1e-6
    global_init_angles: int = 4
    good_enough_rmse: float = 0.1

    def __post_init__(self) -> None:
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        if self.global_init_angles < 0:
            raise ValueError("global_init_angles must be non-negative")
        if self.good_enough_rmse < 0:
            raise ValueError("good_enough_rmse must be non-negative")

    def align(
        self,
        source: np.ndarray,
        target: np.ndarray,
        types: np.ndarray,
    ) -> ICPResult:
        """Register ``source`` onto ``target`` (``(n, 2)`` each, same type layout).

        ``source`` may also be a stack ``(S, n, 2)`` of configurations, all
        registered onto the one ``target``; the result then holds one fit per
        sample.  When a sample's identity-initialised fit is poor, additional
        registrations of that sample are started from a grid of initial
        rotations (see ``global_init_angles``) and the best is kept.
        """
        source = np.asarray(source, dtype=float)
        target = np.asarray(target, dtype=float)
        types = np.asarray(types, dtype=int)
        if target.ndim != 2 or target.shape[1] != 2 or source.shape[-2:] != target.shape or source.ndim > 3:
            raise ValueError("source must have shape (n, 2) or (S, n, 2) and target shape (n, 2)")
        if types.shape != (target.shape[0],):
            raise ValueError("types must have shape (n,)")

        stack = source if source.ndim == 3 else source[None]
        result = self._multi_start(stack, target, types, type_classes(types))
        return result if source.ndim == 3 else result._sample(0)

    def _multi_start(
        self,
        sources: np.ndarray,
        target: np.ndarray,
        types: np.ndarray,
        classes: list[np.ndarray],
    ) -> ICPResult:
        """Identity-started descent, then rotated restarts for the poorly fitted samples.

        Every (start angle, restarted sample) pair descends in one lockstep
        call; the fits then replace a sample's best in increasing angle
        order, each only when its residual is strictly smaller.
        """
        best = self._descend(sources, target, types, classes, RigidTransform.identity())
        angles = np.linspace(0.0, 2.0 * np.pi, self.global_init_angles, endpoint=False)[1:]
        if angles.size == 0:
            return best
        centered = target - target.mean(axis=0)
        scale = float(np.sqrt(np.einsum("ij,ij->i", centered, centered).mean()))
        restart = np.flatnonzero(~(best.rmse <= self.good_enough_rmse * max(scale, 1e-12)))
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
        candidates = self._descend(
            np.tile(restarted, (angles.size, 1, 1)), target, types, classes, start
        )
        for picks in np.arange(candidates.rmse.size).reshape(angles.size, restart.size):
            improved = candidates.rmse[picks] < best.rmse[restart]
            best._take(restart[improved], candidates, picks[improved])
        return best

    def _descend(
        self,
        sources: np.ndarray,
        target: np.ndarray,
        types: np.ndarray,
        classes: list[np.ndarray],
        start: RigidTransform,
    ) -> ICPResult:
        """One ICP descent of every sample of the stack from its start transform, in lockstep.

        ``classes`` is ``type_classes(types)``.  ``start`` is one transform
        for every sample or a stack of one per sample.  ``active`` lists the
        samples still descending: each iteration matches and moves only
        them, and a sample leaves it at the iteration where its error
        improvement drops below the tolerance.
        """
        rotation = np.array(np.broadcast_to(start.rotation, (len(sources), 2, 2)))
        translation = np.array(np.broadcast_to(start.translation, (len(sources), 2)))
        aligned = RigidTransform(rotation, translation).apply(sources)
        previous_error = np.full(len(sources), np.inf)
        converged = np.zeros(len(sources), dtype=bool)
        n_iterations = np.zeros(len(sources), dtype=int)
        active = np.arange(len(sources))

        for iteration in range(1, self.max_iterations + 1):
            if active.size == 0:
                break
            current = aligned[active]
            corr = nearest_neighbor_correspondence(current, target, types, classes=classes)
            step = kabsch_2d(current, target[corr])
            transform = step.compose(RigidTransform(rotation[active], translation[active]))
            current = transform.apply(sources[active])
            error = correspondence_distances(current, target, corr).mean(axis=-1)
            rotation[active] = transform.rotation
            translation[active] = transform.translation
            aligned[active] = current
            n_iterations[active] = iteration
            stopped = np.abs(previous_error[active] - error) < self.tolerance
            converged[active[stopped]] = True
            previous_error[active] = error
            active = active[~stopped]

        final_corr = assignment_correspondence(aligned, target, types, classes=classes)
        rmse = np.sqrt((correspondence_distances(aligned, target, final_corr) ** 2).mean(axis=-1))
        return ICPResult(
            transform=RigidTransform(rotation=rotation, translation=translation),
            aligned=aligned,
            correspondence=final_corr,
            rmse=rmse,
            n_iterations=n_iterations,
            converged=converged,
        )
