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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.alignment.correspondences import (
    assignment_correspondence,
    correspondence_distances,
    nearest_neighbor_correspondence,
)
from repro.alignment.procrustes import RigidTransform, kabsch_2d

__all__ = ["ICPResult", "TypeAwareICP"]


@dataclass(frozen=True)
class ICPResult:
    """Outcome of an ICP registration.

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
    rmse: float
    n_iterations: int
    converged: bool


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
        restarted from this many evenly spaced initial rotations and the best
        result is kept.  Set to 0 to disable the multi-start search.
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
        *,
        initial_transform: RigidTransform | None = None,
    ) -> ICPResult:
        """Register ``source`` onto ``target`` (both ``(n, 2)``, same type layout).

        When no ``initial_transform`` is given and the identity-initialised
        fit is poor, additional registrations are started from a grid of
        initial rotations (see ``global_init_angles``) and the best is kept.
        """
        source = np.asarray(source, dtype=float)
        target = np.asarray(target, dtype=float)
        types = np.asarray(types, dtype=int)
        if source.shape != target.shape or source.ndim != 2 or source.shape[1] != 2:
            raise ValueError("source and target must both have shape (n, 2)")
        if types.shape != (source.shape[0],):
            raise ValueError("types must have shape (n,)")

        if initial_transform is None:
            best = self._align_once(source, target, types, RigidTransform.identity())
            centered = target - target.mean(axis=0)
            scale = float(np.sqrt(np.einsum("ij,ij->i", centered, centered).mean()))
            if best.rmse <= self.good_enough_rmse * max(scale, 1e-12) or self.global_init_angles == 0:
                return best
            source_mean = source.mean(axis=0)
            target_mean = target.mean(axis=0)
            for angle in np.linspace(0.0, 2.0 * np.pi, self.global_init_angles, endpoint=False)[1:]:
                rotation_only = RigidTransform.from_angle(float(angle))
                translation = target_mean - rotation_only.rotation @ source_mean
                start = RigidTransform(rotation=rotation_only.rotation, translation=translation)
                candidate = self._align_once(source, target, types, start)
                if candidate.rmse < best.rmse:
                    best = candidate
            return best
        return self._align_once(source, target, types, initial_transform)

    def _align_once(
        self,
        source: np.ndarray,
        target: np.ndarray,
        types: np.ndarray,
        initial_transform: RigidTransform,
    ) -> ICPResult:
        """One ICP descent from a fixed initial transform."""
        transform = initial_transform
        current = transform.apply(source)
        previous_error = np.inf
        converged = False
        iterations = 0

        for iterations in range(1, self.max_iterations + 1):
            corr = nearest_neighbor_correspondence(current, target, types)
            step = kabsch_2d(current, target[corr])
            transform = step.compose(transform)
            current = transform.apply(source)
            error = float(correspondence_distances(current, target, corr).mean())
            if abs(previous_error - error) < self.tolerance:
                converged = True
                break
            previous_error = error

        final_corr = assignment_correspondence(current, target, types)
        rmse = float(np.sqrt((correspondence_distances(current, target, final_corr) ** 2).mean()))
        return ICPResult(
            transform=transform,
            aligned=current,
            correspondence=final_corr,
            rmse=rmse,
            n_iterations=iterations,
            converged=converged,
        )
