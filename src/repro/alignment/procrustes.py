"""Rigid (rotation + translation) alignment of 2-D point sets.

This is the inner solver of the ICP loop: given two point sets that are
already in correspondence, find the direct isometry (element of ``ISO+(2)``,
i.e. rotation and translation but no reflection) that minimises the summed
squared distance.  The optimal rotation follows from the Kabsch/Procrustes
construction via the SVD of the 2×2 cross-covariance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RigidTransform", "kabsch_2d"]


@dataclass(frozen=True)
class RigidTransform:
    """A direct planar isometry ``x ↦ R x + t`` with ``det(R) = +1``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        rotation = np.asarray(self.rotation, dtype=float)
        translation = np.asarray(self.translation, dtype=float)
        if rotation.shape != (2, 2):
            raise ValueError("rotation must be a 2x2 matrix")
        if translation.shape != (2,):
            raise ValueError("translation must be a length-2 vector")
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    @property
    def angle(self) -> float:
        """Rotation angle in radians, in ``(-pi, pi]``."""
        return float(np.arctan2(self.rotation[1, 0], self.rotation[0, 0]))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply the transform to points of shape ``(..., 2)``."""
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return the transform equivalent to applying ``other`` first, then ``self``."""
        return RigidTransform(
            rotation=self.rotation @ other.rotation,
            translation=self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        """The inverse isometry."""
        rot_inv = self.rotation.T
        return RigidTransform(rotation=rot_inv, translation=-rot_inv @ self.translation)

    @classmethod
    def identity(cls) -> "RigidTransform":
        """The identity transform."""
        return cls(rotation=np.eye(2), translation=np.zeros(2))

    @classmethod
    def from_angle(cls, angle: float, translation: np.ndarray | tuple[float, float] = (0.0, 0.0)) -> "RigidTransform":
        """Build from a rotation angle (radians) and a translation vector."""
        c, s = np.cos(angle), np.sin(angle)
        return cls(rotation=np.array([[c, -s], [s, c]]), translation=np.asarray(translation, dtype=float))


def kabsch_2d(source: np.ndarray, target: np.ndarray) -> RigidTransform:
    """Least-squares rigid transform mapping ``source`` onto ``target``.

    Both inputs have shape ``(n, 2)`` and are assumed to be in one-to-one
    correspondence (row ``i`` of source matches row ``i`` of target).

    The returned rotation is always proper (``det = +1``); reflections are
    excluded because they are not shape-preserving symmetries of the particle
    system (the paper factors out ``ISO+(2)``, not ``ISO(2)``).
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if source.shape != target.shape or source.ndim != 2 or source.shape[1] != 2:
        raise ValueError("source and target must both have shape (n, 2)")
    n = source.shape[0]
    if n == 0:
        return RigidTransform.identity()
    # Uniform weights applied as a matrix product rather than ``.mean()``:
    # the two round differently, and stored results depend on these bits.
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
    return RigidTransform(rotation=rotation, translation=translation)
