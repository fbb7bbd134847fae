"""Rigid (rotation + translation) alignment of 2-D point sets.

This is the inner solver of the ICP loop: given two point sets that are
already in correspondence, find the direct isometry (element of ``ISO+(2)``,
i.e. rotation and translation but no reflection) that minimises the summed
squared distance.  The optimal rotation follows from the Kabsch/Procrustes
construction via the SVD of the 2×2 cross-covariance matrix.

Both the transform and the solver also work on a *stack* of problems — a
leading sample axis on every array — so the ICP can register every sample of
an ensemble frame in one call.  A stack runs the very same per-matrix BLAS
and LAPACK routines as a single problem (NumPy's ``matmul``, ``svd`` and
``det`` loop over the leading axis), so each stacked result is bitwise equal
to the result for that problem on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RigidTransform", "kabsch_2d"]


def _matvec(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``matrices @ vectors`` for ``(..., 2, 2)`` matrices and ``(..., 2)`` vectors."""
    return (matrices @ vectors[..., None])[..., 0]


@dataclass(frozen=True)
class RigidTransform:
    """A direct planar isometry ``x ↦ R x + t`` with ``det(R) = +1``.

    ``rotation`` of shape ``(S, 2, 2)`` with ``translation`` of shape
    ``(S, 2)`` holds a stack of ``S`` transforms, one per configuration of a
    stack of configurations.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        rotation = np.asarray(self.rotation, dtype=float)
        translation = np.asarray(self.translation, dtype=float)
        if rotation.ndim not in (2, 3) or rotation.shape[-2:] != (2, 2):
            raise ValueError("rotation must be a 2x2 matrix or a stack of them")
        if translation.shape != rotation.shape[:-1]:
            raise ValueError("translation must be a length-2 vector per rotation")
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    @property
    def angle(self) -> float | np.ndarray:
        """Rotation angle in radians, in ``(-pi, pi]`` (one per transform of a stack)."""
        angle = np.arctan2(self.rotation[..., 1, 0], self.rotation[..., 0, 0])
        return float(angle) if self.rotation.ndim == 2 else angle

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply the transform to points of shape ``(..., 2)``.

        A stack of ``S`` transforms maps a stack ``(S, n, 2)`` of
        configurations, transform ``s`` acting on configuration ``s``.
        """
        points = np.asarray(points, dtype=float)
        if self.rotation.ndim == 2:
            return points @ self.rotation.T + self.translation
        return points @ np.swapaxes(self.rotation, -1, -2) + self.translation[:, None, :]

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return the transform equivalent to applying ``other`` first, then ``self``."""
        return RigidTransform(
            rotation=self.rotation @ other.rotation,
            translation=_matvec(self.rotation, other.translation) + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        """The inverse isometry."""
        rot_inv = np.swapaxes(self.rotation, -1, -2)
        return RigidTransform(rotation=rot_inv, translation=-_matvec(rot_inv, self.translation))

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
    correspondence (row ``i`` of source matches row ``i`` of target).  Inputs
    of shape ``(S, n, 2)`` solve ``S`` independent problems and return a
    stack of ``S`` transforms, each bitwise equal to its single solve.

    The returned rotation is always proper (``det = +1``); reflections are
    excluded because they are not shape-preserving symmetries of the particle
    system (the paper factors out ``ISO+(2)``, not ``ISO(2)``).
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if source.shape != target.shape or source.ndim not in (2, 3) or source.shape[-1] != 2:
        raise ValueError("source and target must both have shape (n, 2) or (S, n, 2)")
    n = source.shape[-2]
    if n == 0:
        stack = source.shape[:-2]
        return RigidTransform(
            rotation=np.broadcast_to(np.eye(2), stack + (2, 2)).copy(), translation=np.zeros(stack + (2,))
        )
    # Uniform weights applied as a matrix product rather than ``.mean()``:
    # the two round differently, and stored results depend on these bits.
    w = np.ones(n) / n

    source_mean = w @ source
    target_mean = w @ target
    source_centered = source - source_mean[..., None, :]
    target_centered = target - target_mean[..., None, :]

    cross = np.swapaxes(source_centered * w[:, None], -1, -2) @ target_centered
    u, _singular, vt = np.linalg.svd(cross)
    v, ut = np.swapaxes(vt, -1, -2), np.swapaxes(u, -1, -2)
    det = np.linalg.det(v @ ut)
    correction = np.zeros(np.shape(det) + (2, 2))
    correction[..., 0, 0] = 1.0
    correction[..., 1, 1] = np.where(det != 0, np.sign(det), 1.0)
    rotation = v @ correction @ ut
    translation = target_mean - _matvec(rotation, source_mean)
    return RigidTransform(rotation=rotation, translation=translation)
