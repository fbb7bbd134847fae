"""Torus-aware symmetry reduction: registration on wrapped domains.

On the free plane the shape symmetries are ``ISO+(2) × S*_n`` and the
reduction runs Kabsch/ICP (:mod:`repro.alignment.icp`).  On a bounded domain
with periodic axes the isometry group is different: there are no continuous
rotations, the continuous part is **translation modulo L along each periodic
axis** (a reflecting wall pins its axis — no translational freedom there),
and the discrete part is the per-axis flips every box axis admits
(``x → Lx − x`` is a symmetry of both a periodic seam and a reflecting
wall).  Aligning wrapped ensembles with the free-space Procrustes machinery
is simply wrong — a sample rigidly translated across the seam looks like a
large deformation to Kabsch, and centroids are not even well defined mod L —
so multi-information on the torus would otherwise be measured against raw
wrapped coordinates.

:class:`TorusAligner` mirrors the :class:`~repro.alignment.icp.TypeAwareICP`
construction under the wrapped metric:

1. same-type nearest-neighbour correspondences in the domain's metric (a
   per-axis periodic :class:`scipy.spatial.cKDTree`),
2. the **exact** optimal translation mod L per periodic axis for the matched
   pairs (a sorted sweep over the circular breakpoints of the piecewise
   quadratic wrapped least-squares cost — not the circular-mean
   approximation),
3. iterate to convergence; the best of the admissible flip combinations is
   kept, and the final one-to-one assignment under the wrapped metric gives
   the type-preserving permutation (the ``S*_n`` factor).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree  # before scipy.optimize: see repro.alignment
from scipy.optimize import linear_sum_assignment

from repro.particles.domain import Domain

__all__ = ["TorusTransform", "TorusICPResult", "TorusAligner"]


@dataclass(frozen=True)
class TorusTransform:
    """Flip-then-translate isometry of a bounded per-axis box.

    ``flips[axis]`` applies ``x → L − x`` along that axis (a symmetry of both
    periodic and reflecting boundaries); ``translation[axis]`` shifts along
    the axis afterwards (non-zero only on periodic axes, where coordinates
    live mod L).  Applying the transform always re-wraps into the box.
    """

    flips: tuple[bool, bool]
    translation: tuple[float, float]

    def apply(self, positions: np.ndarray, domain: Domain) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        out = positions.copy()
        for axis in range(2):
            column = out[..., axis]
            if self.flips[axis]:
                column = domain.extents[axis] - column
            out[..., axis] = column + self.translation[axis]
        return domain.wrap(out)


@dataclass(frozen=True)
class TorusICPResult:
    """Outcome of a wrapped-domain registration (mirrors ``ICPResult``).

    For a stack of sources every field carries a leading sample axis and
    ``transform`` is a tuple with one transform per sample.

    Attributes
    ----------
    transform:
        The fitted :class:`TorusTransform` mapping the source onto the target
        frame.
    aligned:
        The source configuration after applying ``transform`` (wrapped box
        coordinates).
    correspondence:
        Final one-to-one, type-preserving permutation: ``correspondence[i]``
        is the target particle matched to source particle ``i``.
    rmse:
        Root-mean-square wrapped distance between matched pairs.
    n_iterations:
        Iterations of the best flip candidate's descent.
    converged:
        Whether that descent's error improvement dropped below tolerance.
    """

    transform: TorusTransform | tuple[TorusTransform, ...]
    aligned: np.ndarray
    correspondence: np.ndarray
    rmse: float | np.ndarray
    n_iterations: int | np.ndarray
    converged: bool | np.ndarray


def _optimal_axis_shift(residuals: np.ndarray, length: float) -> float:
    """Exact ``argmin_t Σ wrap_L(r_i − t)²`` for one periodic axis.

    The wrapped least-squares cost is piecewise quadratic in ``t``; on each
    piece the minimiser is the mean of one circular re-labelling of the
    residuals, and the pieces correspond to wrapping the ``j`` smallest
    residuals up by ``L``.  Sorting once and scoring the ``n`` candidate
    means under the wrapped metric finds the global minimum exactly —
    unlike the circular-mean estimator, which is only asymptotically optimal
    for concentrated residuals.
    """
    wrapped = np.sort(np.mod(residuals, length))
    n = wrapped.size
    if n == 0:
        return 0.0
    candidates = (wrapped.sum() + length * np.arange(n)) / n
    deltas = wrapped[None, :] - candidates[:, None]
    deltas -= length * np.round(deltas / length)
    costs = np.einsum("ij,ij->i", deltas, deltas)
    return float(np.mod(candidates[int(costs.argmin())], length))


def _wrapped_nearest(
    source: np.ndarray, target: np.ndarray, types: np.ndarray, domain: Domain
) -> np.ndarray:
    """Same-type nearest neighbours under the domain's wrapped metric."""
    boxsize = [
        side if periodic else 0.0
        for side, periodic in zip(domain.extents, domain.periodic_axes)
    ]
    corr = np.empty(source.shape[0], dtype=int)
    for type_id in np.unique(types):
        idx = np.nonzero(types == type_id)[0]
        tree = cKDTree(target[idx], boxsize=boxsize)
        _dist, local = tree.query(source[idx], k=1)
        corr[idx] = idx[np.atleast_1d(local)]
    return corr


def _wrapped_assignment(
    source: np.ndarray, target: np.ndarray, types: np.ndarray, domain: Domain
) -> np.ndarray:
    """One-to-one, type-preserving assignment minimising wrapped squared distance."""
    perm = np.empty(source.shape[0], dtype=int)
    for type_id in np.unique(types):
        idx = np.nonzero(types == type_id)[0]
        delta = domain.displacement(source[idx][:, None, :], target[idx][None, :, :])
        cost = np.einsum("ijk,ijk->ij", delta, delta)
        rows, cols = linear_sum_assignment(cost)
        perm[idx[rows]] = idx[cols]
    return perm


def _wrapped_distances(
    source: np.ndarray, target: np.ndarray, correspondence: np.ndarray, domain: Domain
) -> np.ndarray:
    """Wrapped distance between each source particle and its matched target."""
    delta = domain.displacement(source, target[np.asarray(correspondence, dtype=int)])
    return np.sqrt(np.einsum("ij,ij->i", delta, delta))


@dataclass
class TorusAligner:
    """ICP-style registration under the isometries of a wrapped box.

    Parameters
    ----------
    domain:
        The bounded per-axis domain (at least one periodic axis is what makes
        this aligner necessary; it degrades gracefully to flips-only on a
        purely reflecting box).
    max_iterations:
        Upper bound on correspondence/translation iterations per flip
        candidate.
    tolerance:
        Convergence threshold on the improvement of the mean correspondence
        distance between consecutive iterations.

    Every per-axis flip combination (``x → L − x``) is searched and the best
    kept: every bounded axis — periodic seam or reflecting wall — admits its
    flip, and the free-space notion of continuous rotation does not exist
    here, so flips are the entire discrete search space.  The final
    correspondence is the one-to-one wrapped-metric assignment.
    """

    domain: Domain
    max_iterations: int = 50
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if not self.domain.bounded:
            raise ValueError("TorusAligner needs a bounded domain; use TypeAwareICP on the free plane")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")

    def align(
        self, source: np.ndarray, target: np.ndarray, types: np.ndarray
    ) -> TorusICPResult:
        """Register ``source`` onto ``target`` (``(n, 2)`` each, same type layout).

        ``source`` may also be a stack ``(S, n, 2)``: each sample is
        registered on its own, and the result holds one fit per sample, with
        ``transform`` the tuple of the ``S`` transforms.
        """
        source = np.asarray(source, dtype=float)
        target = np.asarray(target, dtype=float)
        types = np.asarray(types, dtype=int)
        if target.ndim != 2 or target.shape[1] != 2 or source.shape[-2:] != target.shape or source.ndim > 3:
            raise ValueError("source must have shape (n, 2) or (S, n, 2) and target shape (n, 2)")
        if types.shape != (target.shape[0],):
            raise ValueError("types must have shape (n,)")
        if source.ndim == 3:
            fits = [self.align(sample, target, types) for sample in source]
            return TorusICPResult(
                transform=tuple(fit.transform for fit in fits),
                aligned=np.array([fit.aligned for fit in fits]).reshape(source.shape),
                correspondence=np.array([fit.correspondence for fit in fits], dtype=int).reshape(
                    source.shape[:-1]
                ),
                rmse=np.array([fit.rmse for fit in fits]),
                n_iterations=np.array([fit.n_iterations for fit in fits], dtype=int),
                converged=np.array([fit.converged for fit in fits], dtype=bool),
            )
        source = self.domain.wrap(source)
        target = self.domain.wrap(target)
        best: TorusICPResult | None = None
        for flips in itertools.product((False, True), repeat=2):
            candidate = self._align_once(source, target, types, tuple(flips))
            if best is None or candidate.rmse < best.rmse:
                best = candidate
        return best

    def _initial_translation(
        self, flipped: np.ndarray, target: np.ndarray, types: np.ndarray
    ) -> np.ndarray:
        """Global translation initialisation by anchor matching.

        Correspondence/translation descent is a local search and stalls when
        the initial shift exceeds the typical particle spacing (the torus
        analogue of ICP's rotation local minima, which ``TypeAwareICP``
        handles with ``global_init_angles``).  Translation is the *only*
        continuous degree of freedom here, so a complete candidate set
        exists: anchor one source particle of the rarest type and consider
        the translation carrying it onto each same-type target particle.
        For an exactly rigid shift the true translation is always among the
        candidates; for noisy data the best-scoring candidate is a strong
        basin to descend from.  Reflecting axes contribute no freedom and
        stay at zero.
        """
        domain = self.domain
        if not any(domain.periodic_axes):
            return np.zeros(2)
        unique, counts = np.unique(types, return_counts=True)
        anchor_type = int(unique[int(counts.argmin())])
        idx = np.nonzero(types == anchor_type)[0]
        anchor = flipped[idx[0]]
        offsets = domain.displacement(target[idx], anchor[None, :])
        candidates = np.zeros((offsets.shape[0] + 1, 2))
        for axis in range(2):
            if domain.periodic_axes[axis]:
                candidates[1:, axis] = offsets[:, axis]
        best_score = np.inf
        best = candidates[0]
        for translation in candidates:
            moved = domain.wrap(flipped + translation)
            corr = _wrapped_nearest(moved, target, types, domain)
            score = float(_wrapped_distances(moved, target, corr, domain).mean())
            if score < best_score:
                best_score = score
                best = translation
        return best.copy()

    def _align_once(
        self,
        source: np.ndarray,
        target: np.ndarray,
        types: np.ndarray,
        flips: tuple[bool, bool],
    ) -> TorusICPResult:
        """One correspondence/translation descent from a fixed flip choice."""
        domain = self.domain
        flipped = TorusTransform(flips=flips, translation=(0.0, 0.0)).apply(source, domain)
        translation = self._initial_translation(flipped, target, types)
        current = domain.wrap(flipped + translation)
        previous_error = np.inf
        converged = False
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            corr = _wrapped_nearest(current, target, types, domain)
            # Optimal translation update per periodic axis for the matched
            # pairs; reflecting axes have no translational freedom.
            residuals = domain.displacement(target[corr], current)
            for axis in range(2):
                if domain.periodic_axes[axis]:
                    translation[axis] += _optimal_axis_shift(
                        residuals[:, axis], domain.extents[axis]
                    )
            current = domain.wrap(flipped + translation)
            error = float(_wrapped_distances(current, target, corr, domain).mean())
            if abs(previous_error - error) < self.tolerance:
                converged = True
                break
            previous_error = error
        final_corr = _wrapped_assignment(current, target, types, domain)
        rmse = float(np.sqrt((_wrapped_distances(current, target, final_corr, domain) ** 2).mean()))
        return TorusICPResult(
            transform=TorusTransform(flips=flips, translation=(float(translation[0]), float(translation[1]))),
            aligned=current,
            correspondence=final_corr,
            rmse=rmse,
            n_iterations=iterations,
            converged=converged,
        )
