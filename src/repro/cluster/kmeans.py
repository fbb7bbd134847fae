"""k-means clustering (Lloyd's algorithm with k-means++ seeding), from scratch.

The paper reduces the dimensionality of large collectives (> 60 particles)
before estimating multi-information by clustering the particles of each type
with k-means and using the cluster means as coarse observer variables
(§5.3.1).  The implementation here is self-contained (no scikit-learn
offline) and deterministic given a seed.

Every fit runs in lockstep with the others: :func:`kmeans` fits its
``n_init`` restarts in one batched call, and
:func:`repro.cluster.coarse_grain.coarse_grain_snapshot` fits every
(sample, restart) pair of a type in one call.  The batched kernel is bitwise
equal to fitting one restart after another, generator state included:

- Fits draw in fit order, restart after restart.  A fit draws
  ``integers(n)`` for its first centre, then one ``random()`` per further
  centre, the draw ``rng.choice(n, p=d²/Σd²)`` makes; its pick is
  ``count_nonzero(cdf <= u)``, with ``cdf`` built as ``choice`` builds it.
  Once a fit's points all coincide with its centres (``Σd² <= 0``), each
  further centre draws ``integers(n)`` instead.  Which fits do so is only
  known after their picks, so the seeding guesses, checks the guess after
  the lockstep picks, and on a wrong guess rewinds the generator and draws
  again with the pattern it saw.
- Lloyd iterations draw nothing.  A fit stops at the iteration at which its
  labels repeat and its centres moved less than ``tolerance``.
- A cluster mean sums its members in index order, the order
  ``members.mean(axis=0)`` adds rows in for ``d >= 2``: ``np.bincount``
  with weights does that, ``np.add.reduceat``, ``einsum`` and BLAS do not.
  For ``d = 1`` numpy's ``mean`` sums pairwise, so one-dimensional means
  can differ from it in the last bit.
- Nearest centres break ties towards the lower index, and an empty cluster
  moves to its fit's worst-served point.
- The best restart of each point set is the first with the least inertia,
  compared with strict ``<``.

Memory is ``O(n_fits · n · k · d)`` for the assignment step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.rng import as_generator

__all__ = ["KMeansResult", "kmeans"]


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one k-means fit.

    Attributes
    ----------
    centers:
        ``(k, d)`` cluster centres, ordered canonically (see :func:`kmeans`).
    labels:
        ``(n,)`` index of the centre assigned to each point.
    inertia:
        Summed squared distance of points to their assigned centre.
    n_iterations:
        Lloyd iterations of the best restart.
    converged:
        Whether assignments stopped changing before the iteration cap.
    """

    centers: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iterations: int
    converged: bool


def _plus_plus_picks(
    points: np.ndarray,
    first: np.ndarray,
    uniform: np.ndarray,
    fallback: np.ndarray,
    n_weighted: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k-means++ centres of every fit from pre-drawn values.

    Fit ``f`` places centre ``c`` (``1 <= c < k``) with the double
    ``uniform[f, c - 1]`` while ``c <= n_weighted[f]``, and at
    ``fallback[f, c - 1]`` afterwards.  Returns the centres, the number of
    centres each fit placed while its summed squared distance was positive
    (the ``n_weighted`` the fit needed), and whether every such sum was finite.
    """
    n_fits = points.shape[0]
    n_clusters = uniform.shape[1] + 1
    rows = np.arange(n_fits)
    centers = np.empty((n_fits, n_clusters, points.shape[2]))
    centers[:, 0] = points[rows, first]
    delta = points - centers[:, :1]
    closest_sq = np.einsum("fnd,fnd->fn", delta, delta)
    spread = np.zeros(n_fits, dtype=np.intp)
    finite = np.ones(n_fits, dtype=bool)
    for c in range(1, n_clusters):
        total = closest_sq.sum(axis=1)
        positive = total > 0
        finite &= np.isfinite(total)
        spread += positive
        live = (n_weighted >= c) & positive & finite
        pick = fallback[:, c - 1].copy()
        if live.any():
            cdf = np.cumsum(closest_sq[live] / total[live, None], axis=1)
            cdf = cdf / cdf[:, -1:]
            pick[live] = np.count_nonzero(cdf <= uniform[live, c - 1, None], axis=1)
        centers[:, c] = points[rows, pick]
        delta = points - centers[:, c, None]
        closest_sq = np.minimum(closest_sq, np.einsum("fnd,fnd->fn", delta, delta))
    return centers, spread, finite


def _plus_plus_seeds(points: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding of every fit of ``points`` (``(n_fits, n, d)``) at once.

    Draws what seeding one fit after another draws (see the module
    docstring).  The first pass guesses that no fit runs out of distinct
    points; a pass whose guess is wrong rewinds the generator and draws
    again with the pattern it observed.  Each repeat settles at least the
    first wrong fit, and with exactly coincident points the second pass
    settles every fit.
    """
    n_fits, n = points.shape[:2]
    start = rng.bit_generator.state
    n_weighted = [n_clusters - 1] * n_fits
    while True:
        first = np.empty(n_fits, dtype=np.intp)
        uniform = np.empty((n_fits, n_clusters - 1))
        fallback = np.zeros((n_fits, n_clusters - 1), dtype=np.intp)
        for f, j in enumerate(n_weighted):
            first[f] = rng.integers(n)
            uniform[f, :j] = rng.random(j)
            if j < n_clusters - 1:
                fallback[f, j:] = rng.integers(n, size=n_clusters - 1 - j)
        centers, spread, finite = _plus_plus_picks(
            points, first, uniform, fallback, np.asarray(n_weighted)
        )
        if spread.tolist() == n_weighted:
            break
        rng.bit_generator.state = start
        n_weighted = spread.tolist()
    if not finite.all():
        raise ValueError("squared distances between points overflow")
    return centers


def _assign(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centre of every point of every fit (lowest index on ties) and its squared distance."""
    delta = points[:, :, None, :] - centers[:, None, :, :]
    dist_sq = np.einsum("fnkd,fnkd->fnk", delta, delta)
    labels = dist_sq.argmin(axis=2)
    return labels, np.take_along_axis(dist_sq, labels[..., None], axis=2)[..., 0]


def _cluster_means(points: np.ndarray, labels: np.ndarray, sq_dist: np.ndarray, n_clusters: int) -> np.ndarray:
    """Member means of every cluster of every fit; an empty one moves to its fit's worst-served point."""
    n_fits, _, d = points.shape
    slots = np.arange(n_fits)[:, None] * n_clusters + labels
    counts = np.bincount(slots.ravel(), minlength=n_fits * n_clusters).reshape(n_fits, n_clusters, 1)
    # Weighted bincount adds the values of a cell one after another in index
    # order, the order members.mean(axis=0) adds rows in.
    cells = (slots[..., None] * d + np.arange(d)).ravel()
    sums = np.bincount(cells, weights=points.ravel(), minlength=n_fits * n_clusters * d).reshape(n_fits, n_clusters, d)
    worst = points[np.arange(n_fits), sq_dist.argmax(axis=1)]
    return np.where(counts > 0, sums / np.maximum(counts, 1), worst[:, None, :])


def _lloyd(
    points: np.ndarray, centers: np.ndarray, max_iterations: int, tolerance: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd iterations of every fit in lockstep; a fit leaves the batch once it converges."""
    n_fits, n = points.shape[:2]
    n_clusters = centers.shape[1]
    labels = np.full((n_fits, n), -1)
    n_iterations = np.full(n_fits, max_iterations)
    converged = np.zeros(n_fits, dtype=bool)
    active = np.arange(n_fits)
    for iteration in range(1, max_iterations + 1):
        batch = points[active]
        new_labels, sq_dist = _assign(batch, centers[active])
        new_centers = _cluster_means(batch, new_labels, sq_dist, n_clusters)
        shift = np.abs(new_centers - centers[active]).max(axis=(1, 2))
        done = (new_labels == labels[active]).all(axis=1) & (shift < tolerance)
        centers[active] = new_centers
        labels[active] = new_labels
        n_iterations[active[done]] = iteration
        converged[active[done]] = True
        active = active[~done]
        if not active.size:
            break
    return centers, n_iterations, converged


def _kmeans_stack(
    clouds: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator,
    *,
    n_init: int,
    max_iterations: int = 100,
    tolerance: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Best-of-``n_init`` k-means of every point set of ``clouds`` (``(G, n, d)``), in lockstep.

    Bitwise equal to fitting the sets one after another with ``n_init``
    restarts each (see the module docstring).  The caller checks that the
    points are finite and that ``1 <= n_clusters <= n``.  Returns the
    canonically ordered centres ``(G, k, d)``, the labels ``(G, n)``, and the
    inertia, Lloyd iteration count and convergence flag of each set's best
    restart ``(G,)``.
    """
    if n_init <= 0:
        raise ValueError("n_init must be positive")
    if max_iterations <= 0:
        raise ValueError("max_iterations must be positive")
    # Fit g * n_init + r is restart r of point set g: the generator order.
    fits = np.repeat(clouds, n_init, axis=0)
    centers = _plus_plus_seeds(fits, n_clusters, rng)
    centers, n_iterations, converged = _lloyd(fits, centers, max_iterations, tolerance)
    labels, sq_dist = _assign(fits, centers)
    inertia = sq_dist.sum(axis=1).reshape(-1, n_init)

    sets = np.arange(clouds.shape[0])
    best = np.zeros(sets.size, dtype=np.intp)
    for restart in range(1, n_init):
        best[inertia[:, restart] < inertia[sets, best]] = restart
    pick = sets * n_init + best
    centers = centers[pick]
    # Canonical order: lexicographic in the coordinates, first most
    # significant, so "cluster 0" does not depend on the seeding.
    order = np.lexsort(np.moveaxis(centers, -1, 0)[::-1], axis=-1)
    return (
        np.take_along_axis(centers, order[..., None], axis=1),
        np.take_along_axis(order.argsort(axis=1), labels[pick], axis=1),
        inertia[sets, best],
        n_iterations[pick],
        converged[pick],
    )


def kmeans(
    points: np.ndarray,
    n_clusters: int,
    *,
    rng: np.random.Generator | int | None = None,
    n_init: int = 4,
    max_iterations: int = 100,
    tolerance: float = 1e-8,
) -> KMeansResult:
    """Cluster ``points`` (``(n, d)``) into ``n_clusters`` groups.

    Runs ``n_init`` independent k-means++ restarts and keeps the fit with the
    lowest inertia.  Centres are sorted lexicographically by their
    coordinates, the first most significant.  Raises if there are fewer
    points than clusters or any coordinate is NaN or infinite.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if n_clusters <= 0:
        raise ValueError("n_clusters must be positive")
    if n < n_clusters:
        raise ValueError(f"need at least n_clusters={n_clusters} points, got {n}")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite (no NaN or infinite coordinates)")
    centers, labels, inertia, n_iterations, converged = _kmeans_stack(
        points[None],
        n_clusters,
        as_generator(rng),
        n_init=n_init,
        max_iterations=max_iterations,
        tolerance=tolerance,
    )
    return KMeansResult(
        centers=centers[0],
        labels=labels[0],
        inertia=float(inertia[0]),
        n_iterations=int(n_iterations[0]),
        converged=bool(converged[0]),
    )
