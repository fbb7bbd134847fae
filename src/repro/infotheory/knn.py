"""k-nearest-neighbour primitives shared by the continuous estimators.

The KSG multi-information estimator and the Kozachenko–Leonenko entropy
estimator both need, for every sample, distances to its k-th nearest
neighbour under a particular norm.  For the ensemble sizes used in the paper
(m ≤ 1000) dense pairwise distances are both the simplest and the fastest
option in NumPy, so that is the default backend; a
:class:`scipy.spatial.cKDTree` backend is provided for larger sample counts.

The dense backend works on ``(m, m)`` *squared* distances, built on the
upper triangle by :func:`repro.infotheory.ksg._squared_distances` (the one
copy of that kernel, two BLAS calls): :func:`kth_neighbor_distances`
mirrors the triangle into full rows, takes each row's k-th smallest squared
distance and square-roots only that, and :func:`k_nearest_neighbor_indices`
ranks a full distance matrix canonically.
:class:`ProductMetricTree` answers the same queries in O(m log m)-ish time
under the paper's joint metric (Eq. 19: the maximum over variable blocks of
the per-block Euclidean distance) by pruning with a Chebyshev
:class:`~scipy.spatial.cKDTree` over the concatenated coordinates and
re-ranking candidates with the exact block metric.  Both backends compute
the *same* quantities, so estimators built on either agree to floating-point
tolerance — :func:`resolve_estimator_backend` picks between them by sample
count, mirroring ``engine="auto"`` on the simulation side.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "k_nearest_neighbor_indices",
    "kth_neighbor_distances",
    "kozachenko_leonenko_entropy",
    "ESTIMATOR_BACKENDS",
    "KDTREE_MIN_SAMPLES",
    "resolve_estimator_backend",
    "ProductMetricTree",
    "EuclideanBallCounter",
]

#: Concrete estimator backends (``"auto"`` resolves to one of these).
ESTIMATOR_BACKENDS = ("dense", "kdtree")

#: Default sample count at which ``backend="auto"`` switches from the dense
#: O(m²) distance matrices to the tree-backed queries.  Below this the
#: matrix construction is faster than the per-query tree overhead; above it
#: the dense path's quadratic memory and argpartition cost dominate.  The
#: default is the crossover of the Frenzel–Pompe CMI, measured against the
#: distance-matrix CMI the dense count kernel replaced; estimators
#: with different query mixes pass their own ``min_samples`` (the KSG1
#: lagged-MI path crosses much earlier because its marginal counts are
#: list-free, and the shared-embedding pairwise plan much later because its
#: dense path amortises the distance matrices across pairs).  Against the
#: triangle kernel the dense CMI (three 2-D blocks, k = 4, one worker, one
#: BLAS thread) is the faster one up to m = 2048 at least: dense time over
#: tree time is 0.32–0.6 at m = 256–768, 0.47 at 1024, 0.46 at 1536 and
#: 0.68 at 2048 (0.72 at 1024 and 1.12 at 2048 before it, two BLAS
#: threads).  Not moved: ``"auto"`` is hashed as the string, so a moved
#: crossover would change an auto unit's numbers under its hash.
KDTREE_MIN_SAMPLES = 1024


def resolve_estimator_backend(
    backend: str, *, n_samples: int, min_samples: int = KDTREE_MIN_SAMPLES
) -> str:
    """Resolve ``"dense" | "kdtree" | "auto"`` to a concrete backend.

    ``"auto"`` picks ``"kdtree"`` once ``n_samples >= min_samples``, the
    analogue of ``engine="auto"`` for the drift kernels.
    """
    if backend == "auto":
        return "kdtree" if n_samples >= min_samples else "dense"
    if backend not in ESTIMATOR_BACKENDS:
        raise ValueError(
            f"unknown estimator backend {backend!r}; expected one of "
            f"{ESTIMATOR_BACKENDS + ('auto',)}"
        )
    return backend


def _canonical_k_smallest(
    candidate_dist: np.ndarray, k: int, kth: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows × columns of the canonical k smallest entries per row.

    ``candidate_dist`` is ``(u, c)`` with columns already in ascending
    *candidate-identity* order; ``kth`` is each row's k-th smallest value.
    Selection is by ``(distance, identity)`` lexicographic order: everything
    strictly below the k-th value, then ties *at* the k-th value by ascending
    column until exactly k are chosen.  This is the tie-breaking contract
    shared by the dense and tree backends, so rectangle variants (KSG2 /
    "paper") pick the *same* neighbour set on tie-heavy inputs — a
    prerequisite for bitwise cross-backend agreement on integer grids.
    """
    below = candidate_dist < kth[:, None]
    at = candidate_dist == kth[:, None]
    need = k - below.sum(axis=1)  # >= 1: the k-th value itself is a tie
    rank = np.cumsum(at, axis=1)
    chosen = below | (at & (rank <= need[:, None]))
    rows, cols = np.nonzero(chosen)  # row-major: per-row ascending columns
    return rows.reshape(-1, k), cols.reshape(-1, k)


def k_nearest_neighbor_indices(distance_matrix: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest neighbours of every sample (self excluded), shape ``(m, k)``.

    The neighbours are ordered by increasing ``(distance, index)`` — ties at
    equal distance are broken by ascending sample index, so the selected set
    and its order are canonical (identical between the dense and tree
    backends, even on degenerate inputs with many repeated distances).
    Column ``k - 1`` is the k-th nearest neighbour.
    """
    distance_matrix = np.asarray(distance_matrix, dtype=float)
    m = distance_matrix.shape[0]
    if distance_matrix.shape != (m, m):
        raise ValueError("distance_matrix must be square")
    if not 1 <= k <= m - 1:
        raise ValueError(f"k must be in [1, m-1] = [1, {m - 1}], got {k}")
    work = distance_matrix.copy()
    np.fill_diagonal(work, np.inf)
    if k < m - 1:
        # A single partition at rank k pins the (k+1)-th value and leaves
        # the k smallest (unordered) in the first k columns; the selected
        # set is ambiguous only when a tie straddles that boundary.
        candidate_idx = np.argpartition(work, kth=k, axis=1)[:, : k + 1]
        candidate_dist = np.take_along_axis(work, candidate_idx, axis=1)
        kth_value = candidate_dist[:, :k].max(axis=1)
        ambiguous = candidate_dist[:, k] == kth_value
    else:
        candidate_idx = np.argpartition(work, kth=k - 1, axis=1)
        candidate_dist = np.take_along_axis(work, candidate_idx, axis=1)
        kth_value = candidate_dist[:, k - 1]
        ambiguous = np.zeros(m, dtype=bool)
    sel_idx = candidate_idx[:, :k]
    sel_dist = candidate_dist[:, :k]
    # Canonical order within the set: pre-sort by identity, then a stable
    # sort by distance keeps ascending index inside every tie group.
    by_index = np.argsort(sel_idx, axis=1)
    sel_idx = np.take_along_axis(sel_idx, by_index, axis=1)
    sel_dist = np.take_along_axis(sel_dist, by_index, axis=1)
    order = np.argsort(sel_dist, axis=1, kind="stable")
    out = np.take_along_axis(sel_idx, order, axis=1)
    if np.any(ambiguous):
        rows = np.nonzero(ambiguous)[0]
        sub = work[rows]
        rr, cols = _canonical_k_smallest(sub, k, kth_value[rows])
        dist = sub[rr, cols]
        order = np.argsort(dist, axis=1, kind="stable")
        out[rows] = np.take_along_axis(cols, order, axis=1)
    return out


def kth_neighbor_distances(
    samples: np.ndarray, k: int, *, backend: str = "dense", workers: int = 1
) -> np.ndarray:
    """Euclidean distance of every sample to its k-th nearest neighbour.

    ``workers`` threads the kdtree query (scipy semantics, ``-1`` = all
    cores); it never changes the returned distances, only throughput, and
    defaults to 1 so CI runs stay single-threaded.  Ignored by the dense
    backend.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    m = samples.shape[0]
    if not 1 <= k <= m - 1:
        raise ValueError(f"k must be in [1, m-1] = [1, {m - 1}], got {k}")
    if backend == "kdtree":
        tree = cKDTree(samples)
        dist, _idx = tree.query(samples, k=k + 1, workers=workers)
        return dist[:, -1]
    if backend != "dense":
        raise ValueError(f"unknown backend {backend!r}")
    from repro.infotheory.ksg import _mirror_upper, _squared_distances  # ksg imports this module

    # sqrt(max(·, 0)) is monotone, so it maps the k-th smallest squared
    # distance to the k-th smallest distance.  The partition reads full
    # rows, so the triangle is mirrored first.
    squared = _mirror_upper(_squared_distances(samples))
    np.fill_diagonal(squared, np.inf)
    kth_q = np.partition(squared, kth=k - 1, axis=1)[:, k - 1]
    return np.sqrt(np.maximum(kth_q, 0.0))


class ProductMetricTree:
    """Exact neighbour queries under the paper's product metric, tree-backed.

    The joint metric of Eq. 19 is ``d(x, y) = max_i ||x_i - y_i||_2`` over
    variable blocks ``i``.  A :class:`~scipy.spatial.cKDTree` cannot search
    that metric directly, but the Chebyshev (L∞) distance over the
    concatenated coordinates is a *lower bound* for it (each block's L2 norm
    dominates the largest coordinate difference inside the block).  Both
    queries below therefore use the L∞ tree to produce a candidate superset
    and re-rank / filter the candidates with the exact block metric, so the
    results are identical to what the dense ``(m, m)`` matrices would give —
    only the tie-breaking of *indices* (never of distance values) can differ.

    Parameters
    ----------
    blocks:
        List of ``(m, d_i)`` sample matrices, one per variable block.  A
        single block makes the metric plain Euclidean.
    workers:
        Thread count forwarded to every :class:`~scipy.spatial.cKDTree`
        query (``-1`` = all cores).  Thread scheduling never changes the
        returned distances or counts, so this is purely a throughput knob;
        the default of 1 keeps CI runs determinism-auditable.
    """

    def __init__(self, blocks: list[np.ndarray], *, workers: int = 1) -> None:
        blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
        if not blocks:
            raise ValueError("need at least one variable block")
        m = blocks[0].shape[0]
        if any(b.ndim != 2 or b.shape[0] != m for b in blocks):
            raise ValueError("all blocks must be 2-D with the same number of samples")
        self.blocks = blocks
        self.n_samples = m
        self.workers = int(workers)
        self._coords = np.concatenate(blocks, axis=1) if len(blocks) > 1 else blocks[0]
        self._tree = cKDTree(self._coords)

    def _block_distances(self, query_idx: np.ndarray, candidate_idx: np.ndarray) -> np.ndarray:
        """Exact product-metric distances for ``(u,)`` queries × ``(u, c)`` candidates."""
        result: np.ndarray | None = None
        for block in self.blocks:
            diff = block[query_idx][:, None, :] - block[candidate_idx]
            dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            result = dist if result is None else np.maximum(result, dist, out=result)
        return result

    def _resolved_candidates(
        self, k: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """The adaptive candidate search both neighbour queries share.

        Queries the L∞ tree for a growing number of neighbours until each
        sample's k-th *exact* candidate distance is strictly below the L∞
        radius covered by the retrieved set — at that point every point
        that could beat it has been examined.  Yields ``(samples, idx,
        exact, kth)`` for the samples resolved in each round: their
        candidate identities, exact distances (self at ``inf``) and k-th
        exact distance.
        """
        m = self.n_samples
        if not 1 <= k <= m - 1:
            raise ValueError(f"k must be in [1, m-1] = [1, {m - 1}], got {k}")
        pending = np.arange(m)
        n_candidates = min(m, 2 * (k + 1))
        while pending.size:
            dist_inf, idx = self._tree.query(
                self._coords[pending], k=n_candidates, p=np.inf, workers=self.workers
            )
            exact = self._block_distances(pending, idx)
            exact[idx == pending[:, None]] = np.inf  # exclude self by index
            kth = np.partition(exact, k - 1, axis=1)[:, k - 1]
            if n_candidates >= m:
                resolved = np.ones(pending.size, dtype=bool)
            else:
                # Strict, with an ulp guard: with ties at the L∞ frontier the
                # retrieved set may be an arbitrary subset, and the tree's
                # internally computed L∞ distances can differ from the exact
                # block distances in the last ulp, so only values clearly
                # inside the covered radius are accepted as final.
                resolved = kth * (1.0 + 1e-12) < dist_inf[:, -1]
            if np.any(resolved):
                yield pending[resolved], idx[resolved], exact[resolved], kth[resolved]
            pending = pending[~resolved]
            n_candidates = min(m, 2 * n_candidates)

    def kth_neighbor_distances(self, k: int) -> np.ndarray:
        """Distance of every sample to its k-th nearest neighbour (self excluded)."""
        eps = np.empty(self.n_samples)
        for samples, _idx, _exact, kth in self._resolved_candidates(k):
            eps[samples] = kth
        return eps

    def k_joint_neighbor_indices(self, k: int) -> np.ndarray:
        """Indices of the k nearest joint neighbours of every sample, shape ``(m, k)``.

        Same canonical ``(distance, index)`` ordering as
        :func:`k_nearest_neighbor_indices` on the dense joint matrix, and the
        same adaptive candidate search as :meth:`kth_neighbor_distances` —
        but the candidate *identities* are kept.  Once the k-th exact
        distance sits strictly inside the covered L∞ radius, every point
        with joint distance ≤ that value is guaranteed to be among the
        candidates (L∞ lower-bounds the product metric), so the canonical
        selection over the candidates is exact.  This is what the rectangle
        estimator variants (KSG2 / "paper") need: the neighbours themselves,
        not just the k-th distance.
        """
        out = np.empty((self.n_samples, k), dtype=np.intp)
        for samples, idx, exact, kth in self._resolved_candidates(k):
            # Candidate columns sorted by sample index so the canonical
            # tie ranking (ascending index at equal distance) applies.
            by_index = np.argsort(idx, axis=1, kind="stable")
            idx_sorted = np.take_along_axis(idx, by_index, axis=1)
            exact_sorted = np.take_along_axis(exact, by_index, axis=1)
            rows, cols = _canonical_k_smallest(exact_sorted, k, kth)
            sel_idx = idx_sorted[rows, cols]
            sel_dist = exact_sorted[rows, cols]
            order = np.argsort(sel_dist, axis=1, kind="stable")
            out[samples] = np.take_along_axis(sel_idx, order, axis=1)
        return out

    def counts_within(self, radii: np.ndarray) -> np.ndarray:
        """Per-sample count of points *strictly* inside ``radii`` (self excluded).

        The L∞ ball is a superset of the product-metric ball of the same
        radius, so its points are the candidates; the radii are inflated by a
        relative ulp margin so the tree's internal rounding can never exclude
        a point the exact (NumPy-computed) distance comparison would count.
        The candidates are then filtered with the exact metric — strict
        inequality included, which is what the Frenzel–Pompe / KSG counting
        rules require.
        """
        radii = np.asarray(radii, dtype=float)
        if radii.shape != (self.n_samples,):
            raise ValueError(f"radii must have shape ({self.n_samples},), got {radii.shape}")
        lists = self._tree.query_ball_point(
            self._coords, r=radii * (1.0 + 1e-12), p=np.inf, workers=self.workers
        )
        sizes = np.fromiter((len(lst) for lst in lists), dtype=np.intp, count=self.n_samples)
        flat_neighbor = np.fromiter(chain.from_iterable(lists), dtype=np.intp, count=int(sizes.sum()))
        flat_query = np.repeat(np.arange(self.n_samples), sizes)
        inside = flat_query != flat_neighbor
        bound = radii[flat_query]
        for block in self.blocks:
            diff = block[flat_query] - block[flat_neighbor]
            inside &= np.sqrt(np.einsum("ij,ij->i", diff, diff)) < bound
        return np.bincount(flat_query[inside], minlength=self.n_samples)


class EuclideanBallCounter:
    """List-free strict *or* inclusive ball counts for a *single* variable block.

    For one block the product metric degenerates to plain Euclidean distance,
    so per-sample counts of points inside per-sample radii can use
    ``cKDTree.query_ball_point(..., return_length=True)`` — no Python
    candidate lists.  Strictness comes from shrinking each radius by one ulp:
    for doubles ``d < r  ⇔  d <= pred(r)``, so the tree's inclusive test at
    the shrunk radius counts exactly the strict ball.  The inclusive mode
    (KSG2's ``<=`` rectangle counts) is the symmetric construction: the
    radius is *inflated* by a relative-ulp margin so the tree's internal
    squared-distance rounding can never drop a boundary point — e.g. on an
    integer grid ``fl(sqrt(3))**2 = 2.999…96 < 3``, so querying at the exact
    threshold would miss points the dense ``d <= r`` comparison counts.  The
    inflation is far below the relative gap between distinct grid distances
    (≈ 1/(2r²)), so grid counts are bitwise exact; for generic continuous
    data boundary rounding can flip a count by ±1, the same last-ulp caveat
    as everywhere else (covered by the estimators' tolerance contract).
    """

    def __init__(self, block: np.ndarray, *, workers: int = 1) -> None:
        block = np.atleast_2d(np.asarray(block, dtype=float))
        if block.ndim != 2:
            raise ValueError("block must be a 2-D sample matrix")
        self.block = block
        self.n_samples = block.shape[0]
        self.workers = int(workers)
        self._tree = cKDTree(block)

    def counts_within(self, radii: np.ndarray, *, inclusive: bool = False) -> np.ndarray:
        """Per-sample count of neighbours within ``radii`` (self excluded).

        Strict mode (default) counts ``||x_i - x_j||_2 < radii[i]``;
        ``inclusive=True`` counts ``<= radii[i]``, the KSG2 rectangle rule.
        """
        radii = np.asarray(radii, dtype=float)
        if radii.shape != (self.n_samples,):
            raise ValueError(f"radii must have shape ({self.n_samples},), got {radii.shape}")
        if inclusive:
            # d <= r ⇔ d < succ(r): inflate by at least one ulp, and by a
            # relative margin so the tree's internal rounding of boundary
            # distances can never exclude a point the dense comparison counts.
            grown = np.maximum(np.nextafter(radii, np.inf), radii * (1.0 + 1e-12))
            lengths = self._tree.query_ball_point(
                self.block, r=grown, p=2.0, return_length=True, workers=self.workers
            )
            # The self-pair (distance 0) is always inside an inclusive ball.
            return lengths - 1
        positive = radii > 0
        shrunk = np.where(positive, np.nextafter(radii, -np.inf), 0.0)
        lengths = self._tree.query_ball_point(
            self.block, r=shrunk, p=2.0, return_length=True, workers=self.workers
        )
        # A positive radius always admits the self-pair (distance 0); a zero
        # radius admits nothing under the strict comparison.
        return np.where(positive, lengths - 1, 0)


def kozachenko_leonenko_entropy(
    samples: np.ndarray, k: int = 5, *, backend: str = "dense", workers: int = 1
) -> float:
    """Kozachenko–Leonenko differential entropy estimate, in bits.

    ``h(X) ≈ ψ(m) - ψ(k) + log(c_d) + (d/m) Σ log ε_i`` with ``ε_i`` the
    distance to the k-th neighbour and ``c_d`` the volume of the unit
    d-ball.  Used for the entropy-over-time diagnostics of §6/§7.1 (the
    multi-information itself uses the KSG construction, which cancels these
    volume terms between joint and marginals).
    """
    from scipy.special import digamma, gammaln

    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    m, d = samples.shape
    backend = resolve_estimator_backend(backend, n_samples=m)
    eps = kth_neighbor_distances(samples, k, backend=backend, workers=workers)
    eps = np.maximum(eps, 1e-300)
    log_ball_volume = (d / 2.0) * np.log(np.pi) - gammaln(d / 2.0 + 1.0)
    nats = digamma(m) - digamma(k) + log_ball_volume + d * np.mean(np.log(eps))
    return float(nats / np.log(2.0))
