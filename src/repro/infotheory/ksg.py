"""Kraskov–Stögbauer–Grassberger (KSG) multi-information estimator.

This is the paper's workhorse (§5.3, Eqs. 18–20).  Given ``m`` joint samples
of observers ``W_1, …, W_n`` (each observer a small vector, here a particle's
2-D position), the estimator is

.. math::

    \\hat I = \\psi(k) + (n-1)\\,\\psi(m)
              - \\big\\langle \\psi(c_1) + \\cdots + \\psi(c_n) \\big\\rangle

where the joint metric is the maximum over observers of the per-observer
Euclidean distance (Eq. 19), ``N_k(w)`` is the k-th nearest neighbour of
sample ``w`` under that metric, and ``c_i`` counts the samples whose
observer-``i`` distance is strictly smaller than the observer-``i`` distance
of that k-th neighbour (Eq. 20).

Three variants are exposed:

``"ksg2"`` (default)
    The standard KSG algorithm 2 (Kraskov et al. 2004): per-observer
    thresholds are the extent of the smallest axis-aligned rectangle
    containing all ``k`` joint neighbours, counts are inclusive, and the
    ``-(n-1)/k`` correction is applied.  This is the calibrated estimator —
    it recovers the analytic value for correlated Gaussians and is what the
    measurement pipeline uses.
``"ksg1"``
    KSG algorithm 1: a single joint ε per sample, counts taken strictly
    inside it, ``ψ(c_i + 1)`` in the average.  Also calibrated; slightly
    higher variance, slightly lower bias in high dimension.
``"paper"``
    The literal transcription of Eqs. 18–20 (per-observer distance to the
    joint k-th neighbour, strict counts, no correction).  It reproduces the
    *shape* of the curves but carries a positive offset of a few bits; kept
    for fidelity to the text and for the estimator-comparison benchmarks.

Backends
--------
Like the simulation engines and the §7.3 estimators, the estimator takes
``backend="dense" | "kdtree" | "auto"`` — for **every** variant.  The tree
backend answers the queries through
:class:`~repro.infotheory.knn.ProductMetricTree` (joint k-th-neighbour radii
— and, for the rectangle variants, the neighbour *identities* — under the
exact Eq. 19 product metric) and
:class:`~repro.infotheory.knn.EuclideanBallCounter` (list-free strict or
inclusive per-observer ball counts), so it computes the *same* counts as the
dense backend — the two agree to floating-point tolerance, bit-exactly on
inputs whose distances are exactly representable (integer grids, duplicated
samples).  Neighbour ties are broken canonically by ``(distance, sample
index)`` on both backends, so even the tie-heavy degenerate inputs select
the same rectangle.  ``"auto"`` switches to the tree at a per-variant
measured crossover: :data:`KSG1_KDTREE_MIN_SAMPLES` for ``"ksg1"`` (its
strict counts are cheapest), :data:`KSG2_KDTREE_MIN_SAMPLES` /
:data:`PAPER_KDTREE_MIN_SAMPLES` for the rectangle variants (their tree paths
additionally materialise the ``(m, k)`` identity table).  ``workers=``
threads every underlying cKDTree query (scipy semantics, ``-1`` = all cores)
without changing any result.

The dense backend streams each variable's *squared* distances
``q = (sq_i + sq_j) - 2·g`` (``g`` the gram) through one small float64
scratch (one ``(m, m)`` matrix from m = 129 on, a few below), whose
Euclidean distances are ``sqrt(max(q, 0))``.  Two BLAS calls build ``q``
on the upper triangle only, one ``dsyr2k`` for the row-norm sums and one
``dsyrk`` for the gram, bit for bit equal to the full-matrix ``x @ x.T``
formulation within the limits :func:`_squared_distances` states.  Pass 1
folds each variable's triangle into the running joint maximum; its square
root, mirrored once into full rows, is the joint Eq. 19 distance, because
``sqrt(max(·, 0))`` is monotone.  Pass 2 rebuilds each triangle, maps every
distance threshold ``t`` to its squared *preimage* — the largest double
``Q`` with ``sqrt(max(Q, 0)) <= t`` (``< t`` for the strict counts) — and
counts ``q <= Q`` on the strict upper triangle, each pair once for its row's
sample and once for its column's.  IEEE ``sqrt`` is correctly rounded,
hence monotone, so each count equals the distance comparison's exactly, and
no per-variable square root is taken.  Rebuilding a triangle costs less
than keeping ``n_vars`` of them: about three ``(m, m)`` matrices are alive
at once, whatever the number of variables.

All results are converted to **bits** (the digamma identities are in nats).
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator

import numpy as np
from scipy.linalg.blas import dsyr2k, dsyrk
from scipy.special import digamma

from repro.infotheory.knn import (
    EuclideanBallCounter,
    ProductMetricTree,
    k_nearest_neighbor_indices,
    resolve_estimator_backend,
)
from repro.infotheory.variables import as_variable_list

__all__ = [
    "ksg_multi_information",
    "KSG_VARIANTS",
    "KSG1_KDTREE_MIN_SAMPLES",
    "KSG2_KDTREE_MIN_SAMPLES",
    "PAPER_KDTREE_MIN_SAMPLES",
]

_LN2 = float(np.log(2.0))

#: Every supported estimator variant, in the order the error messages cite.
KSG_VARIANTS = ("paper", "ksg1", "ksg2")

#: Measured dense/kdtree crossover of the KSG1 estimator: its marginal counts
#: are list-free tree queries, so the tree backend wins far earlier than for
#: the Frenzel–Pompe CMI (whose product-metric counts must filter candidate
#: lists).  Its re-measured ratios are with the rectangle variants' below.
KSG1_KDTREE_MIN_SAMPLES = 256

#: Measured dense/kdtree crossovers of the rectangle variants (2 × 2-D
#: observer blocks, k = 4, single worker; tree/dense ratio 1.25× at the KSG2
#: constant and ~1.1× at the "paper" one, growing to >25× by m = 4096).
#: Both pay for the adaptive identity search on top of KSG1's radius query;
#: "paper" crosses slightly later because its strict counts are cheaper on
#: the dense side.  Either way the tree overtakes well below paper scale
#: (m = 500 joint samples per figure point, m = 4000 pooled in §7.3).
#: Re-measured against the triangle kernel (same shape, one BLAS thread),
#: dense time over tree time, alike for the three variants: 0.5–0.6 at
#: m = 128, 0.6–0.8 at 256, 1.1–1.3 at 384, 1.4–1.6 at 512, 1.8–2.0 at 1024
#: and 3.7–4.0 at 2048 (before it: 0.95–1.1 at 256 and 2.6–3.4 at 1024).
#: The crossover now lies between 256 and 384, so ``"auto"`` runs KSG1 and
#: KSG2 at m = 256–383 on a tree 1.2–1.6× slower.  The three constants stay
#: where they are: ``"auto"`` is hashed as the string, so moving one would
#: change an auto unit's numbers under its content hash.
KSG2_KDTREE_MIN_SAMPLES = 256
PAPER_KDTREE_MIN_SAMPLES = 384

#: Per-variant ``"auto"`` crossover table of :func:`_resolve_ksg_backend`.
_KSG_TREE_MIN_SAMPLES = {
    "ksg1": KSG1_KDTREE_MIN_SAMPLES,
    "ksg2": KSG2_KDTREE_MIN_SAMPLES,
    "paper": PAPER_KDTREE_MIN_SAMPLES,
}

#: Element budget of the dense kernel's blocks: the multi-information stream
#: builds ``c = max(1, KSG_BLOCK_ELEMENTS // m²)`` variables' triangles at a
#: time, and the triangle counts (:func:`_triangle_counts`, per variable)
#: and the mirror into full rows (:func:`_mirror_upper`) go
#: ``max(1, KSG_BLOCK_ELEMENTS // m)`` rows at a time (at most ``m``).
#: At the streaming-MI shape (50 blocks of m = 512, k = 4, one BLAS thread,
#: 2-CPU x86-64 box) 2^15, 2^16 and 2^17 were within their run-to-run spread
#: of each other (median 91–98 ms) and 2^14 and 2^18 about 10% slower.  The
#: mirror favours 2^15: its strips of 64–81 rows at m = 400–512 take
#: 0.24–0.44 ms per joint, against 0.46–0.65 ms for the 256–327 rows of 2^17.
KSG_BLOCK_ELEMENTS = 1 << 15


def _ksg1_value_from_counts(
    per_block_counts: np.ndarray | list[np.ndarray], k: int, m: int
) -> float:
    """KSG algorithm-1 digamma average (strict counts, ``ψ(c_i + 1)``).

    ``per_block_counts`` is the ``(n_vars, m)`` count table or a list of its
    rows.  Shared by the dense and tree backends (and the §7.3 lagged-MI
    path) so the arithmetic — and hence the result — is identical across
    them.
    """
    psi_terms = sum(digamma(counts + 1) for counts in per_block_counts)
    value_nats = float(digamma(k) + (len(per_block_counts) - 1) * digamma(m) - np.mean(psi_terms))
    return value_nats / _LN2


def _rect_value_from_counts(counts: np.ndarray, k: int, m: int, variant: str) -> float:
    """Digamma average of the rectangle variants ("paper" / "ksg2"), in bits.

    ``counts`` is the stacked ``(n_vars, m)`` count table.  Counts are >= k-ish
    by construction but can be 0 in degenerate cases (duplicated samples);
    clamp to 1 to keep psi finite, mirroring common implementations.  Shared
    by the dense and tree backends so the arithmetic — and hence the result —
    is identical across them.
    """
    n_vars = counts.shape[0]
    safe_counts = np.maximum(counts, 1)
    psi_terms = digamma(safe_counts).sum(axis=0)
    value_nats = digamma(k) + (n_vars - 1) * digamma(m) - psi_terms.mean()
    if variant == "ksg2":
        value_nats -= (n_vars - 1) / k
    return float(value_nats / _LN2)


def _ksg_value_from_counts(counts: np.ndarray, k: int, m: int, variant: str) -> float:
    """The value in bits of any variant from its ``(n_vars, m)`` count table."""
    if variant == "ksg1":
        return _ksg1_value_from_counts(counts, k, m)
    return _rect_value_from_counts(counts, k, m, variant)


def _ksg1_tree_counts(
    blocks: list[np.ndarray],
    k: int,
    counters: list[EuclideanBallCounter | ProductMetricTree],
    *,
    workers: int = 1,
) -> list[np.ndarray]:
    """Strict neighbour counts of the tree-backed KSG1 path, one per counter.

    The joint k-th-neighbour radius comes from the product-metric tree over
    ``blocks``, and each counter counts strictly inside it: one
    :class:`EuclideanBallCounter` per block for the multi-information, or
    the subspaces (A, C), (B, C) and C for the Frenzel–Pompe CMI.
    """
    epsilon = ProductMetricTree(blocks, workers=workers).kth_neighbor_distances(k)
    return [counter.counts_within(epsilon) for counter in counters]


def _rect_tree_counts(
    blocks: list[np.ndarray],
    k: int,
    variant: str,
    counters: list[EuclideanBallCounter],
    *,
    workers: int = 1,
) -> list[np.ndarray]:
    """Per-block neighbour counts of the tree-backed rectangle variants.

    The joint tree supplies the canonical ``(m, k)`` neighbour *identities*;
    per-observer thresholds are then exact coordinate distances to those
    neighbours ("paper": to the k-th; "ksg2": the rectangle extent over all
    k), and the single-block ball counter answers the counts — strict for
    "paper" (Eq. 20), inclusive for "ksg2" (algorithm 2 of Kraskov et al.).
    """
    knn_idx = ProductMetricTree(blocks, workers=workers).k_joint_neighbor_indices(k)
    counts: list[np.ndarray] = []
    for block, counter in zip(blocks, counters):
        if variant == "paper":
            diff = block - block[knn_idx[:, -1]]
            thresholds = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            counts.append(counter.counts_within(thresholds))
        else:
            diff = block[:, None, :] - block[knn_idx]  # (m, k, d)
            dists = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            counts.append(counter.counts_within(dists.max(axis=1), inclusive=True))
    return counts


def _ksg_tree_counts(
    blocks: list[np.ndarray],
    k: int,
    variant: str,
    block_counters: list[EuclideanBallCounter] | None = None,
    *,
    workers: int = 1,
) -> np.ndarray:
    """The tree backend's ``(n_vars, m)`` count table of any variant.

    ``block_counters`` lets the pairwise analysis reuse counters across
    matrix rows — a fresh counter yields the same counts, which keeps the
    shared path bit-identical.
    """
    counters = block_counters or [EuclideanBallCounter(b, workers=workers) for b in blocks]
    if variant == "ksg1":
        return np.stack(_ksg1_tree_counts(blocks, k, counters, workers=workers))
    return np.stack(_rect_tree_counts(blocks, k, variant, counters, workers=workers))


def _squared_preimage(threshold: np.ndarray, *, strict: bool) -> np.ndarray:
    """Largest ``Q`` with ``sqrt(max(Q, 0)) <= t`` (``< t`` if ``strict``), elementwise.

    IEEE ``sqrt`` is correctly rounded and hence monotone, so for every
    double ``q`` the distance test ``sqrt(max(q, 0)) <= t`` holds exactly
    when ``q <= Q``.  ``Q`` starts at ``t*t`` and moves a few ``nextafter``
    steps to the last double whose root passes.  Where no double passes (a
    NaN threshold, or ``t <= 0`` under the strict test) ``Q`` is NaN, which
    nothing compares ``<=`` to — as nothing is ``<=`` a NaN distance.
    """
    t = np.asarray(threshold, dtype=float)
    if strict:
        t = np.nextafter(t, -np.inf)  # d < t  ⇔  d <= pred(t) for doubles
    with np.errstate(over="ignore", under="ignore"):  # t*t and the steps saturate
        bound = np.where(t >= 0.0, t * t, np.nan)
        while True:  # down while the root is too large (as where t*t overflowed)
            too_big = np.sqrt(bound) > t
            if not too_big.any():
                break
            bound = np.where(too_big, np.nextafter(bound, -np.inf), bound)
        while True:  # up while the next double's root still passes
            up = np.nextafter(bound, np.inf)
            fits = (up > bound) & (np.sqrt(up) <= t)
            if not fits.any():
                return bound
            bound = np.where(fits, up, bound)


def _squared_distances(samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One variable's squared distances ``q`` on and above the diagonal of an ``(m, m)`` matrix.

    ``q_ij = (sq_i + sq_j) - 2·g_ij`` with ``sq`` the squared row norms and
    ``g`` the gram, both of a C-ordered copy of ``samples`` (so the bits do
    not depend on its memory layout); the distances are
    ``sqrt(max(q, 0))``.  Two BLAS calls
    fill the upper triangle of the C-ordered ``out`` through its Fortran
    view ``out.T``: ``dsyr2k`` writes ``sq_i·1 + 1·sq_j``, whose products
    are exact, so each entry is ``fl(sq_i + sq_j)``; ``dsyrk`` with
    ``alpha = -2`` and ``beta = 1`` then adds ``-2·g``.  That ``dsyrk`` is
    the Fortran ``dsyrk('L', 'T')`` numpy's ``x @ x.T`` calls for a C-ordered
    ``x``, and scaling by -2 is exact, so every entry equals the
    ``(sq_i + sq_j) - 2·(x @ x.T)`` formulation bit for bit — without the
    strided mirror loop numpy runs after it.  Two limits bound that
    equality.  ``dsyrk`` adds ``-2·g`` unrounded, so where ``2·|g|``
    overflows it reads ``+inf + (-2·g) = +inf`` where the formulation reads
    ``+inf + -inf = NaN``: a cloud with a finite row whose squared norm
    passes a quarter of the largest double (coordinates past about 1e153)
    therefore takes the formulation itself.  And the BLAS sums ``g`` in
    blocks of its inner dimension (384 columns in SciPy's OpenBLAS 0.3.30 on
    x86-64) and adds each block's ``-2·`` in turn, so a wider ``x`` can round
    differently; the pipeline's widest blocks are the 100 columns of fig4's
    joint entropy.  The diagonal is set to exactly 0.0 and the strict lower
    triangle is left as it was (zeros in a buffer this allocates); readers
    take ``q_ij`` for ``i > j`` from ``q_ji``.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    m = samples.shape[0]
    if out is None:
        out = np.zeros((m, m))
    elif out.shape != (m, m) or out.dtype != np.float64 or not out.flags.c_contiguous:
        # BLAS would fill a copy of any other buffer and leave ``out`` as it was.
        raise ValueError("out must be a C-contiguous float64 (m, m) array")
    # Norms and gram both come from the C-ordered rows: numpy sums an F-ordered
    # or column-strided row in another order, which would change the last bits.
    x = np.ascontiguousarray(samples)
    sq = np.einsum("ij,ij->i", x, x)
    # Rows with a non-finite entry give a non-finite g, whose -2·g is exact.
    limit = sys.float_info.max / 4
    if not sq.max() <= limit and np.isfinite(x[~(sq <= limit)]).all(axis=1).any():
        with np.errstate(over="ignore", invalid="ignore"):
            full = (x @ x.T) * -2.0 + (sq[:, None] + sq[None, :])
        upper = np.triu_indices(m, 1)
        out[upper] = full[upper]
    else:
        lower = out.T  # F-contiguous: BLAS writes its lower triangle, out's upper one, in place
        dsyr2k(1.0, sq[:, None], np.ones((m, 1)), 0.0, lower, lower=1, overwrite_c=1)
        dsyrk(-2.0, x.T, 1.0, lower, trans=1, lower=1, overwrite_c=1)
    np.fill_diagonal(out, 0.0)
    return out


def _mirror_upper(q: np.ndarray) -> np.ndarray:
    """Copy the strict upper triangle of the square ``q`` onto its strict lower one, in place.

    Done in column strips of :data:`KSG_BLOCK_ELEMENTS` elements' worth of
    rows: each strip reads a row block of the upper triangle, which stays in
    cache while its transpose is written.
    """
    m = q.shape[0]
    rows = min(m, max(1, KSG_BLOCK_ELEMENTS // m))
    below = np.tri(rows, k=-1, dtype=bool)
    for r0 in range(0, m, rows):
        r1 = min(m, r0 + rows)
        q[r1:, r0:r1] = q[r0:r1, r1:].T
        square = q[r0:r1, r0:r1]
        np.copyto(square, square.T, where=below[: r1 - r0, : r1 - r0])
    return q


def _triangle_counts(q: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """``#{j != i : q_ij <= bound_i}`` per variable and sample, from the upper triangles of ``q``.

    ``q`` stacks ``c`` variables' ``(m, m)`` triangles and ``bound`` their
    ``(c, m)`` thresholds.  Each pair ``i < j`` is read once, at
    ``q[:, i, j]``: row ``i`` is counted against ``bound[:, i]`` and column
    ``j`` against ``bound[:, j]``.  Each variable's rows go
    :data:`KSG_BLOCK_ELEMENTS` elements' worth at a time, through one reused
    boolean buffer, and each block masks the part of its leading square on
    or below the diagonal.  A row's partial count is at most ``m``, so it is
    summed in the smallest unsigned integer type that holds ``m``; a block
    has at most 255 rows, so a column's is summed in ``uint8``, the
    booleans' own width, without a cast.
    """
    c, m, _ = q.shape
    rows = min(m, np.iinfo(np.uint8).max, max(1, KSG_BLOCK_ELEMENTS // m))
    above = ~np.tri(rows, dtype=bool)
    partial = np.min_scalar_type(m)
    buffer = np.empty((c, rows, m), dtype=bool)
    counts = np.zeros((c, m), dtype=int)
    for r0 in range(0, m, rows):
        r1 = min(m, r0 + rows)
        block = q[:, r0:r1, r0:]  # the leading square straddles the diagonal
        square_above = above[: r1 - r0, : r1 - r0]
        inside = buffer[:, : r1 - r0, : m - r0]
        np.less_equal(block, bound[:, r0:r1, None], out=inside)
        inside[:, :, : r1 - r0] &= square_above
        counts[:, r0:r1] += np.add.reduce(inside, axis=2, dtype=partial)
        np.less_equal(block, bound[:, None, r0:], out=inside)
        inside[:, :, : r1 - r0] &= square_above
        counts[:, r0:] += np.add.reduce(inside.view(np.uint8), axis=1, dtype=np.uint8)
    return counts


def _counts_from_squared(
    work: Iterable[np.ndarray], joint_q: np.ndarray, k: int, variant: str
) -> np.ndarray:
    """Pass 2 of the dense kernel: the ``(n_vars, m)`` counts from squared-distance triangles.

    ``joint_q`` holds the variables' elementwise maximum on and above the
    diagonal; this mirrors it and turns it into the joint distances in
    place, then ranks the joint neighbours.  ``work`` yields the variables'
    :func:`_squared_distances` triangles as ``(c, m, m)`` stacks, in order:
    one stacked workspace, or :func:`_squared_stream` rebuilding them a few
    at a time (read only after the neighbours are ranked).  Every threshold
    is a distance, exactly as the distance-matrix formulation takes it; each
    count is the number of ``q`` at or below the threshold's
    :func:`_squared_preimage`, the self pair excluded.
    """
    joint = _mirror_upper(joint_q)
    np.maximum(joint, 0.0, out=joint)
    np.sqrt(joint, out=joint)
    knn_idx = k_nearest_neighbor_indices(joint, k)  # (m, k), sorted by distance
    sample_idx = np.arange(joint.shape[0])
    # Each (sample, neighbour) pair at its place in the upper triangle.
    near = np.minimum(sample_idx[:, None], knn_idx)
    far = np.maximum(sample_idx[:, None], knn_idx)
    if variant == "ksg1":
        # Single joint epsilon per sample; strict inequality against it.
        epsilon = _squared_preimage(joint[sample_idx, knn_idx[:, -1]], strict=True)
    counts = []
    for q in work:
        if variant == "ksg1":
            bound = np.broadcast_to(epsilon, q.shape[:2])
        elif variant == "paper":
            # Eq. 20 literally: the per-observer distance to the joint k-th
            # neighbour, counting strictly inside it.
            kth_q = q[:, near[:, -1], far[:, -1]]  # (c, m)
            bound = _squared_preimage(np.sqrt(np.maximum(kth_q, 0.0)), strict=True)
        else:
            # KSG algorithm 2: the per-observer extent of the smallest
            # rectangle containing all k joint neighbours, counted inclusively.
            extent = np.sqrt(np.maximum(q[:, near, far], 0.0)).max(axis=2)  # (c, m)
            bound = _squared_preimage(extent, strict=False)
        counts.append(_triangle_counts(q, bound))
    return np.concatenate(counts)


def _squared_stream(var_list: list[np.ndarray]) -> Iterator[np.ndarray]:
    """The variables' :func:`_squared_distances` triangles as ``(c, m, m)`` stacks, in order.

    ``c = max(1, KSG_BLOCK_ELEMENTS // m²)`` (the last stack may hold
    fewer), built into one reused scratch, so small clouds are counted
    several variables per call and large ones one at a time.
    """
    m = var_list[0].shape[0]
    step = min(len(var_list), max(1, KSG_BLOCK_ELEMENTS // (m * m)))
    scratch = None
    for v0 in range(0, len(var_list), step):
        chunk = var_list[v0 : v0 + step]
        if scratch is None:
            scratch = np.zeros((step, m, m))
        for samples, slot in zip(chunk, scratch):
            _squared_distances(samples, slot)
        yield scratch[: len(chunk)]


def _dense_ksg_counts(var_list: list[np.ndarray], k: int, variant: str) -> np.ndarray:
    """Dense-backend counts, streamed through one small scratch of triangles.

    Pass 1 folds every variable's triangle into the joint maximum; pass 2
    rebuilds the triangles to count them: building a triangle costs less
    than keeping ``n_vars`` of them.  A stream's scratch holds
    ``max(m², KSG_BLOCK_ELEMENTS)`` elements at most and is allocated only
    when the stream starts, so pass 1's is gone before the k-NN copies the
    joint: besides that scratch, at most three ``(m, m)`` matrices are alive
    at once, whatever the number of variables.
    """
    m = var_list[0].shape[0]
    joint_q = np.full((m, m), -np.inf)
    for stack in _squared_stream(var_list):
        for q in stack:
            np.maximum(joint_q, q, out=joint_q)
    del stack, q  # pass 1's scratch; pass 2 allocates its own after the k-NN
    return _counts_from_squared(_squared_stream(var_list), joint_q, k, variant)


def _validate_k(k: int, m: int) -> None:
    if not 1 <= k <= m - 1:
        raise ValueError(f"k must satisfy 1 <= k <= m-1 (m={m}), got {k}")


def _validate_variant(variant: str) -> None:
    if variant not in KSG_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected 'paper', 'ksg1' or 'ksg2'")


def ksg_multi_information(
    variables: list[np.ndarray] | np.ndarray,
    k: int = 5,
    *,
    variant: str = "ksg2",
    backend: str = "dense",
    workers: int = 1,
) -> float:
    """KSG estimate of the multi-information ``I(W_1, …, W_n)`` in bits.

    Parameters
    ----------
    variables:
        Observer samples; a list of ``(m, d_i)`` arrays, an ``(m, n)`` array
        of scalar observers, or an ``(m, n, d)`` array of vector observers.
    k:
        Neighbour order.  The paper uses ``k = 5`` in the methods section and
        ``k = 4`` for the experiment figures; results are insensitive in that
        range.
    variant:
        ``"ksg2"`` (default), ``"ksg1"`` or ``"paper"`` — see module docstring.
    backend:
        ``"dense"`` (default), ``"kdtree"`` or ``"auto"`` — see the
        *Backends* section of the module docstring.
    workers:
        Thread count for the tree backend's cKDTree queries (scipy
        semantics, ``-1`` = all cores).  Pure throughput knob: never changes
        the result.  Ignored by the dense backend.
    """
    var_list = as_variable_list(variables)
    m = var_list[0].shape[0]
    _validate_k(k, m)
    _validate_variant(variant)

    if _resolve_ksg_backend(backend, variant, m) == "kdtree":
        counts = _ksg_tree_counts(var_list, k, variant, workers=workers)
    else:
        counts = _dense_ksg_counts(var_list, k, variant)
    return _ksg_value_from_counts(counts, k, m, variant)


def _resolve_ksg_backend(backend: str, variant: str, m: int) -> str:
    """Resolve the backend request for a variant (per-variant auto crossover)."""
    return resolve_estimator_backend(
        backend, n_samples=m, min_samples=_KSG_TREE_MIN_SAMPLES[variant]
    )
