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

The dense backend is a two-pass kernel over one ``(n_vars, m, m)`` float64
workspace of *squared* distances ``q = (sq_i + sq_j) - 2·(x @ x.T)``, whose
Euclidean distance is ``sqrt(max(q, 0))``.  Pass 1 writes each variable's
``q`` and keeps their running maximum;
its square root is the joint Eq. 19 distance, because ``sqrt(max(·, 0))`` is
monotone.  Pass 2 maps every distance threshold ``t`` to its squared
*preimage* — the largest double ``Q`` with ``sqrt(max(Q, 0)) <= t`` (``< t``
for the strict counts) — and counts ``q <= Q``.  IEEE ``sqrt`` is correctly
rounded, hence monotone, so each count equals the distance comparison's
exactly, and no per-variable square root is taken.

All results are converted to **bits** (the digamma identities are in nats).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
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
    "KSGDiagnostics",
    "ksg_multi_information_with_diagnostics",
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
#: lists).
KSG1_KDTREE_MIN_SAMPLES = 256

#: Measured dense/kdtree crossovers of the rectangle variants (2 × 2-D
#: observer blocks, k = 4, single worker; tree/dense ratio 1.25× at the KSG2
#: constant and ~1.1× at the "paper" one, growing to >25× by m = 4096).
#: Both pay for the adaptive identity search on top of KSG1's radius query;
#: "paper" crosses slightly later because its strict counts are cheaper on
#: the dense side.  Either way the tree overtakes well below paper scale
#: (m = 500 joint samples per figure point, m = 4000 pooled in §7.3).
KSG2_KDTREE_MIN_SAMPLES = 256
PAPER_KDTREE_MIN_SAMPLES = 384

#: Per-variant ``"auto"`` crossover table of :func:`_resolve_ksg_backend`.
_KSG_TREE_MIN_SAMPLES = {
    "ksg1": KSG1_KDTREE_MIN_SAMPLES,
    "ksg2": KSG2_KDTREE_MIN_SAMPLES,
    "paper": PAPER_KDTREE_MIN_SAMPLES,
}

#: Element budget of the dense kernel's blocks: pass 1 builds its
#: ``sq_i + sq_j`` temporary ``max(1, KSG_BLOCK_ELEMENTS // m)`` rows at a
#: time, and pass 2 compares ``max(1, KSG_BLOCK_ELEMENTS // m²)`` variables'
#: squared blocks per step.  2^15 was the fastest of 2^12–2^20 at the
#: streaming-MI shape (50 blocks of m = 512, k = 4) on a 2-CPU x86-64 box,
#: though every budget in that range was within 8% of it.
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


def _squared_distances(
    samples: np.ndarray, out: np.ndarray | None = None, joint_q: np.ndarray | None = None
) -> np.ndarray:
    """Pass 1 of the dense kernel for one variable: its ``(m, m)`` squared distances.

    Writes ``q = (sq_i + sq_j) - 2·g`` with a zero diagonal into ``out``;
    the distances are ``sqrt(max(q, 0))``.  The gram ``g`` is numpy's
    ``x @ x.T`` (its ``syrk`` path, which ``out=`` keeps), and
    ``fl(-2g + s)`` is ``fl(s - 2g)``.  The ``sq_i + sq_j`` rows are built
    :data:`KSG_BLOCK_ELEMENTS` elements at a time, and each finished row
    block is folded into ``joint_q`` (a running elementwise maximum) while
    it is still in cache.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    m = samples.shape[0]
    if out is None:
        out = np.empty((m, m))
    np.matmul(samples, samples.T, out=out)
    sq = np.einsum("ij,ij->i", samples, samples)
    rows = max(1, KSG_BLOCK_ELEMENTS // m)
    for r0 in range(0, m, rows):
        block = out[r0 : r0 + rows]
        block *= -2.0
        block += sq[r0 : r0 + rows, None] + sq[None, :]
        np.fill_diagonal(block[:, r0 : r0 + rows], 0.0)
        if joint_q is not None:
            np.maximum(joint_q[r0 : r0 + rows], block, out=joint_q[r0 : r0 + rows])
    return out


def _counts_from_squared(work: np.ndarray, joint_q: np.ndarray, k: int, variant: str) -> np.ndarray:
    """Pass 2 of the dense kernel: the ``(n_vars, m)`` counts from squared blocks.

    ``work`` stacks the variables' :func:`_squared_distances` and ``joint_q``
    is their elementwise maximum, which this turns into the joint distances
    in place.  Every threshold is a distance, exactly as the distance-matrix
    formulation takes it; each count is the number of ``q`` at or below the
    threshold's :func:`_squared_preimage`, minus the self pair (``q = 0``).
    """
    n_vars, m, _ = work.shape
    np.maximum(joint_q, 0.0, out=joint_q)
    joint = np.sqrt(joint_q, out=joint_q)
    knn_idx = k_nearest_neighbor_indices(joint, k)  # (m, k), sorted by distance
    kth_idx = knn_idx[:, -1]  # (m,)
    sample_idx = np.arange(m)

    if variant == "ksg1":
        # Single joint epsilon per sample; strict inequality against it.
        epsilon = _squared_preimage(joint[sample_idx, kth_idx], strict=True)
        bound = np.broadcast_to(epsilon, (n_vars, m))
    elif variant == "paper":
        # Eq. 20 literally: the per-observer distance to the joint k-th
        # neighbour, counting strictly inside it.
        kth_q = work[:, sample_idx, kth_idx]  # (n_vars, m)
        bound = _squared_preimage(np.sqrt(np.maximum(kth_q, 0.0)), strict=True)
    else:
        # KSG algorithm 2: the per-observer extent of the smallest rectangle
        # containing all k joint neighbours, counted inclusively.
        neighbor_q = work[:, sample_idx[:, None], knn_idx]  # (n_vars, m, k)
        extent = np.sqrt(np.maximum(neighbor_q, 0.0)).max(axis=2)
        bound = _squared_preimage(extent, strict=False)

    counts = np.empty((n_vars, m), dtype=int)
    step = max(1, KSG_BLOCK_ELEMENTS // (m * m))
    for v0 in range(0, n_vars, step):
        inside = work[v0 : v0 + step] <= bound[v0 : v0 + step, :, None]
        counts[v0 : v0 + step] = np.count_nonzero(inside, axis=2)
    counts -= bound >= 0.0  # the self pair (q = 0 on the diagonal)
    return counts


def _dense_ksg_counts(var_list: list[np.ndarray], k: int, variant: str) -> np.ndarray:
    """Dense-backend counts: pass 1 into one ``(n_vars, m, m)`` workspace, then pass 2."""
    m = var_list[0].shape[0]
    work = np.empty((len(var_list), m, m))
    joint_q = np.full((m, m), -np.inf)
    for slot, samples in zip(work, var_list):
        _squared_distances(samples, slot, joint_q)
    return _counts_from_squared(work, joint_q, k, variant)


@dataclass(frozen=True)
class KSGDiagnostics:
    """Intermediate quantities of one KSG evaluation (useful for tests/debugging).

    Attributes
    ----------
    value_bits:
        The multi-information estimate in bits.
    counts:
        ``(n_vars, m)`` neighbour counts ``c_i`` entering the digamma average.
    k:
        Neighbour order used.
    variant:
        Which estimator variant produced the value.
    """

    value_bits: float
    counts: np.ndarray
    k: int
    variant: str


def _validate_k(k: int, m: int) -> None:
    if not 1 <= k <= m - 1:
        raise ValueError(f"k must satisfy 1 <= k <= m-1 (m={m}), got {k}")


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
    return ksg_multi_information_with_diagnostics(
        variables, k, variant=variant, backend=backend, workers=workers
    ).value_bits


def _resolve_ksg_backend(backend: str, variant: str, m: int) -> str:
    """Resolve the backend request for a variant (per-variant auto crossover)."""
    return resolve_estimator_backend(
        backend, n_samples=m, min_samples=_KSG_TREE_MIN_SAMPLES[variant]
    )


def ksg_multi_information_with_diagnostics(
    variables: list[np.ndarray] | np.ndarray,
    k: int = 5,
    *,
    variant: str = "ksg2",
    backend: str = "dense",
    workers: int = 1,
) -> KSGDiagnostics:
    """Same as :func:`ksg_multi_information` but returning intermediate counts."""
    var_list = as_variable_list(variables)
    m = var_list[0].shape[0]
    _validate_k(k, m)
    if variant not in KSG_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected 'paper', 'ksg1' or 'ksg2'")

    if _resolve_ksg_backend(backend, variant, m) == "kdtree":
        counts = _ksg_tree_counts(var_list, k, variant, workers=workers)
    else:
        counts = _dense_ksg_counts(var_list, k, variant)
    return KSGDiagnostics(
        value_bits=_ksg_value_from_counts(counts, k, m, variant),
        counts=counts,
        k=k,
        variant=variant,
    )
