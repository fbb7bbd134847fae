"""Conditional mutual information and transfer entropy (the §7.3 extension).

The paper's future-work section reports attempts to measure the information
*dynamics* between individual particles over time (local information
transfer, Lizier et al.).  This module provides the estimators needed for
that programme:

* :func:`conditional_mutual_information` — the Frenzel–Pompe k-nearest-
  neighbour estimator of ``I(A; B | C)``, the conditional counterpart of the
  KSG construction used for the multi-information.
* :func:`transfer_entropy` — ``T_{source → target} = I(target_{t+1};
  source_t | target_t^{(history)})`` evaluated by pooling realisations (and
  optionally time points) of an ensemble of trajectories.

Transfer entropy requires identifiable particles over time, so it operates on
the **raw** (unpermuted) trajectories — exactly the caveat §5.2 raises about
the permutation-reduced representation.

Backends
--------
Every estimator takes ``backend="dense" | "kdtree" | "auto"``:

``"dense"``
    Materialises the O(m²) per-variable distance matrices.  Fastest for
    small pooled sample counts and the historical reference implementation.
``"kdtree"``
    Answers the same k-th-neighbour / strict-ball-count queries through
    :class:`repro.infotheory.knn.ProductMetricTree` — a Chebyshev
    :class:`~scipy.spatial.cKDTree` candidate search re-ranked with the exact
    product metric.  O(m log m)-ish; the only differences from ``"dense"``
    are last-ulp floating-point effects, so the two agree to tight tolerance
    (bit-exactly on inputs whose distances are exactly representable).
``"auto"`` (default)
    Picks by pooled sample count via
    :func:`repro.infotheory.knn.resolve_estimator_backend`, mirroring
    ``engine="auto"`` on the simulation side.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma

from repro.infotheory.knn import (
    EuclideanBallCounter,
    ProductMetricTree,
    k_nearest_neighbor_indices,
    pairwise_euclidean,
    resolve_estimator_backend,
)

__all__ = [
    "conditional_mutual_information",
    "time_lagged_mutual_information",
    "transfer_entropy",
    "embed_history",
]

_LN2 = float(np.log(2.0))


def _counts_within(per_var_block: np.ndarray, epsilon: np.ndarray) -> np.ndarray:
    """Count, per sample, the points strictly inside ``epsilon`` for a block metric.

    The self-pair is excluded explicitly (the diagonal's contribution is
    subtracted) rather than by writing into the comparison result, so the
    helper never mutates shared distance blocks and repeated calls on the
    same block are idempotent.
    """
    per_var_block = np.asarray(per_var_block)
    inside = per_var_block < epsilon[:, None]
    counts = inside.sum(axis=1)
    self_inside = np.diagonal(per_var_block) < epsilon
    return counts - self_inside.astype(counts.dtype)


def _as_samples(x: np.ndarray) -> np.ndarray:
    """Coerce a 1-D series or a 2-D sample matrix to shape ``(m, d)``."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x.reshape(-1, 1)
    if x.ndim == 2:
        return x
    raise ValueError("samples must be 1-D or 2-D")


def _cmi_value_from_counts(n_ac: np.ndarray, n_bc: np.ndarray, n_c: np.ndarray, k: int) -> float:
    """Frenzel–Pompe digamma average, shared by every backend/plan so the
    arithmetic (and hence the result) is bit-identical across them."""
    value_nats = float(
        digamma(k) - np.mean(digamma(n_ac + 1) + digamma(n_bc + 1) - digamma(n_c + 1))
    )
    return value_nats / _LN2


def _cmi_from_dense_blocks(
    d_ac: np.ndarray,
    d_b: np.ndarray,
    d_c: np.ndarray,
    k: int,
) -> float:
    """Frenzel–Pompe value from precomputed dense blocks.

    ``d_ac = max(d_A, d_C)`` is the target-side block (pair-independent in
    the pairwise analysis), ``d_b`` the source block, ``d_c`` the
    conditioning block.  Shared by :func:`conditional_mutual_information` and
    the shared-embedding pairwise plan, which is what makes the two paths
    bit-identical.
    """
    m = d_ac.shape[0]
    joint = np.maximum(d_ac, d_b)
    kth_idx = k_nearest_neighbor_indices(joint, k)[:, -1]
    epsilon = joint[np.arange(m), kth_idx]
    n_ac = _counts_within(d_ac, epsilon)
    n_bc = _counts_within(np.maximum(d_b, d_c), epsilon)
    n_c = _counts_within(d_c, epsilon)
    return _cmi_value_from_counts(n_ac, n_bc, n_c, k)


def _cmi_kdtree(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    k: int,
    *,
    ac_tree: ProductMetricTree | None = None,
    c_counter: EuclideanBallCounter | None = None,
    workers: int = 1,
) -> float:
    """Tree-backed Frenzel–Pompe value.

    The joint k-th-neighbour radius comes from the product-metric tree; the
    conditioning count ``n_C`` is a single-block count and uses the list-free
    :class:`EuclideanBallCounter`; the (A, C) and (B, C) counts use
    product-metric candidate filtering.  The (A, C) tree and the C counter
    depend only on the target side, so the pairwise analysis builds them once
    per matrix row and passes them in — a fresh structure yields the same
    counts, which keeps the shared path bit-identical to the per-pair one.
    """
    joint = ProductMetricTree([a, b, c], workers=workers)
    epsilon = joint.kth_neighbor_distances(k)
    ac = ac_tree if ac_tree is not None else ProductMetricTree([a, c], workers=workers)
    cc = c_counter if c_counter is not None else EuclideanBallCounter(c, workers=workers)
    n_ac = ac.counts_within(epsilon)
    n_bc = ProductMetricTree([b, c], workers=workers).counts_within(epsilon)
    n_c = cc.counts_within(epsilon)
    return _cmi_value_from_counts(n_ac, n_bc, n_c, k)


def conditional_mutual_information(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    k: int = 4,
    *,
    backend: str = "auto",
    workers: int = 1,
) -> float:
    """Frenzel–Pompe kNN estimate of ``I(A; B | C)`` in bits.

    ``a``, ``b`` and ``c`` are ``(m, d_*)`` sample matrices (1-D inputs are
    treated as single columns).  The estimator finds the k-th neighbour in the
    joint (A, B, C) max-norm space and counts neighbours inside that radius in
    the (A, C), (B, C) and (C) subspaces:

    ``I(A; B | C) ≈ ψ(k) - ⟨ψ(n_{AC} + 1) + ψ(n_{BC} + 1) - ψ(n_C + 1)⟩``.

    ``backend`` selects the dense-matrix or tree-backed implementation (see
    the module docstring); ``"auto"`` picks by sample count.  ``workers``
    threads the tree backend's cKDTree queries (scipy semantics, ``-1`` =
    all cores) without changing any result; the dense backend ignores it.
    """
    a = _as_samples(a)
    b = _as_samples(b)
    c = _as_samples(c)
    m = a.shape[0]
    if b.shape[0] != m or c.shape[0] != m:
        raise ValueError("a, b, c must have the same number of samples")
    if not 1 <= k <= m - 1:
        raise ValueError(f"k must satisfy 1 <= k <= m-1 (m={m}), got {k}")
    if resolve_estimator_backend(backend, n_samples=m) == "kdtree":
        return _cmi_kdtree(a, b, c, k, workers=workers)
    d_c = pairwise_euclidean(c)
    d_ac = np.maximum(pairwise_euclidean(a), d_c)
    return _cmi_from_dense_blocks(d_ac, pairwise_euclidean(b), d_c, k)


def embed_history(series: np.ndarray, history: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build (future, present-history, shifted-source-ready) views of a trajectory set.

    ``series`` has shape ``(n_realizations, n_steps, d)``.  Returns

    * ``future``  — ``(n_realizations, n_steps - history, d)``: the value at ``t + history``…
    * ``past``    — ``(n_realizations, n_steps - history, history * d)``: the
      ``history`` preceding values, most recent last,
    * ``aligned`` — the same window of the raw series (useful to embed a
      different source series with identical alignment).
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 3:
        raise ValueError("series must have shape (n_realizations, n_steps, d)")
    if history < 1:
        raise ValueError("history must be >= 1")
    n_real, n_steps, d = series.shape
    if n_steps <= history:
        raise ValueError("need more time steps than the history length")
    future = series[:, history:, :]
    past_blocks = [series[:, lag : n_steps - history + lag, :] for lag in range(history)]
    past = np.concatenate(past_blocks, axis=2)
    aligned = series[:, history - 1 : n_steps - 1, :]
    return future, past, aligned


def time_lagged_mutual_information(
    source: np.ndarray,
    target: np.ndarray,
    *,
    lag: int = 1,
    k: int = 4,
    backend: str = "auto",
    variant: str = "ksg1",
    workers: int = 1,
) -> float:
    """``I(source_t ; target_{t+lag})`` pooled over realisations and time, in bits.

    Both inputs have shape ``(n_realizations, n_steps, d)``.  This is the
    (unconditioned) precursor of the transfer entropy; it does not remove the
    target's own history.  Estimated with KSG ``variant`` (default algorithm
    1, the cheapest screening estimator) on the pooled (source-past,
    target-future) pairs; ``backend`` selects the dense or tree-backed
    implementation and ``workers`` threads the tree queries.
    """
    from repro.infotheory.ksg import ksg_multi_information

    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if source.shape != target.shape or source.ndim != 3:
        raise ValueError("source and target must both have shape (n_realizations, n_steps, d)")
    if lag < 0:
        raise ValueError("lag must be non-negative")
    n_steps = source.shape[1]
    if n_steps <= lag:
        raise ValueError("need more time steps than the lag")
    past = source[:, : n_steps - lag, :].reshape(-1, source.shape[2])
    future = target[:, lag:, :].reshape(-1, target.shape[2])
    # The estimator owns the KSG backend registry (including the per-variant
    # measured crossovers), so the backend request is simply forwarded.
    return ksg_multi_information(
        [past, future], k=k, variant=variant, backend=backend, workers=workers
    )


def transfer_entropy(
    source: np.ndarray,
    target: np.ndarray,
    *,
    history: int = 1,
    k: int = 4,
    backend: str = "auto",
    workers: int = 1,
) -> float:
    """Transfer entropy ``T_{source → target}`` in bits.

    ``T = I(target_{t+1} ; source_t | target_t^{(history)})`` with samples
    pooled over realisations and time steps.  ``source`` and ``target`` have
    shape ``(n_realizations, n_steps, d)`` and must use the *raw* particle
    trajectories (identity preserved over time).  ``backend`` and ``workers``
    are forwarded to :func:`conditional_mutual_information`.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if source.shape != target.shape or source.ndim != 3:
        raise ValueError("source and target must both have shape (n_realizations, n_steps, d)")
    future, target_past, _ = embed_history(target, history)
    _, _, source_aligned = embed_history(source, history)
    d = source.shape[2]
    a = future.reshape(-1, d)
    b = source_aligned.reshape(-1, d)
    c = target_past.reshape(-1, history * d)
    return conditional_mutual_information(a, b, c, k=k, backend=backend, workers=workers)
