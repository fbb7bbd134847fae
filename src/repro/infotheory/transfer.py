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
The Frenzel–Pompe estimator is KSG algorithm 1 over the subspaces (A, C),
(B, C) and C: the joint (A, B, C) k-th-neighbour radius, then strict counts
in each subspace.  Both backends therefore run the KSG count kernels of
:mod:`repro.infotheory.ksg`, and every estimator takes
``backend="dense" | "kdtree" | "auto"``:

``"dense"``
    One ``(3, m, m)`` workspace of squared distances, each on its upper
    triangle, holding ``q_AC = max(q_A, q_C)``, ``q_BC = max(q_B, q_C)`` and
    ``q_C``, counted against the joint ``max(q_AC, q_B)``; only the joint is
    mirrored into full rows, for its k-th neighbours.  Fastest for small
    pooled sample counts.
``"kdtree"``
    Answers the same k-th-neighbour / strict-ball-count queries through
    :class:`repro.infotheory.knn.ProductMetricTree` — a Chebyshev
    :class:`~scipy.spatial.cKDTree` candidate search re-ranked with the exact
    product metric — and :class:`~repro.infotheory.knn.EuclideanBallCounter`.
    O(m log m)-ish; the only differences from ``"dense"`` are last-ulp
    floating-point effects, so the two agree to tight tolerance (bit-exactly
    on inputs whose distances are exactly representable).
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
    resolve_estimator_backend,
)
from repro.infotheory.ksg import (
    _counts_from_squared,
    _ksg1_tree_counts,
    _squared_distances,
    ksg_multi_information,
)

__all__ = [
    "conditional_mutual_information",
    "time_lagged_mutual_information",
    "transfer_entropy",
    "embed_history",
]

_LN2 = float(np.log(2.0))


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


def _cmi_workspace(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The dense CMI workspace: ``q_AC = max(q_A, q_C)`` in slot 0, ``q_C`` in slot 2.

    Slot 1 is left for :func:`_dense_cmi_counts`.  Both filled slots depend
    on (A, C) only, so the pairwise analysis builds them once per matrix row.
    """
    m = a.shape[0]
    work = np.empty((3, m, m))
    _squared_distances(c, work[2])
    np.maximum(_squared_distances(a, work[0]), work[2], out=work[0])
    return work


def _dense_cmi_counts(work: np.ndarray, q_b: np.ndarray, k: int) -> np.ndarray:
    """The ``(n_AC, n_BC, n_C)`` counts on the dense KSG kernel.

    ``work`` comes from :func:`_cmi_workspace` and ``q_b`` holds B's squared
    distances; it may be ``work[1]``, which this overwrites with
    ``q_BC = max(q_B, q_C)``.  The joint (A, B, C) metric is
    ``max(q_AC, q_B)``.
    """
    joint_q = np.maximum(work[0], q_b)
    np.maximum(q_b, work[2], out=work[1])
    return _counts_from_squared([work], joint_q, k, "ksg1")


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

    ``backend`` selects the dense or tree-backed implementation (see
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
        counters = [
            ProductMetricTree([a, c], workers=workers),
            ProductMetricTree([b, c], workers=workers),
            EuclideanBallCounter(c, workers=workers),
        ]
        counts = _ksg1_tree_counts([a, b, c], k, counters, workers=workers)
    else:
        work = _cmi_workspace(a, c)
        counts = _dense_cmi_counts(work, _squared_distances(b, work[1]), k)
    return _cmi_value_from_counts(*counts, k)


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
