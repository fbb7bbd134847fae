"""Type-restricted correspondence search between particle configurations.

Two flavours are used by the alignment stack:

* **Nearest-neighbour** matching (possibly many-to-one) drives the inner ICP
  iterations, mirroring the paper's use of a point-cloud-library ICP with the
  particle type lifted to a scaled third coordinate so that matches never
  cross type boundaries.
* **Assignment** (one-to-one, Hungarian algorithm within each type) produces
  the final permutation that reorders a sample's particles to the reference
  ordering — a true element of the permutation group ``S*_n`` that only
  permutes particles of the same type (§4.2.1).

Both accept a single source configuration ``(n, 2)`` or a stack
``(S, n, 2)`` of sources matched against one target ``(n, 2)``, which is how
the ICP registers every sample of an ensemble frame to its reference at
once.  A caller that matches one type layout repeatedly (the ICP, every
iteration of a frame) computes its type classes once with
:func:`type_classes` and passes them as ``classes``.  A type with a single
particle has only one possible match, so it maps to itself without a
search.  The nearest-neighbour search matches every
other type by brute force over all sources of the stack, ranking by the
squared distance ``dx*dx + dy*dy`` (an exact tie goes to the lowest target
index).  Every coordinate must be finite.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = [
    "type_classes",
    "nearest_neighbor_correspondence",
    "assignment_correspondence",
    "correspondence_distances",
]

#: Elements per block of the brute-force squared-distance plane: the search
#: takes ``max(1, NEAREST_BLOCK_ELEMENTS // class size)`` query points at a
#: time, so the plane (256 KB) and its temporary stay in L2 cache.  On a
#: 2-CPU x86-64 box 2^15 was within noise of the fastest of 2^12–2^18 for
#: classes of 17–64 particles in stacks of 63–1497 sources; from 2^16 up,
#: stacks of 499 or more 17-particle sources took 1.2–1.9 times as long.
NEAREST_BLOCK_ELEMENTS = 1 << 15


def _check_inputs(source: np.ndarray, target: np.ndarray, types: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    types = np.asarray(types, dtype=int)
    if source.ndim not in (2, 3) or source.shape[-1] != 2:
        raise ValueError("source must have shape (n, 2) or (S, n, 2)")
    if target.shape != source.shape[-2:]:
        raise ValueError("target must have shape (n, 2) with the source's n")
    if types.shape != (target.shape[0],):
        raise ValueError("types must have shape (n,)")
    for name, coordinates in (("source", source), ("target", target)):
        if not np.isfinite(coordinates).all():
            raise ValueError(f"{name} must have finite coordinates")
    return source, target, types


def type_classes(types: np.ndarray) -> list[np.ndarray]:
    """The particle indices of each type, in increasing type order."""
    types = np.asarray(types, dtype=int)
    return [np.nonzero(types == type_id)[0] for type_id in np.unique(types)]


def _nearest_by_brute_force(queries: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """For every query point ``(q, 2)``, the index of its nearest ``reference`` point.

    Ranks by ``dx*dx + dy*dy``, bit for bit the squared distance a
    ``scipy.spatial.cKDTree`` ranks by, so it finds the tree's neighbour
    wherever that neighbour is unique; an exact tie goes to the lowest index.
    """
    nearest = np.empty(len(queries), dtype=np.intp)
    rows = max(1, NEAREST_BLOCK_ELEMENTS // len(reference))
    for start in range(0, len(queries), rows):
        block = queries[start : start + rows]
        squared = block[:, 0, None] - reference[:, 0]
        squared *= squared
        dy = block[:, 1, None] - reference[:, 1]
        dy *= dy
        squared += dy
        nearest[start : start + rows] = squared.argmin(axis=1)
    return nearest


def nearest_neighbor_correspondence(
    source: np.ndarray,
    target: np.ndarray,
    types: np.ndarray,
    *,
    classes: list[np.ndarray] | None = None,
) -> np.ndarray:
    """For every source particle, the index of the nearest target particle of the same type.

    The returned array ``corr`` satisfies ``types[corr[i]] == types[i]`` but is
    generally *not* a permutation (several source particles may share a target).
    A stack of sources gives one row per source.  Each type with several
    particles matches the particles of all sources at once by brute force;
    an exact tie goes to the lowest target index.  ``classes`` is
    ``type_classes(types)``, computed here when not given.
    """
    source, target, types = _check_inputs(source, target, types)
    corr = np.empty(source.shape[:-1], dtype=int)
    for idx in type_classes(types) if classes is None else classes:
        if idx.size == 1:
            corr[..., idx] = idx
            continue
        queries = source[..., idx, :]
        local = _nearest_by_brute_force(queries.reshape(-1, 2), target[idx])
        corr[..., idx] = idx[local.reshape(queries.shape[:-1])]
    return corr


def assignment_correspondence(
    source: np.ndarray,
    target: np.ndarray,
    types: np.ndarray,
    *,
    classes: list[np.ndarray] | None = None,
) -> np.ndarray:
    """One-to-one, type-preserving correspondence minimising total squared distance.

    Solves a linear assignment problem independently within each type class;
    the result is a permutation of ``range(n)`` with ``types[perm[i]] ==
    types[i]``, i.e. an element of the paper's symmetry subgroup ``S*_n``.
    ``perm[i]`` is the target index matched to source particle ``i``.  A
    stack of sources gives one permutation per source (one Hungarian solve
    per source and type with several particles).  ``classes`` is
    ``type_classes(types)``, computed here when not given.
    """
    source, target, types = _check_inputs(source, target, types)
    perm = np.empty(source.shape[:-1], dtype=int)
    for idx in type_classes(types) if classes is None else classes:
        if idx.size == 1:
            perm[..., idx] = idx
            continue
        delta = source[..., idx, None, :] - target[idx][None, :, :]
        cost = np.einsum("...ijk,...ijk->...ij", delta, delta)
        for sample in np.ndindex(source.shape[:-2]):
            rows, cols = linear_sum_assignment(cost[sample])
            perm[sample + (idx[rows],)] = idx[cols]
    return perm


def correspondence_distances(
    source: np.ndarray,
    target: np.ndarray,
    correspondence: np.ndarray,
) -> np.ndarray:
    """Euclidean distance between each source particle and its matched target.

    ``source`` ``(..., n, 2)`` and ``correspondence`` ``(..., n)`` may carry a
    leading sample axis; ``target`` is one ``(n, 2)`` configuration.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    correspondence = np.asarray(correspondence, dtype=int)
    delta = source - target[correspondence]
    return np.sqrt(np.einsum("...j,...j->...", delta, delta))
