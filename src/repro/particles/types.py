"""Type-dependent interaction parameters.

Each particle carries a fixed *type*; the pairwise interaction between a
particle of type ``alpha`` and one of type ``beta`` is governed by four
symmetric ``(l, l)`` parameter matrices (Harder & Polani 2012, §4.1):

``k``      interaction strength ``k_{alpha beta}`` (paper range ``[1, 10]``),
``r``      preferred distance ``r_{alpha beta}`` (paper range ``[0, 1]`` for
           the generic experiments, ``[1, 5]`` / ``[2, 8]`` in the sweeps),
``sigma``  attraction width of the Gaussian force ``F2`` (``sigma = 1``
           throughout the paper),
``tau``    repulsion width of ``F2`` (paper range ``[1, 10]``).

The paper only considers symmetric matrices — asymmetric preferences lead to
unstable or cycling dynamics — so symmetry is validated on construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = ["InteractionParams", "random_symmetric_matrix", "type_counts_to_assignment"]


def random_symmetric_matrix(
    n_types: int,
    low: float,
    high: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw a symmetric ``(n_types, n_types)`` matrix with entries in ``[low, high]``.

    Only the upper triangle (including the diagonal) is drawn; the lower
    triangle mirrors it, matching the paper's restriction to symmetric
    interaction matrices.
    """
    if n_types <= 0:
        raise ValueError("n_types must be positive")
    if high < low:
        raise ValueError(f"invalid range [{low}, {high}]")
    raw = rng.uniform(low, high, size=(n_types, n_types))
    upper = np.triu(raw)
    return upper + np.triu(raw, k=1).T


def type_counts_to_assignment(counts: Sequence[int]) -> np.ndarray:
    """Expand per-type particle counts into a type-index vector.

    ``[3, 2]`` → ``[0, 0, 0, 1, 1]``.  The assignment is fixed for the whole
    simulation run (types never change, §5.1).

    The dtype is explicitly ``int64``: ``dtype=int`` is platform-dependent
    (int32 on Windows), and this array flows into serialised run documents
    whose bytes participate in content hashes — those must not vary by
    platform.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a non-empty 1-D sequence")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    if counts.sum() == 0:
        raise ValueError("at least one particle is required")
    return np.repeat(np.arange(counts.size, dtype=np.int64), counts)


@dataclass(frozen=True)
class InteractionParams:
    """Symmetric pairwise interaction parameters for ``l`` particle types.

    Attributes
    ----------
    k:
        ``(l, l)`` interaction strengths.
    r:
        ``(l, l)`` preferred distances (used directly by ``F1``; for ``F2``
        the preferred distance is implied by ``sigma``/``tau``).
    sigma:
        ``(l, l)`` attraction widths of the Gaussian force ``F2``.
    tau:
        ``(l, l)`` repulsion widths of ``F2``.
    """

    k: np.ndarray
    r: np.ndarray
    sigma: np.ndarray
    tau: np.ndarray

    def __post_init__(self) -> None:
        k = np.atleast_2d(np.asarray(self.k, dtype=float))
        r = np.atleast_2d(np.asarray(self.r, dtype=float))
        sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        tau = np.atleast_2d(np.asarray(self.tau, dtype=float))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "tau", tau)
        l = k.shape[0]
        for name, mat in (("k", k), ("r", r), ("sigma", sigma), ("tau", tau)):
            if mat.shape != (l, l):
                raise ValueError(f"{name} must have shape ({l}, {l}), got {mat.shape}")
            # Every registry matrix mirrors its upper triangle, so the exact
            # check settles nearly every construction (warm resumes build one
            # per loaded document) at a tenth of allclose's cost; allclose
            # decides the rest.
            if not (np.array_equal(mat, mat.T) or np.allclose(mat, mat.T, atol=1e-12)):
                raise ValueError(f"{name} must be symmetric (the paper only studies symmetric matrices)")
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"{name} must be finite")
        if np.any(sigma <= 0):
            raise ValueError("sigma entries must be positive")
        if np.any(tau <= 0):
            raise ValueError("tau entries must be positive")
        if np.any(r < 0):
            raise ValueError("r entries must be non-negative")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def single_type(
        cls,
        *,
        k: float = 1.0,
        r: float = 1.0,
        sigma: float = 1.0,
        tau: float = 2.0,
    ) -> "InteractionParams":
        """Parameters for a uniform collective (one type, §6 / §7.1)."""
        one = np.ones((1, 1))
        return cls(k=k * one, r=r * one, sigma=sigma * one, tau=tau * one)

    @classmethod
    def from_matrices(
        cls,
        *,
        k: Any,
        r: Any,
        sigma: Any = None,
        tau: Any = None,
    ) -> "InteractionParams":
        """Build from explicit matrices, filling paper defaults for omitted ones.

        ``sigma`` defaults to 1 everywhere (as in the paper) and ``tau`` to 2.
        """
        k = np.atleast_2d(np.asarray(k, dtype=float))
        r = np.atleast_2d(np.asarray(r, dtype=float))
        l = k.shape[0]
        sigma_m = np.ones((l, l)) if sigma is None else np.atleast_2d(np.asarray(sigma, dtype=float))
        tau_m = 2.0 * np.ones((l, l)) if tau is None else np.atleast_2d(np.asarray(tau, dtype=float))
        return cls(k=k, r=r, sigma=sigma_m, tau=tau_m)

    @classmethod
    def clustering(
        cls,
        n_types: int,
        *,
        self_distance: float = 1.0,
        cross_distance: float = 3.0,
        k: float = 3.0,
        tau: float = 2.0,
    ) -> "InteractionParams":
        """Parameters that force same-type clustering.

        Smaller diagonal than off-diagonal preferred distances make particles
        of the same type pack tighter than particles of different type
        (§4.1), producing the membrane/nucleus-like morphologies of Fig. 1.
        """
        if n_types <= 0:
            raise ValueError("n_types must be positive")
        r = np.full((n_types, n_types), float(cross_distance))
        np.fill_diagonal(r, float(self_distance))
        return cls(
            k=np.full((n_types, n_types), float(k)),
            r=r,
            sigma=np.ones((n_types, n_types)),
            tau=np.full((n_types, n_types), float(tau)),
        )

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    @property
    def n_types(self) -> int:
        """Number of particle types ``l``."""
        return int(self.k.shape[0])

    def pair_matrices(self, types: np.ndarray) -> dict[str, np.ndarray]:
        """Expand the type-indexed matrices to per-particle-pair matrices.

        Given the type assignment ``types`` of ``n`` particles, returns a dict
        of ``(n, n)`` arrays holding the parameter of each ordered particle
        pair.  These are what the vectorised force kernels consume.
        """
        types = np.asarray(types, dtype=int)
        if types.ndim != 1:
            raise ValueError("types must be 1-D")
        if types.size and (types.min() < 0 or types.max() >= self.n_types):
            raise ValueError(
                f"type indices must lie in [0, {self.n_types - 1}], got range "
                f"[{types.min()}, {types.max()}]"
            )
        idx = np.ix_(types, types)
        return {
            "k": self.k[idx],
            "r": self.r[idx],
            "sigma": self.sigma[idx],
            "tau": self.tau[idx],
        }

    def to_dict(self) -> dict[str, list[list[float]]]:
        """JSON-serialisable representation."""
        return {
            "k": self.k.tolist(),
            "r": self.r.tolist(),
            "sigma": self.sigma.tolist(),
            "tau": self.tau.tolist(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "InteractionParams":
        """Inverse of :meth:`to_dict`."""
        return cls(
            k=np.asarray(data["k"], dtype=float),
            r=np.asarray(data["r"], dtype=float),
            sigma=np.asarray(data["sigma"], dtype=float),
            tau=np.asarray(data["tau"], dtype=float),
        )
