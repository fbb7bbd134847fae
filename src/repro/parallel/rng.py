"""Reproducible random-number streams.

All stochastic components of the library accept an integer ``seed`` (or an
already-constructed :class:`numpy.random.Generator`).  Ensembles of
simulations need *independent* streams per sample so that results do not
depend on whether samples are run vectorised in one process or scattered
across a pool.  NumPy's :class:`numpy.random.SeedSequence` spawning mechanism
provides exactly that guarantee and is wrapped here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["seed_streams", "spawn_generator", "derive_seed", "as_generator"]


def as_generator(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an integer seed, or an existing
        generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def seed_streams(seed: int | None, n_streams: int) -> list[np.random.Generator]:
    """Create ``n_streams`` statistically independent generators.

    The streams are derived from a single :class:`~numpy.random.SeedSequence`
    so the same ``seed`` always produces the same family of streams,
    regardless of how they are later distributed over processes.
    """
    if n_streams < 0:
        raise ValueError(f"n_streams must be non-negative, got {n_streams}")
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n_streams)]


def spawn_generator(seed: int | None, index: int) -> np.random.Generator:
    """Return the ``index``-th stream of the family defined by ``seed``.

    Equivalent to ``seed_streams(seed, index + 1)[index]`` but only
    materialises the requested stream.
    """
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    seq = np.random.SeedSequence(seed)
    child = seq.spawn(index + 1)[index]
    return np.random.default_rng(child)


def derive_seed(seed: int | None, *keys: int | str) -> int:
    """Derive a deterministic child seed from ``seed`` and a key path.

    Useful when a high-level experiment wants reproducible but distinct seeds
    for sub-tasks ("fig9", radius index 3, repeat 7) without manually
    tracking offsets.  String keys are hashed with a stable (non-salted)
    scheme so results are identical across interpreter runs.
    """
    material: list[int] = [0 if seed is None else int(seed) & 0xFFFFFFFF]
    for key in keys:
        if isinstance(key, str):
            acc = 2166136261
            for byte in key.encode("utf8"):
                acc = ((acc ^ byte) * 16777619) & 0xFFFFFFFF
            material.append(acc)
        else:
            material.append(int(key) & 0xFFFFFFFF)
    seq = np.random.SeedSequence(material)
    return int(seq.generate_state(1, dtype=np.uint32)[0])
