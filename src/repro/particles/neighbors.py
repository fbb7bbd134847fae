"""Neighbour-search backends for the interaction cut-off radius.

These backends feed the one sparse drift kernel,
:func:`repro.particles.engine.sparse_drift_batch`, through
:meth:`NeighborSearch.pairs_batch`; it serves the batched
:class:`~repro.particles.ensemble.EnsembleSimulator` path and the single-run
:class:`~repro.particles.model.ParticleSystem` alike (a single configuration
is a batch of one).  Whether a run uses them at all is decided by
``SimulationConfig.engine``: ``"sparse"`` forces the neighbour-pair kernel,
``"dense"`` the all-pairs broadcast, and ``"auto"`` picks sparse only while
the cut-off radius is small compared to the collective diameter — re-checked
during the run when adaptive re-resolution is enabled (see
:class:`repro.particles.engine.AdaptiveDriftEngine`).

Choosing a backend
------------------
Three backends trade construction cost against query cost:

* :class:`BruteForceNeighbors` — dense distance matrix, thresholded.  O(n²)
  time and memory; the reference implementation the others are fuzzed
  against, useful for testing only.
* :class:`CellListNeighbors` — fully vectorised uniform spatial hash with
  bucket size ``r_c``.  Linear in ``n`` for bounded density, and the only
  backend with a *native batched* query: :meth:`CellListNeighbors.pairs_batch`
  hashes a whole ensemble snapshot ``(m, n, 2)`` in one shot by prepending a
  sample-id coordinate to the cell key, so there is no per-sample Python on
  the ensemble hot path.  Prefer it for ensembles and for single snapshots
  at roughly uniform density.
* :class:`KDTreeNeighbors` — :class:`scipy.spatial.cKDTree` radius query.
  Good single-snapshot performance for large n with non-uniform density,
  but its batched query falls back to one tree build + query per sample.

Domains
-------
Every query takes an optional :class:`~repro.particles.domain.Domain`.  On
the default free plane (and in a reflecting box, whose displacements are the
free-space ones) the geometry is Euclidean; on any domain with a periodic
axis — the torus (both axes wrap, possibly anisotropic ``Lx ≠ Ly``) or the
mixed channel (periodic in x, reflecting in y) — distances follow the
per-axis minimum-image convention and each backend adapts its candidate
search: the brute force evaluates minimum-image distances directly, the
kdtree builds a per-axis periodic tree (``cKDTree(boxsize=[Lx, Ly])`` with a
0 entry on non-periodic axes), and the cell list switches to per-axis
*modular* cell hashing — the 3×3 neighbourhood wraps around the seam on
periodic axes and steps into ghost padding on reflecting ones — including
the batched query.  Degenerate wrapped geometries (fewer than three cells
along a periodic axis, a cut-off beyond half a periodic extent) fall back to
the minimum-image brute force so the backends always agree.

All backends return the same representation: ordered ``int64`` index pairs
``(i_idx, j_idx)`` with ``i != j`` and ``dist(i, j) <= radius`` (both
orientations present), which :meth:`NeighborSearch.pairs_batch` flattens and
lex-sorts for the sparse drift kernel.  They are pinned against each other by
a cross-backend fuzz suite (``tests/test_neighbors_fuzz.py``) on all three
domains.  A non-finite
radius is validated centrally: ``NaN`` is rejected by every backend and
``inf`` means "every ordered pair" everywhere (single and batched queries
alike).
"""

from __future__ import annotations

import abc

import numpy as np
from scipy.spatial import cKDTree

from repro.particles.domain import Domain, get_domain

__all__ = [
    "NeighborSearch",
    "BruteForceNeighbors",
    "CellListNeighbors",
    "KDTreeNeighbors",
    "get_neighbor_search",
    "NEIGHBOR_BACKENDS",
]


class NeighborSearch(abc.ABC):
    """Interface of a radius-neighbour search backend."""

    name: str = ""

    @abc.abstractmethod
    def pairs(
        self, positions: np.ndarray, radius: float, domain: Domain | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ordered interacting pairs ``(i_idx, j_idx)`` within ``radius``."""

    def pairs_batch(
        self, positions: np.ndarray, radius: float, domain: Domain | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Interacting pairs for a batch of configurations ``(m, n, 2)``.

        Pair indices are flattened into a single index space: particle ``p``
        of sample ``s`` has index ``s * n + p``, so the result can drive one
        segment-sum over the whole snapshot.  Pairs are returned in
        lexicographic ``(sample, i, j)`` order; sequential accumulation in
        that order reproduces the dense kernel's summation order bit-for-bit
        (the contract :mod:`repro.particles.engine` relies on).

        This generic implementation loops over samples; the cell list
        overrides it with a single vectorised query over the whole snapshot.
        """
        positions = _validate_batch(positions, radius)
        m, n, _ = positions.shape
        i_parts: list[np.ndarray] = []
        j_parts: list[np.ndarray] = []
        for sample in range(m):
            i_idx, j_idx = self.pairs(positions[sample], radius, domain)
            offset = sample * n
            i_parts.append(np.asarray(i_idx, dtype=np.int64) + offset)
            j_parts.append(np.asarray(j_idx, dtype=np.int64) + offset)
        if not i_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        i_all = np.concatenate(i_parts)
        j_all = np.concatenate(j_parts)
        order = np.lexsort((j_all, i_all))
        return i_all[order], j_all[order]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


def _validate_radius(radius: float) -> float:
    """Shared radius validation: reject NaN (and non-positive) everywhere.

    ``inf`` passes — it means "every ordered pair" and every backend (single
    and batched queries alike) honours it by delegating to the all-pairs
    path, so the backends agree on non-finite radii by construction.
    """
    radius = float(radius)
    if np.isnan(radius):
        raise ValueError("radius must not be NaN")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return radius


def _validate(positions: np.ndarray, radius: float) -> np.ndarray:
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must have shape (n, 2), got {positions.shape}")
    _validate_radius(radius)
    return positions


def _validate_batch(positions: np.ndarray, radius: float) -> np.ndarray:
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 3 or positions.shape[-1] != 2:
        raise ValueError(f"positions must have shape (m, n, 2), got {positions.shape}")
    _validate_radius(radius)
    return positions


class BruteForceNeighbors(NeighborSearch):
    """O(n²) dense search; the reference implementation the others are tested against."""

    name = "brute"

    def pairs(
        self, positions: np.ndarray, radius: float, domain: Domain | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        positions = _validate(positions, radius)
        domain = get_domain(domain)
        if not np.isfinite(radius):
            n = positions.shape[0]
            i_idx, j_idx = np.nonzero(~np.eye(n, dtype=bool))
            return i_idx.astype(np.int64), j_idx.astype(np.int64)
        delta = domain.displacement(positions[:, None, :], positions[None, :, :])
        dist = np.sqrt(np.einsum("ijk,ijk->ij", delta, delta))
        mask = (dist <= radius) & ~np.eye(positions.shape[0], dtype=bool)
        i_idx, j_idx = np.nonzero(mask)
        return i_idx.astype(np.int64), j_idx.astype(np.int64)


# ---------------------------------------------------------------------- #
# vectorised spatial hash
# ---------------------------------------------------------------------- #
def _grid_ids(
    positions: np.ndarray, radius: float, sample: np.ndarray | None = None
) -> tuple[np.ndarray, int] | None:
    """Flattened, padded cell id per particle, plus the row stride (free plane).

    Cells of size ``radius`` are shifted to non-negative coordinates and
    padded by one ghost cell on every side, so the id of the cell at offset
    ``(dx, dy)`` from id ``c`` is exactly ``c + dx * stride + dy`` with no
    aliasing across rows.  ``sample`` (batched queries) prepends a leading
    coordinate: each sample occupies its own block of ids, and because the
    blocks are padded, the 3×3 neighbourhood of any cell never reaches into
    another sample's block.

    Returns ``None`` when the id space would overflow ``int64`` (a bounding
    box more than ~10⁹ cells wide); callers fall back to a loop of
    per-sample queries in that degenerate regime.
    """
    cells = np.floor(positions / radius).astype(np.int64)
    cells -= cells.min(axis=0)
    x_extent = int(cells[:, 0].max()) + 3
    stride = int(cells[:, 1].max()) + 3
    n_blocks = 1 if sample is None else int(sample[-1]) + 1
    if n_blocks * x_extent * stride >= np.iinfo(np.int64).max // 2:
        return None
    ids = (cells[:, 0] + 1) * stride + (cells[:, 1] + 1)
    if sample is not None:
        ids += sample * (x_extent * stride)
    return ids, stride


class _BoxedGrid:
    """Per-axis cell grid of a bounded domain with at least one periodic axis.

    Each axis is independently *modular* (periodic: cell ids taken modulo the
    axis cell count, the 3×3 shell wraps around the seam, exact distances use
    the minimum image) or *padded* (reflecting: one ghost cell on each side,
    plain forward offsets, free-space distances).  The square torus is the
    special case where both axes are modular with equal cell counts — its ids,
    targets and filters reduce to exactly the arithmetic of the scalar-box
    era, keeping those pair sets bit-identical.
    """

    __slots__ = ("nx", "ny", "mod_x", "mod_y", "side_x", "side_y", "image_x", "image_y")

    def __init__(self, nx, ny, mod_x, mod_y, side_x, side_y, image_x, image_y):
        self.nx, self.ny = nx, ny
        self.mod_x, self.mod_y = mod_x, mod_y
        self.side_x, self.side_y = side_x, side_y
        #: Minimum-image modulus per axis (``None`` on non-periodic axes).
        self.image_x, self.image_y = image_x, image_y


def _boxed_grid(domain: Domain, radius: float, n_blocks: int = 1) -> "_BoxedGrid | None":
    """Build the per-axis grid for a wrapping domain, or ``None`` if unusable.

    On periodic axes the wrapped 3×3 shell visits each unordered cell pair
    exactly once only when there are at least three cells along the axis
    (with fewer, a forward offset and its wrap-around alias land on the same
    cell and candidates duplicate), so tiny extents fall back to the
    minimum-image brute force.  The modular cell side is held a hair *above*
    the radius — ``L / nc >= r_c (1 + 1e-9)`` — so a pair exactly at the
    cut-off straddling the seam can never round out of the wrapped shell.
    Reflecting axes get a padded grid with cell side ``r_c`` over the wrapped
    coordinate range ``[0, L]`` (no seam, no constraint on the cell count).
    """
    axes = []
    for side_len, periodic in zip(domain.extents, domain.periodic_axes):
        if periodic:
            ratio = side_len / (radius * (1.0 + 1e-9))
            if not np.isfinite(ratio) or ratio >= 2**31:
                return None  # astronomically fine grid: id space would overflow
            n_cells = int(ratio)
            if n_cells < 3:
                return None
            axes.append((n_cells, True, side_len / n_cells, side_len))
        else:
            ratio = side_len / radius
            if not np.isfinite(ratio) or ratio >= 2**31:
                return None
            # floor(L / r_c) + 1 occupied cells plus one ghost on each side.
            axes.append((int(ratio) + 3, False, radius, None))
    (nx, mod_x, side_x, image_x), (ny, mod_y, side_y, image_y) = axes
    if n_blocks * nx * ny >= np.iinfo(np.int64).max // 2:
        return None
    return _BoxedGrid(nx, ny, mod_x, mod_y, side_x, side_y, image_x, image_y)


def _boxed_cell_ids(
    wrapped: np.ndarray, grid: _BoxedGrid, sample: np.ndarray | None = None
) -> np.ndarray:
    """Flattened per-axis cell id per (wrapped) particle position."""
    cells_x = np.floor(wrapped[:, 0] / grid.side_x).astype(np.int64)
    cells_y = np.floor(wrapped[:, 1] / grid.side_y).astype(np.int64)
    if grid.mod_x:
        # Positions within an ulp of the box edge can round into cell nx.
        np.minimum(cells_x, grid.nx - 1, out=cells_x)
    else:
        cells_x += 1  # ghost-padding shift
    if grid.mod_y:
        np.minimum(cells_y, grid.ny - 1, out=cells_y)
    else:
        cells_y += 1
    ids = cells_x * grid.ny + cells_y
    if sample is not None:
        ids += sample * (grid.nx * grid.ny)
    return ids


#: Half-shell neighbour-cell offsets ``(dx, dy)``: together with the
#: within-cell rank pairs they cover every unordered candidate pair exactly
#: once; the reverse orientations are added by mirroring after the distance
#: filter, which halves the candidate work of the full 3×3 shell.
_HALF_SHELL = ((0, 1), (1, -1), (1, 0), (1, 1))


def _hashed_pairs(
    positions: np.ndarray,
    ids: np.ndarray,
    stride: int,
    radius: float,
    grid: _BoxedGrid | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ordered pairs from flattened cell ids — no Python loop over anything.

    The particles are sorted by cell id once (radix sort on the integer
    ids); occupied buckets fall out of the boundary flags of the sorted id
    array, and for each half-shell offset a single ``searchsorted`` locates
    the adjacent bucket of *every* occupied cell at once.  Unordered
    candidate pairs are materialised with a ragged-arange (repeat/cumsum)
    expansion over contiguous, cell-sorted coordinate arrays, filtered by
    exact distance, then mirrored and lex-sorted into the canonical
    ``(i, j)`` order.

    ``grid`` switches to the per-axis boxed layout of a wrapping domain:
    half-shell targets wrap modulo the axis cell count on modular (periodic)
    axes and step plainly into ghost padding on reflecting ones (the sample
    block of batched ids is preserved either way), and the exact distance
    filter uses minimum-image displacements on the periodic axes only — the
    same arithmetic as :meth:`repro.particles.domain.Domain.displacement` on
    wrapped coordinates, so the filter agrees bit-for-bit with the
    brute-force reference and the drift kernels.
    """
    n_total = positions.shape[0]
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    xs = positions[order, 0]
    ys = positions[order, 1]

    is_start = np.empty(n_total, dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=is_start[1:])
    starts = np.nonzero(is_start)[0]
    unique_ids = sorted_ids[starts]
    counts = np.diff(starts, append=n_total)
    cell_of = np.cumsum(is_start) - 1  # bucket slot of each sorted particle

    positions_idx = np.arange(n_total)
    rank = positions_idx - starts[cell_of]

    if grid is not None:
        block, rem = np.divmod(unique_ids, grid.nx * grid.ny)
        cell_x, cell_y = np.divmod(rem, grid.ny)

    # Candidate block per (shell entry, sorted particle): within-cell pairs
    # (strictly later ranks of the same bucket) plus the four forward
    # neighbour buckets of the half shell.
    cand_counts = [counts[cell_of] - rank - 1]
    cand_starts = [positions_idx + 1]
    for dx, dy in _HALF_SHELL:
        if grid is None:
            target = unique_ids + (dx * stride + dy)
        else:
            target_x = (cell_x + dx) % grid.nx if grid.mod_x else cell_x + dx
            target_y = (cell_y + dy) % grid.ny if grid.mod_y else cell_y + dy
            target = block * (grid.nx * grid.ny) + target_x * grid.ny + target_y
        slot = np.minimum(np.searchsorted(unique_ids, target), unique_ids.size - 1)
        occupied = unique_ids[slot] == target
        block_count = np.where(occupied, counts[slot], 0)
        block_start = np.where(occupied, starts[slot], 0)
        cand_counts.append(block_count[cell_of])
        cand_starts.append(block_start[cell_of])
    cnt = np.concatenate(cand_counts)
    st = np.concatenate(cand_starts)

    total = int(cnt.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    i_s = np.repeat(np.tile(positions_idx, 1 + len(_HALF_SHELL)), cnt)
    first = np.cumsum(cnt) - cnt
    j_s = np.repeat(st, cnt) + (np.arange(total, dtype=np.int64) - np.repeat(first, cnt))

    dx_ = xs.take(i_s) - xs.take(j_s)
    dy_ = ys.take(i_s) - ys.take(j_s)
    if grid is not None:
        if grid.image_x is not None:
            dx_ -= grid.image_x * np.round(dx_ / grid.image_x)
        if grid.image_y is not None:
            dy_ -= grid.image_y * np.round(dy_ / grid.image_y)
    dist_sq = dx_ * dx_ + dy_ * dy_
    # Cheap squared-distance pre-filter (slightly loose), then the exact
    # sqrt-based comparison on the survivors: for pairs exactly at the
    # cut-off the sqrt can round down onto the radius, and the dense kernel
    # (and BruteForceNeighbors) includes those.
    loose = dist_sq <= radius * radius * (1.0 + 1e-9)
    i_s, j_s, dist_sq = i_s[loose], j_s[loose], dist_sq[loose]
    keep = np.sqrt(dist_sq) <= radius
    i_half = order[i_s[keep]]
    j_half = order[j_s[keep]]
    return np.concatenate([i_half, j_half]), np.concatenate([j_half, i_half])


def _lex_sorted(
    i_idx: np.ndarray, j_idx: np.ndarray, n_total: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sort pairs into lexicographic ``(i, j)`` order.

    Fuses each pair into the integer key ``i * n_total + j``, sorts the key
    array directly and decodes — pairs are unique, so the sort order is
    deterministic, and a direct ``np.sort`` plus divmod is much faster than
    ``np.lexsort`` (or any argsort + gather) at the pair counts the batched
    path produces.
    """
    if n_total and n_total < np.iinfo(np.int64).max // n_total:
        key = i_idx * n_total + j_idx
        key.sort()
        return key // n_total, key % n_total
    # Unreachable for in-memory particle counts (needs n_total > ~3e9).
    order = np.lexsort((j_idx, i_idx))  # pragma: no cover
    return i_idx[order], j_idx[order]  # pragma: no cover


class CellListNeighbors(NeighborSearch):
    """Fully vectorised uniform-grid spatial hash with cell size ``r_c``.

    Candidate pairs are restricted to the 3×3 block of cells around each
    particle, then filtered by exact distance — linear in ``n`` for bounded
    density, the classic molecular-dynamics cell-list trade-off.  Both the
    single-snapshot and the batched query are pure array programs (sort +
    boundary-flag bucket detection + ``searchsorted`` + ragged-arange
    expansion); there is no Python loop over particles, pairs, cells or
    samples.

    On a domain with periodic axes the grid becomes *per-axis modular*:
    positions are wrapped into the box, cell ids are taken modulo the axis
    cell count on each periodic axis (where the 3×3 shell wraps around the
    seam) while reflecting axes keep ghost padding — the same pure array
    program, including the batched sample-id variant, covering the square
    torus, anisotropic tori and mixed channel geometries alike.

    Degenerate geometries fall out of the same code path: a radius larger
    than the bounding box (or all particles in one cell) degrades to the
    brute-force candidate set, wrapped grids with fewer than three cells
    along a periodic axis fall back to the minimum-image brute force, and
    single-particle or empty systems return empty pair arrays.
    """

    name = "cell"

    def pairs(
        self, positions: np.ndarray, radius: float, domain: Domain | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        positions = _validate(positions, radius)
        domain = get_domain(domain)
        if not np.isfinite(radius):
            return BruteForceNeighbors().pairs(positions, radius, domain)
        if positions.shape[0] < 2:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if any(domain.periodic_axes):
            grid = _boxed_grid(domain, radius)
            if grid is None:  # box too small (or grid too fine) for the wrapped shell
                return BruteForceNeighbors().pairs(positions, radius, domain)
            wrapped = domain.wrap(positions)
            ids = _boxed_cell_ids(wrapped, grid)
            pairs = _hashed_pairs(wrapped, ids, 0, radius, grid=grid)
            return _lex_sorted(*pairs, positions.shape[0])
        grid = _grid_ids(positions, radius)
        if grid is None:  # astronomically wide bounding box: id space overflow
            return KDTreeNeighbors().pairs(positions, radius, domain)
        ids, stride = grid
        pairs = _hashed_pairs(positions, ids, stride, radius)
        return _lex_sorted(*pairs, positions.shape[0])

    def pairs_batch(
        self, positions: np.ndarray, radius: float, domain: Domain | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Hash *all* samples in one shot by prepending a sample-id coordinate.

        Every sample gets its own block of cell ids (padded on the free
        plane, modular on the torus), so one sort over the flattened
        ``(m · n,)`` id array (buckets read off its boundary flags) covers
        the whole ensemble snapshot, and cross-sample pairs are structurally
        impossible.  Output follows the base-class contract: flattened
        indices in lexicographic ``(sample, i, j)`` order.
        """
        positions = _validate_batch(positions, radius)
        domain = get_domain(domain)
        m, n, _ = positions.shape
        if m * n == 0 or not np.isfinite(radius):
            return super().pairs_batch(positions, radius, domain)
        if any(domain.periodic_axes):
            grid = _boxed_grid(domain, radius, n_blocks=m)
            if grid is None:
                return super().pairs_batch(positions, radius, domain)
            flat = domain.wrap(positions.reshape(m * n, 2))
            sample = np.repeat(np.arange(m, dtype=np.int64), n)
            ids = _boxed_cell_ids(flat, grid, sample=sample)
            pairs = _hashed_pairs(flat, ids, 0, radius, grid=grid)
            return _lex_sorted(*pairs, m * n)
        flat = positions.reshape(m * n, 2)
        sample = np.repeat(np.arange(m, dtype=np.int64), n)
        grid = _grid_ids(flat, radius, sample=sample)
        if grid is None:
            return super().pairs_batch(positions, radius, domain)
        ids, stride = grid
        pairs = _hashed_pairs(flat, ids, stride, radius)
        return _lex_sorted(*pairs, m * n)


class KDTreeNeighbors(NeighborSearch):
    """SciPy cKDTree radius query (good for large n with moderate density).

    On a domain with periodic axes the tree itself is periodic per axis
    (``cKDTree(boxsize=[Lx, Ly])`` over wrapped coordinates, a 0 entry
    marking reflecting axes as non-periodic); candidate pairs are re-filtered
    with the exact minimum-image distance so the pair set matches the
    brute-force reference bit-for-bit.
    """

    name = "kdtree"

    def pairs(
        self, positions: np.ndarray, radius: float, domain: Domain | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        positions = _validate(positions, radius)
        domain = get_domain(domain)
        if not np.isfinite(radius):
            return BruteForceNeighbors().pairs(positions, radius, domain)
        if positions.shape[0] == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        # The tree prunes on squared distances, which can exclude pairs whose
        # rounded Euclidean distance lands exactly on the radius — pairs the
        # dense kernel includes.  Query a few ulps wide, then apply the same
        # displacement-based sqrt filter as BruteForceNeighbors.
        query_radius = radius * (1.0 + 1e-12)
        if domain.bounded and any(domain.periodic_axes):
            if any(
                periodic and 2.0 * query_radius >= side
                for side, periodic in zip(domain.extents, domain.periodic_axes)
            ):
                # A periodic tree cannot search past half the box on a
                # wrapping axis; the minimum-image brute force handles the
                # tiny-box regime.
                return BruteForceNeighbors().pairs(positions, radius, domain)
            # Per-axis topology: a boxsize entry of 0 marks the axis as
            # non-periodic, which is how the mixed channel geometry rides
            # the same periodic tree.
            boxsize = [
                side if periodic else 0.0
                for side, periodic in zip(domain.extents, domain.periodic_axes)
            ]
            tree = cKDTree(domain.wrap(positions), boxsize=boxsize)
        else:
            tree = cKDTree(positions)
        unordered = tree.query_pairs(r=query_radius, output_type="ndarray")
        if unordered.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        delta = domain.displacement(positions[unordered[:, 0]], positions[unordered[:, 1]])
        keep = np.sqrt(np.einsum("ij,ij->i", delta, delta)) <= radius
        unordered = unordered[keep]
        i_idx = np.concatenate([unordered[:, 0], unordered[:, 1]]).astype(np.int64)
        j_idx = np.concatenate([unordered[:, 1], unordered[:, 0]]).astype(np.int64)
        return i_idx, j_idx


NEIGHBOR_BACKENDS: dict[str, type[NeighborSearch]] = {
    "brute": BruteForceNeighbors,
    "cell": CellListNeighbors,
    "kdtree": KDTreeNeighbors,
}


def get_neighbor_search(name: str | NeighborSearch) -> NeighborSearch:
    """Resolve a neighbour-search backend by name or pass an instance through."""
    if isinstance(name, NeighborSearch):
        return name
    key = str(name).lower()
    if key not in NEIGHBOR_BACKENDS:
        raise KeyError(f"unknown neighbour backend {name!r}; available: {sorted(NEIGHBOR_BACKENDS)}")
    return NEIGHBOR_BACKENDS[key]()
