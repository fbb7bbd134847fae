"""Radius-neighbour search for the interaction cut-off.

The searches here feed the one sparse drift kernel,
:func:`repro.particles.engine.sparse_drift_batch`, through
:meth:`NeighborSearch.pairs_batch`, called once per drift evaluation of a
whole :class:`~repro.particles.ensemble.EnsembleSimulator` batch (a single
configuration is a batch of one).  Whether a run uses them at all is decided
by ``SimulationConfig.engine``: ``"sparse"`` forces the neighbour-pair kernel,
``"dense"`` the all-pairs kernel, and ``"auto"`` picks sparse only while the
cut-off radius is small compared to the collective diameter, re-checked at
every recorded step (see :class:`repro.particles.engine.AdaptiveDriftEngine`).

Searches
--------
* :class:`CellListNeighbors` is the sparse engine's search: the standard
  molecular-dynamics cell list (Allen & Tildesley, *Computer Simulation of
  Liquids*, 1987) as a loop-free spatial hash with cells a hair wider than
  ``r_c``.  Linear in ``n`` for bounded density; its batched query hashes a
  whole ensemble snapshot ``(m, n, 2)`` at once by prepending a sample-id
  coordinate to the cell key.
* :class:`BruteForceNeighbors` is the dense distance matrix, thresholded:
  O(n²) time and memory.  It is the reference the cell list is fuzzed
  against, and the cell list's fallback on periodic boxes too small for a
  wrapped 3×3 shell.

Domains
-------
Every query takes an optional :class:`~repro.particles.domain.Domain`.  On
the default free plane (and in a reflecting box, whose displacements are the
free-space ones) the geometry is Euclidean; on any domain with a periodic
axis — the torus (both axes wrap, possibly anisotropic ``Lx ≠ Ly``) or the
mixed channel (periodic in x, reflecting in y) — distances follow the
per-axis minimum-image convention: the brute force evaluates minimum-image
distances directly, and the cell list switches to per-axis *modular* cell
hashing — the 3×3 neighbourhood wraps around the seam on periodic axes and
steps into ghost padding on reflecting ones — including the batched query.
Degenerate wrapped geometries (fewer than three cells along a periodic axis,
a cut-off beyond half a periodic extent) fall back to the minimum-image brute
force, so the two searches always agree.

Both return the same representation: ordered ``int64`` index pairs
``(i_idx, j_idx)`` with ``i != j`` and ``dist(i, j) <= radius`` (both
orientations present), which :meth:`NeighborSearch.pairs_batch` flattens and
lex-sorts for the sparse drift kernel.  They are pinned against each other by
a fuzz suite (``tests/test_neighbors_fuzz.py``) on every domain.  Inputs are
validated centrally: a NaN or infinite coordinate and a ``NaN`` radius are
rejected by both searches, and an infinite radius means "every ordered pair"
(single and batched queries alike).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.particles.domain import Domain, get_domain

__all__ = ["NeighborSearch", "BruteForceNeighbors", "CellListNeighbors"]


class NeighborSearch(abc.ABC):
    """Interface of a radius-neighbour search."""

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
        positions = _validate(positions, radius, batched=True)
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

    ``inf`` passes — it means "every ordered pair" and both searches (single
    and batched queries alike) honour it by delegating to the all-pairs
    path, so they agree on non-finite radii by construction.
    """
    radius = float(radius)
    if np.isnan(radius):
        raise ValueError("radius must not be NaN")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return radius


def _validate(positions: np.ndarray, radius: float, *, batched: bool = False) -> np.ndarray:
    """Shared input validation of single (``(n, 2)``) and batched queries.

    A NaN or infinite coordinate is rejected on every domain: the dense
    kernel turns it into a NaN drift for the whole sample, which no pair
    set can reproduce, so the dense = sparse contract covers finite
    positions only.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != (3 if batched else 2) or positions.shape[-1] != 2:
        expected = "(m, n, 2)" if batched else "(n, 2)"
        raise ValueError(f"positions must have shape {expected}, got {positions.shape}")
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite, got a NaN or infinite coordinate")
    _validate_radius(radius)
    return positions


class BruteForceNeighbors(NeighborSearch):
    """O(n²) dense search; the reference the cell list is tested against."""

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
#: Cells are this factor wider than the cut-off, so that rounding in the
#: cell arithmetic can never put a pair at the cut-off two cells apart (with
#: cells exactly ``r_c`` wide, ``x = 1 - 2**-53`` and ``2.0`` at ``r_c = 1``
#: sit one rounded distance ``1.0`` apart but in cells 0 and 2).
_CELL_MARGIN = 1.0 + 1e-9

#: Flattened cell ids (sample blocks included) stay below this bound.
_ID_LIMIT = np.iinfo(np.int64).max // 2


def _closed_gaps(cells: np.ndarray) -> np.ndarray:
    """Renumber one axis's (floored, float) cell coordinates from 0, in order.

    Every run of empty cells is closed down to a single empty cell, so cells
    that were neighbours stay neighbours and cells that were not stay apart;
    the axis then spans at most twice its occupied cells, however far apart
    they were.
    """
    occupied, slot = np.unique(cells, return_inverse=True)
    steps = np.minimum(np.diff(occupied), 2.0)
    return np.concatenate(([0.0], np.cumsum(steps)))[slot]


def _grid_ids(
    positions: np.ndarray, radius: float, sample: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Flattened, padded cell id per particle, plus the row stride (free plane).

    Cells of side ``radius * _CELL_MARGIN``, counted from the bounding box's
    lower corner, are padded by one ghost cell on every side, so the id of
    the cell at offset ``(dx, dy)`` from id ``c`` is exactly
    ``c + dx * stride + dy`` with no aliasing across rows.  ``sample``
    (batched queries) prepends a leading coordinate: each sample occupies its
    own block of ids, and because the blocks are padded, the 3×3
    neighbourhood of any cell never reaches into another sample's block.

    A bounding box too wide for ``int64`` ids (say, one particle at
    ``1e300``) keeps its cells but closes the empty runs between them
    (:func:`_closed_gaps`), which leaves every cell's neighbourhood as it was.
    """
    side = radius * _CELL_MARGIN
    cells = [np.floor((column - column.min()) / side) for column in positions.T]
    n_blocks = 1 if sample is None else int(sample[-1]) + 1
    x_cells, y_cells = (float(column.max()) + 3.0 for column in cells)
    if not n_blocks * x_cells * y_cells < _ID_LIMIT:
        cells = [_closed_gaps(column) for column in cells]
    cells_x, cells_y = (column.astype(np.int64) for column in cells)
    x_extent = int(cells_x.max()) + 3
    stride = int(cells_y.max()) + 3
    ids = (cells_x + 1) * stride + (cells_y + 1)
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
    the radius — ``L / nc >= r_c · _CELL_MARGIN`` — so a pair exactly at the
    cut-off straddling the seam can never round out of the wrapped shell.
    Reflecting axes get a padded grid with cell side ``r_c · _CELL_MARGIN``
    over the wrapped coordinate range ``[0, L]`` (no seam, no constraint on
    the cell count).
    """
    side = radius * _CELL_MARGIN
    axes = []
    for side_len, periodic in zip(domain.extents, domain.periodic_axes):
        ratio = side_len / side
        if not np.isfinite(ratio) or ratio >= 2**31:
            return None  # astronomically fine grid: id space would overflow
        if periodic:
            n_cells = int(ratio)
            if n_cells < 3:
                return None
            axes.append((n_cells, True, side_len / n_cells, side_len))
        else:
            # floor(L / side) + 1 occupied cells plus one ghost on each side.
            axes.append((int(ratio) + 3, False, side, None))
    (nx, mod_x, side_x, image_x), (ny, mod_y, side_y, image_y) = axes
    if n_blocks * nx * ny >= _ID_LIMIT:
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
    """Fully vectorised uniform-grid spatial hash with cells a hair wider than ``r_c``.

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
    brute-force candidate set, a free-plane bounding box too wide for
    ``int64`` cell ids closes its empty runs of cells, wrapped grids with
    fewer than three cells along a periodic axis fall back to the
    minimum-image brute force, and single-particle or empty systems return
    empty pair arrays.
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
        ids, stride = _grid_ids(positions, radius)
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
        positions = _validate(positions, radius, batched=True)
        domain = get_domain(domain)
        m, n, _ = positions.shape
        if m * n == 0 or not np.isfinite(radius):
            return super().pairs_batch(positions, radius, domain)
        sample = np.repeat(np.arange(m, dtype=np.int64), n)
        if any(domain.periodic_axes):
            grid = _boxed_grid(domain, radius, n_blocks=m)
            if grid is None:
                return super().pairs_batch(positions, radius, domain)
            flat = domain.wrap(positions.reshape(m * n, 2))
            ids = _boxed_cell_ids(flat, grid, sample=sample)
            pairs = _hashed_pairs(flat, ids, 0, radius, grid=grid)
            return _lex_sorted(*pairs, m * n)
        flat = positions.reshape(m * n, 2)
        ids, stride = _grid_ids(flat, radius, sample=sample)
        pairs = _hashed_pairs(flat, ids, stride, radius)
        return _lex_sorted(*pairs, m * n)
