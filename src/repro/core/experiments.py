"""Canonical experiment definitions for every figure of the paper.

Each single-experiment ``figNN_*`` function returns an :class:`ExperimentSpec`
holding the simulation configuration, the ensemble size and the measurement
configuration of that figure; the parameter sweeps (Figs. 8–10) are
``figNN_*_plan`` functions returning an :class:`~repro.core.plan.ExperimentPlan`.
:func:`all_figure_plans` is the one figure registry: the CLI, the benchmark
harness (`benchmarks/`) and the examples consume it (or the factories it is
built from), so the mapping "figure → parameters → code" lives in exactly
one place.

Two scales are provided:

* ``full=False`` (default) — laptop-scale: smaller ensembles and fewer time
  steps, preserving the qualitative shape of every curve.  This is what the
  test-suite and the default benchmark run use.
* ``full=True`` — the paper's scale (m = 500–1000 samples, t_max = 250),
  reachable by passing ``full=True`` or setting the environment variable
  ``REPRO_FULL=1``.

Parameter notes
---------------
The paper specifies preferred-distance matrices ``r_αβ`` for both force
scalings.  For ``F1`` the matrix enters the force directly (Eq. 7).  For
``F2`` (Eq. 8) with the paper's ``σ = 1`` the force has no explicit ``r``;
the repulsion *range* is set by ``τ``.  We map a preferred distance ``r`` to
``τ = r²`` so that the repulsion decays on the length scale ``r`` (the
Gaussian ``e^{-x²/(2τ)}`` has standard width ``√τ = r``).  This substitution
is recorded in DESIGN.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from repro.core.plan import ExperimentPlan, chain, grid, single
from repro.core.self_organization import AnalysisConfig
from repro.parallel.rng import as_generator, derive_seed, spawn_generator
from repro.particles.model import SimulationConfig
from repro.particles.types import InteractionParams, random_symmetric_matrix

__all__ = [
    "ExperimentSpec",
    "ExperimentScale",
    "default_scale",
    "params_from_preferred_distances",
    "random_preferred_distance_params",
    "fig2_force_curves",
    "fig3_equilibria",
    "fig4_multi_information",
    "fig5_single_type_f1",
    "fig6_shape_variety",
    "fig7_ring_alignment",
    "fig11_decomposition",
    "fig12_emergent_structures",
    "fig4_multi_information_plan",
    "fig8_type_sweep_plan",
    "fig9_radius_sweep_plan",
    "fig10_types_and_radius_plan",
    "all_figure_plans",
    "all_figure_specs",
    "figure_plan",
]


# --------------------------------------------------------------------------- #
# scale handling
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade fidelity for runtime without changing the physics."""

    n_samples: int
    n_steps: int
    step_stride: int
    sweep_repeats: int

    @classmethod
    def reduced(cls) -> "ExperimentScale":
        """Laptop-scale defaults used by tests and the default benchmark run."""
        return cls(n_samples=64, n_steps=60, step_stride=10, sweep_repeats=3)

    @classmethod
    def full(cls) -> "ExperimentScale":
        """The paper's scale (§6): m = 500, t_max = 250, 10 repeats per sweep point."""
        return cls(n_samples=500, n_steps=250, step_stride=5, sweep_repeats=10)


def default_scale(full: bool | None = None) -> ExperimentScale:
    """Resolve the requested scale (explicit flag beats the ``REPRO_FULL`` env var)."""
    if full is None:
        full = os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")
    return ExperimentScale.full() if full else ExperimentScale.reduced()


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully specified experiment: simulate ``n_samples`` runs and measure them."""

    name: str
    description: str
    simulation: SimulationConfig
    n_samples: int
    analysis: AnalysisConfig
    seed: int = 0
    expectation: str = ""
    tags: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # The estimators need k < m; the analysis would find out only after
        # the ensemble has been simulated.
        k = self.analysis.k_neighbors
        if k >= self.n_samples:
            raise ValueError(f"k must satisfy 1 <= k <= m-1 (m={self.n_samples}), got {k}")

    def with_updates(self, **changes) -> "ExperimentSpec":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


# --------------------------------------------------------------------------- #
# parameter construction helpers
# --------------------------------------------------------------------------- #
def params_from_preferred_distances(
    r: np.ndarray | list[list[float]],
    *,
    force: str,
    k: np.ndarray | float = 1.0,
    tau_floor: float = 1.0,
) -> InteractionParams:
    """Build interaction matrices from a preferred-distance matrix.

    For ``F1`` the matrix is used as ``r_αβ`` directly.  For ``F2`` the
    repulsion width is set to ``τ = max(r², tau_floor)`` (σ stays at 1, as in
    the paper), so the repulsion acts on the length scale ``r``.
    """
    r = np.atleast_2d(np.asarray(r, dtype=float))
    l = r.shape[0]
    if np.isscalar(k):
        k_matrix = np.full((l, l), float(k))
    else:
        k_matrix = np.atleast_2d(np.asarray(k, dtype=float))
    force = force.upper()
    if force == "F1":
        tau = np.full((l, l), 2.0)
        return InteractionParams(k=k_matrix, r=r, sigma=np.ones((l, l)), tau=tau)
    if force == "F2":
        tau = np.maximum(r * r, tau_floor)
        return InteractionParams(k=k_matrix, r=r, sigma=np.ones((l, l)), tau=tau)
    raise ValueError(f"unknown force scaling {force!r}")


def random_preferred_distance_params(
    n_types: int,
    *,
    force: str,
    r_range: tuple[float, float],
    k_value: float | None = None,
    k_range: tuple[float, float] = (1.0, 10.0),
    rng: np.random.Generator | int | None = None,
) -> InteractionParams:
    """Random symmetric preferred-distance matrix mapped to interaction parameters."""
    rng = as_generator(rng)
    r = random_symmetric_matrix(n_types, *r_range, rng)
    if k_value is None:
        k = random_symmetric_matrix(n_types, *k_range, rng)
    else:
        k = float(k_value)
    return params_from_preferred_distances(r, force=force, k=k)


# --------------------------------------------------------------------------- #
# Fig. 2 — force-scaling curves (no simulation involved)
# --------------------------------------------------------------------------- #
def fig2_force_curves(
    *,
    k: float = 1.0,
    r: float = 2.0,
    sigma: float = 2.0,
    tau: float = 1.0,
    cutoff: float = 6.0,
    n_points: int = 200,
) -> dict[str, np.ndarray]:
    """Distance grid and both force-scaling curves, as plotted in Fig. 2.

    The defaults pick a parameter set for which both curves show the
    repulsion-then-attraction shape of the figure (``F2`` needs ``σ > τ`` for
    a sign change; the experiments elsewhere keep the paper's ``σ = 1``).
    """
    from repro.particles.forces import FORCE_SCALINGS

    x = np.linspace(1e-3, cutoff, n_points)
    f1 = FORCE_SCALINGS["F1"](x, k, r, sigma, tau)
    f2 = FORCE_SCALINGS["F2"](x, k, r, sigma, tau)
    return {"distance": x, "F1": np.asarray(f1), "F2": np.asarray(f2), "r": np.asarray([r])}


# --------------------------------------------------------------------------- #
# Fig. 3 — equilibrium states for 1–3 types
# --------------------------------------------------------------------------- #
def fig3_equilibria(n_types: int, *, full: bool | None = None, seed: int = 3) -> ExperimentSpec:
    """Equilibrium shapes of small collectives with 1, 2 or 3 types (Fig. 3)."""
    if not 1 <= n_types <= 3:
        raise ValueError("Fig. 3 shows collectives with 1 to 3 types")
    scale = default_scale(full)
    if n_types == 1:
        params = params_from_preferred_distances([[1.5]], force="F2", k=3.0)
        counts = (40,)
    elif n_types == 2:
        r = [[1.2, 2.5], [2.5, 1.2]]
        params = params_from_preferred_distances(r, force="F2", k=3.0)
        counts = (20, 20)
    else:
        r = [[1.2, 2.5, 3.0], [2.5, 1.2, 2.0], [3.0, 2.0, 1.2]]
        params = params_from_preferred_distances(r, force="F2", k=3.0)
        counts = (14, 13, 13)
    simulation = SimulationConfig(
        type_counts=counts,
        params=params,
        force="F2",
        cutoff=None,
        dt=0.02,
        substeps=5,
        n_steps=scale.n_steps,
        init_radius=4.0,
    )
    return ExperimentSpec(
        name=f"fig3_l{n_types}",
        description=f"Fig. 3 equilibrium state, {n_types} type(s), F2",
        simulation=simulation,
        n_samples=max(8, scale.n_samples // 8),
        analysis=AnalysisConfig(step_stride=scale.step_stride),
        seed=derive_seed(seed, "fig3", n_types),
        expectation="single-type collectives settle into a regular disc-shaped grid",
        tags=("fig3", "equilibrium"),
    )


# --------------------------------------------------------------------------- #
# Fig. 4 / Fig. 6 — three-type collective, multi-information over time
# --------------------------------------------------------------------------- #
_FIG4_R = np.array(
    [
        [2.5, 5.0, 4.0],
        [5.0, 2.5, 2.0],
        [4.0, 2.0, 3.5],
    ]
)


def fig4_multi_information(*, full: bool | None = None, seed: int = 4) -> ExperimentSpec:
    """Fig. 4: n = 50, l = 3, r_c = 5.0 and the explicit r_αβ matrix of the caption."""
    scale = default_scale(full)
    params = params_from_preferred_distances(_FIG4_R, force="F1", k=1.0)
    simulation = SimulationConfig(
        type_counts=(17, 17, 16),
        params=params,
        force="F1",
        cutoff=5.0,
        dt=0.02,
        substeps=5,
        n_steps=scale.n_steps,
        init_radius=3.0,
    )
    full_scale = scale.n_samples >= 300
    return ExperimentSpec(
        name="fig4_multi_information",
        description="Fig. 4: multi-information vs time for a 50-particle, 3-type collective",
        simulation=simulation,
        n_samples=scale.n_samples,
        analysis=AnalysisConfig(
            step_stride=scale.step_stride,
            compute_entropies=True,
            k_neighbors=4,
            # The per-particle estimate for n = 50 needs the paper's 500-sample
            # ensembles; at reduced scale the cluster-mean observers (§5.3.1)
            # keep the estimate well-conditioned.
            observer_mode="particles" if full_scale else "clusters",
        ),
        seed=derive_seed(seed, "fig4"),
        expectation="multi-information increases markedly over the run",
        tags=("fig4", "fig6", "timeseries"),
    )


def fig6_shape_variety(*, full: bool | None = None, seed: int = 4) -> ExperimentSpec:
    """Fig. 6 uses the same experiment as Fig. 4; final shapes fall into a few categories."""
    spec = fig4_multi_information(full=full, seed=seed)
    return spec.with_updates(
        name="fig6_shape_variety",
        description="Fig. 6: variety of final shapes of the Fig. 4 experiment",
        expectation="final configurations cluster into a small number of shape categories",
        tags=("fig6", "shapes"),
    )


# --------------------------------------------------------------------------- #
# Fig. 5 / Fig. 7 — single type, F1, concentric rings
# --------------------------------------------------------------------------- #
def fig5_single_type_f1(*, full: bool | None = None, seed: int = 5) -> ExperimentSpec:
    """Fig. 5: 20 particles of a single type under F1 with r_c > 2 r_αα."""
    scale = default_scale(full)
    r_self = 2.5
    params = params_from_preferred_distances([[r_self]], force="F1", k=1.0)
    simulation = SimulationConfig(
        type_counts=(20,),
        params=params,
        force="F1",
        cutoff=None,  # unconstrained interactions satisfy r_c > 2 r_αα trivially
        dt=0.02,
        substeps=5,
        n_steps=scale.n_steps,
        init_radius=3.0,
    )
    return ExperimentSpec(
        name="fig5_single_type_f1",
        description="Fig. 5: single-type F1 collective forming two concentric polygons",
        simulation=simulation,
        n_samples=max(scale.n_samples, 100),
        analysis=AnalysisConfig(step_stride=scale.step_stride, k_neighbors=4),
        seed=derive_seed(seed, "fig5"),
        expectation="clearly positive self-organization despite a single type",
        tags=("fig5", "fig7", "single-type"),
    )


def fig7_ring_alignment(*, full: bool | None = None, seed: int = 5) -> ExperimentSpec:
    """Fig. 7 overlays the aligned samples of the Fig. 5 experiment at the final step."""
    spec = fig5_single_type_f1(full=full, seed=seed)
    return spec.with_updates(
        name="fig7_ring_alignment",
        description="Fig. 7: per-particle dispersion of aligned samples (outer ring tight, inner loose)",
        expectation="outer-ring particles align tightly across samples; inner-ring particles do not",
        tags=("fig7", "alignment"),
    )


# --------------------------------------------------------------------------- #
# Fig. 8 — ΔI vs number of types (F2, random matrices)
# --------------------------------------------------------------------------- #
def fig8_type_sweep_plan(
    *,
    full: bool | None = None,
    n_types_values: Iterable[int] = range(1, 11),
    n_particles: int = 20,
    seed: int = 8,
) -> ExperimentPlan:
    """Fig. 8: increase of multi-information between t=0 and t_max vs number of types.

    Each sweep point is repeated with several random preferred-distance
    matrices (r_αβ ∈ [1, 5], as in the caption) and the benchmark averages
    the ΔI values.  Every point draws its own matrix, so the interaction
    parameters are not a sweepable *field*: the plan chains one spec per
    (type count, repeat) rather than expressing the sweep as a :func:`grid`.
    """
    scale = default_scale(full)
    specs: list[ExperimentSpec] = []
    for n_types in n_types_values:
        counts = _spread_counts(n_particles, n_types)
        for repeat in range(scale.sweep_repeats):
            rng = spawn_generator(derive_seed(seed, "fig8", n_types, repeat), 0)
            params = random_preferred_distance_params(
                n_types, force="F2", r_range=(1.0, 5.0), k_value=5.0, rng=rng
            )
            simulation = SimulationConfig(
                type_counts=counts,
                params=params,
                force="F2",
                cutoff=None,
                dt=0.02,
                substeps=5,
                n_steps=scale.n_steps,
                init_radius=3.0,
            )
            specs.append(
                ExperimentSpec(
                    name=f"fig8_l{n_types}_rep{repeat}",
                    description=f"Fig. 8 sweep point: {n_types} types, repeat {repeat}",
                    simulation=simulation,
                    n_samples=scale.n_samples,
                    analysis=AnalysisConfig(step_stride=scale.step_stride, k_neighbors=4),
                    seed=derive_seed(seed, "fig8-sim", n_types, repeat),
                    expectation="ΔI decreases as the number of types grows (F2)",
                    tags=("fig8", "sweep"),
                )
            )
    return ExperimentPlan.from_specs(specs)


# --------------------------------------------------------------------------- #
# Fig. 9 / Fig. 10 — cut-off radius and type-count sweeps (F1)
# --------------------------------------------------------------------------- #
_FIG9_CUTOFFS: tuple[float | None, ...] = (2.5, 5.0, 7.5, 10.0, 15.0, None)


def fig9_radius_sweep_plan(
    *,
    full: bool | None = None,
    cutoffs: Iterable[float | None] = _FIG9_CUTOFFS,
    n_particles: int = 20,
    seed: int = 9,
) -> ExperimentPlan:
    """Fig. 9: 20 particles, 20 distinct types, F1, varying cut-off radius r_c.

    The random preferred distances depend only on the repeat index, so the
    cut-off radius is a pure field sweep — a :func:`grid` axis over
    ``simulation.cutoff`` per random-matrix repeat — and the repeats are
    chained (units are named like ``fig9_rep0__cutoff2.5``).
    """
    scale = default_scale(full)
    per_repeat: list[ExperimentPlan] = []
    for repeat in range(scale.sweep_repeats):
        rng = spawn_generator(derive_seed(seed, "fig9", repeat), 0)
        params = random_preferred_distance_params(
            n_particles, force="F1", r_range=(2.0, 8.0), k_value=1.0, rng=rng
        )
        base = ExperimentSpec(
            name=f"fig9_rep{repeat}",
            description=f"Fig. 9 sweep, repeat {repeat} (cut-off radius swept by the plan)",
            simulation=SimulationConfig(
                type_counts=tuple([1] * n_particles),
                params=params,
                force="F1",
                cutoff=None,
                dt=0.02,
                substeps=5,
                n_steps=scale.n_steps,
                init_radius=4.0,
            ),
            n_samples=scale.n_samples,
            analysis=AnalysisConfig(step_stride=scale.step_stride, k_neighbors=4),
            seed=derive_seed(seed, "fig9-sim", repeat),
            expectation="multi-information increases with the cut-off radius",
            tags=("fig9", "sweep"),
        )
        per_repeat.append(grid(base, **{"simulation.cutoff": list(cutoffs)}))
    return chain(*per_repeat)


def fig10_types_and_radius_plan(
    *,
    full: bool | None = None,
    type_counts: Iterable[int] = (5, 20),
    cutoffs: Iterable[float | None] = (10.0, 15.0, None),
    n_particles: int = 20,
    seed: int = 10,
) -> ExperimentPlan:
    """Fig. 10: the Fig. 9 sweep comparing l = 20 against l = 5 types.

    A cut-off :func:`grid` per (type count, repeat) base spec, chained.
    """
    scale = default_scale(full)
    parts: list[ExperimentPlan] = []
    for n_types in type_counts:
        counts = _spread_counts(n_particles, n_types)
        for repeat in range(scale.sweep_repeats):
            rng = spawn_generator(derive_seed(seed, "fig10", n_types, repeat), 0)
            params = random_preferred_distance_params(
                n_types, force="F1", r_range=(2.0, 8.0), k_value=1.0, rng=rng
            )
            base = ExperimentSpec(
                name=f"fig10_l{n_types}_rep{repeat}",
                description=(
                    f"Fig. 10 sweep, l = {n_types}, repeat {repeat} (cut-off swept by the plan)"
                ),
                simulation=SimulationConfig(
                    type_counts=counts,
                    params=params,
                    force="F1",
                    cutoff=None,
                    dt=0.02,
                    substeps=5,
                    n_steps=scale.n_steps,
                    init_radius=4.0,
                ),
                n_samples=scale.n_samples,
                analysis=AnalysisConfig(step_stride=scale.step_stride, k_neighbors=4),
                seed=derive_seed(seed, "fig10-sim", n_types, repeat),
                expectation=(
                    "with local interactions, fewer types self-organize more than l = n types"
                ),
                tags=("fig10", "sweep"),
            )
            parts.append(grid(base, **{"simulation.cutoff": list(cutoffs)}))
    return chain(*parts)


# --------------------------------------------------------------------------- #
# Fig. 11 — decomposition of the multi-information
# --------------------------------------------------------------------------- #
def fig11_decomposition(*, full: bool | None = None, seed: int = 11) -> ExperimentSpec:
    """Fig. 11: per-type decomposition of one l = 5, r_c = 15 experiment from Fig. 10."""
    scale = default_scale(full)
    rng = spawn_generator(derive_seed(seed, "fig11"), 0)
    params = random_preferred_distance_params(
        5, force="F1", r_range=(2.0, 8.0), k_value=1.0, rng=rng
    )
    simulation = SimulationConfig(
        type_counts=_spread_counts(20, 5),
        params=params,
        force="F1",
        cutoff=15.0,
        dt=0.02,
        substeps=5,
        n_steps=scale.n_steps,
        init_radius=4.0,
    )
    return ExperimentSpec(
        name="fig11_decomposition",
        description="Fig. 11: normalised decomposition of the multi-information over time",
        simulation=simulation,
        n_samples=scale.n_samples,
        analysis=AnalysisConfig(
            step_stride=scale.step_stride, compute_decomposition=True, k_neighbors=4
        ),
        seed=derive_seed(seed, "fig11-sim"),
        expectation="relative contributions fluctuate early, then settle while I keeps growing",
        tags=("fig11", "decomposition"),
    )


# --------------------------------------------------------------------------- #
# Fig. 12 — emergent structures with local interactions and few types
# --------------------------------------------------------------------------- #
def fig12_emergent_structures(*, full: bool | None = None, seed: int = 12) -> ExperimentSpec:
    """Fig. 12: small r_c, few types — layered / enclosed emergent structures."""
    scale = default_scale(full)
    # Same-type particles prefer to sit close, different types further apart:
    # the classic differential-adhesion sorting regime.
    r = [
        [1.2, 2.2, 3.5],
        [2.2, 1.2, 2.2],
        [3.5, 2.2, 1.2],
    ]
    params = params_from_preferred_distances(r, force="F1", k=1.0)
    simulation = SimulationConfig(
        type_counts=(14, 13, 13),
        params=params,
        force="F1",
        cutoff=6.0,
        dt=0.02,
        substeps=5,
        n_steps=scale.n_steps,
        init_radius=4.0,
    )
    return ExperimentSpec(
        name="fig12_emergent_structures",
        description="Fig. 12: emergent layered/enclosed structures with local interactions",
        simulation=simulation,
        n_samples=max(16, default_scale(full).n_samples // 4),
        analysis=AnalysisConfig(step_stride=scale.step_stride, k_neighbors=4),
        seed=derive_seed(seed, "fig12"),
        expectation="types segregate into layered or enclosed clusters",
        tags=("fig12", "shapes"),
    )


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
def fig4_multi_information_plan(*, full: bool | None = None, seed: int = 4) -> ExperimentPlan:
    """Fig. 4 as a one-unit plan."""
    return single(fig4_multi_information(full=full, seed=seed))


def all_figure_plans(*, full: bool | None = None) -> dict[str, ExperimentPlan]:
    """Every simulation-backed figure experiment as a plan, keyed by figure id.

    This is the figure registry.  Fig. 2 is analytic (no simulation) and
    therefore not included here; use :func:`fig2_force_curves` directly.
    """
    return {
        "fig3": chain(*(fig3_equilibria(l, full=full) for l in (1, 2, 3))),
        "fig4": fig4_multi_information_plan(full=full),
        "fig5": single(fig5_single_type_f1(full=full)),
        "fig6": single(fig6_shape_variety(full=full)),
        "fig7": single(fig7_ring_alignment(full=full)),
        "fig8": fig8_type_sweep_plan(full=full),
        "fig9": fig9_radius_sweep_plan(full=full),
        "fig10": fig10_types_and_radius_plan(full=full),
        "fig11": single(fig11_decomposition(full=full)),
        "fig12": single(fig12_emergent_structures(full=full)),
    }


def all_figure_specs(*, full: bool | None = None) -> dict[str, list[ExperimentSpec]]:
    """Every figure's plan lowered to its spec list (plan order), keyed by figure id."""
    return {figure: plan.specs() for figure, plan in all_figure_plans(full=full).items()}


def figure_plan(figure: str, *, full: bool | None = None) -> ExperimentPlan:
    """Plan of one figure by id (e.g. ``"fig9"``); raises ``KeyError`` if unknown."""
    plans = all_figure_plans(full=full)
    key = figure.lower()
    if key not in plans:
        raise KeyError(
            f"unknown figure {figure!r}; simulation-backed figures: {', '.join(plans)}"
        )
    return plans[key]


def _spread_counts(n_particles: int, n_types: int) -> tuple[int, ...]:
    """Distribute ``n_particles`` as evenly as possible over ``n_types`` types."""
    if n_types <= 0:
        raise ValueError("n_types must be positive")
    if n_particles < n_types:
        raise ValueError("need at least one particle per type")
    base = n_particles // n_types
    remainder = n_particles % n_types
    return tuple(base + (1 if i < remainder else 0) for i in range(n_types))
