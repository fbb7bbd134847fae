"""Tests for the domain abstraction (repro.particles.domain) and its wiring.

Covers the geometry primitives themselves (wrap/displacement on the free
plane, periodic torus and reflecting box), their integration into
``SimulationConfig`` / ``EnsembleSimulator`` (single runs included, as
ensembles of one), the
fixed-box ``"auto"`` heuristic on bounded domains, and — critically — the
content-hash compatibility contract: free-space configurations hash exactly
as they did before domains existed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.plan import unit_content_hash
from repro.particles.domain import (
    DOMAINS,
    ChannelDomain,
    FreeDomain,
    PeriodicDomain,
    ReflectingDomain,
    get_domain,
)
from repro.particles.engine import AdaptiveDriftEngine, engine_for_config, make_engine
from repro.particles.ensemble import EnsembleSimulator
from repro.particles.init_conditions import uniform_box_ensemble
from repro.particles.model import SimulationConfig, initial_ensemble_for
from repro.particles.types import InteractionParams


def _config(**overrides) -> SimulationConfig:
    base = dict(
        type_counts=(6, 6),
        params=InteractionParams.clustering(2, self_distance=0.8, cross_distance=1.6, k=2.0),
        cutoff=1.5,
        dt=0.05,
        n_steps=4,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestGetDomain:
    def test_free_is_default_and_singleton_like(self):
        assert get_domain(None).name == "free"
        assert get_domain("free") == FreeDomain()
        assert get_domain("FREE").spec == "free"

    def test_parses_bounded_specs(self):
        periodic = get_domain("periodic:8")
        assert isinstance(periodic, PeriodicDomain)
        assert periodic.box == 8.0
        assert periodic.spec == "periodic:8.0"
        reflecting = get_domain("reflecting:2.5")
        assert isinstance(reflecting, ReflectingDomain)
        assert reflecting.box == 2.5

    def test_instances_pass_through(self):
        domain = PeriodicDomain(box=3.0)
        assert get_domain(domain) is domain

    def test_spec_round_trips(self):
        for spec in ("free", "periodic:8.0", "reflecting:0.75"):
            assert get_domain(get_domain(spec).spec).spec == get_domain(spec).spec

    def test_rejects_bad_specs(self):
        with pytest.raises(KeyError, match="unknown domain"):
            get_domain("torus:3")
        with pytest.raises(ValueError, match="needs a box side"):
            get_domain("periodic")
        with pytest.raises(ValueError, match="invalid box side"):
            get_domain("periodic:abc")
        with pytest.raises(ValueError, match="takes no box"):
            get_domain("free:3")
        with pytest.raises(ValueError, match="positive finite"):
            get_domain("periodic:-2")
        with pytest.raises(ValueError, match="positive finite"):
            get_domain("reflecting:inf")

    def test_registry_names(self):
        assert set(DOMAINS) == {"free", "periodic", "reflecting", "channel"}

    def test_parses_anisotropic_and_channel_specs(self):
        periodic = get_domain("periodic:8,4")
        assert isinstance(periodic, PeriodicDomain)
        assert periodic.extents == (8.0, 4.0)
        assert periodic.periodic_axes == (True, True)
        assert periodic.spec == "periodic:8.0,4.0"
        channel = get_domain("channel:8,4")
        assert isinstance(channel, ChannelDomain)
        assert channel.periodic_axes == (True, False)
        assert channel.spec == "channel:8.0,4.0"
        reflecting = get_domain("reflecting:9,3")
        assert reflecting.extents == (9.0, 3.0)
        assert reflecting.periodic_axes == (False, False)

    def test_square_pair_canonicalises_to_scalar_spec(self):
        # Satellite pin: 'periodic:L,L' and 'periodic:L' are the SAME domain
        # with the SAME canonical spec, so they hash identically everywhere.
        assert get_domain("periodic:8,8").spec == "periodic:8.0"
        assert get_domain("periodic:8,8") == get_domain("periodic:8")
        assert get_domain("channel:5,5").spec == "channel:5.0"
        assert get_domain("reflecting:2.5,2.5") == get_domain("reflecting:2.5")

    def test_square_boxes_keep_a_scalar_box_attribute(self):
        # Existing call sites read `domain.box` as a float; the per-axis
        # refactor must not change that for square boxes.
        assert get_domain("periodic:8").box == 8.0
        assert get_domain("periodic:8,8").box == 8.0
        assert get_domain("periodic:8,4").box == (8.0, 4.0)

    def test_rejects_bad_per_axis_specs(self):
        with pytest.raises(ValueError, match="one box side or an Lx,Ly pair"):
            get_domain("periodic:1,2,3")
        with pytest.raises(ValueError, match="one box side or an Lx,Ly pair"):
            get_domain("periodic:8,,4")
        with pytest.raises(ValueError, match="needs a box side"):
            get_domain("channel:")
        with pytest.raises(ValueError, match="positive finite"):
            get_domain("periodic:8,-1")
        with pytest.raises(ValueError, match="positive finite"):
            get_domain("channel:4,nan")
        with pytest.raises(ValueError, match="invalid box side"):
            get_domain("periodic:8,abc")


class TestFreeDomain:
    def test_wrap_is_the_identity_object(self):
        positions = np.random.default_rng(0).normal(size=(7, 2))
        assert FreeDomain().wrap(positions) is positions

    def test_displacement_is_plain_subtraction(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2, 9, 2))
        np.testing.assert_array_equal(FreeDomain().displacement(a, b), a - b)

    def test_not_bounded(self):
        assert not FreeDomain().bounded and FreeDomain().box is None


class TestPeriodicDomain:
    def test_wrap_lands_in_the_half_open_box(self):
        domain = PeriodicDomain(box=5.0)
        positions = np.array([[-0.1, 5.0], [12.3, -7.0], [4.999, 0.0], [-1e-18, 2.5]])
        wrapped = domain.wrap(positions)
        assert np.all(wrapped >= 0.0) and np.all(wrapped < 5.0)

    def test_wrap_is_bitwise_idempotent(self):
        domain = PeriodicDomain(box=3.0)
        wrapped = domain.wrap(np.random.default_rng(2).uniform(-10, 10, size=(50, 2)))
        np.testing.assert_array_equal(domain.wrap(wrapped), wrapped)

    def test_minimum_image_across_the_seam(self):
        domain = PeriodicDomain(box=10.0)
        delta = domain.displacement(np.array([0.5, 0.0]), np.array([9.5, 0.0]))
        np.testing.assert_allclose(delta, [1.0, 0.0])

    def test_displacement_bounded_by_half_the_box(self):
        domain = PeriodicDomain(box=4.0)
        rng = np.random.default_rng(3)
        delta = domain.displacement(rng.uniform(-9, 9, (40, 2)), rng.uniform(-9, 9, (40, 2)))
        assert np.all(np.abs(delta) <= 2.0)

    def test_displacement_invariant_under_image_shifts(self):
        domain = PeriodicDomain(box=6.0)
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 6, size=(20, 2))
        b = rng.uniform(0, 6, size=(20, 2))
        reference = domain.displacement(a, b)
        np.testing.assert_allclose(domain.displacement(a + 6.0, b), reference, atol=1e-12)
        np.testing.assert_allclose(domain.displacement(a, b - 12.0), reference, atol=1e-12)

    def test_cutoff_validation(self):
        domain = PeriodicDomain(box=6.0)
        domain.validate_cutoff(3.0)  # exactly L/2 is fine
        domain.validate_cutoff(None)
        domain.validate_cutoff(float("inf"))
        with pytest.raises(ValueError, match="exceeds half the periodic box"):
            domain.validate_cutoff(3.2)


class TestReflectingDomain:
    def test_wrap_reflects_into_the_closed_box(self):
        domain = ReflectingDomain(box=2.0)
        positions = np.array([[-0.5, 1.0], [2.5, 0.0], [1.0, 1.0], [4.5, -3.0]])
        np.testing.assert_allclose(
            domain.wrap(positions), [[0.5, 1.0], [1.5, 0.0], [1.0, 1.0], [0.5, 1.0]]
        )

    def test_wrap_handles_multi_box_excursions(self):
        domain = ReflectingDomain(box=1.0)
        wrapped = domain.wrap(np.random.default_rng(5).uniform(-37, 41, size=(100, 2)))
        assert np.all(wrapped >= 0.0) and np.all(wrapped <= 1.0)

    def test_displacement_is_free(self):
        domain = ReflectingDomain(box=3.0)
        a = np.array([0.2, 2.9])
        b = np.array([2.8, 0.1])
        np.testing.assert_array_equal(domain.displacement(a, b), a - b)

    def test_any_cutoff_is_fine(self):
        ReflectingDomain(box=1.0).validate_cutoff(100.0)


class TestAnisotropicGeometry:
    def test_wrap_is_per_axis(self):
        domain = get_domain("periodic:8,4")
        wrapped = domain.wrap(np.array([[9.0, -1.0], [-0.5, 4.5]]))
        np.testing.assert_allclose(wrapped, [[1.0, 3.0], [7.5, 0.5]])

    def test_minimum_image_uses_each_axis_length(self):
        domain = get_domain("periodic:8,4")
        delta = domain.displacement(np.array([[7.5, 3.5]]), np.array([[0.5, 0.5]]))
        np.testing.assert_allclose(delta, [[-1.0, -1.0]])

    def test_square_pair_matches_scalar_bitwise(self):
        # The legacy full-array arithmetic branch must be taken for L,L —
        # identical code path, identical bits.
        rng = np.random.default_rng(7)
        points = rng.normal(scale=10.0, size=(64, 2))
        scalar = get_domain("periodic:6")
        pair = get_domain("periodic:6,6")
        np.testing.assert_array_equal(scalar.wrap(points), pair.wrap(points))
        a, b = rng.normal(scale=10.0, size=(2, 32, 2))
        np.testing.assert_array_equal(scalar.displacement(a, b), pair.displacement(a, b))

    def test_cutoff_validated_against_smallest_periodic_axis(self):
        get_domain("periodic:8,4").validate_cutoff(2.0)  # == min(L)/2
        with pytest.raises(ValueError, match="half the periodic box"):
            get_domain("periodic:8,4").validate_cutoff(2.5)
        # The reflecting axis of a channel never constrains the cutoff.
        get_domain("channel:8,2").validate_cutoff(4.0)
        with pytest.raises(ValueError, match="half the periodic box"):
            get_domain("channel:8,2").validate_cutoff(4.5)


class TestChannelDomain:
    def test_wrap_mixes_modes_per_axis(self):
        domain = get_domain("channel:8,4")
        # x wraps mod 8; y reflects off the walls at 0 and 4.
        wrapped = domain.wrap(np.array([[9.0, 4.5], [-1.0, -0.5], [3.0, 2.0]]))
        np.testing.assert_allclose(wrapped, [[1.0, 3.5], [7.0, 0.5], [3.0, 2.0]])

    def test_displacement_wraps_x_only(self):
        domain = get_domain("channel:8,4")
        delta = domain.displacement(np.array([[7.5, 3.5]]), np.array([[0.5, 0.5]]))
        np.testing.assert_allclose(delta, [[-1.0, 3.0]])

    def test_periodic_axes_flags(self):
        assert get_domain("channel:8,4").periodic_axes == (True, False)
        assert get_domain("channel:8,4").bounded


def _full_array_displacement(domain, a, b):
    """The displacement as computed before it was defined per axis."""
    (per_x, per_y) = domain.periodic_axes
    if not (per_x or per_y):
        return np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    delta = domain.wrap(a) - domain.wrap(b)
    (side_x, side_y) = domain.extents
    if per_x and per_y and side_x == side_y:
        return delta - side_x * np.round(delta / side_x)
    if per_x:
        delta[..., 0] -= side_x * np.round(delta[..., 0] / side_x)
    if per_y:
        delta[..., 1] -= side_y * np.round(delta[..., 1] / side_y)
    return delta


class TestAxisDisplacement:
    SPECS = [
        "free",
        "periodic:8.0",
        "periodic:8.0,3.0",
        "reflecting:6.0",
        "reflecting:6.0,2.5",
        "channel:12.0,3.0",
        "channel:5.0,5.0",
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_displacement_is_assembled_from_the_axes(self, spec):
        domain = get_domain(spec)
        rng = np.random.default_rng(11)
        a = rng.uniform(-30, 30, size=(7, 1, 2))
        b = rng.uniform(-30, 30, size=(1, 9, 2))
        delta = domain.displacement(a, b)
        assert delta.shape == (7, 9, 2)
        for axis in (0, 1):
            np.testing.assert_array_equal(
                delta[..., axis], domain.axis_displacement(a[..., axis], b[..., axis], axis)
            )

    @pytest.mark.parametrize("spec", SPECS)
    def test_canonical_coordinates_are_subtracted_as_they_are(self, spec):
        # The dense kernel wraps or folds each coordinate once per call and
        # tiles it into planes; subtracting those planes with
        # canonical=True gives the floats of the one-step call.
        domain = get_domain(spec)
        rng = np.random.default_rng(13)
        a = rng.uniform(-30, 30, size=6)
        b = rng.uniform(-30, 30, size=8)
        for axis in (0, 1):
            tiled_a = np.repeat(domain.axis_coordinates(a, axis)[:, None], 8, axis=1)
            tiled_b = np.repeat(domain.axis_coordinates(b, axis)[None], 6, axis=0)
            scratch = np.empty_like(tiled_b)
            canonical = domain.axis_displacement(
                tiled_a, tiled_b, axis, out=tiled_a, scratch=scratch, canonical=True
            )
            expected = domain.axis_displacement(a[:, None], b[None], axis)
            assert canonical is tiled_a
            assert canonical.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("spec", SPECS)
    def test_same_floats_as_the_full_array_arithmetic(self, spec):
        domain = get_domain(spec)
        rng = np.random.default_rng(12)
        a = rng.uniform(-30, 30, size=(40, 2))
        b = rng.uniform(-30, 30, size=(40, 2))
        expected = _full_array_displacement(domain, a, b)
        assert domain.displacement(a, b).tobytes() == expected.tobytes()


class TestSimulationConfigIntegration:
    def test_domain_normalised_to_canonical_spec(self):
        assert _config(domain="periodic:8").domain == "periodic:8.0"
        assert _config(domain=PeriodicDomain(box=8.0)).domain == "periodic:8.0"
        assert _config().domain == "free"

    def test_resolved_domain_and_radius(self):
        config = _config(domain="periodic:8")
        assert isinstance(config.resolved_domain, PeriodicDomain)
        assert config.domain_radius == 4.0
        free = _config()
        assert free.domain_radius == free.disc_radius

    def test_periodic_rejects_cutoff_past_half_box(self):
        with pytest.raises(ValueError, match="exceeds half the periodic box"):
            _config(domain="periodic:2.0")  # base cutoff 1.5 > L/2 = 1.0
        _config(domain="periodic:3.0")  # exactly L/2 passes
        _config(domain="periodic:2.0", cutoff=None)  # unconstrained passes

    def test_invalid_domain_spec_raises_at_construction(self):
        with pytest.raises(KeyError, match="unknown domain"):
            _config(domain="moebius:3")

    def test_to_dict_omits_free_and_round_trips_bounded(self):
        free = _config()
        assert "domain" not in free.to_dict()
        bounded = _config(domain="reflecting:5")
        payload = bounded.to_dict()
        assert payload["domain"] == "reflecting:5.0"
        assert SimulationConfig.from_dict(payload).to_dict() == payload
        assert SimulationConfig.from_dict(free.to_dict()).to_dict() == free.to_dict()


#: SHA-256 over the newline-joined, plan-ordered unit hashes of every figure
#: plan, pinned before the figure registry was reduced to the plans alone:
#: a warm RunStore keeps serving every figure's cache hits.
FIGURE_UNIT_DIGESTS = {
    False: {
        "fig3": (3, "138a87b8f9c02bbf58404775733267101bddf2d882e6b7cf8aec1d56290c95a2"),
        "fig4": (1, "f39779da60c022b7db7e69d335b04a340d154f27a4d8c074b08ab10c9b469f51"),
        "fig5": (1, "87bec5e3d0acdb494203eaa788abf1710a039dbdbe75d999d33ae02cd07f8ab5"),
        "fig6": (1, "f39779da60c022b7db7e69d335b04a340d154f27a4d8c074b08ab10c9b469f51"),
        "fig7": (1, "87bec5e3d0acdb494203eaa788abf1710a039dbdbe75d999d33ae02cd07f8ab5"),
        "fig8": (30, "7830d63c713ea790fffe3a4e063b595e79a7adc4ec025f98a6b56e5aae3bf775"),
        "fig9": (18, "301d5944df153a4680452fb9ccbef7d3eee19b972693fa189fb48e7cf1a06a21"),
        "fig10": (18, "609fef479019282d74e0366ac9e299ac5e4d189c8385327fac8f1f4a8f29bf35"),
        "fig11": (1, "4720ce7ec4a15fb36c7f2bc10aa333a5c2a4d644334f5cedc588d105d7d5447f"),
        "fig12": (1, "302ec0c2ab919391951960473e8ed0db70dbda2e3b93e625f78caba136b18f71"),
    },
    True: {
        "fig3": (3, "9526a32bc3d2cacec628c5edc10d1c3dabd224e5f961016476aef44ece6935c2"),
        "fig4": (1, "a49ac539b21d0fda3f94cddf24612dd53d93b770066916daea2dc3a28ac6e094"),
        "fig5": (1, "8a77e74f5c808adb3b433ad5d72dc152623486b976440c589c90266fa4da2814"),
        "fig6": (1, "a49ac539b21d0fda3f94cddf24612dd53d93b770066916daea2dc3a28ac6e094"),
        "fig7": (1, "8a77e74f5c808adb3b433ad5d72dc152623486b976440c589c90266fa4da2814"),
        "fig8": (100, "b7ff04b9bfc5a638188d2ef23ab29e205090be5c890962663090ca653d803c18"),
        "fig9": (60, "0554fcefd34cedfec29bb327b7bb2240b30f912f43cd9fd9c62d2b2d613bc68b"),
        "fig10": (60, "08b62b90525e05b2226c3c8d40e26d72b5241b21c2c66a42880a9defc4000569"),
        "fig11": (1, "5c6fef2c840c92db3452d9f9e9077cdf11e64fda6a265d4a3f23f83653010639"),
        "fig12": (1, "95203345bf8cf17f29d92c2d3f9e0104b3928ae5b5168b4e8ddeca45c694ab45"),
    },
}


class TestHashCompatibility:
    def test_free_space_hash_is_byte_for_byte_unchanged(self):
        # Pinned against the value computed before the domain field existed
        # (PR 4 era): a warm RunStore keeps serving free-space cache hits.
        from repro.core.experiments import fig4_multi_information, fig9_radius_sweep_plan

        assert (
            unit_content_hash(fig4_multi_information())
            == "6e0b73dc24217114046e502520ab5f06815e0831a761fcda9809bd8ef33ee007"
        )
        assert (
            unit_content_hash(fig9_radius_sweep_plan().specs()[0])
            == "7079e7e13072e70a848220c8b3101443c6736ae7ca0b992b6cec326073982c4f"
        )

    @pytest.mark.parametrize("full", [False, True], ids=["quick", "full"])
    def test_every_figure_unit_hash_is_pinned(self, full):
        import hashlib

        from repro.core.experiments import all_figure_plans

        digests = {}
        for figure, plan in all_figure_plans(full=full).items():
            hashes = [unit.content_hash for unit in plan.units()]
            digests[figure] = (len(hashes), hashlib.sha256("\n".join(hashes).encode()).hexdigest())
        assert digests == FIGURE_UNIT_DIGESTS[full]
        assert sum(count for count, _ in digests.values()) == (229 if full else 75)

    def test_domain_enters_the_hash(self):
        from repro.core.experiments import fig4_multi_information

        spec = fig4_multi_information()
        wrapped = spec.with_updates(
            simulation=spec.simulation.with_updates(domain="periodic:12")
        )
        reflecting = spec.with_updates(
            simulation=spec.simulation.with_updates(domain="reflecting:12")
        )
        hashes = {unit_content_hash(spec), unit_content_hash(wrapped), unit_content_hash(reflecting)}
        assert len(hashes) == 3

    def test_square_pair_hashes_identically_to_scalar(self):
        # Back-compat pin: a pre-refactor store keyed on 'periodic:12.0'
        # keeps serving hits for configs now written as 'periodic:12,12'.
        from repro.core.experiments import fig4_multi_information

        spec = fig4_multi_information()
        scalar = spec.with_updates(
            simulation=spec.simulation.with_updates(domain="periodic:12")
        )
        pair = spec.with_updates(
            simulation=spec.simulation.with_updates(domain="periodic:12,12")
        )
        assert unit_content_hash(scalar) == unit_content_hash(pair)
        assert scalar.simulation.domain == pair.simulation.domain == "periodic:12.0"

    def test_anisotropic_and_channel_domains_hash_distinctly(self):
        from repro.core.experiments import fig4_multi_information

        spec = fig4_multi_information()
        variants = [
            spec.with_updates(simulation=spec.simulation.with_updates(domain=d))
            for d in ("periodic:12", "periodic:12,14", "channel:12,14", "reflecting:12,14")
        ]
        hashes = {unit_content_hash(v) for v in variants}
        assert len(hashes) == 4


class TestInitialConditions:
    def test_uniform_box_bounds_and_shape(self):
        points = uniform_box_ensemble(1, 500, 3.0, rng=0)[0]
        assert points.shape == (500, 2)
        assert np.all(points >= 0.0) and np.all(points < 3.0)
        batch = uniform_box_ensemble(4, 50, 2.0, rng=1)
        assert batch.shape == (4, 50, 2)
        assert np.all(batch >= 0.0) and np.all(batch < 2.0)

    def test_uniform_box_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            uniform_box_ensemble(1, -1, 1.0)
        with pytest.raises(ValueError):
            uniform_box_ensemble(1, 3, 0.0)
        with pytest.raises(ValueError):
            uniform_box_ensemble(2, 3, -1.0)

    def test_uniform_box_accepts_per_axis_extents(self):
        points = uniform_box_ensemble(1, 400, (6.0, 2.0), rng=0)[0]
        assert points.shape == (400, 2)
        assert np.all(points[:, 0] < 6.0) and np.all(points[:, 1] < 2.0)
        assert np.all(points >= 0.0)
        # The x spread should comfortably exceed y's for a 3:1 box.
        assert points[:, 0].max() > 4.0 and points[:, 1].max() < 2.0
        batch = uniform_box_ensemble(3, 40, (6.0, 2.0), rng=1)
        assert np.all(batch[..., 0] < 6.0) and np.all(batch[..., 1] < 2.0)

    def test_uniform_box_square_pair_matches_scalar_stream(self):
        # (L, L) must consume the RNG exactly like the scalar L path so that
        # square-box trajectories stay bit-identical across the refactor.
        np.testing.assert_array_equal(
            uniform_box_ensemble(4, 25, 3.0, rng=5),
            uniform_box_ensemble(4, 25, (3.0, 3.0), rng=5),
        )

    def test_uniform_box_rejects_bad_extent_pairs(self):
        with pytest.raises(ValueError):
            uniform_box_ensemble(1, 3, (1.0, -1.0))
        with pytest.raises(ValueError):
            uniform_box_ensemble(1, 3, (1.0, 2.0, 3.0))

    def test_config_dispatch(self):
        bounded = _config(domain="periodic:3.0")
        batch = initial_ensemble_for(bounded, 5, np.random.default_rng(0))
        assert batch.shape == (5, bounded.n_particles, 2)
        assert np.all(batch >= 0.0) and np.all(batch < 3.0)
        free = _config()
        disc = initial_ensemble_for(free, 1, np.random.default_rng(0))[0]
        assert np.all(np.hypot(disc[:, 0], disc[:, 1]) <= free.disc_radius + 1e-12)

    @pytest.mark.parametrize("domain", ["free", "periodic:5", "channel:6,3"])
    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_single_run_draws_a_batch_of_one(self, domain, n):
        # The per-configuration draw a single run made before it drew a batch
        # of one: the same values, bit for bit, and the same generator state
        # (the start benchmarks/bench_ablation_simulation.py times on).
        config = _config(domain=domain, type_counts=(n,), params=InteractionParams.clustering(1))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            box = config.resolved_domain
            if box.bounded:
                side_x, side_y = box.extents
                high = side_x if side_x == side_y else (side_x, side_y)
                expected = rng.uniform(0.0, high, size=(n, 2))
            else:
                radii = config.disc_radius * np.sqrt(rng.uniform(0.0, 1.0, size=n))
                angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
                expected = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
                expected = expected + np.asarray((0.0, 0.0))
            generator = np.random.default_rng(seed)
            drawn = initial_ensemble_for(config, 1, generator)[0]
            assert drawn.tobytes() == expected.tobytes()
            assert generator.bit_generator.state == rng.bit_generator.state


def _assert_in_box(positions: np.ndarray, spec: str) -> None:
    extents = get_domain(spec).extents
    assert np.all(positions >= 0.0)
    for axis in range(2):
        assert np.all(positions[..., axis] <= extents[axis]), (spec, axis)


@pytest.mark.parametrize(
    "spec",
    [
        "periodic:6.0",
        "reflecting:6.0",
        "periodic:6.0,3.5",
        "channel:6.0,3.5",
        "reflecting:6.0,3.5",
    ],
)
class TestSimulationOnBoundedDomains:
    def test_single_run_stays_in_the_box(self, spec):
        trajectory = EnsembleSimulator(_config(domain=spec, n_steps=6), 1, seed=0).run()
        _assert_in_box(trajectory.positions, spec)

    def test_single_run_bit_identical_dense_vs_sparse(self, spec):
        # A single run is an ensemble of one.
        config = _config(domain=spec, n_steps=5)
        trajectories = {
            engine: EnsembleSimulator(config.with_updates(engine=engine), 1, seed=42)
            .run()
            .positions
            for engine in ("dense", "sparse", "auto")
        }
        for engine, positions in trajectories.items():
            np.testing.assert_array_equal(positions, trajectories["dense"], err_msg=engine)

    def test_ensemble_bit_identical_dense_vs_sparse(self, spec):
        config = _config(domain=spec, n_steps=3)
        dense = EnsembleSimulator(config.with_updates(engine="dense"), 5, seed=9).run()
        sparse = EnsembleSimulator(config.with_updates(engine="sparse"), 5, seed=9).run()
        np.testing.assert_array_equal(sparse.positions, dense.positions)
        _assert_in_box(sparse.positions, spec)

    def test_auto_choice_is_final_in_the_box(self, spec, built_engines):
        # On a bounded domain "auto" judges the cut-off against the fixed box,
        # so a collective that contracts keeps the kernel chosen at the start.
        config = _config(
            domain=spec, type_counts=(100, 100), n_steps=4, engine="auto", dt=0.02
        )
        assert config.resolved_engine == "sparse"
        seen = []

        class Probe:
            def on_step(self, step, positions):
                [engine] = built_engines
                seen.append(engine.resolved)

        simulator = EnsembleSimulator(config, 1, seed=1)
        simulator.add_observer(Probe())
        _assert_in_box(simulator.run().positions, spec)
        assert seen == ["sparse"] * (config.n_steps + 1)

    def test_heun_integrator_also_confines(self, spec):
        config = _config(domain=spec, integrator="heun", n_steps=4)
        trajectory = EnsembleSimulator(config, 3, seed=3).run()
        _assert_in_box(trajectory.positions, spec)


class TestBoundedAutoHeuristic:
    def test_heuristic_radius_uses_smallest_extent(self):
        # Satellite pin: the adaptive engine's characteristic radius on a
        # bounded domain is min(Lx, Ly)/2 — the binding dimension — not a
        # mean or the x side.
        from repro.particles.engine import heuristic_domain_radius

        assert heuristic_domain_radius(get_domain("periodic:8,4"), None) == 2.0
        assert heuristic_domain_radius(get_domain("channel:8,4"), None) == 2.0
        assert heuristic_domain_radius(get_domain("reflecting:3,9"), None) == 1.5
        assert heuristic_domain_radius(get_domain("periodic:8"), None) == 4.0
        assert heuristic_domain_radius(get_domain("free"), 7.5) == 7.5

    def test_auto_uses_box_not_live_bounding_box(self):
        params = InteractionParams.single_type()
        types = np.zeros(400, dtype=np.int64)
        # Box of side 40 -> characteristic radius 20; cutoff 2 prunes hard.
        engine = make_engine(
            "auto", types=types, params=params, scaling="F2", cutoff=2.0,
            domain="periodic:40.0",
        )
        assert isinstance(engine, AdaptiveDriftEngine)
        assert engine.resolved == "sparse"
        # A tightly clustered snapshot would flip a free-space heuristic to
        # dense; the bounded domain pins the characteristic radius to L/2.
        clustered = np.full((400, 2), 1.0) + np.random.default_rng(0).normal(
            scale=0.01, size=(400, 2)
        )
        assert engine.reresolve(clustered) == "sparse"

    def test_small_box_resolves_dense(self):
        params = InteractionParams.single_type()
        types = np.zeros(400, dtype=np.int64)
        # Cutoff covers most of the tiny box: nothing to prune.
        engine = make_engine(
            "auto", types=types, params=params, scaling="F2", cutoff=2.5,
            domain="reflecting:3.0",
        )
        assert engine.resolved == "dense"

    def test_engine_for_config_carries_the_domain(self):
        config = _config(domain="periodic:6.0", engine="sparse")
        engine = engine_for_config(config)
        assert engine.domain.spec == "periodic:6.0"
        adaptive = engine_for_config(_config(domain="reflecting:6.0"))
        assert adaptive.domain.spec == "reflecting:6.0"


class TestPeriodicSteadyState:
    def test_wrapped_run_keeps_finite_positions_and_forces(self):
        # A density-controlled steady state free space cannot express: the
        # torus holds the collective at fixed global density forever.
        config = _config(domain="periodic:5.0", n_steps=10, engine="sparse")
        simulator = EnsembleSimulator(config, 4, seed=11)
        trajectory = simulator.run()
        assert np.all(np.isfinite(trajectory.positions))
        stats = simulator.last_stats
        assert stats is not None and np.all(np.isfinite(stats.mean_force_norm))
