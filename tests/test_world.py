"""The world's batched draws against numpy's own per-seed draws."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expmarket.catalogue import bundled_catalogue
from expmarket.ids import derive_seed
from expmarket.world import World, WorldConfig, _seed_states

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64, 2**127, 2**128 - 1)
seeds = st.one_of(st.integers(0, 2**128 - 1), st.sampled_from(EDGE_SEEDS))
seed_batches = st.lists(seeds, min_size=0, max_size=40)


def _numpy_draw(seed, scale, n):
    return np.random.Generator(np.random.PCG64(seed)).normal(0.0, scale, n)


@settings(max_examples=150, deadline=None)
@given(batch=seed_batches)
def test_seed_states_equal_numpys_seed_sequence(batch):
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _seed_states(batch)
    assert got.shape == (len(batch), 4) and got.dtype == np.uint64
    for seed, row in zip(batch, got):
        assert row.tobytes() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tobytes()


@settings(max_examples=150, deadline=None)
@given(batch=seed_batches, dim=st.integers(1, 24),
       scale=st.sampled_from([0.0, 0.01, 0.05, 1.0, 3.5]))
def test_every_drawn_row_equals_numpys_draw_of_its_seed(batch, dim, scale):
    world = World(bundled_catalogue("parks"), 7, WorldConfig(descriptor_dim=dim))
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = world._draw(batch, scale)
        again = world._draw(batch[::-1], scale)[::-1]
    assert rows.shape == (len(batch), dim)
    for seed, row, row_again in zip(batch, rows, again):
        want = _numpy_draw(seed, scale, dim).tobytes()
        assert row.tobytes() == want and row_again.tobytes() == want


@pytest.mark.parametrize("bad", [-1, 2**128])
def test_a_seed_outside_128_bits_is_refused(bad):
    with pytest.raises(OverflowError):
        _seed_states([5, bad])
    with pytest.raises(OverflowError):
        World(bundled_catalogue("parks"), 7)._draw([bad], 1.0)


def _oracle_latent(world, bucket):
    return _numpy_draw(derive_seed(world.seed, "latent", bucket),
                       world.config.latent_scale, world.config.descriptor_dim)


def _oracle_drift(world, section, epoch):
    walk = np.zeros(world.config.descriptor_dim)
    for j in range(1, epoch + 1):
        walk = walk + _numpy_draw(derive_seed(world.seed, "drift", section, j),
                                  world.config.drift_sigma, world.config.descriptor_dim)
    return walk


@pytest.mark.parametrize("world_seed", [0, 2018, 2**128 - 1])
def test_latent_and_drift_equal_numpy_per_seed_draws(world_seed):
    cat = bundled_catalogue("parks")
    world = World(cat, world_seed)
    for bucket in (0, 1, 17, 127):
        assert world.latent(bucket).tobytes() == _oracle_latent(world, bucket).tobytes()
    for section in range(len(cat)):
        for epoch in (0, 1, 4, 9):
            assert world.drift(section, epoch).tobytes() == \
                _oracle_drift(world, section, epoch).tobytes()


def test_draws_do_not_depend_on_their_batch_or_order():
    cat = bundled_catalogue("parks")
    positions = [5.0 * b + 1.0 for b in range(40)]
    batched = World(cat, 11)
    batched.observe(2, 6, positions)  # every bucket and drift step in one batch each
    alone = World(cat, 11)
    for bucket in (23, 3, 39):
        assert alone.latent(bucket).tobytes() == batched.latent(bucket).tobytes() == \
            _oracle_latent(alone, bucket).tobytes()
    for epoch in (2, 6, 3):  # a walk extended in two batches, then read back
        assert alone.drift(0, epoch).tobytes() == batched.drift(0, epoch).tobytes()
    reversed_batch = alone.observe(2, 6, positions[::-1])[::-1]
    assert np.array([o.descriptor for o in reversed_batch]).tobytes() == \
        np.array([o.descriptor for o in batched.observe(2, 6, positions)]).tobytes()


def test_a_negative_epoch_is_refused_whatever_was_drawn_before():
    cat = bundled_catalogue("parks")
    fresh, used = World(cat, 7), World(cat, 7)
    used.observe(0, 5, [1.0])
    for world in (fresh, used):
        with pytest.raises(ValueError, match="epoch -1"):
            world.observe(0, -1, [1.0])
        with pytest.raises(ValueError, match="epoch -1"):
            world.drift(0, -1)
    assert fresh.observe(0, 0, [1.0]) == used.observe(0, 0, [1.0])


def test_world_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        WorldConfig().noise_sigma = 0.5


def test_a_negative_scale_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError):
        _numpy_draw(3, -0.01, 16)
    world = World(bundled_catalogue("parks"), 7, WorldConfig(noise_sigma=-0.01))
    with pytest.raises(ValueError, match="scale -0.01"):
        world.observe(0, 1, [1.0])
