import time

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from stagedml.rng import (
    Rng,
    below,
    derive_seed,
    next_u64_block,
    node_draws,
    shuffled_block,
    streams,
    tree_start,
)
from stagedml.timing import NO_DEADLINE, Deadline, DeadlineExceeded


# reference splitmix64 outputs for seed 1234567 (Vigna's public test vector)
SPLITMIX64_SEED = 1234567
SPLITMIX64_EXPECTED = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def test_splitmix64_reference_vector():
    rng = Rng(SPLITMIX64_SEED)
    assert [rng.next_u64() for _ in range(5)] == SPLITMIX64_EXPECTED


def test_same_seed_same_stream():
    a = Rng(99)
    b = Rng(99)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=1000))
def test_randbelow_in_range(seed, n):
    rng = Rng(seed)
    for _ in range(10):
        assert 0 <= rng.randbelow(n) < n


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_random_unit_interval(seed):
    rng = Rng(seed)
    for _ in range(10):
        assert 0.0 <= rng.random() < 1.0


@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=4),
    n=st.one_of(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=2**32 - 1)),
    count=st.integers(min_value=0, max_value=60),
    skip=st.integers(min_value=0, max_value=5),
)
def test_block_draws_continue_the_scalar_streams(seeds, n, count, skip):
    states = streams(seeds)
    next_u64_block(states, skip)
    draws = below(next_u64_block(states, count), n)
    size = 1 + count % 9
    shuffles = shuffled_block(below(next_u64_block(states, size - 1), np.arange(size, 1, -1)), size)
    # a stream whose state is the block's end state continues where the scalar loop is
    floats = [Rng(int(s)).random_block(count) for s in states]
    for i, seed in enumerate(seeds):
        rng = Rng(seed)
        for _ in range(skip):
            rng.next_u64()
        assert draws[i].tolist() == [rng.randbelow(n) for _ in range(count)]
        pool = list(range(size))
        rng.shuffle(pool)
        assert shuffles[i].tolist() == pool
        assert floats[i].tolist() == [rng.random() for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=3),
    n_trees=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=0, max_value=40),
    size=st.integers(min_value=2, max_value=9),
    data=st.data(),
)
def test_forest_draws_match_the_scalar_streams(seeds, n_trees, n, size, data):
    """A forest's draws as the grower takes them in blocks: every tree's
    seed, then per tree its bootstrap and root key, then per node its
    feature subset and child keys, two levels deep, against a loop of
    ``next_u64``, ``randbelow`` and ``shuffle`` on one ``Rng`` per stream."""
    m = data.draw(st.integers(min_value=1, max_value=size - 1), label="m")
    tree_seeds = next_u64_block(streams(seeds), n_trees).reshape(-1)
    boots, keys = tree_start(tree_seeds, n)
    levels = []
    for _ in range(2):
        subsets, children = node_draws(keys, size, m)
        levels.append(subsets)
        keys = children.reshape(-1)
    at = 0
    for seed in seeds:
        rng = Rng(seed)
        for _ in range(n_trees):
            tree_seed = rng.next_u64()
            assert int(tree_seeds[at]) == tree_seed
            tree = Rng(tree_seed)
            assert boots[at].tolist() == [tree.randbelow(n) for _ in range(n)]
            level = [tree.next_u64()]
            for subsets in levels:
                # a level lists the left and the right child of each node above, in order
                width = len(level)
                next_level = []
                for j, key in enumerate(level):
                    node = Rng(key)
                    pool = list(range(size))
                    node.shuffle(pool)
                    assert subsets[at * width + j].tolist() == sorted(pool[:m])
                    next_level += [node.next_u64(), node.next_u64()]
                level = next_level
            assert [int(key) for key in keys[at * len(level) : (at + 1) * len(level)]] == level
            at += 1


def test_shuffle_is_permutation():
    rng = Rng(5)
    xs = list(range(50))
    rng.shuffle(xs)
    assert sorted(xs) == list(range(50))
    assert xs != list(range(50))


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "stage", "probing") == derive_seed(1, "stage", "probing")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(12, "x") != derive_seed(1, "2x")


def test_log_uniform_bounds():
    rng = Rng(3)
    for _ in range(100):
        v = rng.log_uniform(1e-4, 1e-1)
        assert 1e-4 <= v <= 1e-1


def test_deadline_unlimited_never_expires():
    for d in (Deadline(), NO_DEADLINE, Deadline(float("inf")), Deadline(at=float("inf"))):
        assert not d.expired()
        d.check()
        assert not d.clipped(None).expired()


def test_deadline_zero_expires_immediately():
    d = Deadline(0.0)
    assert d.expired()
    with pytest.raises(DeadlineExceeded):
        d.check()


def test_deadline_clipping_takes_earlier():
    long = Deadline(100.0)
    short = long.clipped(0.0)
    assert short.expired()
    assert not long.expired()
    assert long.clipped(None) is long


def test_deadline_earliest():
    d = Deadline.earliest(Deadline(), Deadline())
    assert not d.expired()
    d.check()
    d = Deadline.earliest(Deadline(100.0), Deadline(0.0), Deadline())
    assert d.expired()
    with pytest.raises(DeadlineExceeded):
        d.check()


_AT = st.one_of(
    st.floats(min_value=-1e6, max_value=-1.0),  # lapsed
    st.floats(min_value=1e3, max_value=1e9),  # lapses long after the test
    st.just(float("inf")),  # never lapses
)


@settings(max_examples=100, deadline=None)
@given(offsets=st.lists(_AT, min_size=1, max_size=5), seconds=st.none() | st.floats(min_value=0.0, max_value=1e9))
def test_earliest_lapses_with_any_and_clipping_never_extends(offsets, seconds):
    now = time.monotonic()
    ds = [Deadline(at=now + offset) for offset in offsets]
    assert Deadline.earliest(*ds).expired() == any(d.expired() for d in ds)
    for d in ds:
        # a clipped deadline lapses no later than the one it clips
        assert d.clipped(seconds).expired() or not d.expired()
        assert d.clipped(seconds)._at <= d._at


def test_deadline_counts_down():
    d = Deadline(0.05)
    assert not d.expired()
    time.sleep(0.08)
    assert d.expired()
