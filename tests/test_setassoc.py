"""Tests for the fast-tier set-associative store."""

import random

import pytest

from repro.hybrid.setassoc import DIRTY, GEN, HITS, KLASS, STAMP, TAG, FastStore


@pytest.fixture
def store():
    return FastStore(num_sets=8, assoc=4)


def test_insert_lookup_evict_roundtrip(store):
    store.insert(3, 1, block=42, klass="cpu", dirty=False, now=1.0, gen=0)
    assert store.lookup(3, 42) == 1
    assert store.lookup(3, 43) is None
    assert store.lookup(4, 42) is None
    e = store.evict(3, 1)
    assert e[TAG] == 42 and e[KLASS] == "cpu" and not e[DIRTY]
    assert store.lookup(3, 42) is None
    store.check_consistency()


def test_double_insert_same_way_rejected(store):
    store.insert(0, 0, 1, "cpu", False, 0.0, 0)
    with pytest.raises(ValueError):
        store.insert(0, 0, 2, "cpu", False, 0.0, 0)


def test_touch_updates_lru_and_dirty(store):
    store.insert(0, 0, 1, "cpu", False, 0.0, 0)
    store.touch(0, 0, 5.0, is_write=True)
    e = store.entry(0, 0)
    assert e[STAMP] == 5.0 and e[DIRTY] and e[HITS] == 1


def test_free_way_prefers_candidates_order(store):
    store.insert(0, 0, 1, "cpu", False, 0.0, 0)
    assert store.free_way(0, (0, 1, 2, 3)) == 1
    assert store.free_way(0, (0,)) is None


def test_lru_way(store):
    for w, t in enumerate([3.0, 1.0, 2.0, 4.0]):
        store.insert(0, w, 100 + w, "cpu", False, t, 0)
    assert store.lru_way(0, (0, 1, 2, 3)) == 1
    assert store.lru_way(0, (0, 3)) == 0
    assert store.lru_way(1, (0, 1)) is None  # empty set


def test_min_hits_way(store):
    for w in range(4):
        store.insert(0, w, 100 + w, "cpu", False, float(w), 0)
    store.touch(0, 0, 10.0, False)
    store.touch(0, 0, 11.0, False)
    store.touch(0, 1, 12.0, False)
    # ways 2,3 have 0 hits; tie broken by older stamp.
    assert store.min_hits_way(0, (0, 1, 2, 3)) == 2


def test_swap_exchanges_ways(store):
    store.insert(0, 0, 10, "cpu", False, 0.0, 0)
    store.insert(0, 2, 20, "gpu", True, 1.0, 0)
    store.swap(0, 0, 2)
    assert store.lookup(0, 10) == 2
    assert store.lookup(0, 20) == 0
    store.check_consistency()


def test_swap_with_empty_way(store):
    store.insert(0, 0, 10, "cpu", False, 0.0, 0)
    store.swap(0, 0, 3)
    assert store.lookup(0, 10) == 3
    assert store.entry(0, 0) is None
    store.check_consistency()


def test_occupancy_by_class(store):
    store.insert(0, 0, 1, "cpu", False, 0.0, 0)
    store.insert(0, 1, 2, "gpu", False, 0.0, 0)
    store.insert(1, 0, 9, "gpu", False, 0.0, 0)
    occ = store.occupancy_by_class()
    assert occ == {"cpu": 1, "gpu": 2}
    assert store.occupancy() == 3

    # A randomly filled store against a brute-force count, keys in the
    # order they are first met (cpu and gpu always lead).
    rng = random.Random(5)
    big = FastStore(num_sets=256, assoc=4)
    for s in range(big.num_sets):
        for w in range(big.assoc):
            if rng.random() < 0.7:
                klass = rng.choice(("cpu", "gpu", "gpu", "dma"))
                big.insert(s, w, s * 8 + w, klass, False, 0.0, 0)
    expected = {"cpu": 0, "gpu": 0}
    for s in range(big.num_sets):
        for w in range(big.assoc):
            e = big.entry(s, w)
            if e is not None:
                expected[e[KLASS]] = expected.get(e[KLASS], 0) + 1
    occ = big.occupancy_by_class()
    assert list(occ.items()) == list(expected.items())
    assert sum(occ.values()) == big.occupancy()


def test_valid_ways_iteration(store):
    store.insert(2, 1, 5, "cpu", False, 0.0, 0)
    store.insert(2, 3, 6, "gpu", False, 0.0, 0)
    ways = dict(store.valid_ways(2))
    assert set(ways) == {1, 3}


def test_generation_recorded(store):
    store.insert(0, 0, 1, "cpu", False, 0.0, gen=7)
    assert store.entry(0, 0)[GEN] == 7


def test_invalid_geometry():
    with pytest.raises(ValueError):
        FastStore(0, 4)
    with pytest.raises(ValueError):
        FastStore(4, 0)
