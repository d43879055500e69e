"""Labeled random streams: determinism and independence."""

import numpy as np

from ontomodels.rng import stream


def test_same_labels_bit_identical():
    a = stream(42, "born", "ks", 3).random(16)
    b = stream(42, "born", "ks", 3).random(16)
    assert np.array_equal(a, b)


def test_different_labels_differ():
    a = stream(42, "born", 0).random(8)
    b = stream(42, "born", 1).random(8)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = stream(1, "x").random(8)
    b = stream(2, "x").random(8)
    assert not np.array_equal(a, b)


def test_string_and_int_labels_distinct():
    a = stream(7, "3").random(4)
    b = stream(7, 3).random(4)
    assert not np.array_equal(a, b)


def test_stream_independent_of_other_draws():
    # Consuming one stream must not shift another.
    g1 = stream(9, "a")
    g1.random(1000)
    fresh = stream(9, "b").random(4)
    assert np.array_equal(fresh, stream(9, "b").random(4))
