"""Deterministic RNG plumbing shared by all modules."""

import numpy as np


def derive_seed(seed, *key):
    """The SeedSequence of the substream for (seed, key).

    The key is a tuple of small non-negative ints (epoch, chunk, step,
    purpose, ...).  Unlike a Generator, the sequence can seed several
    generators identically, e.g. two evaluations that must share their
    random projections.
    """
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))


def derive_rng(seed, *key):
    """Independent substream for (seed, key); two calls with the same
    arguments return generators producing identical output."""
    return np.random.default_rng(derive_seed(seed, *key))
