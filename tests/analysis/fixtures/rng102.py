"""RNG102 fixture — one seed name, two entropy constructors."""

import random

import numpy as np

# Module level is a scope of its own.
_SEED = 7
_ARRIVALS = np.random.default_rng(_SEED)
_FAULTS = random.Random(_SEED)  # expect RNG102


def violation_same_seed_twice(seed):
    arrivals = np.random.default_rng(seed)
    faults = np.random.default_rng(seed)  # expect RNG102
    return arrivals, faults


def violation_keyword_fan_out(seed):
    root = np.random.SeedSequence(entropy=seed)
    return root, np.random.default_rng(seed=seed)  # expect RNG102


def negative_spawned_children(seed):
    first, second = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(first), np.random.default_rng(second)


def negative_keyed_entropy_tuples(seed):
    first = np.random.SeedSequence(entropy=(seed, 1))
    second = np.random.SeedSequence(entropy=(seed, 2))
    return first, second


def negative_nested_function_is_its_own_scope(seed):
    def inner(seed):
        return np.random.default_rng(seed)

    return inner(seed), np.random.default_rng(seed)


def suppressed_fan_out(seed):
    first = np.random.default_rng(seed)
    second = np.random.default_rng(seed)  # repro-lint: disable=RNG102
    return first, second
