"""RNG101 fixture — seeds that are not root seeds."""

import os
import random
import time
from datetime import datetime

import numpy as np


def violation_clock_seed():
    return np.random.default_rng(int(time.time()))  # expect RNG101


def violation_urandom_entropy():
    return np.random.SeedSequence(  # expect RNG101
        entropy=int.from_bytes(os.urandom(8), "little")
    )


def violation_datetime_seed():
    return random.Random(datetime.now().microsecond)  # expect RNG101


def violation_seed_sequence_without_entropy():
    return np.random.SeedSequence()  # expect RNG101


def negative_root_seed(seed):
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(2)]


def negative_clock_beside_the_seed(seed):
    started = time.time()
    return np.random.default_rng(seed), started


def suppressed_clock_seed():
    return np.random.default_rng(int(time.time()))  # repro-lint: disable=RNG101
