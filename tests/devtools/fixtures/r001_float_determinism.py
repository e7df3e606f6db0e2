"""Seeded R001 violations: float accumulation in a block engine.

Lint input only — never imported.  Violating lines carry a trailing
``lint-expect`` marker the tests parse for exact locations.
"""

import math

import numpy as np


def whole_array_np_mean(values):
    return np.mean(values)  # lint-expect: R001


def whole_array_np_sum(values):
    return np.sum(values)  # lint-expect: R001


def exact_fsum(values):
    return math.fsum(values)  # lint-expect: R001


def running_float_total(blocks):
    total = 0.0
    for block in blocks:
        total += block.mean()  # lint-expect: R001
    return total


def method_sum_on_float_array(arr):
    fdist = np.sqrt(arr)
    return fdist.sum()  # lint-expect: R001


def suppressed_is_silent(values):
    return np.mean(values)  # repro: allow[R001] — demo suppression


def legal_patterns(arr, counts, out):
    # Integer accumulation, axis folds and np.add.reduce are the
    # sanctioned shapes; none of these may fire.
    total = 0
    total += int(counts.sum())
    arr.sum(axis=-1, out=out)
    return np.add.reduce(out)
