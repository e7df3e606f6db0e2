"""Seeded R004 violations: allocations inside declared hot kernels.

Lint input only — never imported.  Function names match the declared
hot-kernel registry (chunked/threaded block kernels).
"""

import numpy as np


def accumulate_block_pairs(body, scratch):
    dist = scratch.take("dist", body.shape, np.int64)
    np.subtract(body[1:], body[:-1], out=dist)
    temp = np.empty_like(dist)  # lint-expect: R004
    other = body.copy()  # lint-expect: R004
    return temp, other


def _nn_range_kernel(x):
    return np.zeros(x.shape)  # lint-expect: R004


def nn_planes(x, scratch):
    def inner_helper():
        return np.arange(4)  # lint-expect: R004

    buf = scratch.take("buf", (4,), np.int64)
    # repro: allow[R004] — demo suppression of a sanctioned fallback
    fallback = np.empty(4, dtype=np.int64)
    return inner_helper, buf, fallback


def not_a_declared_kernel(x):
    return np.zeros(3)
