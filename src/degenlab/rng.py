"""Seeded random vectors for reproducible experiments.

A plain 64-bit linear congruential generator is used instead of
``numpy.random`` so that every run of the laboratory (and any
reimplementation of it) can reproduce the exact same test vectors from
the constants below:

    state <- (A * state + C) mod 2**64,  A = 6364136223846793005,
                                         C = 1442695040888963407,

with uniform doubles taken from the top 53 bits, ``(state >> 11) * 2**-53``.

A vector of n values is drawn by jump-ahead instead of n scalar steps
(F. Brown, "Random Number Generation with Arbitrary Strides", Trans. Am.
Nucl. Soc. 71, 1994): the k-th state is ``A**k * state + C_k`` with
``C_k = C (A**(k-1) + ... + A + 1)``, all mod 2**64.  The tables of
``A**k`` and ``C_k`` for k = 1..n are built by doubling in uint64
arrays, whose arithmetic wraps mod 2**64, so the values and the final
state are bit-identical to the recurrence.  They depend only on n, so
each length's tables are built once and shared, read-only.
"""

from functools import lru_cache

import numpy as np

LCG_A = 6364136223846793005
LCG_C = 1442695040888963407
_MASK64 = (1 << 64) - 1


@lru_cache(maxsize=16)
def _jump_tables(n):
    """A**k and C_k mod 2**64 for k = 1..n, by doubling: the states k + m
    follow from the first k by s_{k+m} = A**k s_m + C_k.  Cached per n;
    the arrays are read-only."""
    a_pow = np.empty(n, dtype=np.uint64)
    c_sum = np.empty(n, dtype=np.uint64)
    a_pow[0], c_sum[0] = LCG_A, LCG_C
    m = 1
    while m < n:
        k = min(m, n - m)
        # arrays wrap mod 2**64 silently; a uint64 scalar product would warn
        a_pow[m:m + k] = a_pow[:k] * a_pow[m - 1:m]
        c_sum[m:m + k] = a_pow[:k] * c_sum[m - 1:m] + c_sum[:k]
        m += k
    a_pow.flags.writeable = False
    c_sum.flags.writeable = False
    return a_pow, c_sum


class Lcg:
    """Deterministic uniform generator; one instance per experiment."""

    def __init__(self, seed: int):
        self.state = (int(seed) ^ 0x9E3779B97F4A7C15) & _MASK64
        # warm up so nearby seeds decorrelate
        for _ in range(8):
            self._step()

    def _step(self) -> int:
        self.state = (LCG_A * self.state + LCG_C) & _MASK64
        return self.state

    def uniform(self, size=None):
        """Uniform floats in [0, 1)."""
        if size is None:
            return (self._step() >> 11) * 2.0**-53
        n = int(size)
        if n == 0:
            return np.empty(0)
        a_pow, c_sum = _jump_tables(n)
        states = a_pow * np.uint64(self.state) + c_sum
        self.state = int(states[-1])
        return (states >> np.uint64(11)).astype(float) * 2.0**-53

    def symmetric(self, size=None):
        """Uniform floats in [-1, 1)."""
        u = self.uniform(size)
        return 2.0 * u - 1.0


def random_admissible(mesh, rng: Lcg):
    """Random nodal vector, uniform in [-1, 1) on interior nodes and zero
    on every Dirichlet node."""
    u = np.zeros(mesh.n_nodes)
    u[mesh.interior] = rng.symmetric(mesh.interior.size)
    return u
