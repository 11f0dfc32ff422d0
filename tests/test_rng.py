import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenlab.rng import Lcg

from oracles import lcg_uniform

# vector lengths from 0 to 3000, with the doubling edges 2**k - 1, 2**k, 2**k + 1
_SIZES = st.one_of(st.integers(0, 3000),
                   st.sampled_from([2**k + d for k in range(12) for d in (-1, 0, 1)]))
_DRAWS = st.lists(st.tuples(st.sampled_from(["scalar", "uniform", "symmetric"]), _SIZES),
                  min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), draws=_DRAWS)
# one length twice: the second draw reuses the cached jump tables
@example(seed=5, draws=[("uniform", 1000), ("uniform", 1000), ("symmetric", 1000)])
def test_jump_ahead_matches_scalar_recurrence(seed, draws):
    # interleaved one-value and vector draws; a uint64 scalar overflow warning fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rng, oracle = Lcg(seed), Lcg(seed)
        for kind, n in draws:
            if kind == "scalar":
                assert rng.uniform(1)[0] == lcg_uniform(oracle, 1)[0]
            elif kind == "uniform":
                assert np.array_equal(rng.uniform(n), lcg_uniform(oracle, n))
            else:
                assert np.array_equal(rng.symmetric(n), 2.0 * lcg_uniform(oracle, n) - 1.0)
            assert rng.state == oracle.state
