"""Property-based tests: the blocked Bernoulli draw.

``bernoulli`` draws its doubles in ``BERNOULLI_BLOCK``-sized blocks into
one reused buffer. It stands in for ``rng.random(count) < p`` in the
engine's hit and pollution rolls and in ``Workload.writes``, so it must
return the same mask and leave the generator where the one-call form
leaves it, for empty masks, masks spanning several blocks (and ending
mid-block), and probabilities at or outside both ends of ``[0, 1]``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.workloads.base import BERNOULLI_BLOCK, bernoulli

PROBABILITIES = st.one_of(
    st.floats(-2.0, 0.0),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(1.0, 3.0),
)


@settings(max_examples=60, deadline=None)
@given(
    count=st.one_of(
        st.just(0),
        st.integers(1, BERNOULLI_BLOCK),
        st.integers(BERNOULLI_BLOCK + 1, 3 * BERNOULLI_BLOCK + 1),
    ),
    p=PROBABILITIES,
    seed=st.integers(0, 2**32 - 1),
)
@example(count=0, p=0.5, seed=1)
@example(count=BERNOULLI_BLOCK, p=0.02, seed=2)
@example(count=3 * BERNOULLI_BLOCK + 17, p=0.3, seed=3)
@example(count=2 * BERNOULLI_BLOCK + 1, p=0.0, seed=4)
@example(count=BERNOULLI_BLOCK + 5, p=-0.5, seed=5)
@example(count=BERNOULLI_BLOCK + 9, p=1.0, seed=6)
@example(count=7, p=1.5, seed=7)
def test_matches_one_call_draw(count, p, seed):
    reference = np.random.default_rng(seed)
    blocked = np.random.default_rng(seed)
    expected = reference.random(count) < p
    mask = bernoulli(blocked, count, p)
    assert mask.dtype == np.bool_ and mask.shape == (count,)
    assert np.array_equal(mask, expected)
    # The generator consumed exactly ``count`` doubles.
    assert blocked.random() == reference.random()
