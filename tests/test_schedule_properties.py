"""Invariants of random bounded-delay schedules.

Whatever the patch count, delay bound, refresh probability and seed, an
age never exceeds the bound and never skips: each step it either resets
to zero or grows by exactly one.  The complement is always fresh, so it
has no column in the age table and sits in the age-0 slot of every
partition.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from glocal import DelaySchedule, partition_by_delay

PROPERTY = settings(max_examples=60, deadline=None)
STEPS = 40


@PROPERTY
@given(patches=st.integers(1, 6), max_delay=st.integers(0, 5),
       update_prob=st.floats(0.0, 1.0, exclude_min=True),
       seed=st.integers(0, 2**32 - 1), has_complement=st.booleans())
def test_random_ages_are_bounded_and_never_skip(patches, max_delay,
                                                update_prob, seed,
                                                has_complement):
    patch_ids = tuple(range(1, patches + 1))
    schedule = DelaySchedule.random_bounded(
        patch_ids, max_delay, seed, update_prob,
        has_complement=has_complement)
    table = np.array([schedule.ages(j) for j in range(STEPS)])
    assert table.shape == (STEPS, patches)
    assert np.all(table[0] == 0)
    assert np.all((table >= 0) & (table <= max_delay))
    step = table[1:] - table[:-1]
    assert np.all((table[1:] == 0) | (step == 1))
    if update_prob == 1.0:
        assert np.all(table == 0)

    for j in range(STEPS):
        slots = partition_by_delay(schedule, j)
        assert len(slots) == max_delay + 1
        flat = [sid for slot in slots for sid in slot]
        assert sorted(flat) == ([0] if has_complement else []) \
            + list(patch_ids)
        assert (0 in slots[0]) == has_complement
        for age, slot in enumerate(slots):
            for sid in slot:
                if sid != 0:
                    assert table[j, sid - 1] == age
