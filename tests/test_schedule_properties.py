"""Invariants of random bounded-delay schedules.

Whatever the patch count, delay bound, refresh probability and seed, an
age never exceeds the bound and never skips: each step it either resets
to zero or grows by exactly one.  The complement is always fresh, so it
has no column in the age table and sits in the age-0 slot of every
partition.
"""

import numpy as np
import pytest
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


def recurrence_rows(n_patches, max_delay, seed, update_prob, steps):
    """Ages by the per-step rule: one uniform per patch and step, a
    refresh below ``update_prob``, forced when the age would pass D."""
    rng = np.random.default_rng(seed)
    rows = [np.zeros(n_patches, dtype=np.int64)]
    for _ in range(steps - 1):
        fresh = rng.random(n_patches) < update_prob
        aged = rows[-1] + 1
        fresh |= aged > max_delay
        rows.append(np.where(fresh, 0, aged))
    return np.array(rows)


@pytest.mark.parametrize("seed", [0, 3, 1009])
@pytest.mark.parametrize("max_delay", [0, 1, 2, 4])
@pytest.mark.parametrize("update_prob", [0.1, 0.5, 1.0])
def test_random_rows_follow_the_per_step_recurrence(seed, max_delay,
                                                    update_prob):
    patch_ids = tuple(range(1, 8))
    steps = 700  # spans several blocks of drawn steps
    expected = recurrence_rows(len(patch_ids), max_delay, seed,
                               update_prob, steps)
    in_order = DelaySchedule.random_bounded(patch_ids, max_delay, seed,
                                            update_prob)
    table = np.array([in_order.ages(j) for j in range(steps)])
    assert table.dtype == np.int64
    assert np.array_equal(table, expected)
    # Asking for a late step first draws the same stream.
    late_first = DelaySchedule.random_bounded(patch_ids, max_delay, seed,
                                              update_prob)
    assert np.array_equal(late_first.ages(steps - 1), expected[-1])
    assert np.array_equal(late_first.ages(5), expected[5])
