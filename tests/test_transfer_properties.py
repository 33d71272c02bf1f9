"""Properties of the facet trace on random segments and parallelogram faces.

Every fine point drawn on a facet must be placed, its weights must sum to
one (partition of unity), and linear fields must be reproduced exactly,
whatever the facet's position, orientation and corner numbering.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from glocal import build_transfer

PROPERTY = settings(max_examples=60, deadline=None)


def vectors(dim):
    return hnp.arrays(float, dim, elements=st.floats(-10.0, 10.0))


def local_points(axes):
    return hnp.arrays(float, st.tuples(st.integers(1, 8), st.just(axes)),
                      elements=st.floats(0.0, 1.0))


@st.composite
def segments(draw):
    dim = draw(st.integers(1, 3))
    p0, edge = draw(vectors(dim)), draw(vectors(dim))
    assume(np.linalg.norm(edge) > 0.1)
    t = draw(local_points(1))
    return np.stack([p0, p0 + edge]), p0 + t * edge, (0, 1)


@st.composite
def parallelograms(draw):
    p0, e1, e2 = draw(vectors(3)), draw(vectors(3)), draw(vectors(3))
    assume(np.linalg.norm(np.cross(e1, e2)) > 0.1 * max(
        np.linalg.norm(e1) * np.linalg.norm(e2), 1.0))
    uv = draw(local_points(2))
    corners = np.stack([p0, p0 + e1, p0 + e1 + e2, p0 + e2])
    return corners, p0 + uv[:, :1] * e1 + uv[:, 1:] * e2, (0, 1, 2, 3)


def shuffled(case, seed):
    """The same facet with its corners stored in another order."""
    corners, points, facet = case
    perm = np.random.default_rng(seed).permutation(len(corners))
    position = np.argsort(perm)
    return corners[perm], points, tuple(int(position[c]) for c in facet)


def check_trace(corners, points, facet, field):
    j = build_transfer(corners, points, [facet])
    assert np.array_equal(np.diff(j.indptr), np.full(len(points), len(facet)))
    assert np.allclose(np.asarray(j.sum(axis=1)).ravel(), 1.0, atol=1e-12)
    slope, shift = field
    slope = slope[:corners.shape[1]]
    scale = 1.0 + np.abs(slope).sum() * (1.0 + np.abs(corners).max()) \
        + abs(shift)
    assert np.allclose(j @ (corners @ slope + shift), points @ slope + shift,
                       rtol=0.0, atol=1e-10 * scale)


linear_fields = st.tuples(vectors(3), st.floats(-10.0, 10.0))


@PROPERTY
@given(segments(), linear_fields, st.integers(0, 2**32 - 1))
def test_segment_trace_is_a_linear_partition_of_unity(case, field, seed):
    check_trace(*shuffled(case, seed), field)


@PROPERTY
@given(parallelograms(), linear_fields, st.integers(0, 2**32 - 1))
def test_face_trace_is_a_linear_partition_of_unity(case, field, seed):
    check_trace(*shuffled(case, seed), field)
