"""Euclidean projection onto the probability simplex."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from macfeedback._util import project_rows_to_simplex


def brute_force_projection(v):
    """Projection of one row by trying every support set of every size.

    For a support S the unconstrained optimum on the face is
    v_S - (sum v_S - 1) / |S|; the projection is the feasible candidate
    (all entries on S nonnegative) closest to v.
    """
    d = len(v)
    best, best_dist = None, np.inf
    for k in range(1, d + 1):
        for support in itertools.combinations(range(d), k):
            s = list(support)
            x = np.zeros(d)
            x[s] = v[s] - (v[s].sum() - 1.0) / k
            if (x[s] >= -1e-12).all():
                x = np.maximum(x, 0.0)
                dist = float(((x - v) ** 2).sum())
                if dist < best_dist:
                    best, best_dist = x, dist
    return best


# Entries on a coarse grid make exact ties common.
entries = st.one_of(
    st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
    st.integers(-8, 8).map(lambda k: k / 4.0),
)


def row_batches(max_d):
    return st.integers(1, max_d).flatmap(
        lambda d: arrays(np.float64, st.tuples(st.integers(1, 6), st.just(d)),
                         elements=entries))


class TestProjectRowsToSimplex:
    @settings(max_examples=200, deadline=None)
    @given(row_batches(11))
    def test_rows_are_on_the_simplex(self, v):
        x = project_rows_to_simplex(v)
        assert x.shape == v.shape
        assert (x >= 0.0).all()
        np.testing.assert_allclose(x.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(row_batches(11))
    def test_shifted_and_clipped_by_one_threshold(self, v):
        # x = max(v - tau, 0): every positive entry is v minus the same tau,
        # and every zeroed entry had v <= tau.
        x = project_rows_to_simplex(v)
        for row, out in zip(v, x):
            on = out > 0.0
            tau = row[on] - out[on]
            np.testing.assert_allclose(tau, tau[0], rtol=0, atol=1e-12)
            assert (row[~on] <= tau[0] + 1e-12).all()

    @settings(max_examples=200, deadline=None)
    @given(row_batches(6))
    def test_matches_brute_force_over_supports(self, v):
        x = project_rows_to_simplex(v)
        for row, out in zip(v, x):
            np.testing.assert_allclose(out, brute_force_projection(row), rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 11).flatmap(
        lambda d: arrays(np.float64, st.tuples(st.integers(1, 6), st.just(d)),
                         elements=st.floats(0.0, 1.0))))
    def test_simplex_rows_come_back_unchanged(self, w):
        w = w + 1e-3
        p = w / w.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(project_rows_to_simplex(p), p, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("value", [-3.0, 0.0, 0.25, 1.0, 7.5])
    def test_single_entry_rows(self, value):
        out = project_rows_to_simplex(np.array([[value], [value]]))
        np.testing.assert_array_equal(out, [[1.0], [1.0]])

    def test_trailing_axis_of_a_stack(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(4, 5, 3))
        np.testing.assert_array_equal(project_rows_to_simplex(v),
                                      project_rows_to_simplex(v.reshape(-1, 3)).reshape(v.shape))
