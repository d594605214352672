"""Euclidean projection onto the probability simplex, the table validator and labels."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from macfeedback import InputError
from macfeedback._util import (SUM_TOL, check_table, fresh_symbol, pair_label,
                               project_rows_to_simplex, table_faults)


def brute_force_projection(v):
    """Projection of one row by trying every support set of every size.

    For a support S the optimum on the face is v_S - tau with
    tau = (sum v_S - 1) / |S|; the projection is the candidate that meets
    the optimality conditions: every entry on S is nonnegative and every
    entry off S is at most tau. The candidate that violates them least
    is taken, so rounding near a tie cannot pick a wrong support (squared
    distances to v can tie in floating point while the supports differ).
    """
    d = len(v)
    best, best_viol = None, np.inf
    for k in range(1, d + 1):
        for support in itertools.combinations(range(d), k):
            on = np.zeros(d, dtype=bool)
            on[list(support)] = True
            tau = (v[on].sum() - 1.0) / k
            viol = max(0.0, (tau - v[on]).max(), (v[~on] - tau).max(initial=0.0))
            if viol < best_viol:
                best, best_viol = np.where(on, v - tau, 0.0), viol
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


def sort_formula_projection(v):
    """The sorted partial-average rule for any row length: tau is the
    largest (sum of the k largest entries - 1) / k over k = 1..d."""
    d = v.shape[-1]
    css = np.cumsum(-np.sort(-v, axis=-1), axis=-1) - 1.0
    tau = (css / np.arange(1, d + 1, dtype=np.float64)).max(axis=-1, keepdims=True)
    return np.maximum(v - tau, 0.0)


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# Two-symbol rows: grid entries (ties, exact zeros, negatives) or free
# floats, times one scale per example, under one to three leading axes.
two_symbol_rows = st.tuples(
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.sampled_from([1e-3, 0.01, 0.1, 0.5, 1.0, 3.0, 10.0]),
).flatmap(lambda lead_scale: arrays(
    np.float64, (*lead_scale[0], 2),
    elements=st.one_of(st.integers(-8, 8).map(lambda k: k / 4.0),
                       st.just(0.0), st.floats(-2.0, 2.0, allow_nan=False)),
).map(lambda v, s=lead_scale[1]: v * s))


class TestTwoSymbolProjection:
    @settings(max_examples=400, deadline=None)
    @given(two_symbol_rows)
    def test_bitwise_equal_to_sort_formula(self, v):
        assert_bitwise_equal(project_rows_to_simplex(v), sort_formula_projection(v))

    @settings(max_examples=100, deadline=None)
    @given(two_symbol_rows)
    def test_bitwise_equal_on_strided_views(self, v):
        # The ascent passes p(x|u) as views into its parameter rows.
        wide = np.zeros((*v.shape[:-1], 5))
        wide[..., 1:3] = v
        view = wide[..., 1:3]
        assert_bitwise_equal(project_rows_to_simplex(view), sort_formula_projection(v))

    def test_ties_zeros_and_negatives(self):
        v = np.array([[0.5, 0.5], [0.0, 0.0], [-0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                      [2.0, -1.0], [-3.0, -3.0], [1.5, 1.5], [1e-3, -1e-3], [10.0, 10.0]])
        out = project_rows_to_simplex(v)
        assert_bitwise_equal(out, sort_formula_projection(v))
        np.testing.assert_array_equal(out[:6], [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5],
                                                [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])


def listed_faults(t, sum_axes=None):
    """Every fault of ``t``, found by running every check on every table."""
    def at(mask):
        return [tuple(int(k) for k in idx) for idx in np.argwhere(mask)]

    bad = ~np.isfinite(t)
    if bad.any():
        return [("non-finite", idx, float(t[idx])) for idx in at(bad)]
    sums = t.sum(axis=sum_axes)
    return ([("negative", idx, float(t[idx])) for idx in at(t < 0.0)]
            + [("above 1", idx, float(t[idx])) for idx in at(t > 1.0 + SUM_TOL)]
            + [("sum", idx, float(sums[idx])) for idx in at(np.abs(sums - 1.0) > SUM_TOL)])


@st.composite
def tables(draw):
    """A probability table over some axes, clean or with entries overwritten
    by NaN, infinities, negatives, masses above 1 or sums off by a hair."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    axes = draw(st.sampled_from([None] + [tuple(range(k, len(shape)))
                                          for k in range(len(shape))]))
    mass = draw(arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
    mass = mass + (mass.sum(axis=axes, keepdims=True) == 0.0)
    t = mass / mass.sum(axis=axes, keepdims=True)
    bad = st.sampled_from([np.nan, np.inf, -np.inf, -0.25, -0.0, 0.0, 1.5, 1.0 + 2 * SUM_TOL])
    for _ in range(draw(st.integers(0, 3))):
        idx = tuple(draw(st.integers(0, n - 1)) for n in shape)
        t[idx] = draw(bad) if draw(st.booleans()) else t[idx] + draw(st.floats(-1e-8, 1e-8))
    return t, axes


class TestTableFaults:
    @settings(max_examples=400, deadline=None)
    @given(tables())
    def test_shortcut_agrees_with_every_check(self, drawn):
        # A clean table returns early; every other table is listed in full,
        # so the faults and the first one's message are the same either way.
        t, axes = drawn
        faults = table_faults(t, axes)
        assert repr(faults) == repr(listed_faults(t, axes))  # repr: NaN equals NaN
        if faults:
            with pytest.raises(InputError, match="^T: "):
                check_table(t, "T", axes)
        else:
            check_table(t, "T", axes)

    def test_nan_takes_the_full_listing(self):
        t = np.array([[0.5, np.nan], [0.25, 0.75]])
        assert [f[:2] for f in table_faults(t, 1)] == [("non-finite", (0, 1))]
        assert table_faults(np.zeros((0, 3)), 1) == []


class TestLabels:
    def test_pair_labels_are_distinct(self):
        # Unescaped, ("a", "b,c") and ("a,b", "c") both gave "(a,b,c)".
        parts = ["a", "a,b", "b,c", "c", "", ",", "(", ")", "\\", "\\,", "a\\", "(a,b)"]
        labels = {pair_label(a, b) for a in parts for b in parts}
        assert len(labels) == len(parts) ** 2
        assert pair_label("0", "1") == "(0,1)"
        assert pair_label("a,b", "c") == "(a\\,b,c)"

    def test_fresh_symbol_skips_taken_suffixes(self):
        assert fresh_symbol(("x",)) == "e"
        assert fresh_symbol(("e", "e2")) == "e3"
