"""Euclidean projection onto the probability simplex, the table validator, the
number rule and labels."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from macfeedback import (InputError, JointDist, catalog, compress_forward_curve,
                         compress_forward_rate, independent_copy_joint,
                         induced_channel, partner_channels, single_rate_capacity)
from macfeedback.regions import check_weight
from macfeedback._util import (SUM_TOL, check_table, fresh_symbol, pair_label,
                               project_rows_to_simplex)


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


_TEXT = {"non-finite": "non-finite probability {!r}", "negative": "negative probability {!r}",
         "above 1": "probability {!r} above 1", "sum": "row sums to {!r}"}


class TestTableFaults:
    @settings(max_examples=400, deadline=None)
    @given(tables())
    def test_shortcut_agrees_with_every_check(self, drawn):
        # A clean table returns early; every other table raises the first fault
        # of the listing, at its index and with its value.
        t, axes = drawn
        faults = listed_faults(t, axes)
        if faults:
            kind, idx, value = faults[0]
            message = "T" + "".join(f"[{k}]" for k in idx) + ": " + _TEXT[kind].format(value)
            with pytest.raises(InputError) as raised:
                check_table(t, "T", axes)
            assert str(raised.value) == message
        else:
            check_table(t, "T", axes)

    def test_nan_takes_the_full_listing(self):
        t = np.array([[0.5, np.nan], [0.25, 0.75]])
        with pytest.raises(InputError, match=r"^T\[0\]\[1\]: non-finite probability nan$"):
            check_table(t, "T", 1)
        check_table(np.zeros((0, 3)), "T", 1)


_MAC = catalog.erasure_adder_mac(0.5)
_SR = single_rate_capacity(_MAC, 1)
_INPUTS = JointDist((("x1", _MAC.x1_alphabet), ("x2", _MAC.x2_alphabet)), np.full((2, 2), 0.25))


def _curve(a_grid):
    return compress_forward_curve(_SR.channels, _SR.xk_star, "1", _SR.p_star, a_grid)


def _rate(a, b):
    return compress_forward_rate(_SR.channels, _SR.xk_star, "1", _SR.p_star, a, b)


class TestNumberRule:
    """A bool is not a number, nor a string, nor a float a count: each boundary
    refuses them with its own message. Each of these was read as a number or
    raised TypeError."""

    @pytest.mark.parametrize("call, message", [
        (lambda: single_rate_capacity(_MAC, 1, tol=True),
         "tol must be positive and finite, got True"),
        (lambda: single_rate_capacity(_MAC, 1, tol="1e-9"),
         "tol must be positive and finite, got '1e-9'"),
        (lambda: single_rate_capacity(_MAC, True), "user must be 1 or 2, got True"),
        (lambda: partner_channels(_MAC, 1.0), "user must be 1 or 2, got 1.0"),
        (lambda: induced_channel(_MAC, True, "0"), "fix_user must be 1 or 2, got True"),
        (lambda: independent_copy_joint(_MAC, _INPUTS, copies=True),
         "copies must be 1 or 2, got True"),
        (lambda: check_weight((True, 1)), "weight (True, 1) is not a pair of numbers"),
        (lambda: _curve(["0", "0.1"]), "a_grid must be a non-empty subset of [0, 1]"),
        (lambda: _curve([0.0, True]), "a_grid must be a non-empty subset of [0, 1]"),
        (lambda: _curve([0.0, None]), "a_grid must be a non-empty subset of [0, 1]"),
        (lambda: _rate("0.5", 0.5), "a must lie in [0, 1], got '0.5'"),
        (lambda: _rate(True, 0.5), "a must lie in [0, 1], got True"),
        (lambda: _rate(0.5, True), "b must lie in [0, 1], got True"),
    ], ids=["tol-true", "tol-string", "user-true", "user-float", "fix-user-true", "copies-true",
            "weight-true", "a-grid-strings", "a-grid-true", "a-grid-none", "a-string", "a-true",
            "b-true"])
    def test_refused(self, call, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            call()

    def test_integers_of_numpy_are_numbers(self):
        assert single_rate_capacity(_MAC, np.int64(1)).value == _SR.value
        assert check_weight((np.float64(1.0), np.int64(1))) == (0.5, 0.5)
        assert _curve(np.array([0.0, 0.5])).a_grid == (0.0, 0.5)


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
