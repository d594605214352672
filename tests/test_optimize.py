"""Capacity iteration against closed forms and a lattice oracle."""

import math

import numpy as np
import pytest

from macfeedback import (ConditionalPmf, InputError, Mac, binary_entropy,
                         blahut_arimoto, cutset_sum_rate, max_support_input,
                         maximize_joint_mi, single_rate_capacity)
from macfeedback import catalog, optimize
from macfeedback._util import channel_mi_bits
from macfeedback.channel import partner_channels, two_look_channel
from macfeedback.oracle import GridSpec, grid_capacity

from _gen import random_conditional, random_mac


def bsc(q):
    return ConditionalPmf(("0", "1"), ("0", "1"),
                          np.array([[1 - q, q], [q, 1 - q]]))


def bec(eps):
    return ConditionalPmf(("0", "1"), ("0", "1", "e"),
                          np.array([[1 - eps, 0.0, eps], [0.0, 1 - eps, eps]]))


def max_divergence(rows, p):
    """max_x D(W_x || p W) in bits, written out term by term."""
    py = p @ rows
    return max(sum(w * math.log2(w / q) for w, q in zip(row, py) if w > 0)
               for row in rows)


def random_binary_channels(seed, n):
    """Two-input channels: a third plain, a third with near-duplicate rows
    and a third with zero entries."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        ny = int(rng.integers(2, 6))
        rows = rng.dirichlet(np.ones(ny), size=2)
        if k % 3 == 1:
            eps = 10.0 ** rng.uniform(-9, -2)
            rows[1] = rows[0] + eps * (rng.dirichlet(np.ones(ny)) - rows[0])
        elif k % 3 == 2:
            rows = np.where(rng.random((2, ny)) < 0.4, 0.0, rows)
            rows[:, 0] += rows.sum(axis=1) == 0.0
            rows /= rows.sum(axis=1, keepdims=True)
        yield ConditionalPmf(("0", "1"), tuple(str(i) for i in range(ny)), rows)


def sparse_channels(seed, n):
    """Channels with 3-9 inputs, Dirichlet(0.2) rows and 40% of the entries
    zeroed: optimal masses can fall below what a Pmf keeps."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        m, ny = int(rng.integers(3, 10)), int(rng.integers(2, 7))
        rows = rng.dirichlet(np.full(ny, 0.2), size=m)
        rows = np.where(rng.random(rows.shape) < 0.4, 0.0, rows)
        rows[:, 0] += rows.sum(axis=1) == 0.0
        rows /= rows.sum(axis=1, keepdims=True)
        yield ConditionalPmf(tuple(str(i) for i in range(m)),
                             tuple(str(j) for j in range(ny)), rows)


def joint_channel(mac):
    """The channel from the input pair (x1, x2), row-major, to Y."""
    pairs = tuple(f"({s},{t})" for s in mac.x1_alphabet for t in mac.x2_alphabet)
    return ConditionalPmf(pairs, mac.y_alphabet, mac.pmf.reshape(len(pairs), -1))


class TestBlahutArimoto:
    def test_noiseless_bsc(self):
        res = blahut_arimoto(bsc(0.0))
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.converged

    def test_useless_bsc(self):
        res = blahut_arimoto(bsc(0.5))
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_bsc_closed_form(self):
        for q in (0.11, 0.25, 0.4):
            res = blahut_arimoto(bsc(q), tol=1e-10)
            assert res.value == pytest.approx(1 - binary_entropy(q), abs=1e-9)

    def test_bec_half(self):
        res = blahut_arimoto(bec(0.5), tol=1e-10)
        assert res.value == pytest.approx(0.5, abs=1e-9)

    def test_bec_grid_derivation(self):
        # Independent derivation: scan Bernoulli inputs on a fine lattice.
        eps = 0.5
        ch = bec(eps)
        best = 0.0
        for k in range(0, 4097):
            q = k / 4096
            p = np.array([q, 1 - q])
            py = p @ ch.rows
            h_y = -sum(v * math.log2(v) for v in py if v > 0)
            h_y_given_x = binary_entropy(eps)  # each row has entropy h2(eps)
            best = max(best, h_y - h_y_given_x)
        assert best == pytest.approx(1 - eps, abs=1e-9)
        assert blahut_arimoto(ch, tol=1e-10).value == pytest.approx(best, abs=1e-9)

    def test_value_matches_recomputed_mi(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ch = random_conditional(rng, 3, 4)
            res = blahut_arimoto(ch, tol=1e-10)
            p = res.argmax_input.probs
            py = p @ ch.rows
            mi = 0.0
            for i in range(3):
                for k in range(4):
                    if ch.rows[i, k] > 0 and p[i] > 0:
                        mi += p[i] * ch.rows[i, k] * math.log2(ch.rows[i, k] / py[k])
            assert res.value == pytest.approx(mi, abs=1e-9)

    def test_oracle_dominance(self):
        # Lattice restriction can never beat the optimizer by more than
        # its certificate, and the optimizer sits inside the lattice gap.
        rng = np.random.default_rng(1)
        grid = GridSpec(resolution=24, max_dims=3)
        for _ in range(20):
            ch = random_conditional(rng, 3, 3)
            oracle, gap = grid_capacity(ch, grid)
            value = blahut_arimoto(ch, tol=1e-10).value
            assert value >= oracle - 1e-6
            assert value <= oracle + gap

    def test_bad_tol_rejected(self):
        # The exact two-input solve and the iteration share one check.
        three = random_conditional(np.random.default_rng(0), 3, 3)
        for tol in (0.0, -1.0, math.nan, math.inf):
            for solve in (blahut_arimoto, max_support_input):
                for ch in (bsc(0.1), three):
                    with pytest.raises(InputError, match="tol"):
                        solve(ch, tol=tol)

    def test_max_iter_flag(self):
        ch = ConditionalPmf(("0", "1"), ("0", "1"),
                            np.array([[0.9, 0.1], [0.4, 0.6]]))
        res = blahut_arimoto(ch, tol=1e-15, max_iter=3)
        assert not res.converged
        assert res.iterations == 3

    @pytest.mark.parametrize("max_iter, message", [
        (2.5, "^max_iter must be an integer, got 2.5$"),
        (True, "^max_iter must be an integer, got True$"),
        (0, "^max_iter must be at least 1, got 0$"),
        (-1, "^max_iter must be at least 1, got -1$"),
    ], ids=["float", "bool", "zero", "negative"])
    def test_bad_max_iter_rejected(self, max_iter, message):
        # A float used to raise TypeError, and -1 to return a 0-step result.
        with pytest.raises(InputError, match=message):
            blahut_arimoto(bsc(0.1), max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_unconverged_value_describes_returned_input(self, max_iter):
        # The loop updates the input after measuring it; a run cut off by
        # max_iter must still report the MI and the largest divergence of
        # the input it returns.
        rng = np.random.default_rng(7)
        for _ in range(200):
            ch = random_conditional(rng, 3, 3)
            res = blahut_arimoto(ch, tol=1e-15, max_iter=max_iter)
            assert not res.converged
            p = res.argmax_input.probs
            assert abs(res.value - channel_mi_bits(p, ch.rows)) <= 1e-12
            assert abs(res.upper - max_divergence(ch.rows, p)) <= 1e-12
            assert res.upper >= res.value

    def test_certificate_at_returned_input_on_sparse_channels(self):
        # The returned Pmf zeroes masses below 1e-15; where such an input
        # alone reaches an output, the divergence maximum at the returned
        # input is inf, so a converged run must not report a finite gap.
        tol = 1e-10
        for ch in sparse_channels(16, 20):
            res = blahut_arimoto(ch, tol=tol)
            p = res.argmax_input.probs
            at = optimize._ends(ch.rows, p)[2]
            assert not res.converged or abs(res.upper - at) <= tol

    def test_stops_once_an_output_loses_its_only_input(self):
        # Only the last row reaches output "3", and its optimal mass lies
        # below what a Pmf keeps: once zeroed, its divergence is infinite
        # for good, so the run stops unconverged instead of running out.
        ch = list(miss_class_channels())[36]
        res = blahut_arimoto(ch, tol=1e-12, max_iter=20000)
        assert not res.converged and res.upper == math.inf
        assert res.iterations < 20000

    def test_converged_certificate(self):
        # Both ends of a converged run bracket capacity within tol, for the
        # iteration and for the maximal-support input, binary or not.
        rng = np.random.default_rng(3)
        tol = 1e-10
        for n_in in (2, 3):
            for _ in range(20):
                ch = random_conditional(rng, n_in, 4, sparsity=0.3)
                for res in (blahut_arimoto(ch, tol=tol), max_support_input(ch, tol=tol)):
                    assert res.converged
                    assert abs(res.upper - max_divergence(ch.rows, res.argmax_input.probs)) <= 1e-12
                    assert -1e-15 <= res.upper - res.value <= tol


class TestMaximizeJointMi:
    def test_erasure_adder_values(self):
        for p in (0.0, 0.5):
            res = maximize_joint_mi(catalog.erasure_adder_mac(p), tol=1e-10)
            assert res.value == pytest.approx((1 - p) * math.log2(3), abs=1e-8)

    def test_noiseless_binary_symmetric(self):
        res = maximize_joint_mi(catalog.binary_symmetric_mac(0.0))
        assert res.value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_tol_rejected(self, tol):
        # It and the sum-rate cut-set that reads it check tol as the
        # single-channel solves do, before any Newton step.
        for solve in (maximize_joint_mi, cutset_sum_rate):
            with pytest.raises(InputError, match="tol"):
                solve(catalog.adder_mac(), tol=tol)

    def test_input_is_joint_over_product(self):
        res = maximize_joint_mi(catalog.adder_mac())
        assert len(res.argmax_input.alphabet) == 4
        assert res.argmax_input.alphabet[0] == "(0,0)"

    def test_composite_labels_stay_distinct(self):
        # Pair labels were "(a,b)" unescaped: ("a", "b,c") and ("a,b", "c")
        # both made "(a,b,c)", and this valid channel was rejected.
        adder = catalog.adder_mac()
        mac = Mac(("a", "a,b"), ("b,c", "c"), adder.y_alphabet, adder.pmf)
        res = maximize_joint_mi(mac)
        assert res.argmax_input.alphabet == ("(a,b\\,c)", "(a,c)", "(a\\,b,b\\,c)", "(a\\,b,c)")
        plain = maximize_joint_mi(adder)
        assert plain.argmax_input.alphabet == ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
        assert res.value == plain.value and res.upper == plain.upper

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_upper_bounds_single_rates_when_cut_short(self, max_iter, monkeypatch):
        # The joint bound dominates either user's single rate, so its upper
        # end must too, however early the iteration stops.
        rng = np.random.default_rng(4)
        for _ in range(10):
            mac = random_mac(rng, n1=2, n2=3, ny=4)
            singles = [single_rate_capacity(mac, user, tol=1e-10).value for user in (1, 2)]
            with monkeypatch.context() as m:  # cut only the joint solve short
                m.setattr(optimize, "_NEWTON_STEPS", max_iter)
                res = maximize_joint_mi(mac, tol=1e-15)
            assert res.upper >= max(singles)


class TestMaxSupportInput:
    def test_bsc_unique_optimum_is_uniform(self):
        for q in (0.0, 0.11, 0.3, 0.5):
            res = max_support_input(bsc(q), tol=1e-12)
            assert res.argmax_input.probs.tolist() == [0.5, 0.5]
            assert res.value == pytest.approx(1 - binary_entropy(q), abs=1e-12)

    def test_duplicate_rows_keep_both_symbols(self):
        # Two identical rows: any split between them is optimal; the
        # interior representative must keep both alive.
        rows = np.array([[0.7, 0.3], [0.7, 0.3], [0.1, 0.9]])
        ch = ConditionalPmf(("a", "b", "c"), ("0", "1"), rows)
        res = max_support_input(ch, tol=1e-10)
        assert res.argmax_input.probs[0] > 1e-3
        assert res.argmax_input.probs[1] > 1e-3
        cap = blahut_arimoto(ch, tol=1e-12).value
        assert res.value >= cap - 1e-9

    def test_identity_three_symbols(self):
        ch = ConditionalPmf(("a", "b", "c"), ("0", "1", "2"), np.eye(3))
        res = max_support_input(ch, tol=1e-10)
        assert np.abs(res.argmax_input.probs - 1 / 3).max() < 1e-9
        assert res.value == pytest.approx(math.log2(3), abs=1e-9)

    def test_averaging_preserves_optimality(self):
        rng = np.random.default_rng(2)
        tol = 1e-10
        for _ in range(20):
            ch = random_conditional(rng, 3, 4)
            cap = blahut_arimoto(ch, tol=1e-12).value
            res = max_support_input(ch, tol=tol)
            assert res.value >= cap - 10 * tol


def kkt_channels(seed, n):
    """Channels with 3-6 inputs, by turns plain, with a duplicate row, with an
    output no row reaches, and sparse."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        m, ny = int(rng.integers(3, 7)), int(rng.integers(2, 6))
        rows = rng.dirichlet(np.ones(ny), size=m)
        if k % 4 == 1:
            rows[int(rng.integers(1, m))] = rows[0]
        elif k % 4 == 2:
            rows = np.concatenate([rows, np.zeros((m, 1))], axis=1)
        elif k % 4 == 3:
            rows = np.where(rng.random(rows.shape) < 0.4, 0.0, rows)
            rows[:, 0] += rows.sum(axis=1) == 0.0
            rows /= rows.sum(axis=1, keepdims=True)
        yield ConditionalPmf(tuple(str(i) for i in range(m)),
                             tuple(str(j) for j in range(rows.shape[1])), rows)


def miss_class_channels():
    """The channels Newton's method on the KKT conditions is most likely to get
    wrong: 3x2 channels, where at most two of three rows are independent and
    the one to drop must be chosen; channels whose best row off the support
    is a combination of the support's rows, so that it joins by moving mass
    along the dependence; channels where an input the starting support
    leaves out is the only way to an output, so that q is 0 where it
    reaches; and an output reached by one row with tiny mass."""
    rng = np.random.default_rng(12)
    for _ in range(30):
        rows = rng.dirichlet(np.ones(2), size=3)
        yield ConditionalPmf(("a", "b", "c"), ("0", "1"), rows)
    for rows in ([[0.095, 0.202, 0.703], [0.994, 0.006, 0.0], [0.028, 0.008, 0.964],
                  [0.806, 0.194, 0.0], [0.0, 0.169, 0.831]],
                 [[0.722, 0.109, 0.169], [0.519, 0.275, 0.206], [0.445, 0.197, 0.358],
                  [0.424, 0.004, 0.572], [0.72, 0.027, 0.253]],
                 [[0.465, 0.053, 0.482], [0.234, 0.014, 0.752], [0.057, 0.051, 0.892],
                  [0.043, 0.881, 0.076]]):
        yield ConditionalPmf(tuple("abcde"[:len(rows)]), ("0", "1", "2"), np.array(rows))
    for delta in (1e-3, 1e-2, 0.1):
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5 - delta, 0.5 - delta, 2 * delta],
                         [0.6, 0.4, 0.0]])
        yield ConditionalPmf(("a", "b", "c", "d"), ("0", "1", "2"), rows)
    for _ in range(10):
        rows = rng.dirichlet(np.ones(3), size=4)
        rows = np.concatenate([rows, np.zeros((4, 1))], axis=1)
        rows[3] = [0.5, 0.2, 0.3 - 1e-3, 1e-3]
        yield ConditionalPmf(("a", "b", "c", "d"), ("0", "1", "2", "3"), rows)


class TestKKTCapacity:
    """The solve behind max_support_input (three or more inputs) and the
    joint-input bound, checked against the capacity iteration."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("source", ["random", "miss_classes"])
    def test_certified_and_no_worse_than_iteration(self, tol, source):
        chans = kkt_channels(21, 80) if source == "random" else miss_class_channels()
        for ch in chans:
            res = optimize._kkt_capacity(ch, tol)
            ba = blahut_arimoto(ch, tol=tol, max_iter=20000)
            assert res.converged
            assert res.iterations <= optimize._NEWTON_STEPS
            assert res.value <= res.upper <= res.value + tol
            assert abs(res.upper - max_divergence(ch.rows, res.argmax_input.probs)) <= 1e-12
            assert res.value >= ba.value - tol
            assert res.upper <= ba.upper + tol

    @pytest.mark.parametrize("source", ["random", "miss_classes"])
    def test_max_support_covers_every_tol_optimal_input(self, source):
        tol = 1e-10
        chans = kkt_channels(22, 80) if source == "random" else miss_class_channels()
        for ch in chans:
            res = max_support_input(ch, tol=tol)
            assert res.converged
            assert res.value <= res.upper <= res.value + tol
            div = optimize._ends(ch.rows, res.argmax_input.probs)[0]
            assert np.all(res.argmax_input.probs[div >= res.upper - tol] > 0.0)

    @pytest.mark.parametrize("source", ["kkt_duplicates", "erasure_adders", "binary_symmetric"])
    def test_repeated_rows_solved_once(self, source):
        # Equal rows are one input to the solve; its mass is split evenly
        # and both ends are measured on the full channel. On every erasure
        # adder the distinct rows make a channel whose uniform input is
        # optimal, so the first iterate certifies.
        tol = 1e-10
        if source == "kkt_duplicates":
            chans = [ch for k, ch in enumerate(kkt_channels(21, 80)) if k % 4 == 1]
        elif source == "erasure_adders":
            chans = [joint_channel(catalog.erasure_adder_mac(p)) for p in np.linspace(0, 1, 21)]
        else:
            chans = [joint_channel(catalog.binary_symmetric_mac(q))
                     for q in np.linspace(0, 0.5, 11)]
        for ch in chans:
            res = optimize._kkt_capacity(ch, tol)
            ba = blahut_arimoto(ch, tol=tol, max_iter=20000)
            assert res.converged
            assert res.iterations == 1 or source != "erasure_adders"
            p = res.argmax_input.probs
            for row in ch.rows:
                same = p[(ch.rows == row).all(axis=1)]
                assert np.all(same == same[0])
            # BA's slow tail near zero capacity may leave it unconverged;
            # its two ends still bracket capacity.
            assert res.value >= ba.value - tol and res.upper <= ba.upper + tol
            if ba.converged:
                assert abs(res.value - ba.value) <= tol and abs(res.upper - ba.upper) <= tol

    def test_floored_inputs_certify_without_fallback(self, monkeypatch):
        # Each channel has an input held at the mass floor with D_x < I; its
        # KKT condition is D_x <= C, so it takes no Newton equation.
        monkeypatch.setattr(optimize, "blahut_arimoto", None)  # a call raises
        chans = list(sparse_channels(16, 284))
        for k in (158, 248, 283):
            res = optimize._kkt_capacity(chans[k], 1e-9)
            assert res.converged and res.value <= res.upper <= res.value + 1e-9

    def test_sparse_channels_certify_without_fallback(self, monkeypatch):
        # Every sparse channel certifies within the Newton step budget, and
        # each certificate brackets capacity together with a short run of
        # the iteration, whose two ends bracket it from any input. On 330
        # and 504, where an input once left S alone on an output q then
        # missed, the iteration run to a tight tol agrees with the solve.
        def no_iteration(*args, **kwargs):
            raise AssertionError("the KKT solve ran the capacity iteration")

        chans = list(sparse_channels(16, 1000))
        with monkeypatch.context() as m:
            m.setattr(optimize, "blahut_arimoto", no_iteration)
            results = [optimize._kkt_capacity(ch, 1e-9) for ch in chans]
        for ch, res in zip(chans, results):
            assert res.converged and res.iterations <= optimize._NEWTON_STEPS
            assert res.value <= res.upper <= res.value + 1e-9
            ba = blahut_arimoto(ch, tol=1e-12, max_iter=3)
            assert res.value <= ba.upper and ba.value <= res.upper
        for k in (330, 504):
            ba = blahut_arimoto(chans[k], tol=1e-12, max_iter=20000)
            assert ba.converged
            assert abs(results[k].value - ba.value) <= 1e-9
            assert abs(results[k].upper - ba.upper) <= 1e-9

    @pytest.mark.parametrize("seed,k,tol", [(17, 825, 1e-9), (18, 561, 1e-9), (18, 635, 1e-9),
                                            (16, 118, 1e-12)])
    def test_each_support_rule_certifies_its_channel(self, seed, k, tol, monkeypatch):
        # Each of these channels misses without one rule of the Newton
        # support: 825, mass onto the inputs that reach an output q misses;
        # 561, a joining row's dependence sought among rows with an
        # equation; 635, starting rows independent per unit of combination;
        # 118 at tol 1e-12, an input alone above the floor on an output
        # staying in S.
        monkeypatch.setattr(optimize, "blahut_arimoto", None)  # a call raises
        res = optimize._kkt_capacity(list(sparse_channels(seed, k + 1))[k], tol)
        assert res.converged and res.iterations <= optimize._NEWTON_STEPS
        assert res.value <= res.upper <= res.value + tol

    def test_miss_returns_measured_bracket(self, monkeypatch):
        # A solve with no certificate within its step budget returns its
        # last input unconverged, both ends measured there; they still
        # bracket capacity.
        monkeypatch.setattr(optimize, "_NEWTON_STEPS", 2)
        ch = random_conditional(np.random.default_rng(5), 4, 3)
        res = optimize._kkt_capacity(ch, 1e-12)
        assert not res.converged and res.iterations == 2
        assert res.upper == optimize._ends(ch.rows, res.argmax_input.probs)[2]
        cap = blahut_arimoto(ch, tol=1e-13, max_iter=20000)
        assert cap.converged
        assert res.value <= cap.upper and cap.value <= res.upper


class TestBinaryCapacity:
    """Two-input channels take the exact bisection in max_support_input."""

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_z_channel_closed_form(self, p):
        ch = ConditionalPmf(("0", "1"), ("0", "1"), np.array([[1.0, 0.0], [p, 1 - p]]))
        res = max_support_input(ch, tol=1e-12)
        assert res.converged
        assert res.value == pytest.approx(math.log2(1 + (1 - p) * p ** (p / (1 - p))),
                                          abs=1e-12)

    def test_equal_rows_uniform_in_one_step(self):
        ch = ConditionalPmf(("0", "1"), ("0", "1", "2"),
                            np.array([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]]))
        res = max_support_input(ch, tol=1e-12)
        assert res.argmax_input.probs.tolist() == [0.5, 0.5]
        assert res.value == 0.0
        assert res.iterations == 1
        assert res.converged

    def test_noiseless_one_bit(self):
        # Disjoint row supports: the output always tells the input apart.
        ch = ConditionalPmf(("0", "1"), ("0", "1", "2"),
                            np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
        res = max_support_input(ch, tol=1e-12)
        assert res.value == 1.0
        assert res.upper == 1.0

    def test_random_channels_match_iteration(self):
        # Never below the iteration's certified lower end (run from uniform
        # at a tight tol), within tol of its own upper end, in few steps.
        tol = 1e-10
        for ch in random_binary_channels(11, 500):
            res = max_support_input(ch, tol=tol)
            ba = blahut_arimoto(ch, tol=1e-13, max_iter=1000)
            assert res.converged
            assert res.value >= ba.value - 1e-12
            assert res.upper - res.value <= tol
            assert res.iterations <= 64

    @pytest.mark.parametrize("looks", [1, 2])
    def test_value_never_above_upper(self, looks):
        # I(a) rounds above max_x D here: 0.7500000000000001 over 0.75 with
        # one look, 0.9375000000000004 over 0.9375 with two.
        ch = partner_channels(catalog.erasure_adder_mac(0.25), 1)["0"]
        res = max_support_input(ch if looks == 1 else two_look_channel(ch))
        assert 0.0 <= res.value <= res.upper

    def test_excess_beyond_rounding_stays_visible(self, monkeypatch):
        # The cap absorbs rounding only: a kernel reading 1e-6 high leaves
        # the value above its upper end and the result unconverged.
        monkeypatch.setattr(optimize, "channel_mi_bits",
                            lambda p, rows: channel_mi_bits(p, rows) + 1e-6)
        res = max_support_input(partner_channels(catalog.erasure_adder_mac(0.25), 1)["0"])
        assert res.value > res.upper and not res.converged

    def test_unconverged_exit_stays_a_bracket(self):
        # At tol 1e-300 the midpoint stops moving before the certificate
        # closes; the mutual information there rounds 2.2e-16 above max_x D.
        ch = ConditionalPmf(("0", "1"), ("0", "1", "2", "3"), np.array([
            [0.12039701618679596, 0.32878760727354883, 0.1230495293168676, 0.4277658472227876],
            [0.07334728921383345, 0.7584565589953264, 0.09079766627787002,
             0.07739848551297038]]))
        res = max_support_input(ch, tol=1e-300)
        assert not res.converged and res.iterations == 53
        assert 0.0 <= res.value <= res.upper <= res.value + 1e-15

    def test_single_rate_skips_iteration_on_binary_mac(self, monkeypatch):
        calls = []
        real = optimize.blahut_arimoto

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimize, "blahut_arimoto", counting)
        mac = catalog.erasure_adder_mac(0.3)
        for user in (1, 2):
            single_rate_capacity(mac, user)
        assert calls == []
        # The joint-input bound takes the KKT solve, which runs no iteration.
        maximize_joint_mi(mac)
        assert calls == []
