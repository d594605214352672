"""Achievable frontier, pentagon bounds and cut-set values."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from macfeedback import (CLInput, ConditionalPmf, InputError, Mac, Pmf, RatePair,
                         cover_leung_bounds, cover_leung_frontier,
                         cutset_single_rate, cutset_sum_rate, default_weight_fan,
                         max_support_input, mutual_information,
                         partner_channels, single_rate_capacity, two_look_channel)
from macfeedback import catalog, erasure_extend
from macfeedback.checkers import erasure_scaling_check
from macfeedback.oracle import GridSpec, grid_capacity, grid_cl_point
from macfeedback import optimize, regions
from macfeedback._util import entropy_bits
from macfeedback.regions import _AscentProblem, batch_pentagon, check_weight, pentagon_corners

from _gen import random_mac


def trivial_u_input(p1, p2, u_card=1):
    """CLInput with independent inputs and a degenerate (or padded) U."""
    u = tuple(f"u{k}" for k in range(u_card))
    pu = np.zeros(u_card)
    pu[0] = 1.0
    rows1 = np.tile(p1, (u_card, 1))
    rows2 = np.tile(p2, (u_card, 1))
    return CLInput(
        p_u=Pmf(u, pu),
        p_x1_given_u=ConditionalPmf(u, tuple(str(i) for i in range(len(p1))), rows1),
        p_x2_given_u=ConditionalPmf(u, tuple(str(i) for i in range(len(p2))), rows2),
    )


class TestPentagonBounds:
    def test_degenerate_u_constant_x2(self):
        q = trivial_u_input(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        b1, b2, bsum = cover_leung_bounds(catalog.adder_mac(), q)
        assert b1 == pytest.approx(1.0, abs=1e-12)
        assert b2 == pytest.approx(0.0, abs=1e-12)
        assert bsum == pytest.approx(1.0, abs=1e-12)

    def test_iid_inputs_sum_bound(self):
        q = trivial_u_input(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        _, _, bsum = cover_leung_bounds(catalog.adder_mac(), q)
        # H(Y) for output masses (1/4, 1/2, 1/4).
        assert bsum == pytest.approx(1.5, abs=1e-12)

    def test_fully_erased_all_zero(self):
        mac = catalog.erasure_adder_mac(1.0)
        q = trivial_u_input(np.array([0.3, 0.7]), np.array([0.6, 0.4]), u_card=2)
        b1, b2, bsum = cover_leung_bounds(mac, q)
        assert max(b1, b2, bsum) < 1e-12

    def test_dimension_mismatch_rejected(self):
        q = trivial_u_input(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        mac = random_mac(np.random.default_rng(0), n1=3)
        with pytest.raises(InputError):
            cover_leung_bounds(mac, q)

    @pytest.mark.parametrize("user", [1, 2])
    def test_conditionals_off_the_u_alphabet_rejected(self, user):
        q = trivial_u_input(np.array([0.5, 0.5]), np.array([0.5, 0.5]), u_card=2)
        moved = ConditionalPmf(("v0", "v1"), ("0", "1"), np.full((2, 2), 0.5))
        parts = [q.p_x1_given_u, q.p_x2_given_u]
        parts[user - 1] = moved
        with pytest.raises(InputError,
                           match="^CLInput: conditionals not indexed by the U alphabet$"):
            CLInput(q.p_u, *parts)

    def test_sum_rate_markov_simplification(self):
        # I(U, X1, X2; Y) equals I(X1, X2; Y): U acts only through the inputs.
        rng = np.random.default_rng(1)
        for _ in range(20):
            mac = random_mac(rng, ny=3)
            u_card = 3
            u = tuple(f"u{k}" for k in range(u_card))
            q = CLInput(
                p_u=Pmf(u, rng.dirichlet(np.ones(u_card))),
                p_x1_given_u=ConditionalPmf(u, mac.x1_alphabet,
                                            rng.dirichlet(np.ones(2), size=u_card)),
                p_x2_given_u=ConditionalPmf(u, mac.x2_alphabet,
                                            rng.dirichlet(np.ones(2), size=u_card)),
            )
            joint = q.joint_with(mac)
            with_u = mutual_information(joint, ("u", "x1", "x2"), "y")
            without = mutual_information(joint, ("x1", "x2"), "y")
            assert abs(with_u - without) < 1e-9

    @staticmethod
    def _random_inputs(rng, mac, u_card, count):
        """``count`` auxiliary inputs; every other one has p(u) = 0 on the
        last symbol (when U > 1) and zero entries in its conditional rows."""
        n1, n2 = len(mac.x1_alphabet), len(mac.x2_alphabet)
        u = tuple(f"u{k}" for k in range(u_card))
        out = []
        for trial in range(count):
            p_u = rng.dirichlet(np.ones(u_card))
            rows1 = rng.dirichlet(np.ones(n1), size=u_card)
            rows2 = rng.dirichlet(np.ones(n2), size=u_card)
            if trial % 2:
                if u_card > 1:
                    p_u[-1] = 0.0
                rows1[0, 0] = 0.0
                rows2[-1] = np.eye(n2)[0]
            out.append(CLInput(Pmf(u, p_u / p_u.sum()),
                               ConditionalPmf(u, mac.x1_alphabet,
                                              rows1 / rows1.sum(axis=1, keepdims=True)),
                               ConditionalPmf(u, mac.x2_alphabet, rows2)))
        return out

    def _check_against_oracle(self, rng, mac, u_card):
        # The conditional-entropy batch against the named-axis joint: one
        # auxiliary input at a time (B = 1), all of them in one batch, and
        # with p(u) and p(x1|u) shared by stride-0 broadcasts across the
        # batch, as the lattice oracle passes them.
        qs = self._random_inputs(rng, mac, u_card, 8)
        oracle = np.array([cover_leung_bounds(mac, q) for q in qs])
        p_u = np.array([q.p_u.probs for q in qs])
        p1 = np.array([q.p_x1_given_u.rows for q in qs])
        p2 = np.array([q.p_x2_given_u.rows for q in qs])
        for k in range(len(qs)):
            one = batch_pentagon(mac.pmf, p_u[k:k + 1], p1[k:k + 1], p2[k:k + 1])
            np.testing.assert_allclose(np.ravel(one), oracle[k], rtol=0, atol=1e-13)
        batch = np.stack(batch_pentagon(mac.pmf, p_u, p1, p2), axis=1)
        np.testing.assert_allclose(batch, oracle, rtol=0, atol=1e-13)
        shared = [CLInput(qs[0].p_u, qs[0].p_x1_given_u, q.p_x2_given_u) for q in qs]
        broadcast = np.stack(batch_pentagon(
            mac.pmf, np.broadcast_to(p_u[0], p_u.shape), np.broadcast_to(p1[0], p1.shape),
            p2), axis=1)
        np.testing.assert_allclose(
            broadcast, [cover_leung_bounds(mac, q) for q in shared], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n1,erased", [(2, False), (3, False), (2, True)])
    def test_batch_matches_named_axis_oracle(self, n1, erased):
        rng = np.random.default_rng(40 + n1 + 10 * int(erased))
        for _ in range(16):
            mac = random_mac(rng, n1=n1, ny=3)
            if erased:
                mac = erasure_extend(mac, 0.4)
            self._check_against_oracle(rng, mac, 3)

    @pytest.mark.parametrize("n1,n2,u_card", [(2, 3, 3), (3, 2, 1), (2, 3, 1), (2, 2, 1)])
    def test_batch_matches_oracle_on_uneven_inputs_and_single_u(self, n1, n2, u_card):
        # A transposed W or swapped x1/x2 block stays hidden on square
        # input alphabets; U = 1 leaves a length-1 axis in every product.
        rng = np.random.default_rng(70 + 10 * n1 + n2 + u_card)
        for _ in range(4):
            self._check_against_oracle(rng, random_mac(rng, n1=n1, n2=n2, ny=4), u_card)


class TestPentagonCorners:
    """The weights alone pick the corner: (b1, min(b2, bsum - b1)) iff w1 >= w2."""

    # b1 + b2 > bsum: the sum bound binds, and the corners differ.
    BINDING = (0.9486494471372439, 0.31183145201048545, 1.0806559483948048)

    def test_equal_weights_give_corner_a(self):
        # Both corners are worth 0.3 bsum; their rounded values differ in the last bit.
        b1, b2, bsum = self.BINDING
        value, r1, r2 = pentagon_corners(b1, b2, bsum, 0.3, 0.3)
        assert r1 == b1 and r2 == bsum - b1 and value == 0.3 * r1 + 0.3 * r2

    @pytest.mark.parametrize("w1,w2", [(0.7, 0.3), (0.3, 0.7), (0.5, 0.5)])
    @pytest.mark.parametrize("c", [0.3, 3.0, 1e-300, 1e300])
    def test_rates_do_not_depend_on_scale(self, w1, w2, c):
        _, r1, r2 = pentagon_corners(*self.BINDING, w1, w2)
        _, s1, s2 = pentagon_corners(*self.BINDING, c * w1, c * w2)
        assert (s1, s2) == (r1, r2)


class TestShortAxisSums:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_bitwise_equal_to_numpy_sum_alone_or_batched(self, n):
        # Rows shorter than 8 sum in numpy's order; a row sums to the same
        # bits alone as in a batch or in a strided view.
        rng = np.random.default_rng(n)
        a = rng.random((9, 6, 2, n)) * rng.choice([1e-3, 1.0, 1e3], size=(9, 6, 2, 1))
        a[0] = 0.0
        total = regions._sum_last(a)
        np.testing.assert_array_equal(total, a.sum(axis=-1))
        for k in range(len(a)):
            np.testing.assert_array_equal(regions._sum_last(a[k:k + 1]), total[k:k + 1])
        wide = np.zeros((9, 6, 2, n + 3))
        wide[..., 1:n + 1] = a
        np.testing.assert_array_equal(regions._sum_last(wide[..., 1:n + 1]), total)

    @pytest.mark.parametrize("ny", [2, 3, 4, 5])
    def test_entropy_matches_kernel(self, ny):
        rng = np.random.default_rng(ny)
        p = rng.dirichlet(np.ones(ny), size=(7, 3))
        p[0, 0] = np.eye(ny)[0]
        np.testing.assert_array_equal(regions._entropy_y(p), entropy_bits(p, axis=-1))


class TestRandomStarts:
    """The block of random starts is, bit for bit, rng.dirichlet drawn row by row."""

    @pytest.mark.parametrize("u_card", [1, 2, 5, 11])
    @pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3), (4, 4)])
    @pytest.mark.parametrize("k", [1, 2, 25])
    def test_block_matches_dirichlet_rows(self, u_card, n1, n2, k):
        mac = random_mac(np.random.default_rng(0), n1=n1, n2=n2, ny=3)
        problem = _AscentProblem(mac, u_card)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            want = np.array([np.concatenate([
                rng.dirichlet(np.ones(u_card)),
                rng.dirichlet(np.ones(n1), size=u_card).ravel(),
                rng.dirichlet(np.ones(n2), size=u_card).ravel()]) for _ in range(k)])
            got = regions._random_starts(np.random.default_rng(seed), problem, k)
            assert got.tobytes() == want.tobytes()


class TestBatchInvariance:
    """A row's pentagon bounds, active corner and ascent gradient have the same bits in any batch."""

    @pytest.mark.parametrize("u_card", [1, 2, 3])
    @pytest.mark.parametrize("seed,shape", [(21, (2, 2, 3)), (22, (3, 2, 4)), (23, (2, 3, 2))])
    def test_rows_alone_or_batched(self, seed, shape, u_card):
        rng = np.random.default_rng(seed)
        n1, n2, ny = shape
        mac = random_mac(rng, n1=n1, n2=n2, ny=ny)
        problem = _AscentProblem(mac, u_card)
        theta = regions._random_starts(rng, problem, 1500)
        w1, w2 = rng.uniform(0.0, 1.0, size=(2, 1500))
        theta, _, active = problem.value(theta, w1, w2)
        grad = problem.gradient(theta, active, w1, w2)
        bounds = np.stack(batch_pentagon(mac.pmf, *problem.split(theta)), axis=1)
        for size in (1, 2, 3, 7, 64):
            for lo in range(0, 64, size):
                rows = slice(lo, lo + size)
                part = np.stack(batch_pentagon(mac.pmf, *problem.split(theta[rows])), axis=1)
                np.testing.assert_array_equal(part, bounds[rows])
                np.testing.assert_array_equal(
                    problem.value(theta[rows], w1[rows], w2[rows])[2], active[rows])
                np.testing.assert_array_equal(
                    problem.gradient(theta[rows], active[rows], w1[rows], w2[rows]),
                    grad[rows])


class TestParameterRows:
    """An ascent row is p(u), then p(x1|u) row by row, then p(x2|u) row by row."""

    @pytest.mark.parametrize("mac,u_card", [
        (catalog.adder_mac(), 6), (catalog.adder_mac(), 2),
        (catalog.binary_symmetric_mac(0.11), 3),
        (random_mac(np.random.default_rng(31), n1=3, n2=2, ny=3), 2),
        (random_mac(np.random.default_rng(32), n1=2, n2=3, ny=4), 4),
    ], ids=["adder-6", "adder-2", "bsc-3", "random_323-2", "random_234-4"])
    def test_structured_starts_built_by_hand(self, mac, u_card):
        n1, n2, _ = mac.shape
        tol = 1e-9
        rows, _ = regions._structured_starts(mac, _AscentProblem(mac, u_card), tol)
        uniform = np.concatenate([np.full(u_card, 1.0 / u_card),
                                  np.full(u_card * n1, 1.0 / n1),
                                  np.full(u_card * n2, 1.0 / n2)])
        want = [uniform]
        # U a point mass at u0; at u0 the free user's max-support input and
        # the partner's one-hot constant, every other conditional row uniform.
        for free in (1, 2):
            channels = partner_channels(mac, free)
            for point, ch in zip(np.eye(len(channels)), channels.values()):
                best = max_support_input(ch, tol=tol).argmax_input.probs
                row1, row2 = (best, point) if free == 1 else (point, best)
                row = uniform.copy()
                row[:u_card] = np.eye(u_card)[0]
                row[u_card:u_card + n1] = row1
                row[u_card + u_card * n1:u_card + u_card * n1 + n2] = row2
                want.append(row)
        np.testing.assert_array_equal(rows, np.array(want))

    @pytest.mark.parametrize("u_card,n1,n2", [(1, 2, 2), (3, 2, 3), (4, 3, 2)])
    def test_join_inverts_split(self, u_card, n1, n2):
        rng = np.random.default_rng(u_card)
        problem = _AscentProblem(random_mac(rng, n1=n1, n2=n2, ny=3), u_card)
        dim = u_card * (1 + n1 + n2)
        for shape in ((dim,), (7, dim), (2, 5, dim)):
            rows = rng.standard_normal(shape)
            p_u, p1, p2 = problem.split(rows)
            assert p1.shape == shape[:-1] + (u_card, n1)
            assert p2.shape == shape[:-1] + (u_card, n2)
            np.testing.assert_array_equal(problem.join(p_u, p1, p2), rows)


class TestFrontier:
    def test_weight_on_user1_matches_single_rate(self):
        mac = catalog.adder_mac()
        f = cover_leung_frontier(mac, weights=[(1.0, 0.0)], restarts=4, seed=0)
        sr = single_rate_capacity(mac, 1)
        assert f.points[0].rates.r1 == pytest.approx(sr.value, abs=1e-6)

    def test_weight_on_user2_matches_single_rate(self):
        mac = catalog.erasure_adder_mac(0.25)
        f = cover_leung_frontier(mac, weights=[(0.0, 1.0)], restarts=4, seed=0)
        sr = single_rate_capacity(mac, 2)
        assert f.points[0].rates.r2 == pytest.approx(sr.value, abs=1e-6)

    def test_single_user_weight_matches_on_random_macs(self):
        rng = np.random.default_rng(8)
        for _ in range(3):
            mac = random_mac(rng, ny=3)
            f = cover_leung_frontier(mac, weights=[(1.0, 0.0)], restarts=3, seed=0)
            sr = single_rate_capacity(mac, 1)
            assert f.points[0].rates.r1 == pytest.approx(sr.value, abs=1e-6)

    def test_fully_erased_channel_zero(self):
        mac = catalog.erasure_adder_mac(1.0)
        f = cover_leung_frontier(mac, weights=[(1.0, 1.0), (2.0, 1.0)],
                                 restarts=3, seed=0)
        for pt in f.points:
            assert pt.value < 1e-9
            assert pt.rates.r1 < 1e-9 and pt.rates.r2 < 1e-9

    def test_points_certified_by_reevaluation(self):
        mac = catalog.erasure_adder_mac(0.5)
        f = cover_leung_frontier(mac, weights=default_weight_fan(5),
                                 restarts=4, seed=1)
        for pt in f.points:
            b1, b2, bsum = cover_leung_bounds(mac, pt.witness)
            assert pt.rates.r1 <= b1 + 1e-9
            assert pt.rates.r2 <= b2 + 1e-9
            assert pt.rates.r1 + pt.rates.r2 <= bsum + 1e-9
            val, _, _ = pentagon_corners(np.array([b1]), np.array([b2]),
                                         np.array([bsum]), *pt.weights)
            assert abs(val[0] - pt.value) < 1e-9

    def test_deterministic_for_seed(self):
        mac = catalog.erasure_adder_mac(0.5)
        f1 = cover_leung_frontier(mac, weights=[(1.0, 1.0)], restarts=5, seed=7)
        f2 = cover_leung_frontier(mac, weights=[(1.0, 1.0)], restarts=5, seed=7)
        assert f1.points[0].value == f2.points[0].value
        assert np.array_equal(f1.points[0].witness.p_u.probs,
                              f2.points[0].witness.p_u.probs)

    @pytest.mark.parametrize("mac", [catalog.adder_mac(), catalog.binary_symmetric_mac(0.11)],
                             ids=["adder", "bsc011"])
    def test_witness_is_first_tied_ascent_row(self, mac, monkeypatch):
        # The witness is the first start of its direction, in start order,
        # whose ascent value reaches the direction's outer value less the
        # tie tolerance (a certified start), or, where no start is
        # certified, the first within the tie tolerance of the direction's
        # best ascent value. It is stored as the ascent left it: only the
        # table constructors' own normalization comes between. The ascent
        # runs on each pair's direction (w1, w2) / (w1 + w2).
        runs = []
        real = _AscentProblem.ascend

        def recording(self, theta0, w1, w2, outer, max_iter=120):
            out = real(self, theta0, w1, w2, outer, max_iter=max_iter)
            runs.append((self, w1, w2, outer, *out))
            return out

        monkeypatch.setattr(_AscentProblem, "ascend", recording)
        weights = [(1.0, 0.0), (1.0, 1.0), (0.3, 0.7), (0.0, 1.0)]
        directions = [(1.0, 0.0), (0.5, 0.5), (0.3, 0.7), (0.0, 1.0)]
        f = cover_leung_frontier(mac, weights=weights, restarts=4, seed=0)
        witnesses = {pt.weights: pt.witness for pt in f.points}
        (problem, w1, w2, outer, all_thetas, all_vals), = runs
        for weight, direction, ow1, ow2, o, thetas, vals in zip(
                weights, directions, w1, w2, outer, all_thetas, all_vals):
            assert (ow1, ow2) == direction
            tied = vals >= o - regions._WITNESS_TIE
            # Only the axis directions reach the single-user cut-set value.
            assert tied.any() == (0.0 in weight)
            if not tied.any():
                tied = vals >= vals.max() - regions._WITNESS_TIE
            pick = np.flatnonzero(tied)[0]
            p_u, p1, p2 = problem.split(thetas[pick][None, :])
            q = witnesses[weight]
            u = q.p_u.alphabet
            assert np.array_equal(q.p_u.probs, Pmf(u, p_u[0]).probs)
            assert np.array_equal(q.p_x1_given_u.rows,
                                  ConditionalPmf(u, mac.x1_alphabet, p1[0]).rows)
            assert np.array_equal(q.p_x2_given_u.rows,
                                  ConditionalPmf(u, mac.x2_alphabet, p2[0]).rows)

    @pytest.mark.parametrize("mac", [catalog.adder_mac(),
                                     erasure_extend(catalog.adder_mac(), 0.5),
                                     catalog.binary_symmetric_mac(0.11)],
                             ids=["adder", "erasure-adder", "bsc011"])
    def test_weight_scale_moves_no_point(self, mac):
        # A pair names a direction: its scale moves no rate or witness, bit for
        # bit where the scale is a power of two. The witness re-evaluates to
        # the rates of the corner its direction picks, and the value is that
        # corner's at the caller's pair.
        directions = [(0.75, 0.25), (0.5, 0.5), (0.3125, 0.6875)]  # frontier order
        base = cover_leung_frontier(mac, weights=directions, restarts=4)
        for c in (2.0 ** -1000, 1e-300, 1e-12, 1e-6, 3.0, 1e6, 1e300):
            pairs = [(c * w1, c * w2) for w1, w2 in directions]
            f = cover_leung_frontier(mac, weights=pairs, restarts=4)
            atol = 0.0 if math.frexp(c)[0] == 0.5 else 1e-12
            for direction, pair, pb, pt in zip(directions, pairs, base.points, f.points):
                qb, q = pb.witness, pt.witness
                for got, want in [(pt.rates.r1, pb.rates.r1), (pt.rates.r2, pb.rates.r2),
                                  (q.p_u.probs, qb.p_u.probs),
                                  (q.p_x1_given_u.rows, qb.p_x1_given_u.rows),
                                  (q.p_x2_given_u.rows, qb.p_x2_given_u.rows)]:
                    np.testing.assert_allclose(got, want, rtol=0, atol=atol)
                assert pt.weights == pair
                _, r1, r2 = pentagon_corners(
                    *(np.array([b]) for b in cover_leung_bounds(mac, q)), *direction)
                assert pt.rates == RatePair(r1[0], r2[0])
                assert pt.value == pair[0] * pt.rates.r1 + pair[1] * pt.rates.r2

    def test_default_fans_are_directions(self):
        # Every pair of a default fan sums to exactly 1, so its direction is
        # the pair itself and default outputs do not move.
        for n in range(2, 201):
            for w1, w2 in default_weight_fan(n):
                assert w1 + w2 == 1.0
                assert check_weight((w1, w2)) == (w1, w2)

    def test_check_weight_returns_the_direction(self):
        assert check_weight((3.0, 1.0)) == (0.75, 0.25)
        assert check_weight((0.0, 1e-300)) == (0.0, 1.0)
        with pytest.raises(InputError, match=r"weight \(1e\+308, 1e\+308\): the sum"):
            check_weight((1e308, 1e308))

    def test_overflowing_value_rejected(self):
        # The pair's sum is finite, but 1e308 times R1 = 2 bits is not.
        pmf = np.zeros((4, 1, 4))
        pmf[np.arange(4), 0, np.arange(4)] = 1.0
        mac = Mac(tuple("abcd"), ("z",), tuple("abcd"), pmf)
        with pytest.raises(InputError, match=r"weight \(1e\+308, 0\.0\)"):
            cover_leung_frontier(mac, weights=[(1e308, 0.0)], restarts=0)
        pt = cover_leung_frontier(mac, weights=[(1e307, 0.0)], restarts=0).points[0]
        assert pt.rates.r1 == pytest.approx(2.0) and pt.value == 1e307 * pt.rates.r1

    def test_point_depends_on_position_not_on_other_pairs(self):
        # Direction k's random starts are stream k of the seed's spawn, so a
        # pair at position k of any list gets the default fan's point k, bit
        # for bit, whatever pairs stand before or after it. At another
        # position it gets other starts: (0.5, 0.5) alone ends higher than at
        # position 8 of the default fan.
        mac = catalog.adder_mac()
        fan = default_weight_fan()
        want = {pt.weights: pt for pt in cover_leung_frontier(mac).points}
        others = [(3 * w1, 3 * w2) for w1, w2 in reversed(fan)]
        for k in (0, 5, 8, 16):
            weights = others[:k] + [fan[k]] + others[k:k + 2]
            got = {pt.weights: pt for pt in cover_leung_frontier(mac, weights=weights).points}
            (pt, q), (pw, qw) = ((p, p.witness) for p in (got[fan[k]], want[fan[k]]))
            assert (pt.value, pt.rates) == (pw.value, pw.rates)
            assert np.array_equal(q.p_u.probs, qw.p_u.probs)
            assert np.array_equal(q.p_x1_given_u.rows, qw.p_x1_given_u.rows)
            assert np.array_equal(q.p_x2_given_u.rows, qw.p_x2_given_u.rows)
        alone = cover_leung_frontier(mac, weights=[fan[8]]).points[0]
        assert alone.value != want[fan[8]].value

    def test_default_weights_are_the_default_fan(self):
        mac = catalog.adder_mac()
        assert (cover_leung_frontier(mac, restarts=1).to_dict()
                == cover_leung_frontier(mac, weights=default_weight_fan(), restarts=1).to_dict())

    def test_sorted_by_direction(self):
        mac = catalog.adder_mac()
        f = cover_leung_frontier(mac, weights=[(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)],
                                 restarts=2, seed=0)
        keys = [pt.weights[1] / sum(pt.weights) for pt in f.points]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("n", [1, True, 2.5, 0, -3])
    def test_bad_fan_size_rejected(self, n):
        with pytest.raises(InputError, match="^n must be"):
            default_weight_fan(n)

    def test_bad_weights_rejected(self):
        mac = catalog.adder_mac()
        with pytest.raises(InputError):
            cover_leung_frontier(mac, weights=[(0.0, 0.0)], restarts=1)
        with pytest.raises(InputError):
            cover_leung_frontier(mac, weights=[(-1.0, 1.0)], restarts=1)

    @pytest.mark.parametrize("name,value", [("restarts", -3), ("seed", -1), ("tol", -1.0),
                                            ("tol", math.nan)])
    def test_bad_options_rejected(self, name, value):
        with pytest.raises(InputError, match=name):
            cover_leung_frontier(catalog.adder_mac(), weights=[(1.0, 1.0)], **{name: value})
        with pytest.raises(InputError, match=name):
            erasure_scaling_check(catalog.adder_mac(), 0.5, weights=[(1.0, 1.0)],
                                  **{name: value})

    @pytest.mark.parametrize("weight", [(0.0, 0.0), (-1.0, 1.0), (math.nan, 1.0),
                                        (1.0, math.inf), (1.7e308, 1.7e308),
                                        (1, 1, 1), ("a", 1), 1.0, (1,)])
    def test_bad_weight_rejected_by_frontier_and_lattice(self, weight):
        mac = catalog.adder_mac()
        named = re.escape(f"weight {weight!r}")
        with pytest.raises(InputError, match=named):
            cover_leung_frontier(mac, weights=[weight], restarts=1)
        with pytest.raises(InputError, match=named):
            erasure_scaling_check(mac, 0.5, weights=[weight], restarts=1)
        with pytest.raises(InputError, match=named):
            grid_cl_point(mac, weight, GridSpec(resolution=4))

    @pytest.mark.parametrize("name,value", [("restarts", 2.5), ("restarts", "3"),
                                            ("u_card", 2.0), ("max_iter", 1.5),
                                            ("max_iter", -1), ("u_card", 0)])
    def test_bad_counts_rejected(self, name, value):
        with pytest.raises(InputError, match=name):
            cover_leung_frontier(catalog.adder_mac(), weights=[(1.0, 1.0)], **{name: value})
        if name == "restarts":  # the only count the scaling check takes
            with pytest.raises(InputError, match=name):
                erasure_scaling_check(catalog.adder_mac(), 0.5, weights=[(1.0, 1.0)],
                                      **{name: value})

    def test_scaling_check_reads_weights_once(self):
        # A generator of directions serves both frontiers of the check.
        fan = [(1.0, 1.0), (1.0, 0.0)]
        listed = erasure_scaling_check(catalog.adder_mac(), 0.5, weights=fan, restarts=1)
        once = erasure_scaling_check(catalog.adder_mac(), 0.5, weights=iter(fan), restarts=1)
        assert once == listed

    def test_empty_weights_rejected(self):
        with pytest.raises(InputError, match="no weight directions"):
            cover_leung_frontier(catalog.adder_mac(), weights=[])
        with pytest.raises(InputError, match="no weight directions"):
            erasure_scaling_check(catalog.adder_mac(), 0.5, weights=[])

    def test_inner_below_outer_random(self):
        # Weighted inner value never exceeds the weighted cut-set pentagon.
        rng = np.random.default_rng(2)
        weights = [(1.0, 0.0), (1.0, 1.0), (0.3, 0.7)]
        for _ in range(4):
            mac = random_mac(rng, n1=2, n2=2, ny=3)
            f = cover_leung_frontier(mac, weights=weights, restarts=3, seed=3)
            c1 = cutset_single_rate(mac, 1, "PF", tol=1e-10)
            c2 = cutset_single_rate(mac, 2, "PF", tol=1e-10)
            cs = cutset_sum_rate(mac, tol=1e-10)
            for pt in f.points:
                w1, w2 = pt.weights
                outer, _, _ = pentagon_corners(np.array([c1]), np.array([c2]),
                                               np.array([cs]), w1, w2)
                assert pt.value <= outer[0] + 1e-6

    def test_erasure_monotonicity(self):
        # More erasure can only shrink every weighted value.
        from macfeedback import erasure_extend

        mac = catalog.adder_mac()
        weights = [(1.0, 1.0), (1.0, 0.0)]
        values = []
        for p in (0.2, 0.6):
            ext = erasure_extend(mac, p)
            f = cover_leung_frontier(ext, weights=weights, restarts=4, seed=5)
            values.append([pt.value for pt in f.points])
        for lo, hi in zip(values[1], values[0]):
            assert lo <= hi + 1e-6


class TestAscentGradient:
    """The analytic tangent gradient against centred finite differences."""

    @staticmethod
    def _tangent(rng, problem, theta):
        """A random direction that keeps every simplex row on its support."""
        rows = []
        for part in problem.split(theta):
            part = part[0].reshape(-1, part.shape[-1])
            on = part > 0.0
            d = rng.normal(size=part.shape) * on
            d -= on * (d.sum(axis=1, keepdims=True) / on.sum(axis=1, keepdims=True))
            rows.append(d.ravel())
        d = np.concatenate(rows)
        return d / np.abs(d).max()

    def _check_finite_differences(self, rng, n1, n2, erased, u_card, w1, w2):
        """Directional derivatives at 12 random points; returns which pieces
        of the min (sum bound binding or slack) were checked."""
        h = 1e-6
        pieces = set()
        for trial in range(12):
            mac = random_mac(rng, n1=n1, n2=n2, ny=3)
            if erased:
                mac = erasure_extend(mac, 0.3)
            problem = _AscentProblem(mac, u_card)
            # Inputs nearly fixed by U leave the sum bound slack (first piece
            # of the min); inputs independent of U make it bind (second).
            peaked = trial % 4 < 2

            def rows(n, k):
                if not peaked:
                    return np.tile(rng.dirichlet(np.full(n, 2.0)), (k, 1))
                hot = np.eye(n)[rng.integers(n, size=k)]
                return 0.85 * hot + 0.15 * rng.dirichlet(np.full(n, 2.0), size=k)

            theta = np.concatenate([rows(u_card, 1).ravel(), rows(n1, u_card).ravel(),
                                    rows(n2, u_card).ravel()])[None, :]
            if trial % 2:
                # One zero-mass symbol in the first p(x1|u) row.
                theta[0, u_card] = 0.0
                theta[0, u_card + 1:u_card + n1] /= theta[0, u_card + 1:u_card + n1].sum()
            b1, b2, bsum = batch_pentagon(mac.pmf, *problem.split(theta))
            slack = float(bsum[0] - b1[0] - b2[0])
            if abs(slack) < 1e-4:
                continue  # too close to the kink of the min for a difference
            pieces.add(slack < 0.0)
            d = self._tangent(rng, problem, theta)
            analytic = float(problem.gradient(theta, problem.value(theta, w1, w2)[2],
                                              w1, w2)[0] @ d)
            numeric = float(problem.value(theta + h * d, w1, w2)[1][0]
                            - problem.value(theta - h * d, w1, w2)[1][0]) / (2 * h)
            assert analytic == pytest.approx(numeric, abs=1e-6)
        return pieces

    @pytest.mark.parametrize("n1,erased", [(2, False), (3, False), (2, True)])
    @pytest.mark.parametrize("w1,w2", [(0.8, 0.3), (0.5, 0.5), (0.25, 0.9)])
    def test_directional_derivative_matches_finite_difference(self, n1, erased, w1, w2):
        rng = np.random.default_rng(100 * n1 + int(erased))
        pieces = self._check_finite_differences(rng, n1, 2, erased, 3, w1, w2)
        assert pieces == {True, False}  # both pieces of the min were checked

    @pytest.mark.parametrize("w1,w2", [(0.8, 0.3), (0.25, 0.9)])
    def test_directional_derivative_on_uneven_inputs(self, w1, w2):
        # |X1| = 2, |X2| = 3: a swapped x1/x2 block cannot hide.
        rng = np.random.default_rng(123)
        pieces = self._check_finite_differences(rng, 2, 3, False, 3, w1, w2)
        assert pieces == {True, False}

    def test_directional_derivative_single_u(self):
        # With U = 1 the inputs are independent, so the sum bound never
        # binds alone (bsum <= b1 + b2) and only one piece exists.
        rng = np.random.default_rng(124)
        for n1, n2 in ((2, 3), (3, 2)):
            assert self._check_finite_differences(rng, n1, n2, False, 1, 0.6, 0.7)

    @staticmethod
    def _reference_gradient(problem, theta, w1, w2):
        """The docstring's partials formed in full as a (B, U, n1, n2) array."""
        w = problem.pmf
        p_u, p1, p2 = problem.split(theta)
        b1, b2, bsum = batch_pentagon(w, p_u, p1, p2)
        # The corner value is linear in (b1, b2, bsum) away from ties.
        coef = []
        for k in range(len(b1)):
            tight2 = b2[k] <= bsum[k] - b1[k]
            corner_a = (w1, w2, 0.0) if tight2 else (w1 - w2, 0.0, w2)
            corner_b = (w1, w2, 0.0) if b1[k] <= bsum[k] - b2[k] else (0.0, w2 - w1, w1)
            value = lambda c: c[0] * b1[k] + c[1] * b2[k] + c[2] * bsum[k]
            coef.append(corner_a if value(corner_a) >= value(corner_b) else corner_b)
        c1, c2, cs = (np.array(c)[:, None, None, None, None] for c in zip(*coef))
        p_y_ux1 = (p2[:, :, None, :, None] * w).sum(axis=3)
        p_y_ux2 = (p1[:, :, :, None, None] * w).sum(axis=2)
        p_y = (p_u[:, :, None, None, None] * p1[:, :, :, None, None]
               * p2[:, :, None, :, None] * w).sum(axis=(1, 2, 3))
        log = lambda p: np.log2(np.maximum(p, 1e-300))
        d = (w * ((c1 + c2 + cs) * np.where(w > 0.0, log(w), 0.0)
                  - c1 * log(p_y_ux2)[:, :, None, :, :]
                  - c2 * log(p_y_ux1)[:, :, :, None, :]
                  - cs * log(p_y)[:, None, None, None, :])).sum(axis=4)
        g_u = (p1[..., :, None] * p2[..., None, :] * d).sum(axis=(2, 3))
        g1 = p_u[..., None] * (p2[..., None, :] * d).sum(axis=3)
        g2 = p_u[..., None] * (p1[..., :, None] * d).sum(axis=2)
        b = theta.shape[0]
        return np.concatenate([regions._centre_on_support(p_u, g_u),
                               regions._centre_on_support(p1, g1).reshape(b, -1),
                               regions._centre_on_support(p2, g2).reshape(b, -1)], axis=1)

    @pytest.mark.parametrize("n1,n2,u_card", [(2, 2, 3), (3, 2, 3), (2, 3, 3), (2, 3, 1),
                                              (3, 3, 2)])
    def test_matches_full_partials_on_batches(self, n1, n2, u_card):
        # Batches of several rows, one row, and stride-0 broadcast rows, with
        # zero-mass symbols and a zero-mass U symbol in every other row.
        rng = np.random.default_rng(200 + 10 * n1 + n2 + u_card)
        for trial in range(6):
            mac = random_mac(rng, n1=n1, n2=n2, ny=4)
            if trial % 3 == 2:
                mac = erasure_extend(mac, 0.5)
            problem = _AscentProblem(mac, u_card)
            w1, w2 = rng.uniform(0.1, 1.0, size=2)
            starts = [np.concatenate([rng.dirichlet(np.ones(u_card)),
                                      rng.dirichlet(np.ones(n1), size=u_card).ravel(),
                                      rng.dirichlet(np.ones(n2), size=u_card).ravel()])
                      for _ in range(7)]
            theta = np.array(starts)
            theta[1::2, u_card] = 0.0  # a zero-mass x1 symbol given u0
            x1_u0 = theta[1::2, u_card:u_card + n1]  # a view: divided in place
            x1_u0 /= x1_u0.sum(axis=1, keepdims=True)
            if u_card > 1:
                theta[::3, u_card - 1] = 0.0  # a zero-mass U symbol
                theta[::3, :u_card] /= theta[::3, :u_card].sum(axis=1, keepdims=True)
            want = self._reference_gradient(problem, theta, w1, w2)
            scale = max(1.0, np.abs(want).max())
            got = problem.gradient(theta, problem.value(theta, w1, w2)[2], w1, w2)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)
            one = problem.gradient(theta[:1], problem.value(theta[:1], w1, w2)[2], w1, w2)
            np.testing.assert_allclose(one, want[:1], rtol=0, atol=1e-12 * scale)
            shared = np.broadcast_to(theta[1], theta.shape)
            got = problem.gradient(shared, np.broadcast_to(problem.value(theta[1:2], w1, w2)[2],
                                                           (len(theta),)), w1, w2)
            np.testing.assert_allclose(got, np.broadcast_to(want[1], want.shape),
                                       rtol=0, atol=1e-12 * scale)

    def test_centre_on_support(self):
        # Each row loses its mean over the support of p, off-support
        # entries included.
        p = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5]])
        g = np.array([[1.0, 5.0, 3.0], [2.0, 4.0, 8.0], [1.0, 2.0, 6.0]])
        np.testing.assert_array_equal(regions._centre_on_support(p, g),
                                      [[-1.0, 3.0, 1.0], [-2.0, 0.0, 4.0], [-2.0, -1.0, 3.0]])

    def test_zero_mass_partials_finite(self):
        # All mass sits on u0 with both inputs 0, so only adder output 0 is
        # reached. Mass moved onto x1 = 1 or x2 = 1 given u0 reaches output
        # 1: an infinite partial, which the gradient caps. The rows of the
        # massless u1 get exact zero partials.
        problem = _AscentProblem(catalog.adder_mac(), 2)
        theta = np.array([[1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0]])
        grad = problem.gradient(theta, problem.value(theta, 1.0, 1.0)[2], 1.0, 1.0)[0]
        assert np.isfinite(grad).all()
        assert grad[3] > 100.0 and grad[7] > 100.0
        assert grad[2] == grad[6] == 0.0  # centred on the support
        assert not grad[4:6].any() and not grad[8:].any()

    def test_adder_sum_rate_floor(self):
        f = cover_leung_frontier(catalog.adder_mac(), weights=[(1.0, 1.0)],
                                 restarts=25, seed=0)
        assert f.points[0].rates.r1 + f.points[0].rates.r2 >= 1.5818403

    def test_erasure_scaling_invariance(self):
        report = erasure_scaling_check(catalog.adder_mac(), 0.5,
                                       weights=default_weight_fan(3))
        assert report.max_abs_gap < 1e-6


def _lockstep_ascent(problem, theta0, w1, w2, max_iter, cut_short, stalls=1):
    """One direction's ascent with every row in lockstep, as it ran before
    directions were pooled; a row stops after ``stalls`` consecutive
    non-improving steps. Appends to ``cut_short`` whether ``max_iter``
    stopped rows that were still improving."""
    s, dim = theta0.shape
    theta, best, active = problem.value(theta0, w1, w2)
    stall = np.zeros(s, dtype=np.int64)
    ladder = np.asarray(regions._STEP_LADDER)
    for _ in range(max_iter):
        idx = np.flatnonzero(stall < stalls)
        if idx.size == 0:
            break
        th = theta[idx]
        grads = problem.gradient(th, active[idx], w1, w2)
        scale = np.abs(grads).max(axis=1)
        alive = scale > 0.0
        dirs = grads / np.maximum(scale, 1e-300)[:, None]
        cands = th[:, None, :] + ladder[None, :, None] * dirs[:, None, :]
        cthetas, cvals, cactive = problem.value(cands.reshape(-1, dim), w1, w2)
        cvals = cvals.reshape(idx.size, -1)
        pick = (np.arange(idx.size), np.argmax(cvals, axis=1))
        cbest = cvals[pick]
        improved = alive & (cbest > best[idx] + regions._IMPROVE_TOL)
        gi = idx[improved]
        theta[gi] = cthetas.reshape(idx.size, -1, dim)[pick][improved]
        best[gi] = cbest[improved]
        active[gi] = cactive.reshape(idx.size, -1)[pick][improved]
        stall[gi] = 0
        stall[idx[~improved]] += 1
        stall[idx[~alive]] = stalls
    cut_short.append(bool((stall < stalls).any()))
    return theta, best


def _uncertified(monkeypatch):
    """Force every direction's outer value to +inf: no start is certified.

    The users' capacity uppers are patched to +inf, so an axis direction's
    outer value is 1 * inf + 0 * inf, NaN, which certifies no start either.
    """
    real = regions._structured_starts
    monkeypatch.setattr(regions, "_structured_starts",
                        lambda *args: (real(*args)[0], (math.inf, math.inf)))


def _frontier_by_direction(monkeypatch, mac, stalls=1, **kwargs):
    """cover_leung_frontier with each direction's rows ascended on their own,
    in lockstep, stopping a row after ``stalls`` non-improving steps and
    certifying none; returns the frontier, the number of ascent rows and the
    per-direction cut-short flags."""
    n_rows, cut_short = [], []

    def by_direction(self, theta0, w1, w2, outer, max_iter=120):
        n_rows.append(theta0.shape[0] * theta0.shape[1])
        thetas, vals = np.empty_like(theta0), np.empty(theta0.shape[:2])
        for k in range(len(theta0)):
            thetas[k], vals[k] = _lockstep_ascent(
                self, theta0[k], w1[k], w2[k], max_iter, cut_short, stalls)
        return thetas, vals

    with monkeypatch.context() as m:
        m.setattr(_AscentProblem, "ascend", by_direction)
        return cover_leung_frontier(mac, **kwargs), sum(n_rows), cut_short


class TestPooledAscent:
    """The pooled fan against one lockstep ascent per direction, bit for bit.

    No start is certified here (:func:`_uncertified`), so every start
    ascends until it stops; :class:`TestCertifiedStop` compares the stop
    against these runs.
    """

    @staticmethod
    def _assert_same_points(got, want):
        assert len(got.points) == len(want.points)
        for a, b in zip(got.points, want.points):
            assert a.weights == b.weights
            assert a.value == b.value and a.rates == b.rates
            for part in ("p_x1_given_u", "p_x2_given_u"):
                assert np.array_equal(getattr(a.witness, part).rows,
                                      getattr(b.witness, part).rows)
            assert np.array_equal(a.witness.p_u.probs, b.witness.p_u.probs)

    @staticmethod
    def _case(case):
        if case == "adder17":
            return catalog.adder_mac(), dict(weights=default_weight_fan(17), restarts=25)
        if case == "erased_adder7":
            mac = erasure_extend(catalog.adder_mac(), 0.5)
            return mac, dict(weights=default_weight_fan(7), restarts=25, seed=4)
        if case == "bsc17":
            return catalog.binary_symmetric_mac(0.11), dict(weights=default_weight_fan(17))
        mac = random_mac(np.random.default_rng(11), n1=3, n2=3, ny=4)
        return mac, dict(weights=default_weight_fan(5), restarts=10, seed=2, max_iter=20)

    @staticmethod
    def _count_rows(monkeypatch):
        """Pentagon rows evaluated; append 0 to the list to start a count."""
        evaluated = []
        real = regions.batch_pentagon

        def counting(mac_pmf, p_u, *args, **kw):
            evaluated[-1] += len(p_u)
            return real(mac_pmf, p_u, *args, **kw)

        monkeypatch.setattr(regions, "batch_pentagon", counting)
        return evaluated

    @pytest.mark.parametrize("case,slots", [("adder17", None), ("erased_adder7", None),
                                            ("erased_adder7", 7), ("erased_adder7", 1),
                                            ("random_max_iter", None),
                                            ("random_max_iter", 7)])
    def test_pool_equals_per_direction_runs(self, case, slots, monkeypatch):
        _uncertified(monkeypatch)
        mac, kwargs = self._case(case)
        if slots is not None:
            monkeypatch.setattr(regions, "_SLOTS", slots)
        evaluated = self._count_rows(monkeypatch)  # by each run
        evaluated.append(0)
        want, n_rows, cut_short = _frontier_by_direction(monkeypatch, mac, **kwargs)
        evaluated.append(0)
        got = cover_leung_frontier(mac, **kwargs)
        self._assert_same_points(got, want)
        # Every row takes the steps it takes alone, no more and no fewer.
        assert evaluated[0] == evaluated[1]
        # The pool is exercised: its rows outnumber the slots, and on the
        # random MAC max_iter stops still-improving rows, which the slots
        # started at different steps.
        assert n_rows > (slots or regions._SLOTS)
        if case == "random_max_iter":
            assert any(cut_short)

    @pytest.mark.parametrize("case", ["adder17", "erased_adder7", "bsc17", "random_max_iter"])
    def test_two_stall_rule_gives_the_same_points(self, case, monkeypatch):
        # A step that does not improve leaves its row as it was, so the
        # second non-improving step the old rule waited for repeated the
        # first bit for bit: stopping at the first one only saves rows.
        _uncertified(monkeypatch)
        mac, kwargs = self._case(case)
        evaluated = self._count_rows(monkeypatch)
        evaluated.append(0)
        old, _, _ = _frontier_by_direction(monkeypatch, mac, stalls=2, **kwargs)
        evaluated.append(0)
        self._assert_same_points(cover_leung_frontier(mac, **kwargs), old)
        assert evaluated[1] < evaluated[0]

    def test_lone_row_takes_the_same_steps(self, monkeypatch):
        # Rows that start late in a small pool end where they end alone.
        mac = random_mac(np.random.default_rng(12), n1=2, n2=3, ny=3)
        problem = _AscentProblem(mac, 3)
        rng = np.random.default_rng(5)
        # Nine one-start directions, none certified.
        theta0 = regions._random_starts(rng, problem, 9)[:, None]
        w1 = rng.uniform(0.1, 1.0, size=9)
        w2 = rng.uniform(0.1, 1.0, size=9)
        outer = np.full(9, np.inf)
        monkeypatch.setattr(regions, "_SLOTS", 2)
        thetas, vals = problem.ascend(theta0, w1, w2, outer, max_iter=6)
        for k in range(9):
            alone, val = problem.ascend(theta0[k:k + 1], w1[k:k + 1], w2[k:k + 1],
                                        outer[k:k + 1], max_iter=6)
            assert np.array_equal(thetas[k], alone[0]) and vals[k] == val[0]

    def test_max_iter_zero_returns_projected_starts(self):
        mac = catalog.adder_mac()
        problem = _AscentProblem(mac, 2)
        theta0 = regions._random_starts(np.random.default_rng(1), problem, 1)
        thetas, vals = problem.ascend(theta0[None], np.array([1.0]), np.array([1.0]),
                                      np.array([np.inf]), max_iter=0)
        proj, want, _ = problem.value(theta0, 1.0, 1.0)
        assert np.array_equal(thetas[0], proj) and np.array_equal(vals[0], want)


class TestCertifiedStop:
    """A direction's starts after its first certified one leave the pool.

    Against the same call with every outer value forced to +inf
    (:func:`_uncertified`), the points are bit for bit the same, and a
    call saves rows wherever a direction has a certified start: here only
    axis directions do.
    """

    @staticmethod
    def _case(case):
        if case in ("adder10", "adder01"):
            return catalog.adder_mac(), dict(weights=[(1.0, 0.0) if case == "adder10"
                                                      else (0.0, 1.0)])
        if case == "adder17_u1":
            return catalog.adder_mac(), dict(weights=default_weight_fan(17), u_card=1)
        return TestPooledAscent._case(case)

    @pytest.mark.parametrize("case", ["adder17", "erased_adder7", "bsc17", "random_max_iter",
                                      "adder10", "adder01", "adder17_u1"])
    def test_stop_changes_no_point(self, case, monkeypatch):
        mac, kwargs = self._case(case)
        evaluated = TestPooledAscent._count_rows(monkeypatch)
        evaluated.append(0)
        got = cover_leung_frontier(mac, **kwargs)
        _uncertified(monkeypatch)
        evaluated.append(0)
        TestPooledAscent._assert_same_points(got, cover_leung_frontier(mac, **kwargs))
        # Every fan here holds an axis direction.
        assert evaluated[0] < evaluated[1]

    @pytest.mark.parametrize("weight", [(1.0, 0.0), (0.0, 1.0)])
    def test_lone_axis_direction_steps_one_start(self, weight, monkeypatch):
        # On the adder the uniform start already scores the single-user
        # capacity, 1 bit, so every later start leaves before the first
        # step and start 0 steps alone.
        runs = []
        real = _AscentProblem.ascend

        def recording(self, theta0, w1, w2, outer, max_iter=120):
            out = real(self, theta0, w1, w2, outer, max_iter=max_iter)
            runs.append((theta0.shape[1], outer, out[1]))
            return out

        monkeypatch.setattr(_AscentProblem, "ascend", recording)
        evaluated = TestPooledAscent._count_rows(monkeypatch)
        evaluated.append(0)
        cover_leung_frontier(catalog.adder_mac(), weights=[weight])
        (per_dir, outer, vals), = runs
        assert outer[0] == 1.0 and vals[0, 0] >= 1.0 - regions._WITNESS_TIE
        assert per_dir < evaluated[0] <= per_dir + 2 * len(regions._STEP_LADDER)


class TestCutset:
    def test_pf_erasure_adder(self):
        assert cutset_single_rate(catalog.erasure_adder_mac(0.5), 1, "PF") == \
            pytest.approx(0.5, abs=1e-8)

    def test_if_erasure_adder_two_looks(self):
        # The pair (Y, Y') is erased only when both looks are erased, so the
        # two-look channel is an erasure channel at p^2 = 0.25; the lattice
        # oracle certifies the same value.
        mac = catalog.erasure_adder_mac(0.5)
        value = cutset_single_rate(mac, 1, "IF", tol=1e-10)
        assert value == pytest.approx(0.75, abs=1e-8)
        ch = two_look_channel(partner_channels(mac, 1)["0"])
        oracle, gap = grid_capacity(ch, GridSpec(resolution=64, max_dims=2))
        assert oracle - 1e-9 <= value <= oracle + gap

    def test_if_equals_df(self):
        mac = catalog.erasure_adder_mac(0.3)
        assert cutset_single_rate(mac, 1, "IF") == cutset_single_rate(mac, 1, "DF")

    def test_if_equals_pf_on_noiseless(self):
        mac = catalog.adder_mac()
        pf = cutset_single_rate(mac, 1, "PF", tol=1e-10)
        iff = cutset_single_rate(mac, 1, "IF", tol=1e-10)
        assert iff == pytest.approx(pf, abs=1e-8)

    def test_sum_rate_values(self):
        assert cutset_sum_rate(catalog.erasure_adder_mac(0.0)) == \
            pytest.approx(math.log2(3), abs=1e-8)
        assert cutset_sum_rate(catalog.binary_symmetric_mac(0.5)) == \
            pytest.approx(0.0, abs=1e-9)
        assert cutset_sum_rate(catalog.binary_symmetric_mac(0.0)) == \
            pytest.approx(1.0, abs=1e-9)

    def test_composite_labels_keep_pairs_distinct(self):
        # Pair labels were "(a,b)" unescaped, so ("a", "b,c") and ("a,b", "c")
        # collided: the joint-input and two-look solves rejected these
        # valid channels. Labels do not enter the values.
        plain = random_mac(np.random.default_rng(9), n1=2, n2=2, ny=4)
        inputs = Mac(("a", "a,b"), ("b,c", "c"), plain.y_alphabet, plain.pmf)
        outputs = Mac(plain.x1_alphabet, plain.x2_alphabet, ("a", "a,b", "b,c", "c"), plain.pmf)
        assert cutset_sum_rate(inputs) == cutset_sum_rate(plain)
        for user in (1, 2):
            assert cutset_single_rate(outputs, user, "IF") == cutset_single_rate(plain, user, "IF")

    def test_bad_model_rejected(self):
        with pytest.raises(InputError):
            cutset_single_rate(catalog.adder_mac(), 1, "XX")

    def test_cut_short_bounds_stay_above_inner_rates(self, monkeypatch):
        # Outer values read the upper end of the capacity certificate, so
        # a solve stopped after one step still bounds the inner rates. A
        # two-input channel's gap at P(X=1) = 1/2 is at most one bit, so at
        # tol 1 the exact solve stops at its first point; the 3x3 MACs'
        # solves stop at their first certificate within tol 1, and the
        # joint-input solve is cut to one step.
        rng = np.random.default_rng(8)
        macs = ([random_mac(rng, n1=2, n2=2, ny=3) for _ in range(5)]
                + [random_mac(rng, n1=3, n2=3, ny=4) for _ in range(3)])
        inner = [[single_rate_capacity(mac, user).value for user in (1, 2)] for mac in macs]
        single = regions.max_support_input
        joint = regions.maximize_joint_mi

        def joint_cut_short(mac, tol):
            with monkeypatch.context() as m:
                m.setattr(optimize, "_NEWTON_STEPS", 1)
                return joint(mac, tol=tol)

        monkeypatch.setattr(regions, "max_support_input",
                            lambda ch, tol: single(ch, tol=1.0))
        monkeypatch.setattr(regions, "maximize_joint_mi", joint_cut_short)
        for mac, (s1, s2) in zip(macs, inner):
            assert cutset_single_rate(mac, 1, "PF") >= s1
            assert cutset_single_rate(mac, 2, "PF") >= s2
            assert cutset_sum_rate(mac) >= max(s1, s2)

    def test_binary_inputs_run_no_iteration(self, monkeypatch):
        # One- and two-look channels of a binary-input MAC have two inputs,
        # so the per-user bounds take the exact solve; the joint-input
        # sum-rate bound takes the KKT solve, which runs no iteration.
        calls = []
        real = optimize.blahut_arimoto

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimize, "blahut_arimoto", counting)
        mac = catalog.erasure_adder_mac(0.5)
        for user in (1, 2):
            for model in ("PF", "IF", "DF"):
                cutset_single_rate(mac, user, model)
        assert calls == []
        cutset_sum_rate(mac)
        assert calls == []


class TestRatePair:
    def test_clamps_dust(self):
        rp = RatePair(-1e-13, 0.5)
        assert rp.r1 == 0.0

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            RatePair(-0.1, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", ["r1", "r2"])
    def test_rejects_non_finite(self, at, bad):
        rates = {"r1": 0.0, "r2": 0.0, at: bad}
        with pytest.raises(InputError, match=rf"^RatePair: {at} is not finite \({bad!r}\)$"):
            RatePair(**rates)

    def test_csv_header(self):
        mac = catalog.erasure_adder_mac(1.0)
        f = cover_leung_frontier(mac, weights=[(1.0, 1.0)], restarts=1, seed=0)
        text = f.to_csv()
        assert text.splitlines()[0] == "w1,w2,R1,R2,provenance"
        assert "inner_bound" in text
