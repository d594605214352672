"""Lattice sweeps and partition enumeration against the fast paths."""

import math
from itertools import product

import numpy as np
import pytest

from macfeedback import (ConditionalPmf, GridSpec, InputError, RatePair, blahut_arimoto,
                         brute_force_condition2, channel_given_sum, cover_leung_frontier,
                         cutset_sum_rate, equivalence_classes, grid_capacity,
                         grid_cl_point, induced_channel, single_rate_capacity)
from macfeedback import catalog, oracle
from macfeedback._util import lattice_points
from macfeedback.regions import batch_pentagon, pentagon_corners

from _gen import random_conditional, random_mac


class TestGridCapacity:
    def test_noiseless_bsc_exact_on_lattice(self):
        ch = ConditionalPmf(("0", "1"), ("0", "1"), np.eye(2))
        value, gap = grid_capacity(ch, GridSpec(resolution=64))
        assert value == pytest.approx(1.0, abs=1e-12)
        assert gap > 0.0

    def test_bec_half_uniform_on_lattice(self):
        ch = ConditionalPmf(("0", "1"), ("0", "1", "e"),
                            np.array([[0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]))
        value, _ = grid_capacity(ch, GridSpec(resolution=64))
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_grid_is_a_restriction(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ch = random_conditional(rng, 2, 3)
            value, _ = grid_capacity(ch, GridSpec(resolution=64))
            assert value <= blahut_arimoto(ch, tol=1e-10).value + 1e-6

    def test_sandwich_random(self):
        rng = np.random.default_rng(1)
        grid = GridSpec(resolution=64, max_dims=3)
        for _ in range(50):
            ch = random_conditional(rng, 2, int(rng.integers(2, 5)))
            oracle, gap = grid_capacity(ch, grid)
            ba = blahut_arimoto(ch, tol=1e-10).value
            assert oracle - 1e-9 <= ba <= oracle + gap

    def test_dimension_cap(self):
        rng = np.random.default_rng(2)
        ch = random_conditional(rng, 4, 3)
        with pytest.raises(InputError):
            grid_capacity(ch, GridSpec(resolution=16, max_dims=3))


class TestGridClPoint:
    def test_single_user_weight_noiseless_adder(self):
        rp = grid_cl_point(catalog.adder_mac(), (1.0, 0.0),
                           GridSpec(resolution=32), u_card=1)
        assert rp.r1 == pytest.approx(1.0, abs=1e-12)

    def test_fully_erased_zero(self):
        rp = grid_cl_point(catalog.erasure_adder_mac(1.0), (1.0, 1.0),
                           GridSpec(resolution=8), u_card=1)
        assert rp.r1 + rp.r2 < 1e-9

    def test_oracle_vs_optimizer_sum_weight(self):
        mac = catalog.adder_mac()
        grid = GridSpec(resolution=16)
        rp = grid_cl_point(mac, (1.0, 1.0), grid, u_card=2)
        oracle_value = rp.r1 + rp.r2
        f = cover_leung_frontier(mac, weights=[(1.0, 1.0)], restarts=8, seed=0)
        opt_value = f.points[0].value
        # Both are sum rates of feasible Cover-Leung inputs at weight (1, 1),
        # so neither can pass the cut-set sum rate (log2 3 on the adder).
        cutset = cutset_sum_rate(mac)
        assert cutset == pytest.approx(math.log2(3), abs=1e-9)
        assert oracle_value <= cutset + 1e-9
        assert opt_value <= cutset + 1e-9
        # The ascent should not fall behind an N=16 lattice by more than
        # optimizer noise.
        assert opt_value >= oracle_value - 5e-3

    @pytest.mark.parametrize("c", [1e-300, 1e-12, 1e300])
    def test_weight_scale_moves_no_point(self, c):
        # The sweep weighs by the pair's direction, so (c, c) is (1, 1).
        mac, grid = catalog.adder_mac(), GridSpec(resolution=10)
        assert (grid_cl_point(mac, (c, c), grid, u_card=2)
                == grid_cl_point(mac, (1.0, 1.0), grid, u_card=2))

    def test_caps_enforced(self):
        rng = np.random.default_rng(3)
        with pytest.raises(InputError):
            grid_cl_point(random_mac(rng, n1=3), (1.0, 1.0), GridSpec(resolution=8))
        with pytest.raises(InputError):
            grid_cl_point(catalog.adder_mac(), (1.0, 1.0), GridSpec(resolution=8),
                          u_card=3)
        with pytest.raises(InputError):
            grid_cl_point(catalog.adder_mac(), (0.0, 0.0), GridSpec(resolution=8))

    @pytest.mark.parametrize("name,value", [("resolution", 2.5), ("resolution", np.float64(4.0)),
                                            ("resolution", True), ("resolution", 1),
                                            ("max_dims", 2.5), ("max_dims", True),
                                            ("max_dims", 0)])
    def test_grid_counts_checked(self, name, value):
        with pytest.raises(InputError, match=name):
            GridSpec(**{name: value})

    def test_numpy_integer_grid_counts_accepted(self):
        grid = GridSpec(resolution=np.int64(4), max_dims=np.int32(2))
        assert grid_capacity(ConditionalPmf(("0", "1"), ("0", "1"), np.eye(2)), grid)[0] == 1.0

    @pytest.mark.parametrize("u_card", [True, 1.0, 0, "1"])
    def test_u_card_must_be_an_integer(self, u_card):
        with pytest.raises(InputError, match="u_card"):
            grid_cl_point(catalog.adder_mac(), (1.0, 1.0), GridSpec(resolution=4), u_card=u_card)


def _lattice_inputs(mac, resolution, u_card):
    """Every frontier lattice point as batch_pentagon rows, in lattice order:
    p(u) slowest, then the p(x1|u) rows, then the p(x2|u) rows."""
    n1, n2, _ = mac.shape
    rows1, rows2 = lattice_points(resolution, n1), lattice_points(resolution, n2)
    px1_all = rows1[np.array(list(product(range(len(rows1)), repeat=u_card)))]
    px2_all = rows2[np.array(list(product(range(len(rows2)), repeat=u_card)))]
    pu = lattice_points(resolution, u_card)
    c1, c2 = len(px1_all), len(px2_all)
    return (np.repeat(pu, c1 * c2, axis=0), np.tile(np.repeat(px1_all, c2, axis=0), (len(pu), 1, 1)),
            np.tile(px2_all, (len(pu) * c1, 1, 1)), c2)


def _grid_cl_point_by_row(mac, weight, resolution, u_card):
    """The lattice frontier sweep with one batch_pentagon call per
    (p(u), p(x1|u)) lattice row; the first point within 1e-12 of the best
    value wins."""
    p_u, p_x1, p_x2, c2 = _lattice_inputs(mac, resolution, u_card)
    vals, r1, r2 = [], [], []
    for lo in range(0, len(p_u), c2):
        rows = slice(lo, lo + c2)
        v, a, b = pentagon_corners(*batch_pentagon(mac.pmf, p_u[rows], p_x1[rows], p_x2[rows]),
                                   *weight)
        vals.append(v), r1.append(a), r2.append(b)
    vals, r1, r2 = np.concatenate(vals), np.concatenate(r1), np.concatenate(r2)
    k = int(np.flatnonzero(vals >= vals.max() - 1e-12)[0])
    return RatePair(float(r1[k]), float(r2[k]))


def _lattice_macs():
    rng = np.random.default_rng(9)
    return (catalog.adder_mac(), catalog.binary_symmetric_mac(0.11),
            catalog.erasure_adder_mac(0.5), random_mac(rng, n1=2, n2=2, ny=3))


class TestGridClPointBlocks:
    @pytest.mark.parametrize("u_card", [1, 2])
    @pytest.mark.parametrize("weight", [(1.0, 1.0), (0.7, 0.2)])
    def test_blocks_equal_row_sweep(self, weight, u_card):
        for mac in _lattice_macs():
            got = grid_cl_point(mac, weight, GridSpec(resolution=6), u_card=u_card)
            assert got == _grid_cl_point_by_row(mac, weight, 6, u_card)

    @pytest.mark.parametrize("u_card", [1, 2])
    @pytest.mark.parametrize("weight", [(1.0, 1.0), (0.7, 0.2)])
    def test_resolution_10(self, weight, u_card):
        # The frontier workload's configuration: the adder and bsc(0.11) at
        # (1, 1), u_card 2. On the random MAC at (1, 1), u_card 1,
        # batch_pentagon gives the winner other last bits alone than in a
        # batch of rows.
        for mac in _lattice_macs():
            got = grid_cl_point(mac, weight, GridSpec(resolution=10), u_card=u_card)
            assert got == _grid_cl_point_by_row(mac, weight, 10, u_card)

    @pytest.mark.parametrize("u_card", [1, 2])
    def test_factored_bounds_match_batch_pentagon(self, u_card):
        # The per-symbol tables and the batched kernel are independent
        # derivations of the same three bounds at every lattice point.
        for mac in _lattice_macs():
            pu, rows1, rows2 = (lattice_points(6, n) for n in (u_card, 2, 2))
            tables = oracle._pair_tables(mac.pmf, rows1, rows2)
            blocks = ([(0, None)] if u_card == 1
                      else [(p, i0) for p in range(len(pu)) for i0 in range(len(rows1))])
            got = [np.concatenate(b) for b in zip(*(
                oracle._block_bounds(tables, pu, *block) for block in blocks))]
            p_u, p_x1, p_x2, _ = _lattice_inputs(mac, 6, u_card)
            want = batch_pentagon(mac.pmf, p_u, p_x1, p_x2)
            for g, w in zip(got, want):
                assert g.shape == w.shape == (len(pu) * 7 ** (2 * u_card),)
                np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-13)


class TestBruteForceCondition2:
    def test_identity_channel(self):
        ch = ConditionalPmf(("a", "b", "c"), ("0", "1", "2"), np.eye(3))
        assert brute_force_condition2(ch)

    def test_half_erased_adder_support(self):
        ch = channel_given_sum(catalog.erasure_adder_mac(0.5),
                               catalog.erasure_adder_group())
        assert not brute_force_condition2(ch, support=("0", "1"))

    def test_fully_erased(self):
        ch = channel_given_sum(catalog.erasure_adder_mac(1.0),
                               catalog.erasure_adder_group())
        assert brute_force_condition2(ch, support=("0", "1"))

    def test_agreement_with_partition(self):
        # The component partition decides existence: exact agreement on
        # randomly sparsified channels.
        rng = np.random.default_rng(4)
        disagreements = 0
        for _ in range(300):
            n_in = int(rng.integers(2, 5))
            n_out = int(rng.integers(2, 6))
            ch = random_conditional(rng, n_in, n_out,
                                    sparsity=float(rng.uniform(0.0, 0.7)))
            lhs = brute_force_condition2(ch)
            rhs = equivalence_classes(ch).markov_ok
            disagreements += int(lhs != rhs)
        assert disagreements == 0

    def test_caps_enforced(self):
        rng = np.random.default_rng(5)
        with pytest.raises(InputError):
            brute_force_condition2(random_conditional(rng, 6, 3))
        with pytest.raises(InputError):
            brute_force_condition2(random_conditional(rng, 3, 7))

    def test_unknown_support_symbol_rejected(self):
        # As equivalence_classes, which this search cross-checks, rejects it.
        ch = channel_given_sum(catalog.erasure_adder_mac(0.5),
                               catalog.erasure_adder_group())
        with pytest.raises(InputError, match="support symbol 'nope'"):
            brute_force_condition2(ch, support=("0", "nope"))


class TestOracleAgainstCheckers:
    def test_single_rate_within_grid_gap(self):
        mac = catalog.erasure_adder_mac(0.5)
        sr = single_rate_capacity(mac, 1)
        ch = induced_channel(mac, 2, sr.xk_star)
        oracle, gap = grid_capacity(ch, GridSpec(resolution=64))
        assert oracle - 1e-9 <= sr.value <= oracle + gap
