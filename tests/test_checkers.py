"""Decision procedures: single-rate capacity, gain condition, curve, scaling."""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from macfeedback import (InputError, JointDist, Mac, Pmf, binary_entropy,
                         classify_additive_gain, compress_forward_curve,
                         conditional_entropy, conditional_mi, cutset_single_rate,
                         erasure_scaling_check, gain_sufficient_condition,
                         independent_copy_joint, load_channel_file,
                         maximize_joint_mi, mutual_information, partner_channels,
                         save_channel, single_rate_capacity)
from macfeedback import catalog, checkers
from macfeedback.channel import two_look_channel, two_look_rows
from macfeedback.infotheory import kl_divergence_vec
from macfeedback.cli import main

from _gen import cyclic_group, random_mac


def _cf_joint(mac, user, xk_star, xbar_k, p_star, a):
    """(free axis, partner axis, two-look named-axis joint) at mixing weight a."""
    other_alpha = mac.x2_alphabet if user == 1 else mac.x1_alphabet
    pk = np.zeros(len(other_alpha))
    pk[other_alpha.index(xk_star)] += 1.0 - a
    pk[other_alpha.index(xbar_k)] += a
    p1, p2 = (p_star.probs, pk) if user == 1 else (pk, p_star.probs)
    inputs = JointDist((("x1", mac.x1_alphabet), ("x2", mac.x2_alphabet)),
                       np.outer(p1, p2))
    j, k = ("x1", "x2") if user == 1 else ("x2", "x1")
    return j, k, independent_copy_joint(mac, inputs, copies=2)


def blurred_erasure_adder(p, blur):
    """Erasure adder mixed with uniform output noise: full-support rows."""
    base = catalog.erasure_adder_mac(p)
    ny = len(base.y_alphabet)
    pmf = (1 - blur) * base.pmf + blur / ny
    return Mac(base.x1_alphabet, base.x2_alphabet, base.y_alphabet, pmf)


class TestSingleRateCapacity:
    def test_erasure_adder_both_partners_tie(self):
        res = single_rate_capacity(catalog.erasure_adder_mac(0.5), 1)
        assert res.value == pytest.approx(0.5, abs=1e-8)
        assert res.maximizer_set == ("0", "1")
        assert np.abs(res.p_star.probs - 0.5).max() < 1e-6

    def test_user2_symmetric(self):
        res = single_rate_capacity(catalog.erasure_adder_mac(0.25), 2)
        assert res.value == pytest.approx(0.75, abs=1e-8)

    def test_binary_symmetric_no_noise(self):
        res = single_rate_capacity(catalog.binary_symmetric_mac(0.0), 1)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_fully_erased_zero(self):
        res = single_rate_capacity(catalog.erasure_adder_mac(1.0), 1)
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_value_is_the_printed_witness_value(self):
        # Partner symbols 0 and 1 tie up to rounding: the maximum is symbol
        # 1's value, 0.226324763584846, but label order prints symbol 0.
        rows = np.array([[0.6, 0.3, 0.1], [0.2, 0.2, 0.6]])
        pmf = np.stack([rows, rows[:, [0, 2, 1]]], axis=1)
        mac = Mac(("0", "1"), ("0", "1"), ("0", "1", "2"), pmf)
        res = single_rate_capacity(mac, 1)
        assert res.xk_star == "0" and res.per_symbol["1"] > res.per_symbol["0"]
        assert res.value == res.per_symbol["0"]

    def test_matches_pf_cutset_random(self):
        rng = np.random.default_rng(0)
        for _ in range(15):
            mac = random_mac(rng, ny=int(rng.integers(2, 5)))
            sr = single_rate_capacity(mac, 1, tol=1e-9)
            pf = cutset_single_rate(mac, 1, "PF", tol=1e-10)
            assert abs(sr.value - pf) < 1e-8


class TestGainSufficientCondition:
    def test_erasure_adder_holds(self):
        rep = gain_sufficient_condition(single_rate_capacity(catalog.erasure_adder_mac(0.5), 1))
        assert rep.holds
        p_star, xk_star, xbar = rep.witness
        assert {xk_star, xbar} == {"0", "1"}
        assert rep.lhs == math.inf  # support mismatch makes the divergence blow up
        assert rep.rhs == pytest.approx(0.5, abs=1e-8)

    def test_erasure_adder_family_holds(self):
        for p in (0.1, 0.3, 0.7, 0.9):
            rep = gain_sufficient_condition(single_rate_capacity(catalog.erasure_adder_mac(p), 1))
            assert rep.holds, f"expected a strict gain at p={p}"

    def test_binary_symmetric_fails(self):
        rep = gain_sufficient_condition(
            single_rate_capacity(catalog.binary_symmetric_mac(0.11), 1))
        assert not rep.holds
        assert not rep.degenerate_denominator
        assert rep.note == "representative maximizers only"

    def test_noiseless_adder_degenerate(self):
        # Deterministic output: the second look never differs from the
        # first, every pair is skipped on a vanishing denominator.
        rep = gain_sufficient_condition(single_rate_capacity(catalog.erasure_adder_mac(0.0), 1))
        assert not rep.holds
        assert rep.degenerate_denominator
        assert all(p.skipped_degenerate for p in rep.pairs)

    def test_pairs_logged(self):
        rep = gain_sufficient_condition(single_rate_capacity(catalog.binary_symmetric_mac(0.2), 1))
        assert len(rep.pairs) == 4  # both tied partners times both alternatives

    def test_evaluates_the_single_rate_witness_first(self):
        # Capacities 8.3e-14 apart: within single_rate_capacity's 1e-13 tie
        # window, so it names "0", though "1" is the larger float.
        q0 = 0.0538175
        pmf = np.array([[[1 - q, q] for q in (q0, q0 - 2e-14)],
                        [[q, 1 - q] for q in (q0, q0 - 2e-14)]])
        sr = single_rate_capacity(Mac(("0", "1"), ("0", "1"), ("0", "1"), pmf), 1)
        assert sr.per_symbol["0"] < sr.per_symbol["1"] and sr.xk_star == "0"
        rep = gain_sufficient_condition(sr)
        assert [p.xk_star for p in rep.pairs] == ["0", "0", "1", "1"]

    def test_report_serializes(self):
        import json

        rep = gain_sufficient_condition(single_rate_capacity(catalog.erasure_adder_mac(0.5), 1))
        text = json.dumps(rep.to_dict())
        assert '"holds": true' in text
        assert '"inf"' in text  # infinite divergence stays strict JSON


class TestCompressForwardCurve:
    def _witness(self, mac, user=1):
        rep = gain_sufficient_condition(single_rate_capacity(mac, user))
        assert rep.witness is not None
        return rep.witness

    def test_starts_at_single_rate(self):
        mac = catalog.erasure_adder_mac(0.5)
        p_star, xk, xbar = self._witness(mac)
        curve = compress_forward_curve(partner_channels(mac, 1), xk, xbar, p_star, [0.0, 0.01])
        sr = single_rate_capacity(mac, 1)
        assert curve.rates[0] == pytest.approx(sr.value, abs=1e-8)
        assert curve.b_values[0] == 0.0

    def test_strictly_above_capacity_for_small_a(self):
        mac = catalog.erasure_adder_mac(0.5)
        p_star, xk, xbar = self._witness(mac)
        curve = compress_forward_curve(partner_channels(mac, 1), xk, xbar, p_star,
                                       [0.0, 0.02, 0.05])
        assert curve.rates[1] > 0.5
        assert curve.rates[2] > 0.5

    def test_fully_erased_flat_zero(self):
        mac = catalog.erasure_adder_mac(1.0)
        sr = single_rate_capacity(mac, 1)
        curve = compress_forward_curve(sr.channels, sr.xk_star, "1", sr.p_star,
                                       [0.0, 0.1, 0.5, 1.0])
        assert max(curve.rates) == 0.0
        assert all(curve.flagged)

    def test_noiseless_derivative_nan(self):
        mac = catalog.erasure_adder_mac(0.0)
        sr = single_rate_capacity(mac, 1)
        curve = compress_forward_curve(sr.channels, sr.xk_star, "1", sr.p_star, [0.0, 0.1])
        assert math.isnan(curve.derivative_at_zero)

    def test_derivative_matches_finite_difference(self):
        # Full-support variant keeps the divergence finite, so the analytic
        # slope must agree with a centered difference at a = 1e-4.
        mac = blurred_erasure_adder(0.5, 0.05)
        sr = single_rate_capacity(mac, 1)
        h = 1e-4
        for xbar in ("0", "1"):
            curve = compress_forward_curve(sr.channels, sr.xk_star, xbar, sr.p_star,
                                           [0.0, h, 2 * h])
            fd = (curve.rates[2] - curve.rates[0]) / (2 * h)
            assert math.isfinite(curve.derivative_at_zero)
            assert abs(fd - curve.derivative_at_zero) < 1e-3

    def test_infinite_derivative_on_support_mismatch(self):
        mac = catalog.erasure_adder_mac(0.5)
        p_star, xk, xbar = self._witness(mac)
        curve = compress_forward_curve(partner_channels(mac, 1), xk, xbar, p_star,
                                       [0.0, 1e-4, 2e-4])
        assert curve.derivative_at_zero == math.inf
        # The curve itself climbs steeply but finitely.
        fd = (curve.rates[2] - curve.rates[0]) / 2e-4
        assert 0.0 < fd < 5.0

    def test_b_saturates_when_partner_dominates(self):
        # Output copies the partner; the free user's rate is zero and the
        # description budget saturates at b = 1.
        pmf = np.zeros((2, 2, 2))
        for i in range(2):
            for j in range(2):
                pmf[i, j, j] = 0.9
                pmf[i, j, 1 - j] = 0.1
        mac = Mac(("0", "1"), ("0", "1"), ("0", "1"), pmf)
        sr = single_rate_capacity(mac, 1)
        curve = compress_forward_curve(sr.channels, sr.xk_star, "1", sr.p_star, [0.0, 0.5])
        assert curve.b_values[1] == 1.0
        assert curve.rates[1] == pytest.approx(0.0, abs=1e-9)

    def test_grid_validation(self):
        mac = catalog.erasure_adder_mac(0.5)
        sr = single_rate_capacity(mac, 1)
        with pytest.raises(InputError):
            compress_forward_curve(sr.channels, sr.xk_star, "1", sr.p_star, [0.1, 0.2])
        with pytest.raises(InputError):
            compress_forward_curve(sr.channels, sr.xk_star, "1", sr.p_star, [0.0, 1.5])
        with pytest.raises(InputError):
            compress_forward_curve(sr.channels, sr.xk_star, "1", sr.p_star, [0.2, 0.0])

    # Arguments of the curve and of its named-axis re-evaluation that the
    # free user's channels cannot take; each used to fail inside numpy or
    # JointDist, or to be read by position.
    _THREE = Pmf(("0", "1", "2"), np.full(3, 1 / 3))
    _SWAPPED = Pmf(("1", "0"), np.array([0.25, 0.75]))

    @pytest.mark.parametrize("p_star", [_THREE, _SWAPPED], ids=["three", "swapped"])
    def test_curve_rejects_a_foreign_input_law(self, p_star):
        sr = single_rate_capacity(catalog.erasure_adder_mac(0.5), 1)
        with pytest.raises(InputError, match="free user's alphabet"):
            compress_forward_curve(sr.channels, sr.xk_star, "1", p_star, [0.0, 0.1])

    @pytest.mark.parametrize("p_star", [_THREE, _SWAPPED], ids=["three", "swapped"])
    def test_rate_rejects_a_foreign_input_law(self, p_star):
        sr = single_rate_capacity(catalog.erasure_adder_mac(0.5), 1)
        with pytest.raises(InputError, match="free user's alphabet"):
            checkers.compress_forward_rate(sr.channels, sr.xk_star, "1", p_star, 0.1, 0.5)

    def test_rate_rejects_an_unknown_symbol(self):
        sr = single_rate_capacity(catalog.erasure_adder_mac(0.5), 1)
        with pytest.raises(InputError, match="'7' not in the partner alphabet"):
            checkers.compress_forward_rate(sr.channels, sr.xk_star, "7", sr.p_star, 0.1, 0.5)

    @pytest.mark.parametrize("a,b", [(1.5, 0.5), (-0.1, 0.5), (0.1, math.nan), (0.1, 1.5)])
    def test_rate_rejects_a_or_b_outside_the_unit_interval(self, a, b):
        sr = single_rate_capacity(catalog.erasure_adder_mac(0.5), 1)
        with pytest.raises(InputError, match=r"must lie in \[0, 1\]"):
            checkers.compress_forward_rate(sr.channels, sr.xk_star, "1", sr.p_star, a, b)

    def test_csv_export(self):
        mac = catalog.erasure_adder_mac(0.5)
        p_star, xk, xbar = self._witness(mac)
        curve = compress_forward_curve(partner_channels(mac, 1), xk, xbar, p_star, [0.0, 0.05])
        lines = curve.to_csv().splitlines()
        assert lines[0] == "a,rate,b,flagged"
        assert len(lines) == 3

    @pytest.mark.parametrize("user", [1, 2])
    def test_matches_named_axis_rate(self, user):
        # Every grid point against the named-axis re-evaluation at its stored
        # b, and b against its closed form there, including xbar_k = xk_star.
        # Y copying the partner's input saturates b at a = 0.3.
        rng = np.random.default_rng(60 + user)
        copy = np.tile([[[0.99, 0.01], [0.01, 0.99]]], (2, 1, 1))
        if user == 2:
            copy = copy.transpose(1, 0, 2)
        macs = [catalog.erasure_adder_mac(0.5), blurred_erasure_adder(0.3, 0.05),
                Mac(("0", "1"), ("0", "1"), ("0", "1"), copy)]
        macs += [random_mac(rng, n1=3, n2=3, ny=4) for _ in range(4)]
        grid = [0.0, 1e-4, 0.3, 1.0]
        for mac in macs:
            sr = single_rate_capacity(mac, user)
            for xbar in sr.inputs:
                curve = compress_forward_curve(sr.channels, sr.xk_star, xbar, sr.p_star, grid)
                for a, b, rate, flagged in zip(grid, curve.b_values, curve.rates,
                                               curve.flagged):
                    again = checkers.compress_forward_rate(
                        partner_channels(mac, user), sr.xk_star, xbar, sr.p_star, a, b)
                    assert rate == pytest.approx(again, abs=1e-12)
                    j, k, joint = _cf_joint(mac, user, sr.xk_star, xbar, sr.p_star, a)
                    h_yp = conditional_entropy(joint, "y'", (k, "y"))
                    assert flagged == (h_yp <= checkers.DEGENERATE_EPS)
                    if not flagged:
                        want = min(1.0, mutual_information(joint, k, "y") / h_yp)
                        assert b == pytest.approx(want, abs=1e-12)
            assert curve.rates[0] == pytest.approx(sr.value, abs=1e-12)

    def test_pair_quantities_match_infotheory(self):
        rng = np.random.default_rng(7)
        macs = [catalog.erasure_adder_mac(0.5), blurred_erasure_adder(0.5, 0.05)]
        macs += [random_mac(rng, n1=3, n2=2, ny=3) for _ in range(4)]
        for mac in macs:
            for user in (1, 2):
                sr = single_rate_capacity(mac, user)
                p = sr.p_star
                channels = partner_channels(mac, user)
                star = checkers._symbol_terms(channels[sr.xk_star], p.probs)
                for xbar in sr.inputs:
                    got = checkers._pair_quantities(
                        star, checkers._symbol_terms(channels[xbar], p.probs))
                    j, k, at_star = _cf_joint(mac, user, sr.xk_star, xbar, p, 0.0)
                    _, _, at_bar = _cf_joint(mac, user, sr.xk_star, xbar, p, 1.0)
                    div = kl_divergence_vec(at_bar.marginal_table("y"),
                                            at_star.marginal_table("y"))
                    factor = 1.0 - (conditional_entropy(at_star, "y", (j, k))
                                    / conditional_entropy(at_star, "y'", (k, "y")))
                    lhs = conditional_mi(at_bar, j, "y", k) + div * factor
                    want = (conditional_mi(at_star, j, "y", k), lhs, div, factor)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestErasureScaling:
    def test_no_erasure_no_gap(self):
        rep = erasure_scaling_check(catalog.adder_mac(), 0.0,
                                    weights=[(1.0, 1.0), (1.0, 0.0)],
                                    restarts=3, seed=0)
        assert rep.max_abs_gap < 1e-9

    def test_full_erasure_zero_values(self):
        rep = erasure_scaling_check(catalog.adder_mac(), 1.0,
                                    weights=[(1.0, 1.0), (0.0, 1.0)],
                                    restarts=3, seed=0)
        for row in rep.rows:
            assert row.value_extended < 1e-9

    def test_half_erasure_scales(self):
        rep = erasure_scaling_check(catalog.adder_mac(), 0.5,
                                    weights=[(1.0, 1.0)], restarts=8, seed=0)
        assert rep.max_abs_gap < 5e-3

    def test_bad_probability_refused_before_any_frontier(self, monkeypatch):
        calls = []
        monkeypatch.setattr(checkers, "cover_leung_frontier",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(InputError, match=r"erasure probability must lie in \[0, 1\], got 7"):
            erasure_scaling_check(catalog.adder_mac(), 7)
        assert calls == []


class TestAdditiveClassification:
    def test_half_erased_adder_strict(self):
        cls = classify_additive_gain(catalog.erasure_adder_mac(0.3),
                                     catalog.erasure_adder_group())[0]
        assert not cls.condition1 and not cls.condition2
        assert cls.conclusion == "strictly_greater"
        assert cls.gain_report is not None and cls.gain_report.holds

    def test_noiseless_adder_condition2(self):
        cls = classify_additive_gain(catalog.erasure_adder_mac(0.0),
                                     catalog.erasure_adder_group())[0]
        assert not cls.condition1
        assert cls.condition2
        assert cls.conclusion == "equal"

    def test_fully_erased_both_conditions(self):
        cls = classify_additive_gain(catalog.erasure_adder_mac(1.0),
                                     catalog.erasure_adder_group())[0]
        assert cls.condition1 and cls.condition2
        assert cls.conclusion == "equal"

    def test_binary_symmetric_condition1(self):
        for q in (0.0, 0.11, 0.5):
            cls = classify_additive_gain(catalog.binary_symmetric_mac(q),
                                         catalog.binary_symmetric_group())[0]
            assert cls.condition1
            assert cls.conclusion == "equal"
            assert cls.joint_mi == pytest.approx(1 - binary_entropy(q), abs=1e-6)

    def test_non_additive_rejected(self):
        rng = np.random.default_rng(3)
        mac = random_mac(rng, ny=2)
        with pytest.raises(InputError):
            classify_additive_gain(mac, catalog.binary_symmetric_group())

    def test_class_count_gives_capacity(self):
        # When the partition condition holds, the one-user capacity is
        # exactly the log of the class count.
        cases = [
            (catalog.erasure_adder_mac(0.0), catalog.erasure_adder_group()),
            (catalog.erasure_adder_mac(1.0), catalog.erasure_adder_group()),
            (catalog.binary_symmetric_mac(0.0), catalog.binary_symmetric_group()),
        ]
        rng = np.random.default_rng(4)
        for n in (2, 3, 4):
            # Deterministic rotation channel: disjoint singleton classes.
            shift = int(rng.integers(n))
            g = cyclic_group(n)
            pmf = np.zeros((n, n, n))
            for i in range(n):
                for j in range(n):
                    pmf[i, j, (i + j + shift) % n] = 1.0
            labels = tuple(str(i) for i in range(n))
            cases.append((Mac(labels, labels, labels, pmf), g))
        for mac, g in cases:
            cls = classify_additive_gain(mac, g)[0]
            assert cls.condition2
            assert cls.single_rate == pytest.approx(
                math.log2(cls.partition.m) if cls.partition.m > 1 else 0.0, abs=1e-8)

    def test_condition1_tolerance_uses_tight_capacities(self):
        cls = classify_additive_gain(catalog.binary_symmetric_mac(0.11),
                                     catalog.binary_symmetric_group())[1]
        assert abs(cls.joint_mi - cls.single_rate) < 1e-7


class TestJointVsSingleRate:
    def test_joint_dominates_single(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            mac = random_mac(rng, ny=3)
            joint = maximize_joint_mi(mac, tol=1e-10).value
            single = single_rate_capacity(mac, 1, tol=1e-9).value
            assert joint >= single - 1e-8


class TestAdditiveClassifyCertificates:
    """condition1 compares inner ends, so a loose certificate is refused."""

    @staticmethod
    def widened(solve, gap):
        def run(*args, **kwargs):
            res = solve(*args, **kwargs)
            return replace(res, upper=res.value + gap)
        return run

    @pytest.mark.parametrize("target", ["maximize_joint_mi", "max_support_input"])
    def test_wide_gap_is_refused(self, monkeypatch, target):
        monkeypatch.setattr(checkers, target, self.widened(getattr(checkers, target), 1e-3))
        mac, group = catalog.erasure_adder_mac(0.5), catalog.erasure_adder_group()
        with pytest.raises(RuntimeError, match="cannot classify") as info:
            classify_additive_gain(mac, group)
        message = str(info.value)
        assert "(joint input)" in message and "(single rate)" in message
        assert "0.001" in message

    def test_gap_within_solve_tolerance_passes(self, monkeypatch):
        # The solve tolerance is DEFAULT_TOL, 1e-9; a gap of half of it is certified.
        monkeypatch.setattr(checkers, "maximize_joint_mi",
                            self.widened(checkers.maximize_joint_mi, 5e-10))
        mac, group = catalog.erasure_adder_mac(0.5), catalog.erasure_adder_group()
        assert classify_additive_gain(mac, group)[0].conclusion == "strictly_greater"

    def test_cli_reports_the_refusal(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(checkers, "maximize_joint_mi",
                            self.widened(checkers.maximize_joint_mi, 1e-3))
        path = tmp_path / "ch.json"
        save_channel(catalog.erasure_adder_mac(0.5), path, group=catalog.erasure_adder_group())
        assert main(["check", "additive-classify", "--channel", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "cannot classify" in json.loads(err)["message"]

    def test_single_rate_upper_brackets_value(self):
        rng = np.random.default_rng(9)
        for n in (2, 3):
            mac = random_mac(rng, n1=n, n2=n, ny=4)
            sr = single_rate_capacity(mac, 1, tol=1e-9)
            assert sr.value <= sr.upper <= sr.value + 1e-9


class TestOneSolvePerPartnerSymbol:
    """Each decision solves every partner-constant capacity exactly once."""

    CHANNELS = Path(__file__).resolve().parent.parent / "channels"

    @pytest.fixture()
    def solves(self, monkeypatch):
        calls = []
        real = checkers.max_support_input

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(checkers, "max_support_input", counting)
        return calls

    def test_gain_condition(self, solves):
        mac = catalog.erasure_adder_mac(0.5)
        rep = gain_sufficient_condition(single_rate_capacity(mac, 1))
        assert rep.holds
        assert len(solves) == len(mac.x2_alphabet)

    def test_additive_classify(self, solves):
        # One solve per partner symbol of each user: |X2| for user 1, |X1| for user 2.
        mac = catalog.erasure_adder_mac(0.5)
        classifications = classify_additive_gain(mac, catalog.erasure_adder_group())
        assert [cls.conclusion for cls in classifications] == ["strictly_greater"] * 2
        assert len(solves) == len(mac.x2_alphabet) + len(mac.x1_alphabet)

    @pytest.fixture()
    def builds(self, monkeypatch):
        """The arguments of every partner_channels call, at every module binding it."""
        calls = []
        real = partner_channels

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "macfeedback"
                    and getattr(module, "partner_channels", None) is real):
                monkeypatch.setattr(module, "partner_channels", counting)
        return calls

    def test_gain_condition_builds_partner_channels_once(self, builds):
        for mac in (catalog.erasure_adder_mac(0.5), catalog.binary_symmetric_mac(0.11)):
            builds.clear()
            gain_sufficient_condition(single_rate_capacity(mac, 1))
            assert len(builds) == 1

    @pytest.mark.parametrize("name, flags", [
        ("erasure_adder_p050.json", []),
        ("erasure_adder_p050.json", ["--verify"]),
        ("adder.json", ["--xk-star", "0", "--xbar-k", "1", "--verify"])])
    def test_cfcurve_builds_partner_channels_once(self, builds, capsys, name, flags):
        # The curve and every --verify re-evaluation read the channels
        # single_rate_capacity built.
        assert main(["cfcurve", "--channel", str(self.CHANNELS / name), *flags]) == 0
        capsys.readouterr()
        assert len(builds) == 1

    @pytest.mark.parametrize("flags", [[], ["--verify"]])
    def test_singlerate_builds_partner_channels_once_per_user(self, builds, capsys, flags):
        # --verify re-evaluates each witness on the channel single_rate_capacity solved.
        path = self.CHANNELS / "erasure_adder_p050.json"
        assert main(["singlerate", "--channel", str(path), *flags]) == 0
        capsys.readouterr()
        assert [args[1] for args in builds] == [1, 2]

    def test_two_look_rows_are_the_channel_rows(self):
        # The gain terms read the two-look rows without building the channel.
        for path in sorted(self.CHANNELS.glob("*.json")):
            mac = load_channel_file(path).mac
            for user in (1, 2):
                for ch in partner_channels(mac, user).values():
                    rows = two_look_rows(ch.rows)
                    assert rows.tobytes() == two_look_channel(ch).rows.tobytes()

    def test_cfcurve_fallback(self, solves, capsys):
        path = self.CHANNELS / "binary_symmetric_q050.json"
        mac = load_channel_file(path).mac
        # No witness on this channel, so cfcurve takes the single-rate fallback.
        assert gain_sufficient_condition(single_rate_capacity(mac, 1)).witness is None
        solves.clear()
        assert main(["cfcurve", "--channel", str(path)]) == 0
        assert capsys.readouterr().out.startswith("a,rate,b,flagged\n")
        assert len(solves) == len(mac.x2_alphabet)
