"""Channel model construction, derived joints and the file format."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from macfeedback import (ChannelFormatError, ConditionalPmf, InputError, JointDist, Mac,
                         Pmf, erasure_extend, independent_copy_joint, induced_channel,
                         load_channel_file, partner_channels, save_channel)
from macfeedback import catalog
from macfeedback._util import table_faults

from _gen import random_mac


class TestPmf:
    def test_rejects_bad_sum(self):
        with pytest.raises(InputError):
            Pmf(("a", "b"), np.array([0.6, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            Pmf(("a", "b"), np.array([1.2, -0.2]))

    def test_clamps_float_dust(self):
        p = Pmf(("a", "b"), np.array([1.0, -1e-16]))
        assert p.probs[1] == 0.0

    def test_rejects_duplicate_labels(self):
        with pytest.raises(InputError):
            Pmf(("a", "a"), np.array([0.5, 0.5]))

    def test_rejects_non_string_label(self):
        with pytest.raises(InputError, match="Pmf: expected a string label, got 0"):
            Pmf((0, "b"), np.array([0.5, 0.5]))

    def test_rejects_wrong_length(self):
        with pytest.raises(InputError, match=r"^Pmf: got \(3,\) weights for 2 symbols$"):
            Pmf(("a", "b"), np.array([0.2, 0.3, 0.5]))

    def test_rejects_empty_alphabet(self):
        with pytest.raises(InputError, match="^Pmf: alphabet is empty$"):
            Pmf((), np.array([]))

    def test_uniform_over_empty_alphabet_rejected(self):
        with pytest.raises(InputError, match="^Pmf: alphabet is empty$"):
            Pmf.uniform(())

    def test_immutable(self):
        p = Pmf.uniform(("a", "b"))
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InputError, match="Pmf: non-finite"):
            Pmf(("a", "b"), [bad, 1.0])

    def test_non_finite_rejected_by_every_table(self):
        rows = np.array([[0.5, 0.5], [math.nan, 1.0]])
        with pytest.raises(InputError, match="ConditionalPmf: non-finite"):
            ConditionalPmf(("a", "b"), ("0", "1"), rows)
        with pytest.raises(InputError, match="JointDist: non-finite"):
            JointDist((("a", ("0", "1")), ("b", ("0", "1"))), rows / 2)
        pmf = catalog.adder_mac().pmf.copy()
        pmf[1, 0, 1] = math.inf
        with pytest.raises(InputError, match=r"Mac: non-finite entry inf at index \[1, 0, 1\]"):
            Mac(("0", "1"), ("0", "1"), ("0", "1", "2"), pmf)


class TestValidateMac:
    """A Mac checks that every (x1, x2) slice is a distribution when built."""

    def test_row_sum_violation_names_slice(self):
        pmf = catalog.adder_mac().pmf.copy()
        pmf[0, 1] = pmf[0, 1] * 0.9
        with pytest.raises(InputError, match=r"Mac: mass sums to 0\.9\d*, not 1 at index \[0, 1\]"):
            Mac(("0", "1"), ("0", "1"), ("0", "1", "2"), pmf)

    def test_negative_entry_reported(self):
        pmf = catalog.adder_mac().pmf.copy()
        pmf[1, 1, 0] = -0.01
        pmf[1, 1, 2] = 1.01
        with pytest.raises(InputError, match=r"Mac: negative mass -0\.01 at index \[1, 1, 0\]"):
            Mac(("0", "1"), ("0", "1"), ("0", "1", "2"), pmf)

    def test_doubled_law_rejected(self):
        # Such a Mac used to pass as additive and get rates from the oracle.
        mac = catalog.erasure_adder_mac(0.5)
        with pytest.raises(InputError, match=r"Mac: mass sums to 2\.0, not 1 at index \[0, 0\]"):
            Mac(mac.x1_alphabet, mac.x2_alphabet, mac.y_alphabet, 2 * mac.pmf)


class TestLabels:
    """Labels are checked as given: a non-string label is an error, not a string."""

    def test_bool_label_rejected(self):
        pmf = catalog.adder_mac().pmf
        with pytest.raises(InputError, match="Mac x1: expected a string label, got True"):
            Mac(("0", True), ("0", "1"), ("0", "1", "2"), pmf)

    def test_int_and_string_not_merged(self):
        # str(1) == "1" made these a spurious duplicate symbol.
        pmf = catalog.adder_mac().pmf
        with pytest.raises(InputError, match="Mac x2: expected a string label, got 1"):
            Mac(("0", "1"), (1, "1"), ("0", "1", "2"), pmf)

    def test_every_table_checks_labels(self):
        rows = np.eye(2)
        with pytest.raises(InputError, match="ConditionalPmf output: expected a string label"):
            ConditionalPmf(("a", "b"), ("0", 1.0), rows)
        with pytest.raises(InputError, match="JointDist axis 'a': expected a string label"):
            JointDist((("a", (None, "1")), ("b", ("0", "1"))), rows / 2)

    def test_string_labels_kept(self):
        mac = Mac(("0", "1"), ("0", "1"), ("0", "1", "2"), catalog.adder_mac().pmf)
        assert mac.x1_alphabet == ("0", "1") and mac.y_alphabet == ("0", "1", "2")


class TestTableFaults:
    def test_kinds_in_order_with_indices(self):
        t = np.array([[0.5, 0.5], [-0.2, 1.3], [0.3, 0.3]])
        faults = table_faults(t, sum_axes=1)
        assert [(kind, idx) for kind, idx, _ in faults] == [
            ("negative", (1, 0)), ("above 1", (1, 1)), ("sum", (1,)), ("sum", (2,))]
        assert [v for _, _, v in faults] == pytest.approx([-0.2, 1.3, 1.1, 0.6])

    def test_non_finite_reported_alone(self):
        t = np.array([[-0.5, math.nan], [math.inf, 0.5]])
        assert [(kind, idx) for kind, idx, _ in table_faults(t)] == [
            ("non-finite", (0, 1)), ("non-finite", (1, 0))]


class TestInducedChannel:
    def test_noiseless_adder_fix_zero_is_identity_like(self):
        ch = induced_channel(catalog.adder_mac(), fix_user=2, fixed_symbol="0")
        assert ch.input_alphabet == ("0", "1")
        # X2 = 0 makes Y = X1.
        assert ch.rows[0][ch.output_alphabet.index("0")] == 1.0
        assert ch.rows[1][ch.output_alphabet.index("1")] == 1.0

    def test_erasure_adder_fix_one(self):
        ch = induced_channel(catalog.erasure_adder_mac(0.5), fix_user=2,
                             fixed_symbol="1")
        out = ch.output_alphabet
        assert ch.input_alphabet == ("0", "1")
        row0, row1 = ch.rows
        assert row0[out.index("1")] == 0.5 and row0[out.index("e")] == 0.5
        assert row1[out.index("2")] == 0.5 and row1[out.index("e")] == 0.5
        assert row0.sum() == pytest.approx(1.0)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(InputError):
            induced_channel(catalog.adder_mac(), fix_user=2, fixed_symbol="7")


class TestPartnerChannels:
    # 3 x 2 inputs with 4 outputs, so a swapped axis changes every shape.
    MAC = random_mac(np.random.default_rng(11), n1=3, n2=2, ny=4)

    @pytest.mark.parametrize("user", [1, 2])
    def test_keys_rows_and_induced_channel(self, user):
        mac = self.MAC
        free, partner = ((mac.x1_alphabet, mac.x2_alphabet) if user == 1
                         else (mac.x2_alphabet, mac.x1_alphabet))
        channels = partner_channels(mac, user)
        assert tuple(channels) == partner
        for k, (sym, ch) in enumerate(channels.items()):
            want = mac.pmf[:, k, :] if user == 1 else mac.pmf[k, :, :]
            assert ch.input_alphabet == free
            assert ch.output_alphabet == mac.y_alphabet
            np.testing.assert_allclose(ch.rows, want, rtol=0.0, atol=1e-15)
            np.testing.assert_array_equal(
                induced_channel(mac, 3 - user, sym).rows, ch.rows)

    @pytest.mark.parametrize("user", [0, 3])
    def test_bad_user_rejected(self, user):
        with pytest.raises(InputError, match="user must be 1 or 2"):
            partner_channels(self.MAC, user)


class TestIndependentCopyJoint:
    def _uniform_input(self, mac):
        table = np.full((len(mac.x1_alphabet), len(mac.x2_alphabet)), 0.25)
        return JointDist((("x1", mac.x1_alphabet), ("x2", mac.x2_alphabet)), table)

    def test_single_copy_marginalizes_back(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            mac = random_mac(rng)
            p_in = rng.dirichlet(np.ones(4)).reshape(2, 2)
            joint_in = JointDist((("x1", mac.x1_alphabet), ("x2", mac.x2_alphabet)), p_in)
            j = independent_copy_joint(mac, joint_in, copies=1)
            back = j.marginal_table(("x1", "x2"))
            assert np.abs(back - joint_in.table).max() < 1e-12

    def test_two_copies_marginalize_to_one(self):
        rng = np.random.default_rng(6)
        mac = random_mac(rng, ny=4)
        p_in = rng.dirichlet(np.ones(4)).reshape(2, 2)
        joint_in = JointDist((("x1", mac.x1_alphabet), ("x2", mac.x2_alphabet)), p_in)
        j2 = independent_copy_joint(mac, joint_in, copies=2)
        j1 = independent_copy_joint(mac, joint_in, copies=1)
        assert np.abs(j2.marginal_table(("x1", "x2", "y")) - j1.table).max() < 1e-12

    def test_deterministic_channel_copies_agree(self):
        mac = catalog.adder_mac()
        j = independent_copy_joint(mac, self._uniform_input(mac), copies=2)
        agree = sum(j.table[:, :, k, k].sum() for k in range(len(mac.y_alphabet)))
        assert agree == pytest.approx(1.0, abs=1e-12)

    def test_point_input_product_masses(self):
        # Deterministic (0, 0) input through the half-erased adder: the two
        # looks are independent coin flips between "0" and "e".
        mac = catalog.erasure_adder_mac(0.5)
        table = np.zeros((2, 2))
        table[0, 0] = 1.0
        j = independent_copy_joint(
            mac, JointDist((("x1", mac.x1_alphabet), ("x2", mac.x2_alphabet)), table),
            copies=2)
        y = mac.y_alphabet
        t = j.table[0, 0]
        assert t[y.index("0"), y.index("0")] == pytest.approx(0.25)
        assert t[y.index("e"), y.index("e")] == pytest.approx(0.25)
        assert t[y.index("0"), y.index("e")] == pytest.approx(0.25)

    def test_conditional_independence_exact(self):
        # p(x1, x2, y, y') must equal p(x1, x2) p(y|x1, x2) p(y'|x1, x2)
        # exactly: same products, same order.
        rng = np.random.default_rng(7)
        mac = random_mac(rng, ny=3)
        p_in = rng.dirichlet(np.ones(4)).reshape(2, 2)
        joint_in = JointDist((("x1", mac.x1_alphabet), ("x2", mac.x2_alphabet)), p_in)
        j = independent_copy_joint(mac, joint_in, copies=2)
        w = mac.pmf
        expect = (joint_in.table[:, :, None] * w)[:, :, :, None] * w[:, :, None, :]
        assert np.array_equal(j.table, expect)

    def test_axis_mismatch_rejected(self):
        mac = catalog.adder_mac()
        bad = JointDist((("x1", ("0", "1", "2")), ("x2", ("0", "1"))),
                        np.full((3, 2), 1 / 6))
        with pytest.raises(InputError):
            independent_copy_joint(mac, bad, copies=1)


class TestErasureExtend:
    def test_p_zero_keeps_law(self):
        mac = catalog.adder_mac()
        ext = erasure_extend(mac, 0.0)
        assert ext.y_alphabet == ("0", "1", "2", "e")
        assert np.abs(ext.pmf[:, :, :3] - mac.pmf).max() == 0.0
        assert ext.pmf[:, :, 3].max() == 0.0

    def test_p_one_is_point_mass(self):
        ext = erasure_extend(catalog.adder_mac(), 1.0)
        assert np.all(ext.pmf[:, :, 3] == 1.0)
        assert ext.pmf[:, :, :3].max() == 0.0

    def test_half_erased_adder_row(self):
        ext = erasure_extend(catalog.adder_mac(), 0.5)
        row = ext.pmf[0, 1]
        assert row[ext.y_alphabet.index("1")] == pytest.approx(0.5)
        assert row[ext.y_alphabet.index("e")] == pytest.approx(0.5)

    def test_taken_symbol_gets_a_suffix(self):
        mac = catalog.erasure_adder_mac(0.5)
        assert mac.y_alphabet[-1] == "e"
        ext = erasure_extend(mac, 0.25)
        assert ext.y_alphabet == mac.y_alphabet + ("e2",)
        assert np.all(ext.pmf[:, :, -1] == 0.25)

    def test_p_zero_preserves_downstream_measures(self):
        from macfeedback import cutset_sum_rate, single_rate_capacity

        mac = catalog.adder_mac()
        ext = erasure_extend(mac, 0.0)
        assert abs(cutset_sum_rate(ext) - cutset_sum_rate(mac)) < 1e-12
        assert abs(single_rate_capacity(ext, 1).value
                   - single_rate_capacity(mac, 1).value) < 1e-12

    def test_bad_probability_rejected(self):
        with pytest.raises(InputError, match=r"erasure probability must lie in \[0, 1\], got 1\.5"):
            erasure_extend(catalog.adder_mac(), 1.5)


class TestChannelFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        mac = random_mac(rng, n1=2, n2=3, ny=4, name="rt")
        path = tmp_path / "ch.json"
        save_channel(mac, path)
        again = load_channel_file(path).mac
        assert again.x1_alphabet == mac.x1_alphabet
        assert again.x2_alphabet == mac.x2_alphabet
        assert again.y_alphabet == mac.y_alphabet
        assert np.abs(again.pmf - mac.pmf).max() < 1e-15
        assert again.name == "rt"

    def test_shipped_files_are_catalog_members(self):
        """Each channels/*.json is, bit for bit, the catalog member its file
        name names: ``<family><100 x parameter>.json``, or ``adder.json``."""
        families = {"adder": (catalog.adder_mac, None),
                    "binary_symmetric_q": (catalog.binary_symmetric_mac,
                                           catalog.binary_symmetric_group),
                    "erasure_adder_p": (catalog.erasure_adder_mac, catalog.erasure_adder_group)}
        paths = sorted((Path(__file__).resolve().parent.parent / "channels").glob("*.json"))
        assert len(paths) == 9
        for path in paths:
            family = path.stem.rstrip("0123456789")
            build, group = families[family]
            mac = build(int(path.stem[len(family):]) / 100) if group else build()
            cf = load_channel_file(path)
            assert cf.mac.pmf.tobytes() == mac.pmf.tobytes(), path.name
            assert ((cf.mac.x1_alphabet, cf.mac.x2_alphabet, cf.mac.y_alphabet, cf.mac.name)
                    == (mac.x1_alphabet, mac.x2_alphabet, mac.y_alphabet, mac.name)), path.name
            assert (cf.group is None) == (group is None), path.name
            if group:
                assert cf.group.to_dict() == group().to_dict(), path.name

    def test_group_load_formats_paths_only_on_rejection(self, tmp_path, monkeypatch):
        from macfeedback import channel_io

        paths = []
        real = channel_io._json_path
        monkeypatch.setattr(channel_io, "_json_path",
                            lambda *args: paths.append(args) or real(*args))
        path = tmp_path / "ch.json"
        save_channel(catalog.erasure_adder_mac(0.25), path,
                     group=catalog.erasure_adder_group())
        assert load_channel_file(path).group is not None
        assert paths == []
        doc = json.loads(path.read_text())
        doc["group"]["y_action"][2][1] = 1.5
        path.write_text(json.dumps(doc))
        with pytest.raises(ChannelFormatError,
                           match=r"^group\.y_action\[2\]\[1\]: expected an integer index, got 1\.5$"):
            load_channel_file(path)
        assert paths == [("group.y_action", (2, 1))]

    def test_round_trip_group(self, tmp_path):
        path = tmp_path / "ch.json"
        save_channel(catalog.erasure_adder_mac(0.25), path,
                     group=catalog.erasure_adder_group())
        cf = load_channel_file(path)
        assert cf.group is not None
        assert np.array_equal(cf.group.cayley, catalog.erasure_adder_group().cayley)

    def test_row_sum_error_cites_indices(self, tmp_path):
        obj = {
            "name": "bad", "x1": ["0", "1"], "x2": ["0"], "y": ["0", "1"],
            "pmf": [[[1.0, 0.5]], [[0.5, 0.5]]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ChannelFormatError, match=r"pmf\[0\]\[0\]"):
            load_channel_file(path).mac

    def test_small_row_drift_normalized(self, tmp_path):
        obj = {
            "name": "drift", "x1": ["0"], "x2": ["0"], "y": ["0", "1"],
            "pmf": [[[0.5, 0.5 + 4e-10]]],
        }
        path = tmp_path / "drift.json"
        path.write_text(json.dumps(obj))
        mac = load_channel_file(path).mac
        assert mac.pmf[0, 0].sum() == pytest.approx(1.0, abs=1e-15)

    def test_duplicate_symbol_rejected(self, tmp_path):
        obj = {
            "name": "dup", "x1": ["0"], "x2": ["0"], "y": ["e", "e"],
            "pmf": [[[0.5, 0.5]]],
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ChannelFormatError, match=r"y\[1\]: duplicate label 'e'"):
            load_channel_file(path).mac

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(ChannelFormatError, match="malformed JSON"):
            load_channel_file(path).mac

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"x1": ["0"], "x2": ["0"], "y": ["0"]}))
        with pytest.raises(ChannelFormatError, match="pmf"):
            load_channel_file(path).mac

    def test_negative_probability_rejected(self, tmp_path):
        obj = {
            "x1": ["0"], "x2": ["0"], "y": ["0", "1"],
            "pmf": [[[-0.1, 1.1]]],
        }
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ChannelFormatError, match="negative"):
            load_channel_file(path).mac

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400",
                                       pytest.param("1" + "0" * 400, id="huge_int")])
    def test_non_finite_probability_rejected(self, tmp_path, token):
        path = tmp_path / "nonfinite.json"
        path.write_text('{"x1": ["0"], "x2": ["0", "1"], "y": ["0", "1"], '
                        f'"pmf": [[[0.5, 0.5], [{token}, 1.0]]]}}')
        with pytest.raises(ChannelFormatError, match=r"pmf\[0\]\[1\]\[0\]: non-finite"):
            load_channel_file(path).mac


class TestJointDist:
    def test_marginal_order_respected(self):
        rng = np.random.default_rng(3)
        table = rng.dirichlet(np.ones(24)).reshape(2, 3, 4)
        j = JointDist((("a", ("0", "1")), ("b", ("0", "1", "2")),
                       ("c", ("0", "1", "2", "3"))), table)
        swapped = j.marginal_table(("c", "a"))
        direct = j.table.sum(axis=1).T
        assert np.abs(swapped - direct).max() == 0.0

    def test_rejects_duplicate_axis(self):
        with pytest.raises(InputError, match="^JointDist: duplicate axis name$"):
            JointDist((("a", ("0", "1")), ("a", ("0", "1"))), np.full((2, 2), 0.25))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InputError,
                           match=r"^JointDist: table shape \(2, 3\) does not match \(2, 2\)$"):
            JointDist((("a", ("0", "1")), ("b", ("0", "1"))), np.full((2, 3), 1 / 6))

    def test_unknown_marginal_axis_rejected(self):
        j = JointDist((("a", ("0", "1")), ("b", ("0", "1"))), np.full((2, 2), 0.25))
        with pytest.raises(InputError, match="^JointDist: no axis named 'c'$"):
            j.marginal_table(("a", "c"))
