"""Command-line surface: outputs, exit codes, determinism, verification."""

import ast
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import macfeedback
from macfeedback import catalog, checkers, classify_additive_gain, regions, save_channel
from macfeedback import _util, cli
from macfeedback.cli import main
from macfeedback.optimize import DEFAULT_TOL

from _gen import random_mac


@pytest.fixture()
def adder_file(tmp_path):
    path = tmp_path / "erasure_adder_p050.json"
    save_channel(catalog.erasure_adder_mac(0.5), path,
                 group=catalog.erasure_adder_group())
    return str(path)


@pytest.fixture()
def bsc_file(tmp_path):
    path = tmp_path / "bsc_q011.json"
    save_channel(catalog.binary_symmetric_mac(0.11), path,
                 group=catalog.binary_symmetric_group())
    return str(path)


@pytest.fixture()
def groupless_file(tmp_path):
    path = tmp_path / "adder.json"
    save_channel(catalog.adder_mac(), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_DROP = object()


def edited_channel_file(source, tmp_path, path, value):
    """A copy of channel file ``source`` whose entry at JSON ``path`` is
    ``value``, or is removed when ``value`` is ``_DROP``; the empty path
    replaces the whole document."""
    with open(source, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not path:
        doc = value
    else:
        *outer, last = path
        target = doc
        for key in outer:
            target = target[key]
        if value is _DROP:
            del target[last]
        else:
            target[last] = value
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    return edited


class TestSinglerate:
    def test_values_and_exit_code(self, capsys, adder_file):
        code, out, err = run_cli(capsys, "singlerate", "--channel", adder_file)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["user1"]["value"] == pytest.approx(0.5, abs=1e-6)
        assert doc["user2"]["value"] == pytest.approx(0.5, abs=1e-6)
        assert doc["user1"]["maximizer_set"] == ["0", "1"]

    def test_missing_file_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "singlerate", "--channel", "/nope.json")
        assert code == 2
        assert json.loads(err)["error"] == "input"

    def test_invalid_channel_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "x1": ["0"], "x2": ["0"], "y": ["0", "1"], "pmf": [[[0.9, 0.4]]],
        }))
        code, _, err = run_cli(capsys, "singlerate", "--channel", str(path))
        assert code == 2
        assert "row" in json.loads(err)["message"]

    @pytest.mark.parametrize("bad", [math.nan, 10 ** 400], ids=["nan", "huge_int"])
    def test_nan_channel_exit_two(self, capsys, tmp_path, groupless_file, bad):
        # A NaN probability used to pass every check and yield a bogus 0.0;
        # an integer beyond the float range used to crash the loader.
        path = tmp_path / "nan.json"
        with open(groupless_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["pmf"][0][0][0] = bad
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "singlerate", "--channel", str(path))
        assert code == 2 and out == ""
        assert "pmf[0][0][0]: non-finite" in json.loads(err)["message"]

    def test_verify_passes(self, capsys, adder_file):
        code, _, _ = run_cli(capsys, "singlerate", "--channel", adder_file, "--verify")
        assert code == 0

    def test_verify_catches_shifted_kernel(self, capsys, adder_file, monkeypatch):
        # The stored values come from channel_mi_bits; --verify must not
        # re-evaluate them with the same kernel, or this shift goes unseen.
        real = _util.channel_mi_bits

        def shifted(p, rows):
            return real(p, rows) + 1e-6

        for name, module in list(sys.modules.items()):
            if name.startswith("macfeedback") and hasattr(module, "channel_mi_bits"):
                monkeypatch.setattr(module, "channel_mi_bits", shifted)
        code, _, err = run_cli(capsys, "singlerate", "--channel", adder_file, "--verify")
        assert code == 1
        assert json.loads(err)["error"] == "VerificationError"

    def test_verify_catches_kernel_shifted_down(self, capsys, adder_file, monkeypatch):
        # A downward shift lowers the inner value; no cap can hide it either.
        real = _util.channel_mi_bits

        def shifted(p, rows):
            return real(p, rows) - 1e-6

        for name, module in list(sys.modules.items()):
            if name.startswith("macfeedback") and hasattr(module, "channel_mi_bits"):
                monkeypatch.setattr(module, "channel_mi_bits", shifted)
        code, _, err = run_cli(capsys, "singlerate", "--channel", adder_file, "--verify")
        assert code == 1
        assert json.loads(err)["error"] == "VerificationError"

    @pytest.mark.parametrize("path,value,message", [
        ((), [], "{file}: top level must be an object"),
        (("x1",), _DROP, "x1: missing field"),
        (("x2",), "0", "x2: expected a non-empty list of string labels"),
        (("x2",), [], "x2: expected a non-empty list of string labels"),
        (("pmf",), _DROP, "pmf: missing field"),
        (("pmf", 1), _DROP, "pmf: expected 2 blocks, one per x1 symbol"),
        (("pmf", 0, 1), _DROP, "pmf[0]: expected 2 rows, one per x2 symbol"),
        (("pmf", 1, 0, 4), _DROP, "pmf[1][0]: expected 5 probabilities, one per y symbol"),
        (("pmf", 0, 1, 2), "0.5", "pmf[0][1][2]: not a number"),
        (("pmf", 0, 1, 2), True, "pmf[0][1][2]: not a number"),
        (("pmf", 0, 1, 2), None, "pmf[0][1][2]: not a number"),
        (("group",), [], "group: expected an object"),
        (("group", "cayley"), _DROP, "group.cayley: missing field"),
    ], ids=["top_level", "no_x1", "x2_not_list", "x2_empty", "no_pmf", "pmf_blocks",
            "pmf_rows", "pmf_row_length", "string_entry", "bool_entry", "null_entry",
            "group_not_object", "no_cayley"])
    def test_malformed_channel_file_exits_two(self, capsys, tmp_path, adder_file, path,
                                              value, message):
        bad_file = edited_channel_file(adder_file, tmp_path, path, value)
        code, out, err = run_cli(capsys, "singlerate", "--channel", str(bad_file))
        assert code == 2 and out == ""
        assert json.loads(err)["message"] == message.format(file=bad_file)


class TestRegion:
    def test_csv_and_json(self, capsys, groupless_file, tmp_path):
        csv_path = tmp_path / "frontier.csv"
        code, out, _ = run_cli(
            capsys, "region", "--channel", groupless_file,
            "--weights", "1:0,1:1", "--restarts", "4",
            "--csv-out", str(csv_path), "--verify")
        assert code == 0
        doc = json.loads(out)
        assert doc["cutset"]["sum"] == pytest.approx(math.log2(3), abs=1e-6)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "w1,w2,R1,R2,provenance"
        assert sum("outer_bound" in ln for ln in lines) == 3
        inner = [ln for ln in lines if "inner_bound" in ln]
        assert len(inner) == 2

    def test_sum_weight_below_cutset(self, capsys, groupless_file):
        code, out, _ = run_cli(capsys, "region", "--channel", groupless_file,
                               "--weights", "1:1", "--restarts", "4")
        doc = json.loads(out)
        point = doc["frontier"]["points"][0]
        assert point["R1"] + point["R2"] <= math.log2(3) + 1e-6

    @pytest.mark.parametrize("labels,model", [
        (dict(x1=["a", "a,b"], x2=["b,c", "c"]), "PF"),
        (dict(y=["a", "a,b", "b,c", "c"]), "IF")], ids=["inputs", "outputs"])
    def test_composite_labels_accepted(self, capsys, tmp_path, labels, model):
        # Pair labels were "(a,b)" unescaped: ("a", "b,c") and ("a,b", "c")
        # collided, and these files, which load, used to exit 2.
        plain = random_mac(np.random.default_rng(12), n1=2, n2=2, ny=4)
        plain_file, named_file = tmp_path / "plain.json", tmp_path / "named.json"
        save_channel(plain, plain_file)
        named = {"x1": plain.x1_alphabet, "x2": plain.x2_alphabet, "y": plain.y_alphabet,
                 **labels}
        save_channel(macfeedback.Mac(named["x1"], named["x2"], named["y"], plain.pmf),
                     named_file)
        docs = []
        for path in (plain_file, named_file):
            code, out, err = run_cli(capsys, "region", "--channel", str(path), "--weights",
                                     "1:1", "--restarts", "0", "--model", model)
            assert code == 0 and err == ""
            docs.append(json.loads(out))
        assert docs[0]["cutset"] == docs[1]["cutset"]
        assert docs[0]["frontier"] == docs[1]["frontier"]

    def test_zero_weight_rejected(self, capsys, groupless_file):
        code, _, err = run_cli(capsys, "region", "--channel", groupless_file,
                               "--weights", "0:0")
        assert code == 2
        assert "weight" in json.loads(err)["message"]

    def test_weight_scale_prints_the_same_point(self, capsys, groupless_file):
        # A pair names a direction: 1e-12:1e-12 and 1e300:1e300 print the
        # rates and witness of 1:1, and --verify accepts the value at the pair.
        points = []
        for pair in ("1:1", "1e-12:1e-12", "1e300:1e300"):
            code, out, err = run_cli(capsys, "region", "--channel", groupless_file,
                                     "--weights", pair, "--restarts", "4", "--verify")
            assert code == 0 and err == ""
            points.append(json.loads(out)["frontier"]["points"][0])
        for scale, point in zip((1e-12, 1e300), points[1:]):
            for key in ("R1", "R2", "witness"):
                assert point[key] == points[0][key]
            assert point["value"] == scale * point["R1"] + scale * point["R2"]

    def test_verify_catches_shifted_bound(self, capsys, groupless_file, monkeypatch):
        # The stored points come from cover_leung_bounds; --verify must not
        # re-evaluate them with the same function, or this shift goes unseen.
        real = regions.cover_leung_bounds

        def shifted(mac, q):
            b1, b2, bsum = real(mac, q)
            return b1 + 1e-6, b2, bsum

        for module in (macfeedback, regions, cli):
            if hasattr(module, "cover_leung_bounds"):
                monkeypatch.setattr(module, "cover_leung_bounds", shifted)
        code, _, err = run_cli(capsys, "region", "--channel", groupless_file,
                               "--weights", "1:0", "--restarts", "0", "--verify")
        assert code == 1
        assert json.loads(err)["error"] == "VerificationError"

    def test_determinism(self, capsys, groupless_file):
        args = ("region", "--channel", groupless_file, "--weights", "1:1,2:1",
                "--restarts", "5", "--seed", "3")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestCheck:
    def test_gain_condition_adder(self, capsys, adder_file):
        code, out, _ = run_cli(capsys, "check", "gain-condition",
                               "--channel", adder_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["user1"]["holds"] is True
        assert doc["user2"]["holds"] is True

    def test_additive_classify_bsc(self, capsys, bsc_file):
        code, out, _ = run_cli(capsys, "check", "additive-classify",
                               "--channel", bsc_file)
        doc = json.loads(out)
        assert doc["user1"]["conclusion"] == "equal"
        assert doc["user1"]["condition1"] is True

    def test_classify_requires_group(self, capsys, groupless_file):
        code, _, err = run_cli(capsys, "check", "additive-classify",
                               "--channel", groupless_file)
        assert code == 2
        assert "group" in json.loads(err)["message"]

    def test_additive_report(self, capsys, adder_file):
        code, out, _ = run_cli(capsys, "check", "additive", "--channel", adder_file)
        assert json.loads(out)["report"]["additive"] is True

    @pytest.mark.parametrize("analysis", ["additive", "additive-classify"])
    @pytest.mark.parametrize("path,bad", [
        (("cayley", 0, 1), 1.5), (("identity",), 0.7), (("embed_x1", 1), True),
        (("y_action", 0, 0), 0.9)], ids=["float_cayley", "float_identity",
                                        "bool_embedding", "float_action"])
    def test_non_integer_group_entry_exits_two(self, capsys, tmp_path, adder_file,
                                               analysis, path, bad):
        # numpy used to truncate these to valid indices (True reads as 1),
        # so the table passed as the channel's additive certificate.
        with open(adder_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        *outer, last = path
        target = doc["group"]
        for key in outer:
            target = target[key]
        target[last] = bad
        bad_file = tmp_path / "bad_group.json"
        bad_file.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", analysis, "--channel", str(bad_file))
        where = "group." + path[0] + "".join(f"[{k}]" for k in path[1:])
        assert code == 2 and out == ""
        assert json.loads(err)["message"].startswith(f"{where}: expected an integer")

    @pytest.mark.parametrize("path,value,bound", [
        (("cayley", 1, 2), 4, 4), (("identity",), 9, 4), (("embed_x1", 1), 9, 4),
        (("embed_x2", 0), -1, 4), (("y_action", 4, 0), 5, 5)],
        ids=["cayley", "identity", "embed_x1", "embed_x2", "y_action"])
    def test_out_of_range_group_index_exits_two(self, capsys, tmp_path, adder_file, path,
                                                value, bound):
        # These used to name the field alone, as "group: embed_x1 has
        # out-of-range indices".
        bad_file = edited_channel_file(adder_file, tmp_path, ("group", *path), value)
        code, out, err = run_cli(capsys, "check", "additive", "--channel", str(bad_file))
        where = "group." + path[0] + "".join(f"[{k}]" for k in path[1:])
        assert code == 2 and out == ""
        assert json.loads(err)["message"] == (
            f"{where}: index {value} out of range for {bound} elements")

    @pytest.mark.parametrize("analysis", ["additive", "additive-classify"])
    @pytest.mark.parametrize("labels,message", [
        (["0", "0", "2", "3"], "group.elements[1]: duplicate label '0'"),
        (["0", [1], "2", "3"], "group.elements[1]: expected a string label, got [1]"),
        (["0", "1", None, "3"], "group.elements[2]: expected a string label, got null")],
        ids=["duplicate", "list", "null"])
    def test_bad_group_label_exits_two(self, capsys, tmp_path, adder_file, analysis,
                                       labels, message):
        # A repeated label used to pass as additive; non-strings were stringified.
        with open(adder_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["group"]["elements"] = labels
        bad_file = tmp_path / "bad_labels.json"
        bad_file.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", analysis, "--channel", str(bad_file))
        assert code == 2 and out == ""
        assert json.loads(err)["message"] == message

    @pytest.mark.parametrize("key,labels,message", [
        ("x2", [0, 1], "x2[0]: expected a string label, got 0"),
        ("y", ["0", True, "2"], "y[1]: expected a string label, got true")],
        ids=["numbers", "bool"])
    def test_non_string_channel_label_exits_two(self, capsys, tmp_path, groupless_file, key,
                                                labels, message):
        # Such labels used to load stringified ('0', 'True'), unlike group labels.
        with open(groupless_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc[key] = labels
        bad_file = tmp_path / "bad_labels.json"
        bad_file.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "singlerate", "--channel", str(bad_file))
        assert code == 2 and out == ""
        assert json.loads(err)["message"] == message

    @pytest.mark.parametrize("name,shown", [
        (None, "null"), (7, "7"), (["a"], '["a"]'), ({"x": 1}, '{"x": 1}')],
        ids=["null", "number", "list", "object"])
    def test_non_string_name_exits_two(self, capsys, tmp_path, groupless_file, name, shown):
        # Such names used to load stringified, printed as "None", "7" and so on.
        with open(groupless_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["name"] = name
        bad_file = tmp_path / "bad_name.json"
        bad_file.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "singlerate", "--channel", str(bad_file))
        assert code == 2 and out == ""
        assert json.loads(err)["message"] == f"name: expected a string, got {shown}"

    @pytest.mark.parametrize("analysis", ["additive", "additive-classify"])
    @pytest.mark.parametrize("key,row", [("cayley", 1), ("y_action", 2)])
    def test_ragged_group_table_exits_two(self, capsys, tmp_path, adder_file, analysis,
                                          key, row):
        with open(adder_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["group"][key][row].pop()
        bad_file = tmp_path / "ragged.json"
        bad_file.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", analysis, "--channel", str(bad_file))
        assert code == 2 and out == ""
        assert json.loads(err)["message"] == f"group.{key}[{row}]: expected 4 entries, got 3"

    def test_symmetry_report(self, capsys, adder_file):
        code, out, _ = run_cli(capsys, "check", "symmetry", "--channel", adder_file)
        doc = json.loads(out)
        assert doc["rows_are_permutations"] is True
        assert doc["user1"]["max_spread"] < 1e-10

    def test_erasure_scaling_requires_p(self, capsys, groupless_file):
        code, _, err = run_cli(capsys, "check", "erasure-scaling",
                               "--channel", groupless_file)
        assert code == 2

    def test_erasure_scaling_runs(self, capsys, groupless_file):
        code, out, _ = run_cli(capsys, "check", "erasure-scaling",
                               "--channel", groupless_file, "--erasure-p", "0.5",
                               "--weights", "1:1", "--restarts", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["max_abs_gap"] < 5e-3

    def test_negative_outcome_still_exit_zero(self, capsys, bsc_file):
        code, out, _ = run_cli(capsys, "check", "gain-condition",
                               "--channel", bsc_file)
        assert code == 0
        assert json.loads(out)["user1"]["holds"] is False


class TestCfCurve:
    def test_default_grid_starts_at_capacity(self, capsys, adder_file, tmp_path):
        csv_path = tmp_path / "curve.csv"
        json_path = tmp_path / "curve.json"
        code, out, _ = run_cli(
            capsys, "cfcurve", "--channel", adder_file,
            "--csv-out", str(csv_path), "--json-out", str(json_path))
        assert code == 0
        doc = json.loads(json_path.read_text())
        assert doc["auto_selected"] is True
        assert doc["curve"]["rates"][0] == pytest.approx(0.5, abs=1e-8)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "a,rate,b,flagged"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0

    def test_explicit_witness(self, capsys, adder_file):
        code, out, _ = run_cli(capsys, "cfcurve", "--channel", adder_file,
                               "--xk-star", "0", "--xbar-k", "1",
                               "--a-grid", "0:0.05:0.01")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a,rate,b,flagged"
        rates = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert rates[0] == pytest.approx(0.5, abs=1e-8)
        assert rates[-1] > rates[0]

    @pytest.mark.parametrize("flag", ["--xk-star", "--xbar-k"])
    def test_one_symbol_flag_alone_rejected(self, capsys, adder_file, flag):
        code, out, err = run_cli(capsys, "cfcurve", "--channel", adder_file,
                                 flag, "1")
        assert code == 2 and out == ""
        message = json.loads(err)["message"]
        assert "--xk-star" in message and "--xbar-k" in message

    @pytest.mark.parametrize("xk_star,xbar_k", [("7", "1"), ("0", "7")])
    def test_unknown_symbol_rejected(self, capsys, adder_file, xk_star, xbar_k):
        code, _, err = run_cli(capsys, "cfcurve", "--channel", adder_file,
                               "--xk-star", xk_star, "--xbar-k", xbar_k)
        assert code == 2
        assert json.loads(err)["message"] == "symbol '7' not in the partner alphabet"

    def test_bad_grid_rejected(self, capsys, adder_file):
        code, _, err = run_cli(capsys, "cfcurve", "--channel", adder_file,
                               "--a-grid", "0.1:0.2:0.05")
        assert code == 2

    @pytest.mark.parametrize("grid", ["0:3:1", "0:1.5:0.5", "0:1.0000001:0.5"])
    def test_grid_past_one_rejected(self, capsys, adder_file, grid):
        # Points above 1 used to be dropped silently, with exit 0.
        code, out, err = run_cli(capsys, "cfcurve", "--channel", adder_file,
                                 "--a-grid", grid)
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "input" and "--a-grid" in doc["message"]

    @pytest.mark.parametrize("grid,want", [
        ("0:0.1:0.02", [0.0, 0.02, 0.04, 0.06, 0.08, 0.1]),
        ("0:0.2:0.005", [round(k * 0.005, 12) for k in range(41)]),
        ("0:0.02:0.01", [0.0, 0.01, 0.02]),
        ("0:1:0.1", [k / 10 for k in range(11)]),
        ("0:1:0.3", [0.0, 0.3, 0.6, 0.9]),
        ("0:0.5:0.05", [round(k * 0.05, 12) for k in range(11)]),
        ("0:1:0.6", [0.0, 0.6]),
        ("0:0.16:0.1", [0.0, 0.1]),
        # Rounded to 12 digits, the next point would pass stop: 0.5000000001
        # and 1.0000000002 are dropped.
        ("0:0.5:0.1666666667", [0.0, 0.1666666667, 0.3333333334]),
        ("0:1:0.3333333334", [0.0, 0.3333333334, 0.6666666668]),
    ])
    def test_grid_ends_at_last_point_not_past_stop(self, capsys, adder_file, grid, want):
        code, out, _ = run_cli(capsys, "cfcurve", "--channel", adder_file, "--a-grid", grid)
        assert code == 0
        a_values = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert a_values == pytest.approx(want, rel=0, abs=1e-12)

    def test_determinism(self, capsys, adder_file):
        args = ("cfcurve", "--channel", adder_file, "--a-grid", "0:0.1:0.02")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("grid", ["0:inf:0.1", "0:nan:0.1", "0:1:1e-12"])
    def test_unbounded_grid_rejected(self, capsys, adder_file, grid):
        # The last grid would hold 10^12 points; it is refused before any is built.
        code, _, err = run_cli(capsys, "cfcurve", "--channel", adder_file,
                               "--a-grid", grid)
        assert code == 2
        assert json.loads(err)["error"] == "input"

    def test_verify_passes(self, capsys, adder_file):
        code, _, _ = run_cli(capsys, "cfcurve", "--channel", adder_file, "--verify")
        assert code == 0

    def test_verify_catches_tampered_rate(self, capsys, adder_file, monkeypatch):
        real = cli.compress_forward_curve

        def tampered(*args, **kwargs):
            curve = real(*args, **kwargs)
            rates = list(curve.rates)
            rates[3] += 1e-6
            return dataclasses.replace(curve, rates=tuple(rates))

        monkeypatch.setattr(cli, "compress_forward_curve", tampered)
        code, _, err = run_cli(capsys, "cfcurve", "--channel", adder_file, "--verify")
        assert code == 1
        assert json.loads(err)["error"] == "VerificationError"


@pytest.mark.parametrize("argv", [
    ["singlerate", "--json-out", "{missing}/x.json"],
    ["region", "--weights", "1:1", "--restarts", "0", "--csv-out", "{missing}/f.csv"],
    ["cfcurve", "--csv-out", "{dir}"]], ids=["json_out", "csv_out", "directory"])
def test_unwritable_output_exits_two(capsys, tmp_path, adder_file, argv):
    # Writing used to fail with FileNotFoundError or IsADirectoryError, exit 1.
    argv = [a.format(missing=tmp_path / "missing", dir=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, *argv, "--channel", adder_file)
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "input" and repr(argv[-1]) in doc["message"]


def test_output_path_checked_before_the_analysis(capsys, tmp_path, adder_file, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the frontier ran before the output path was checked")

    monkeypatch.setattr(cli, "cover_leung_frontier", unreachable)
    path = str(tmp_path / "missing" / "f.csv")
    code, out, err = run_cli(capsys, "region", "--csv-out", path, "--channel", adder_file)
    assert code == 2 and out == ""
    assert repr(path) in json.loads(err)["message"]


def test_unwritable_json_out_writes_no_csv(capsys, tmp_path, adder_file):
    csv_path, json_path = tmp_path / "ok.csv", str(tmp_path / "missing" / "x.json")
    code, out, err = run_cli(capsys, "cfcurve", "--csv-out", str(csv_path),
                             "--json-out", json_path, "--channel", adder_file)
    assert code == 2 and out == ""
    assert repr(json_path) in json.loads(err)["message"]
    assert not csv_path.exists()


def test_json_out_write_failure_exits_two(capsys, tmp_path, adder_file):
    # The directory exists, so only the write itself can fail.
    path = str(tmp_path / ("x" * 300))
    code, out, err = run_cli(capsys, "singlerate", "--json-out", path, "--channel", adder_file)
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc == {"error": "input", "message": f"cannot write {path!r}: File name too long"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["erasure_adder_p050.json"]


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("command", [["singlerate"], ["check", "gain-condition"],
                                     ["cfcurve"], ["region", "--weights", "1:1"]])
def test_bad_tol_exits_two(capsys, adder_file, command, tol):
    code, out, err = run_cli(capsys, *command, "--channel", adder_file, "--tol", tol)
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "input" and "tol" in doc["message"]


@pytest.mark.parametrize("command", [["singlerate"], ["check", "gain-condition"], ["cfcurve"]])
def test_tiny_tol_accepted(capsys, adder_file, command):
    # The inner capacity solves run at tol / 100, which would underflow to 0 here.
    code, out, err = run_cli(capsys, *command, "--channel", adder_file, "--tol", "1e-322")
    assert code == 0 and out and err == ""


@pytest.mark.parametrize("argv", [["region", "--restarts", "-3"], ["region", "--seed", "-1"],
                                  ["check", "erasure-scaling", "--erasure-p", "0.5",
                                   "--restarts", "-2"],
                                  ["check", "erasure-scaling", "--erasure-p", "0.5",
                                   "--seed", "-1"]])
def test_negative_restarts_or_seed_exits_two(capsys, groupless_file, argv):
    code, out, err = run_cli(capsys, *argv, "--channel", groupless_file)
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "input" and argv[-2].lstrip("-") in doc["message"]


@pytest.mark.parametrize("argv,message", [
    (["region", "--weights", "1:2:3"], "weight '1:2:3' is not of the form w1:w2"),
    (["region", "--weights", "a:b"], "weight 'a:b' is not numeric"),
    (["cfcurve", "--a-grid", "0:0.2"], "a-grid '0:0.2' is not of the form start:stop:step"),
    (["cfcurve", "--a-grid", "0:x:0.1"], "a-grid '0:x:0.1' is not numeric"),
    (["cfcurve", "--a-grid", "0:0.2:-1"],
     "a-grid '0:0.2:-1' must have positive step and stop >= start")])
def test_malformed_list_flag_exits_two(capsys, adder_file, argv, message):
    code, out, err = run_cli(capsys, *argv, "--channel", adder_file)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "input", "message": message}


@pytest.mark.parametrize("argv", [["region"], ["check", "erasure-scaling", "--erasure-p", "0.5"]])
def test_empty_weights_exits_two(capsys, groupless_file, argv):
    # An empty list is an input error, not a request for the default fan.
    code, out, err = run_cli(capsys, *argv, "--weights", "", "--channel", groupless_file)
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "input" and doc["message"] == "no weights given"


@pytest.mark.parametrize("channel,pair,message", [
    ("adder", "1.7e308:1.7e308", "weight (1.7e+308, 1.7e+308): the sum w1 + w2 overflows"),
    ("noiseless", "1e308:0", "weight (1e+308, 0.0): the frontier value at it overflows")])
def test_overflowing_weights_exit_two(capsys, tmp_path, channel, pair, message):
    # A finite pair is still rejected where its sum or, at R1 = 2 bits on the
    # noiseless 4-input channel, its reported value overflows.
    if channel == "adder":
        mac = catalog.adder_mac()
    else:
        pmf = np.zeros((4, 1, 4))
        pmf[np.arange(4), 0, np.arange(4)] = 1.0
        mac = macfeedback.Mac(tuple("abcd"), ("z",), tuple("abcd"), pmf)
    save_channel(mac, tmp_path / "ch.json")
    code, out, err = run_cli(capsys, "region", "--weights", pair, "--restarts", "0",
                             "--channel", str(tmp_path / "ch.json"))
    assert_one_json_input_error(code, out, err)
    assert json.loads(err)["message"] == message


@pytest.mark.parametrize("which,flag", [
    ("additive-classify", ["--tol", "-1"]), ("additive-classify", ["--tol", "1e-9"]),
    ("symmetry", ["--tol", "nan"]), ("symmetry", ["--erasure-p", "7"]),
    ("symmetry", ["--verify"]), ("additive", ["--restarts", "-5"]),
    ("additive", ["--seed", "-3"]), ("additive", ["--seed", "0"]),
    ("additive", ["--weights", "1:1"]), ("gain-condition", ["--restarts", "-5"]),
    ("gain-condition", ["--seed", "1"]), ("gain-condition", ["--erasure-p", "0.5"]),
])
def test_check_rejects_flags_it_does_not_read(capsys, adder_file, which, flag):
    # Also at a flag's default value: the check would ignore it either way.
    code, out, err = run_cli(capsys, "check", which, *flag, "--channel", adder_file)
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "input" and flag[0] in doc["message"]


def assert_one_json_input_error(code, out, err, flag=None):
    assert code == 2 and out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "input"
    if flag is not None:
        assert flag in doc["message"]


@pytest.mark.parametrize("argv", [
    ["singlerate", "--restarts", "-5"], ["singlerate", "--seed", "0"],
    ["singlerate", "--weights", "1:1"], ["singlerate", "--csv-out", "x.csv"],
    ["cfcurve", "--seed", "1"], ["cfcurve", "--restarts", "3"],
    ["region", "--erasure-p", "0.5"], ["region", "--user", "2"],
])
def test_subcommand_rejects_flags_it_does_not_read(capsys, adder_file, argv):
    code, out, err = run_cli(capsys, *argv, "--channel", adder_file)
    assert_one_json_input_error(code, out, err, argv[1])


@pytest.mark.parametrize("argv,flag", [
    (["singlerate"], "--channel"),
    (["check", "additive"], "--channel"),
    (["region", "--restarts", "abc", "--channel", "CH"], "--restarts"),
    (["cfcurve", "--user", "3", "--channel", "CH"], "--user"),
    (["check", "erasure-scaling", "--channel", "CH"], "--erasure-p"),
    (["check", "--channel", "CH"], None),
    # A check's flags come after its name.
    (["check", "--channel", "CH", "additive"], None),
    (["check"], None),
    (["frontier", "--channel", "CH"], None),
    ([], None),
])
def test_usage_error_is_one_json_line(capsys, adder_file, argv, flag):
    argv = [adder_file if a == "CH" else a for a in argv]
    assert_one_json_input_error(*run_cli(capsys, *argv), flag)


@pytest.mark.parametrize("argv", [["--help"], ["check", "-h"],
                                  ["check", "erasure-scaling", "--help"]])
def test_help_exits_zero(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: macfeedback " + " ".join(argv[:-1]))


@pytest.mark.parametrize("argv", [["gain-condition", "--tol", "1e-8"],
                                  ["erasure-scaling", "--erasure-p", "0.5", "--weights", "1:1",
                                   "--restarts", "2", "--seed", "1", "--tol", "1e-8"]])
def test_check_accepts_flags_it_reads(capsys, adder_file, argv):
    code, out, _ = run_cli(capsys, "check", *argv, "--channel", adder_file)
    assert code == 0 and json.loads(out)["check"] == argv[0]


def test_nan_in_report_exits_one(capsys, adder_file, monkeypatch):
    monkeypatch.setattr(cli, "cmd_singlerate", lambda cf, args: {"value": math.nan})
    code, out, err = run_cli(capsys, "singlerate", "--channel", adder_file)
    assert code == 1
    assert out == ""
    assert "NaN" not in err
    assert json.loads(err)["error"] == "ValueError"


class TestParserReuse:
    """One parser serves every `main` call of a process."""

    def test_import_builds_no_parser(self):
        code = ("import argparse\n"
                "made = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counting(self, *a, **k):\n"
                "    made.append(1)\n"
                "    init(self, *a, **k)\n"
                "argparse.ArgumentParser.__init__ = counting\n"
                "import macfeedback, macfeedback.cli\n"
                "print(len(made), macfeedback.cli.build_parser.cache_info().currsize)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]

    def test_no_state_carried_between_calls(self, capsys, adder_file, groupless_file):
        calls = [
            ["singlerate", "--channel", adder_file, "--tol", "1e-6"],
            ["singlerate", "--channel", adder_file],
            ["region", "--channel", groupless_file, "--weights", "1:1", "--restarts", "0"],
            ["check", "gain-condition", "--channel", adder_file, "--tol", "1e-6"],
            ["check", "gain-condition", "--channel", adder_file],
            ["check", "additive-classify", "--channel", adder_file],
            ["check", "symmetry", "--channel", adder_file],
            ["check", "additive", "--seed", "0", "--channel", adder_file],
            ["check", "additive", "--channel", adder_file],
            ["check", "erasure-scaling", "--channel", groupless_file, "--erasure-p", "0.5",
             "--weights", "1:1", "--restarts", "0", "--seed", "3"],
            ["check", "erasure-scaling", "--channel", groupless_file, "--erasure-p", "0.5",
             "--weights", "1:1", "--restarts", "0"],
            ["cfcurve", "--channel", adder_file, "--a-grid", "0:0.02:0.01"],
            ["cfcurve", "--channel", adder_file, "--nope"],
            ["region"],
            ["--help"],
        ]
        cli.build_parser.cache_clear()
        shared = [run_cli(capsys, *argv) for argv in calls]
        assert cli.build_parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert shared == fresh
        codes = [code for code, _, _ in shared]
        assert codes == [0] * 7 + [2] + [0] * 4 + [2, 2, 0]
        # Flags given to one call do not reach the next.
        assert json.loads(shared[0][1])["tol"] == 1e-6
        assert json.loads(shared[1][1])["tol"] == DEFAULT_TOL
        assert shared[-1][1].startswith("usage: macfeedback")


class TestAdditiveClassifyShared:
    """`check additive-classify` does the user-independent work once."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        counts = {"maximize_joint_mi": 0, "verify_additive": 0}
        for name in counts:
            real = getattr(checkers, name)

            def counting(*args, name=name, real=real, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(checkers, name, counting)
        return counts

    @pytest.mark.parametrize("mac,group", [
        (catalog.erasure_adder_mac(0.0), catalog.erasure_adder_group()),
        (catalog.erasure_adder_mac(0.3), catalog.erasure_adder_group()),
        (catalog.erasure_adder_mac(1.0), catalog.erasure_adder_group()),
        (catalog.binary_symmetric_mac(0.11), catalog.binary_symmetric_group()),
    ], ids=["erasure_adder_p0", "erasure_adder_p03", "erasure_adder_p1", "bsc_q011"])
    def test_once_and_equal_to_library(self, capsys, tmp_path, counts, mac, group):
        path = tmp_path / "ch.json"
        save_channel(mac, path, group=group)
        code, out, err = run_cli(capsys, "check", "additive-classify", "--channel", str(path))
        assert code == 0 and err == ""
        assert counts == {"maximize_joint_mi": 1, "verify_additive": 1}
        doc = json.loads(out)
        for cls in classify_additive_gain(mac, group):
            assert doc[f"user{cls.user}"] == json.loads(json.dumps(cls.to_dict()))

    def test_non_additive_exits_two(self, capsys, tmp_path, counts):
        path = tmp_path / "ch.json"
        save_channel(random_mac(np.random.default_rng(3), ny=2), path,
                     group=catalog.binary_symmetric_group())
        code, out, err = run_cli(capsys, "check", "additive-classify", "--channel", str(path))
        assert code == 2 and out == ""
        assert "not additive" in json.loads(err)["message"]
        assert counts["maximize_joint_mi"] == 0


def test_non_additive_refused_alike(capsys, tmp_path):
    # `check symmetry` and `check additive-classify` refuse a channel its
    # group does not certify additive with one message.
    path = tmp_path / "ch.json"
    save_channel(random_mac(np.random.default_rng(3), ny=2), path,
                 group=catalog.binary_symmetric_group())
    errors = []
    for which in ("symmetry", "additive-classify"):
        code, out, err = run_cli(capsys, "check", which, "--channel", str(path))
        assert code == 2 and out == ""
        errors.append(json.loads(err)["message"])
    assert errors[0] == errors[1]
    assert errors[0].startswith("channel is not additive under the given group: ")


def test_console_entry_point_smoke(tmp_path):
    path = tmp_path / "ch.json"
    save_channel(catalog.binary_symmetric_mac(0.0), path)
    proc = subprocess.run(
        [sys.executable, "-m", "macfeedback", "singlerate", "--channel", str(path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["user1"]["value"] == pytest.approx(1.0, abs=1e-6)


def test_cli_imports_no_private_name():
    # The CLI reaches every analysis through the library's public functions.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("macfeedback"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
