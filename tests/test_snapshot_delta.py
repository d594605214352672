"""The snapshot comparison tool on small hand-made snapshots."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "snapshot_delta.py"
_SPEC = importlib.util.spec_from_file_location("snapshot_delta", _PATH)
snapshot_delta = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(snapshot_delta)


def write(d: Path, files: dict) -> Path:
    d.mkdir()
    for name, text in files.items():
        (d / name).write_text(text)
    return d


def test_identical_snapshots_exit_zero(tmp_path, capsys):
    files = {"a.out": '{"x": 1.0}\n', "a.code": "0\n"}
    a = write(tmp_path / "a", files)
    b = write(tmp_path / "b", files)
    assert snapshot_delta.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "0 of 2 files differ\n"


def test_paths_largest_change_and_flags(tmp_path, capsys):
    before = {"cutset": {"sum": 1.0, "r1": 0.5}, "points": [{"R1": 0.25}],
              "conclusion": "equal", "gone": 1}
    after = {"cutset": {"sum": 1.0 + 3e-10, "r1": 0.5}, "points": [{"R1": 0.5}],
             "conclusion": "strictly_greater"}
    a = write(tmp_path / "a", {"r.out": json.dumps(before), "r.code": "0\n",
                               "c.out": "a,rate\n0.0,1.0\n", "only_a.out": ""})
    b = write(tmp_path / "b", {"r.out": json.dumps(after), "r.code": "1\n",
                               "c.out": "a,rate\n0.0,1.5\n"})
    assert snapshot_delta.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "    line[1][1]: 1.0 -> 1.5 (+0.5)" in out
    assert "    cutset.sum: 1.0 -> 1.0000000003 (+3e-10)" in out
    assert "    points[0].R1: 0.25 -> 0.5 (+0.25)" in out
    assert "  ! conclusion: 'equal' -> 'strictly_greater'" in out
    assert "  ! gone: 1 -> (absent)" in out
    assert "  ! exit code 0 -> 1" in out
    assert any(line.startswith("  ! only in") for line in out)
    assert "cutset.r1" not in "\n".join(out)
    assert out.count("  largest |numeric change|: 0.5") == 1
    assert out.count("  largest |numeric change|: 0.25") == 1
    assert out[-1] == "4 of 4 files differ"
