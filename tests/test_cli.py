import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import validate as schema_validate

from overlapcodes.cli import SPEC_INTEGERS, SPEC_PATHS, main
from overlapcodes.constructions import KINDS, overlap_free_1k
from overlapcodes.fileio import read_code, write_code, write_family
from overlapcodes.families import balanced_family, family
from overlapcodes.words import code

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schema"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


@pytest.fixture
def family_file(tmp_path):
    f = family(2, [({"0"}, {"1"}), (set(), {"01"})])
    path = tmp_path / "fam.txt"
    write_family(f, path)
    return path


def test_construct_one_k(tmp_path, family_file, capsys):
    spec = {"kind": "OneK", "n": 4, "k": 2, "family": str(family_file)}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "code.txt"
    report = tmp_path / "report.json"
    rc = main(["construct", "--spec", str(spec_path), "--out", str(out),
               "--report", str(report)])
    assert rc == 0
    c = read_code(out)
    assert c.sorted_words() == ["0001", "0011"]
    data = json.loads(report.read_text())
    assert data["ok"] and data["size"] == 2
    schema_validate(spec, load_schema("construction_spec.v1.json"))
    manifest = json.loads((str(out) + ".manifest.json" and
                           Path(str(out) + ".manifest.json")).read_text())
    schema_validate(manifest, load_schema("manifest.v1.json"))


def test_construct_invalid_family_exits_nonzero(tmp_path, monkeypatch,
                                               capsys):
    # level 2 of a q=2 family must split {01}; this file leaves it empty
    monkeypatch.chdir(tmp_path)
    Path("badfam.txt").write_text("q=2 k=2\nL1: 0\nR1: 1\nL2:\nR2:\n")
    Path("spec.json").write_text(json.dumps(
        {"kind": "OneK", "n": 4, "k": 2, "family": "badfam.txt"}))
    rc = main(["construct", "--spec", "spec.json", "--out", "c.txt",
               "--report", "report.json"])
    assert rc == 1
    assert capsys.readouterr() == (
        "", "badfam.txt: invalid partition family: level 2: L2 union R2 != "
        "concatenation layer (missing ['01'], extra [])\n")
    assert not Path("c.txt").exists() and not Path("report.json").exists()


def test_construct_pad_from_code(tmp_path):
    base = tmp_path / "base.txt"
    write_code(code(2, 3, {"001"}), base)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"kind": "PadT1T2", "n": 4, "t1": 2, "t2": 3, "code": str(base)}))
    out = tmp_path / "out.txt"
    rc = main(["construct", "--spec", str(spec_path), "--out", str(out)])
    assert rc == 0
    assert read_code(out).sorted_words() == ["0010", "0011"]


def run_spec(tmp_path, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out.txt"
    rc = main(["construct", "--spec", str(spec_path), "--out",
               str(out), "--report", str(tmp_path / "report.json")])
    return rc, out


def test_construct_spec_must_be_object(tmp_path, capsys):
    rc, out = run_spec(tmp_path, [{"kind": "OneK", "n": 4}])
    assert rc == 2 and not out.exists()
    assert "JSON object" in capsys.readouterr().err


def test_construct_spec_rejects_unknown_key(tmp_path, family_file, capsys):
    rc, out = run_spec(tmp_path, {"kind": "OneK", "n": 4, "k": 2, "K": 3,
                                  "family": str(family_file)})
    assert rc == 2 and not out.exists()
    assert "'K'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["Bogus", ["OneK"], None])
def test_construct_spec_rejects_unknown_kind(tmp_path, family_file, capsys,
                                             kind):
    rc, out = run_spec(tmp_path, {"kind": kind, "n": 4,
                                  "family": str(family_file)})
    assert rc == 2 and not out.exists()
    assert f"got {kind!r}" in capsys.readouterr().err


def test_construct_spec_requires_n(tmp_path, family_file, capsys):
    rc, out = run_spec(tmp_path, {"kind": "OneK", "k": 2,
                                  "family": str(family_file)})
    assert rc == 2 and not out.exists()
    assert "missing ['n']" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("n", "4"), ("k", True), ("k", 2.0),
                                       ("t1", None)])
def test_construct_spec_rejects_non_integer(tmp_path, family_file, capsys,
                                            key, value):
    spec = {"kind": "OneK", "n": 4, "k": 2, "family": str(family_file)}
    spec[key] = value
    rc, out = run_spec(tmp_path, spec)
    assert rc == 2 and not out.exists()
    assert f"'{key}' must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("n", 1), ("k", -1), ("t1", 0),
                                       ("t2", 0)])
def test_construct_spec_enforces_minimums(tmp_path, family_file, capsys,
                                          key, value):
    spec = {"kind": "OneK", "n": 4, "k": 2, "family": str(family_file)}
    spec[key] = value
    rc, out = run_spec(tmp_path, spec)
    assert rc == 2 and not out.exists()
    assert f"'{key}' must be an integer" in capsys.readouterr().err
    # the same spec breaks the schema the CLI mirrors
    with pytest.raises(Exception):
        schema_validate(spec, load_schema("construction_spec.v1.json"))


@pytest.mark.parametrize("key", SPEC_PATHS)
def test_construct_spec_rejects_non_string_path(tmp_path, capsys, key):
    rc, out = run_spec(tmp_path, {"kind": "OneK", "n": 4, "k": 2, key: 3})
    assert rc == 2 and not out.exists()
    err = capsys.readouterr().err
    assert f"'{key}' must be a path string" in err
    assert len(err.splitlines()) == 1


def test_construct_spec_check_mirrors_schema():
    schema = load_schema("construction_spec.v1.json")
    props = schema["properties"]
    assert set(props) == {"kind", *SPEC_INTEGERS, *SPEC_PATHS}
    assert set(props["kind"]["enum"]) == set(KINDS)
    assert set(schema["required"]) == {"kind", "n"}
    for key, low in SPEC_INTEGERS.items():
        assert props[key] == {**props[key], "type": "integer", "minimum": low}
    for key in SPEC_PATHS:
        assert props[key]["type"] == "string"


@pytest.mark.parametrize("spec", [
    {"kind": "PadT1T2", "n": 27, "t1": 25, "t2": 25, "code": "base.txt"},
    # 2^29997 middles: past the digits an int converts to str
    {"kind": "Simultaneous", "n": 30000, "k": 1, "family": "fam1.txt"},
])
def test_construct_library_errors_exit_with_one_line(
        tmp_path, monkeypatch, capsys, spec):
    monkeypatch.chdir(tmp_path)
    Path("fam1.txt").write_text("q=2 k=1\nL1: 0\nR1: 1\n")
    write_code(code(2, 3, {"001"}), "base.txt")
    rc, out = run_spec(tmp_path, spec)
    assert rc == 3
    assert not out.exists() and not (tmp_path / "report.json").exists()
    err = capsys.readouterr().err
    assert "more than 10000000 words" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("spec,complaint", [
    ({"kind": "NonOverlapping", "n": 3, "family": "fam.txt", "k": 1, "t1": 2,
      "t2": 2}, "NonOverlapping does not read k, t1, t2"),
    ({"kind": "PadT1T2", "n": 4, "t1": 2, "t2": 3, "family": "fam.txt",
      "code": "base.txt"}, "PadT1T2 requires a family or a base code, not both"),
    ({"kind": "PadT1T2", "n": 9, "t1": 2, "t2": 3, "code": "base.txt"},
     "PadT1T2 n must be the base code length + t1 - 1 = 4, got 9"),
    ({"kind": "NonOverlapping", "n": 3, "family": "fam.txt", "code": "base.txt"},
     "NonOverlapping does not read code"),
])
def test_construct_refuses_fields_its_kind_does_not_read(
        tmp_path, monkeypatch, family_file, capsys, spec, complaint):
    monkeypatch.chdir(tmp_path)
    write_code(code(2, 3, {"001"}), "base.txt")
    rc, out = run_spec(tmp_path, spec)
    assert rc == 2
    assert not out.exists() and not (tmp_path / "report.json").exists()
    assert capsys.readouterr().err == f"error: {complaint}\n"


@pytest.mark.parametrize("spec,complaint", [
    ({"kind": "OneK", "n": 4, "k": 7, "family": "fam.txt"},
     "overlap window must satisfy 1 <= t1 <= t2 <= n-1, got t1=1, t2=7, n=4"),
    ({"kind": "WMU", "n": 3, "k": 5, "family": "fam.txt"},
     "wmu_expanded: k must satisfy 0 <= k <= n-2"),
])
def test_construct_refuses_arguments_its_builder_refuses(
        tmp_path, monkeypatch, family_file, capsys, spec, complaint):
    monkeypatch.chdir(tmp_path)
    rc, out = run_spec(tmp_path, spec)
    assert rc == 2
    assert not out.exists() and not (tmp_path / "report.json").exists()
    assert capsys.readouterr().err == f"error: {complaint}\n"


def test_construct_warning_is_one_line(tmp_path, monkeypatch, capfd):
    monkeypatch.chdir(tmp_path)
    Path("fam3.txt").write_text(
        "q=2 k=3\nL1: 0\nR1: 1\nL2:\nR2: 01\nL3: 001\nR3:\n")
    spec = {"kind": "ExpandedT1T2", "n": 6, "t1": 2, "t2": 3,
            "family": "fam3.txt"}
    rc, out = run_spec(tmp_path, spec)
    assert rc == 0 and len(read_code(out)) == 7
    assert (tmp_path / "report.json").exists()
    assert capfd.readouterr().err == ("warning: t1t2_expanded: union terms "
                                      "are not disjoint (8 generated, 7 "
                                      "distinct)\n")


def test_verify_exit_codes(tmp_path):
    good = tmp_path / "good.txt"
    write_code(code(2, 4, {"0001", "0011"}), good)
    assert main(["verify", "--code", str(good), "--t1", "1", "--t2", "2"]) == 0
    assert main(["verify", "--code", str(good), "--t1", "1", "--t2", "3"]) == 1


def test_bounds_json_schema(tmp_path):
    out = tmp_path / "bounds.json"
    rc = main(["bounds", "--q", "2", "--n", "4", "--t1", "1", "--t2", "2",
               "--json", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    schema_validate(payload, load_schema("bound_report.v1.json"))
    assert payload["exact"] == 2


def test_bounds_csv_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["bounds", "--q", "2", "--n", "4", "--csv", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("q,n,t1,t2")
    assert len(rows) == 1 + 6  # all windows of n=4


@pytest.mark.parametrize("half", [["--t1", "1"], ["--t2", "2"]])
def test_bounds_rejects_half_window(tmp_path, capsys, half):
    out = tmp_path / "sweep.csv"
    rc = main(["bounds", "--q", "2", "--n", "4", *half, "--csv", str(out)])
    assert rc == 2 and not out.exists()
    err = capsys.readouterr().err
    assert "--t1 and --t2" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("window,option", [
    (["--t1", "1", "--t2", "2"], "--csv"),
    ([], "--json"),
])
def test_bounds_rejects_output_option_it_would_drop(tmp_path, capsys, window,
                                                    option):
    csv_out, json_out = tmp_path / "x.csv", tmp_path / "x.json"
    flags = ["--csv", str(csv_out)] + (["--json", str(json_out)]
                                       if not window else [])
    rc = main(["bounds", "--q", "2", "--n", "4", *window, *flags])
    assert rc == 2 and not list(tmp_path.iterdir())
    captured = capsys.readouterr()
    assert option in captured.err and len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_families_validate_rejects_options_it_would_drop(tmp_path, capsys):
    fam = tmp_path / "one.txt"
    fam.write_text("q=2 k=1\nL1: 0\nR1: 1\n")
    out = tmp_path / "x.txt"
    rc = main(["families", "--validate", str(fam), "--q", "3", "--k", "2",
               "--out", str(out), "--max-families", "5"])
    assert rc == 2 and list(tmp_path.iterdir()) == [fam]
    captured = capsys.readouterr()
    assert "--q --k --out --max-families" in captured.err
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


@pytest.mark.parametrize("argv,complaint", [
    (["bounds", "--q", "99", "--n", "0", "--csv", "ART"], "alphabet size"),
    (["bounds", "--q", "1", "--n", "1", "--csv", "ART"], "alphabet size"),
    (["bounds", "--q", "2", "--n", "1", "--csv", "ART"], "--n must be >= 2"),
    (["bounds", "--q", "2", "--n", "0", "--csv", "ART"], "--n must be >= 2"),
    (["bounds", "--q", "2", "--n", "1", "--t1", "1", "--t2", "1",
      "--json", "ART"], "--n must be >= 2"),
    (["tables", "--which", "table1", "--q", "99", "--n-max", "3",
      "--csv", "ART"], "alphabet size"),
    (["tables", "--which", "table2", "--q", "1", "--n-max", "9",
      "--csv", "ART"], "alphabet size"),
], ids=["bounds-q99-n0", "bounds-q1-n1", "bounds-n1", "bounds-n0",
        "bounds-window-n1", "tables-q99", "tables-q1"])
def test_empty_sweep_still_checks_its_input(tmp_path, monkeypatch, capsys,
                                            argv, complaint):
    # a sweep with no window or row to run must not skip the q and n checks
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert complaint in captured.err and len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_search_json_schema(tmp_path):
    out = tmp_path / "search.json"
    rc = main(["search", "--q", "2", "--n", "4", "--t1", "1", "--t2", "3",
               "--json", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    schema_validate(payload, load_schema("search_result.v1.json"))
    assert payload["size"] == 1 and payload["exact"]


@pytest.mark.parametrize("t1,t2,complaint", [
    ("1", "2", "more than 10000000 words"),  # rectangle witness
    ("3", "20", "exceeds vertex cap"),  # 2^30-word graph
    ("1", "19999", "exceeds vertex cap"),  # 2^20000: past int-to-str digits
])
def test_search_over_cap_exits_budget(tmp_path, capsys, t1, t2, complaint):
    out = tmp_path / "search.json"
    n = str(max(30, int(t2) + 1))  # a window past 29 needs n = t2 + 1
    rc = main(["search", "--q", "2", "--n", n, "--t1", t1, "--t2", t2,
               "--json", str(out)])
    assert rc == 3 and not out.exists()
    err = capsys.readouterr().err
    assert complaint in err and len(err.splitlines()) == 1


def test_search_forced_method_error_exits_usage(tmp_path):
    # max_code picks its engine from the window, so search takes no --method
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["search", "--q", "2", "--n", "4", "--t1", "1", "--t2", "3",
              "--method", "rectangle", "--json", str(out)])
    assert exc.value.code == 2 and not out.exists()


@pytest.mark.parametrize("form", [["--t1", "1", "--t2", "2", "--json", "ART"],
                                  ["--csv", "ART"]], ids=["window", "sweep"])
def test_bounds_past_int_str_digits_exits_budget(tmp_path, monkeypatch,
                                                 capsys, form):
    # every rule value is at most 2^20000, which has over 4300 digits
    monkeypatch.chdir(tmp_path)
    assert main(["bounds", "--q", "2", "--n", "20000", *form]) == 3
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert "4300 digits" in captured.err
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_tables_csv(tmp_path):
    out = tmp_path / "t1.csv"
    rc = main(["tables", "--which", "table1", "--q", "2", "--n-max", "5",
               "--csv", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    row = rows[1].split(",")
    assert row[:4] == ["table1", "2", "5", "1"]
    assert row[5] == "3" and row[6] == "yes"  # printed value, bold


def test_simulate_exhaustive(tmp_path):
    code_path = tmp_path / "code.txt"
    write_code(code(2, 4, {"0010", "0011"}), code_path)
    edits = tmp_path / "edits.json"
    edits.write_text(json.dumps({"message": [0, 1, 0, 1, 1, 0, 1, 0],
                                 "window": [2, 3]}))
    out = tmp_path / "events.json"
    hist = tmp_path / "hist.csv"
    rc = main(["simulate", "--code", str(code_path), "--edits", str(edits),
               "--exhaustive", "--json", str(out), "--hist", str(hist)])
    assert rc == 0
    payload = json.loads(out.read_text())
    schema_validate(payload, load_schema("simulate_events.v1.json"))
    offsets = [run["detection_offset"] for run in payload["runs"]]
    assert all(off is not None for off in offsets)
    assert hist.read_text().startswith("detection_offset,count")


def test_simulate_explicit_edits(tmp_path):
    code_path = tmp_path / "code.txt"
    write_code(code(2, 4, {"0010", "0011"}), code_path)
    edits = tmp_path / "edits.json"
    edits.write_text(json.dumps({
        "message": [0, 1, 0, 1],
        "window": [2, 3],
        "edits": [{"kind": "delete", "position": 2, "burst_length": 1},
                  {"kind": "insert", "position": 5, "burst_length": 2,
                   "inserted": "01"}],
    }))
    rc = main(["simulate", "--code", str(code_path), "--edits", str(edits),
               "--json", str(tmp_path / "ev.json")])
    assert rc == 0


def test_simulate_records_drawn_insertions_for_replay(tmp_path):
    # unseeded inserts draw from OS entropy; the recorded symbols, fed back
    # as an edits file, replay the run exactly
    code_path = tmp_path / "c3.txt"
    write_code(overlap_free_1k(balanced_family(3, 1, 2, "L_empty"), 5, 2),
               code_path)
    message = [0, 1, 2, 0, 1]
    edits = tmp_path / "e5.json"
    edits.write_text(json.dumps({
        "message": message, "window": [1, 2],
        "edits": [{"kind": "insert", "position": 5, "burst_length": 5},
                  {"kind": "insert", "position": 5, "burst_length": 3},
                  {"kind": "delete", "position": 5, "burst_length": 2}]}))
    first = tmp_path / "first.json"
    assert main(["simulate", "--code", str(code_path), "--edits", str(edits),
                 "--json", str(first)]) == 0
    runs = json.loads(first.read_text())["runs"]
    recorded = [run["edit"] for run in runs]
    assert [len(e.get("inserted", "")) for e in recorded] == [5, 3, 0]
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({"message": message, "window": [1, 2],
                                  "edits": recorded}))
    second = tmp_path / "second.json"
    assert main(["simulate", "--code", str(code_path), "--edits", str(replay),
                 "--json", str(second)]) == 0
    assert json.loads(second.read_text())["runs"] == runs


@pytest.mark.parametrize("edits,complaint", [
    ([1, 2], "JSON object"),
    ({"message": [0, "1"], "window": [2, 3]}, "'message'"),
    ({"message": [0, 1], "window": [2, "3"]}, "'window'"),
    ({"message": [0, 1], "window": [2]}, "'window'"),
    ({"message": [0, 1], "window": [2, 3],
      "edits": [{"kind": "delete", "position": True, "burst_length": 1}]},
     "'edits'"),
    ({"message": [0, 1], "window": [2, 3], "edits": [["delete", 2, 1]]},
     "'edits'"),
    ({"message": [0, 5], "window": [2, 3]}, "index 5 out of range"),
    ({"message": [0, 1], "window": [2, 3],
      "edits": [{"position": 2, "burst_length": 1}]}, "'kind'"),
    ({"message": [0, 1], "window": [2, 3],
      "edits": [{"kind": 1, "position": 2, "burst_length": 1}]}, "'kind'"),
    ({"message": [0, 1], "window": [2, 3],
      "edits": [{"kind": "insert", "position": 2, "burst_length": 1,
                 "inserted": 5}]}, "'inserted'"),
    ({"message": [0, 1], "window": [2, 3],
      "edits": [{"kind": "insert", "position": 2, "burst_length": 1,
                 "seed": True}]}, "'seed'"),
    ({"message": [0, 1], "window": [2, 3],
      "edits": [{"kind": "insert", "position": 0, "burst_length": 1,
                 "inserted": "7"}]},
     "inserted symbol '7' not in alphabet of size 2"),
    ({"message": [0, 1], "window": [2, 3],
      "edits": [{"kind": "delete", "position": 1, "burst_length": 1,
                 "inserted": "1"}]},
     "a deletion takes no inserted symbols"),
])
def test_simulate_rejects_malformed_edits(tmp_path, capsys, edits, complaint):
    code_path = tmp_path / "code.txt"
    write_code(code(2, 4, {"0010", "0011"}), code_path)
    edits_path = tmp_path / "edits.json"
    edits_path.write_text(json.dumps(edits))
    out = tmp_path / "ev.json"
    rc = main(["simulate", "--code", str(code_path), "--edits",
               str(edits_path), "--json", str(out)])
    assert rc == 2 and not out.exists()
    err = capsys.readouterr().err
    assert complaint in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("edits,complaint", [
    ({"message": [], "window": [1, 2]}, "non-empty 'message'"),
    ({"message": [0, 1], "window": [1, 2],
      "edits": [{"kind": "delete", "position": 0, "burst_length": 1}]},
     "'edits' not used with --exhaustive"),
])
def test_simulate_exhaustive_rejects_edits_it_cannot_sweep(
        tmp_path, capsys, edits, complaint):
    code_path = tmp_path / "code.txt"
    write_code(code(2, 4, {"0001", "0011"}), code_path)
    edits_path = tmp_path / "edits.json"
    edits_path.write_text(json.dumps(edits))
    out, hist = tmp_path / "ev.json", tmp_path / "hist.csv"
    rc = main(["simulate", "--code", str(code_path), "--edits",
               str(edits_path), "--exhaustive", "--json", str(out),
               "--hist", str(hist)])
    assert rc == 2 and not out.exists() and not hist.exists()
    err = capsys.readouterr().err
    assert complaint in err and len(err.splitlines()) == 1


def test_simulate_rejects_code_that_fails_its_window(tmp_path, capsys):
    code_path = tmp_path / "code.txt"
    write_code(code(2, 4, {"0010", "0011"}), code_path)  # 0...0 at t = 1
    edits_path = tmp_path / "edits.json"
    edits_path.write_text(json.dumps({"message": [0, 1], "window": [1, 2]}))
    out = tmp_path / "ev.json"
    rc = main(["simulate", "--code", str(code_path), "--edits",
               str(edits_path), "--json", str(out)])
    assert rc == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err == ("simulate: code fails its window: prefix of '0010' is a "
                   "suffix of '0010' at t=1\n")


def test_construct_report_goes_to_stdout_without_report_path(
        tmp_path, family_file, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"kind": "OneK", "n": 4, "k": 2, "family": str(family_file)}))
    rc = main(["construct", "--spec", str(spec_path),
               "--out", str(tmp_path / "code.txt")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["size"] == 2


def test_families_enumerate_and_validate(tmp_path, capsys):
    out = tmp_path / "fams.txt"
    rc = main(["families", "--q", "2", "--k", "2", "--out", str(out)])
    assert rc == 0
    blocks = [b for b in out.read_text().split("\n\n") if b.strip()]
    assert len(blocks) == 4

    fam = tmp_path / "one.txt"
    fam.write_text("q=2 k=1\nL1: 0\nR1: 1\n")
    assert main(["families", "--validate", str(fam)]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("q=2 k=1\nL1:\nR1: 0 1\n")
    assert main(["families", "--validate", str(bad)]) == 1


@pytest.mark.parametrize("given", [[], ["--q", "2"], ["--k", "2"]])
def test_families_needs_q_and_k(tmp_path, capsys, given):
    out = tmp_path / "fams.txt"
    assert main(["families", *given, "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert "give --q and --k" in captured.err
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_families_budget_exit_code(tmp_path):
    out = tmp_path / "fams.txt"
    # q=2 k=2 has exactly 4 families, so a budget of 4 is not exhausted
    for q, k, max_families, exit_code in [("3", "2", "2", 3),
                                          ("2", "2", "4", 0)]:
        rc = main(["families", "--q", q, "--k", k, "--max-families",
                   max_families, "--out", str(out)])
        assert rc == exit_code
        assert ("TRUNCATED" in out.read_text()) == (exit_code == 3)


@pytest.mark.parametrize("q,k,digest", [
    ("3", "4", "383ff02cc23a39930e4d58a45705dc081bd9d990577511febcc9321a49caf103"),
    ("2", "5", "ee9b39f3d274e8172995c4a958ce57c0e51739542b23306bc1fc67e9e3dccc10"),
])
def test_families_output_is_pinned(tmp_path, capsys, q, k, digest):
    # the q=3 file is 1.3 MB, so the manifest hashes it in many blocks
    out = tmp_path / "fams.txt"
    assert main(["families", "--q", q, "--k", k, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["outputs"] == {str(out): digest}
    capsys.readouterr()
    assert main(["families", "--q", q, "--k", k]) == 0
    assert capsys.readouterr().out == out.read_text()


@pytest.mark.parametrize("argv", [
    ["families", "--q", "2", "--k", "2", "--max-families", "-1"],
    ["search", "--q", "2", "--n", "4", "--t1", "1", "--t2", "2",
     "--budget", "-1"],
])
def test_negative_count_is_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert argv[-2] in captured.err


@pytest.mark.parametrize("argv", [
    ["construct", "--spec", "spec.json", "--out", "ART", "--report", "r.json"],
    ["construct", "--spec", "spec.json", "--out", "c.txt", "--report", "ART"],
    ["bounds", "--q", "2", "--n", "4", "--t1", "1", "--t2", "2",
     "--json", "ART"],
    ["bounds", "--q", "2", "--n", "4", "--csv", "ART"],
    ["search", "--q", "2", "--n", "4", "--t1", "1", "--t2", "2",
     "--json", "ART"],
    ["tables", "--which", "table1", "--q", "2", "--n-max", "5", "--csv", "ART"],
    ["simulate", "--code", "code.txt", "--edits", "edits.json",
     "--json", "ART"],
    ["simulate", "--code", "code.txt", "--edits", "edits.json",
     "--exhaustive", "--hist", "ART"],
    ["families", "--q", "2", "--k", "2", "--out", "ART"],
], ids=lambda argv: argv[0] + argv[argv.index("ART") - 1])
def test_every_artifact_gets_its_manifest(tmp_path, monkeypatch, family_file,
                                          argv):
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(json.dumps(
        {"kind": "OneK", "n": 4, "k": 2, "family": str(family_file)}))
    write_code(code(2, 4, {"0010", "0011"}), "code.txt")
    Path("edits.json").write_text(json.dumps(
        {"message": [0, 1, 1, 0], "window": [2, 3]}))
    assert main(["--seed", "4", *argv]) == 0
    manifest = json.loads(Path("ART.manifest.json").read_text())
    schema_validate(manifest, load_schema("manifest.v1.json"))
    assert manifest["command"] == argv[0] and manifest["seed"] == 4
    digest = hashlib.sha256(Path("ART").read_bytes()).hexdigest()
    assert manifest["outputs"] == {"ART": digest}


def test_tables_without_csv_prints_csv_and_no_manifest(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["tables", "--which", "table1", "--q", "2", "--n-max", "5"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "which,q,n,base_max,families_at_max,value,bold\r\n"
        "table1,2,5,1,8,3,yes\r\n")
    assert list(tmp_path.iterdir()) == []


def test_tables_q3_rows(capsys):
    rc = main(["tables", "--which", "table1", "--q", "3", "--n-max", "6"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "which,q,n,base_max,families_at_max,value,bold\r\n"
        "table1,3,5,8,6,24,no\r\n"
        "table1,3,6,17,12,58,yes\r\n")


def test_deterministic_outputs(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        main(["--seed", "11", "search", "--q", "2", "--n", "4", "--t1", "1",
              "--t2", "2", "--json", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-subcommand"])
    assert exc.value.code == 2


def test_search_classcount_method(tmp_path):
    out = tmp_path / "search.json"
    rc = main(["search", "--q", "2", "--n", "5", "--t1", "3", "--t2", "3",
               "--json", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    schema_validate(payload, load_schema("search_result.v1.json"))
    assert payload["method"] == "classcount" and payload["exact"]
    assert payload["size"] == len(payload["witness"])


def test_python_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    child = subprocess.run(
        [sys.executable, "-m", "overlapcodes", "search", "--q", "2", "--n",
         "4", "--t1", "1", "--t2", "2"],
        cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout)["size"] == 2
