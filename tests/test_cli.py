import io
import json
import logging
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict

import pytest

from qknot import kashaev
from qknot.braid import parse_braid
from qknot.cli import load_corpus, main
from qknot.exactpoly import parse_univariate
from qknot.kashaev import kashaev_value, volume_sequence
from qknot.mcmahon import alexander, colored_jones


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_jones_prints_polynomial():
    code, out, _ = run(["jones", "--word", "1 1 1", "-N", "2"])
    assert code == 0
    assert out.strip() == "q + q^3 - q^4"


def test_jones_dual_engine_verdict():
    code, out, _ = run(["jones", "--word", "1 -2 1 -2", "-N", "2", "--engine", "both"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("mcmahon: ")
    assert lines[1].startswith("oracle: ")
    assert lines[0].split(": ", 1)[1] == lines[1].split(": ", 1)[1]
    assert lines[2] == "verdict: EQUAL"


def test_jones_json_roundtrip():
    code, out, _ = run(["jones", "--word", "1 1 1 1 1", "-N", "3", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["input"] == {"word": "1 1 1 1 1", "strands": 2, "N": 3}
    assert obj["engine"] == "mcmahon"
    assert set(obj["timings"]) == {"mcmahon"}
    want = colored_jones(parse_braid("1 1 1 1 1"), 3)
    assert parse_univariate(obj["result"], "q") == want


def test_jones_json_dual_engine_shape():
    code, out, _ = run(["jones", "--word", "1 1 1", "-N", "2", "--engine", "both", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["result"]["verdict"] == "EQUAL"
    assert obj["result"]["mcmahon"] == obj["result"]["oracle"]
    assert set(obj["timings"]) == {"mcmahon", "oracle"}


def test_jones_json_single_oracle_engine():
    code, out, _ = run(["jones", "--word", "1 1 1", "-N", "2", "--engine", "oracle", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["engine"] == "oracle"
    assert set(obj["timings"]) == {"oracle"}
    assert obj["result"] == "q + q^3 - q^4"


def test_alexander_json_shape():
    code, out, _ = run(["alexander", "--word", "1 -2 1 -2", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["input"] == {"word": "1 -2 1 -2", "strands": 3}
    assert obj["result"] == "-z^-1 + 3 - z"
    assert obj["engine"] == "mcmahon"
    assert set(obj["timings"]) == {"total"}


def test_alexander_output_roundtrip():
    code, out, _ = run(["alexander", "--word", "1 -2 1 -2"])
    assert code == 0
    assert out.strip() == "-z^-1 + 3 - z"
    assert parse_univariate(out.strip(), "z") == alexander(parse_braid("1 -2 1 -2"))


def test_kashaev_exact_output():
    code, out, _ = run(["kashaev", "--word", "1 1 1", "-N", "3"])
    assert code == 0
    assert out.strip() == "-5 - 6*q"


def test_kashaev_float_output():
    code, out, _ = run(["kashaev", "--word", "1 1 1", "-N", "3", "--float"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("value: ")
    assert lines[1].startswith("abs: ")
    assert float(lines[1].split()[1]) == pytest.approx(math.sqrt(31), rel=1e-9)


def test_kashaev_json_carries_the_library_value():
    code, out, _ = run(["kashaev", "--word", "1 -2 1 -2", "-N", "7", "--json"])
    assert code == 0
    obj = json.loads(out)
    want = kashaev_value(parse_braid("1 -2 1 -2"), 7)
    assert obj["input"] == {"word": "1 -2 1 -2", "strands": 3, "N": 7}
    assert obj["engine"] == "mcmahon"
    assert set(obj["timings"]) == {"total"}
    assert set(obj["result"]) == {"exact", "approx", "abs"}
    assert obj["result"]["exact"] == "100 - 14*q^2 - 25*q^3 - 25*q^4 - 14*q^5"
    assert obj["result"]["approx"] == [want.approx.real, want.approx.imag]
    assert obj["result"]["abs"] == abs(want.approx)


def test_kashaev_float_json_carries_the_library_value():
    code, out, _ = run(["kashaev", "--word", "1 -2 1 -2", "-N", "7", "--float", "--json"])
    assert code == 0
    obj = json.loads(out)
    want = kashaev_value(parse_braid("1 -2 1 -2"), 7, mode="float").approx
    assert obj["engine"] == "oracle"
    assert set(obj["timings"]) == {"total"}
    assert obj["result"] == {"value": [want.real, want.imag], "abs": abs(want)}


def test_one_strand_unknot_prints_one_on_every_route():
    unknot = ["--word", "", "--strands", "1"]
    for argv in (["jones", "-N", "3"], ["jones", "-N", "3", "--engine", "oracle"],
                 ["alexander"], ["kashaev", "-N", "5"]):
        assert run(argv + unknot) == (0, "1\n", ""), argv
    code, out, _ = run(["jones", "-N", "3", "--engine", "both"] + unknot)
    assert (code, out) == (0, "mcmahon: 1\noracle: 1\nverdict: EQUAL\n")
    code, out, _ = run(["kashaev", "-N", "5", "--float"] + unknot)
    assert (code, out) == (0, "value: 1.0+0.0j\nabs: 1.0\n")


def test_volume_csv_matches_library():
    code, out, _ = run(["volume", "--word", "1 -2 1 -2", "--N", "3:7:2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,abs_value,rate"
    rows = volume_sequence(parse_braid("1 -2 1 -2"), [3, 5, 7])
    assert len(lines) == 1 + len(rows)
    for line, (N, abs_value, rate) in zip(lines[1:], rows):
        fields = line.split(",")
        assert int(fields[0]) == N
        assert float(fields[1]) == abs_value
        assert float(fields[2]) == rate


def test_volume_accepts_comma_lists_and_single_orders():
    code_list, out_list, _ = run(["volume", "--word", "1 1 1", "--N", "4,6"])
    code_one, out_one, _ = run(["volume", "--word", "1 1 1", "--N", "4"])
    assert code_list == 0 and code_one == 0
    assert out_list.splitlines()[1] == out_one.splitlines()[1]


def test_volume_json_rows():
    code, out, _ = run(["volume", "--word", "1 -2 1 -2", "--N", "5", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["input"]["N"] == [5]
    (row,) = obj["result"]
    (want,) = volume_sequence(parse_braid("1 -2 1 -2"), [5])
    assert row["N"] == 5
    assert row["abs_value"] == want[1]
    assert row["rate"] == want[2]


def test_volume_logs_progress_without_changing_stdout(caplog):
    argv = ["volume", "--word", "1 -2 1 -2", "--N", "5,3"]
    quiet = run(argv)
    with caplog.at_level(logging.DEBUG, logger="qknot.kashaev"):
        loud = run(argv)
    assert loud == quiet
    assert [rec.args[0] for rec in caplog.records if rec.name == "qknot.kashaev"] == [5, 3]


def test_kashaev_logs_its_rotation_without_changing_stdout(caplog):
    argv = ["kashaev", "--word", "1 1 1 2 -1 2", "-N", "5"]
    quiet = run(argv)
    with caplog.at_level(logging.DEBUG, logger="qknot.kashaev"):
        loud = run(argv)
    assert loud == quiet
    records = [rec.args for rec in caplog.records if rec.name == "qknot.kashaev"]
    assert [(args[0], args[2]) for args in records] == [(5, "1 1 1 2 -1 2")]


@pytest.mark.parametrize("argv", [
    ["volume", "--word", "1 1 1", "--N", "4,5"],
    ["volume", "--word", "1 1 1", "--N", "4", "--json"],
    ["kashaev", "--word", "1 1 1", "-N", "4", "--float"],
])
def test_float_value_that_is_not_finite_exits_2(overflowing_float_sum, argv):
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: the float state sum at N = 4 ")


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_volume_reports_the_orders_that_finished_before_one_failed(monkeypatch, json_flag):
    numeric_state_sum = kashaev.numeric_state_sum

    def failing(b, N):
        if N == 5:
            raise ValueError("the float state sum at N = 5 overflowed")
        return numeric_state_sum(b, N)

    monkeypatch.setattr(kashaev, "numeric_state_sum", failing)
    code, out, err = run(["volume", "--word", "1 -2 1 -2", "--N", "4,5,6", *json_flag])
    assert (code, err) == (2, "error: the float state sum at N = 5 overflowed\n")
    (want,) = volume_sequence(parse_braid("1 -2 1 -2"), [4])
    if json_flag:
        assert json.loads(out)["result"] == [{"N": 4, "abs_value": want[1], "rate": want[2]}]
    else:
        assert out == f"N,abs_value,rate\n4,{want[1]!r},{want[2]!r}\n"


@pytest.mark.parametrize("argv", [
    ["volume", "--word", "1 -2 1 -2", "--N", "5,3"],
    ["volume", "--word", "1 -2 1 -2", "--N", "5,3", "--json"],
    ["kashaev", "--word", "1 1 1 2 -1 2", "-N", "7", "--float"],
    ["kashaev", "--word", "1 1 1 2 -1 2", "-N", "5"],
    ["jones", "--word", "1 1 1", "-N", "3"],
    ["alexander", "--word", "1 -2 1 -2"],
])
def test_verbose_logs_to_stderr_without_changing_stdout(argv):
    logger = logging.getLogger("qknot")
    state = (logger.level, list(logger.handlers))
    quiet = run(argv)
    code, out, err = run([*argv, "-v"])
    if "--json" in argv:
        # the timings differ between runs
        out, quiet = json.loads(out), (quiet[0], json.loads(quiet[1]))
        del out["timings"], quiet[1]["timings"]
    assert (code, out) == quiet[:2]
    assert (logger.level, logger.handlers) == state
    if argv[0] == "volume":
        assert [line.split(":")[1] for line in err.splitlines() if "volume N = " in line] == [
            " volume N = 5", " volume N = 3"]
    if argv[0] == "kashaev":
        assert err.startswith("qknot.")


def test_volume_rejects_the_removed_workers_flag():
    assert run(["volume", "--word", "1 -2 1 -2", "--N", "5", "--workers", "2"])[0] == 1


def test_usage_errors_exit_1():
    assert run(["jones", "--word", "1 1 1"])[0] == 1
    assert run(["frobnicate"])[0] == 1
    assert run([])[0] == 1
    assert run(["volume", "--word", "1 1 1", "--N", "nope"])[0] == 1
    assert run(["jones", "--word", "1 1 1", "-N", "0"])[0] == 1
    assert run(["jones", "--word", "abc", "-N", "2"])[0] == 1
    assert run(["jones", "--word", "0", "-N", "2"])[0] == 1


def test_domain_errors_exit_2():
    code, _, err = run(["jones", "--word", "1 1", "-N", "2"])
    assert code == 2
    assert err.startswith("error:")
    assert run(["alexander", "--word", "1 1"])[0] == 2
    assert run(["volume", "--word", "1 1 1", "--N", "1:3:1"])[0] == 2


def test_oversized_oracle_work_exits_2():
    code, out, err = run(["jones", "--engine", "oracle", "--word", "1 1 1", "-N", "400"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_internal_errors_exit_3(monkeypatch):
    import qknot.cli

    def broken(*args, **kwargs):
        raise AssertionError("invariant broken")

    monkeypatch.setattr(qknot.cli, "kashaev_value", broken)
    code, out, err = run(["kashaev", "--word", "1 1 1", "-N", "3"])
    assert code == 3
    assert out == ""
    assert err == "internal error: invariant broken\n"


def test_verify_passes_on_bundled_corpus():
    code, out, _ = run(["verify"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == f"passed {len(lines) - 1} of {len(lines) - 1} checks"


def test_verify_json_shape():
    code, out, _ = run(["verify", "--json"])
    assert code == 0
    obj = json.loads(out)
    checks = obj["result"]["checks"]
    assert all(c["pass"] for c in checks)
    names = {c["check"] for c in checks}
    assert {"closure-knot", "jones-cross-engine", "alexander", "kashaev-consistency"} <= names


def test_verify_json_times_each_check_kind(tmp_path):
    subset = [asdict(e) for e in load_corpus() if e.name in ("trefoil", "figure_eight")]
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(subset))
    code, out, _ = run(["verify", "--corpus", str(path), "--json"])
    assert code == 0
    obj = json.loads(out)
    kinds = {c["check"] for c in obj["result"]["checks"]}
    assert "volume-reference" in kinds
    timings = obj["timings"]
    assert set(timings) == kinds | {"total"}
    assert all(t >= 0 for t in timings.values())
    assert sum(timings[k] for k in kinds) <= timings["total"]


def test_corpus_loader_validates(tmp_path):
    good = load_corpus()
    assert {e.name for e in good} >= {"unknot", "trefoil", "figure_eight", "5_1", "5_2"}
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ValueError):
        load_corpus(str(bad_json))
    bad_word = tmp_path / "word.json"
    bad_word.write_text(
        json.dumps([{"name": "x", "strands": 2, "word": "5", "alexander": None, "volume": None}])
    )
    with pytest.raises(ValueError):
        load_corpus(str(bad_word))
    for raw in ([3], [{"name": "x", "strands": True, "word": "1 1 1"}]):
        bad_entry = tmp_path / "entry.json"
        bad_entry.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="corpus entry 0"):
            load_corpus(str(bad_entry))


def test_verify_reads_alternate_corpus(tmp_path):
    subset = [
        {"name": "trefoil", "strands": 2, "word": "1 1 1", "alexander": "z^-1 - 1 + z", "volume": None}
    ]
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(subset))
    code, out, _ = run(["verify", "--corpus", str(path)])
    assert code == 0
    assert "trefoil" in out


def test_verify_prints_a_failing_check_and_exits_3(tmp_path):
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps([{"name": "trefoil", "strands": 2, "word": "1 1 1", "alexander": "z^-1 + 1 + z"}]))
    code, out, err = run(["verify", "--corpus", str(path)])
    assert (code, err) == (3, "")
    lines = out.splitlines()
    assert "FAIL trefoil alexander  (expected 'z^-1 + 1 + z', got 'z^-1 - 1 + z')" in lines
    assert lines[-1] == "passed 3 of 4 checks"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_verify_refuses_an_empty_corpus(tmp_path, json_flag):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    code, out, err = run(["verify", "--corpus", str(path), *json_flag])
    assert (code, out) == (2, "")
    assert err == "error: corpus has no entries\n"


@pytest.mark.parametrize(
    "entry,field",
    [
        ({"name": "trefoil", "strands": 2, "word": "1 1 1", "alexander": ""}, "alexander"),
        ({"name": "trefoil", "strands": 2, "word": "1 1 1", "alexander": 3}, "alexander"),
        ({"name": "figure_eight", "strands": 3, "word": "1 -2 1 -2", "volume": "2.03"}, "volume"),
        ({"name": "trefoil", "word": "1 1 1"}, "strands"),
        ({"name": "x", "strands": 2, "word": "5"}, "word"),
        ({"name": "x", "strands": 0, "word": ""}, "strands"),
        ({"name": "x", "strands": -3, "word": "1"}, "strands"),
    ],
)
def test_malformed_corpus_entry_exits_2_naming_entry_and_field(tmp_path, entry, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([entry]))
    code, out, err = run(["verify", "--corpus", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err
    assert repr(entry["name"]) in err and repr(field) in err


def test_unreadable_corpus_path_exits_1(tmp_path):
    code, out, err = run(["verify", "--corpus", str(tmp_path / "missing.json")])
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err
