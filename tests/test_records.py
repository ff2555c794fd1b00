import json
import math

import pytest

from eisenlab.corering import AtLeast
from eisenlab.records import (
    ResultRecord,
    append_records,
    decode_valuation,
    encode_valuation,
    existing_keys,
    read_records,
)


def test_valuation_encoding():
    assert encode_valuation(3) == 3
    assert encode_valuation(AtLeast(5)) == {"geq": 5}
    assert decode_valuation(3) == 3
    assert decode_valuation({"geq": 5}) == AtLeast(5)
    # a valuation is an int or {"geq": M}: no float, no "inf" string
    with pytest.raises(ValueError):
        encode_valuation(math.inf)
    for bad in ("inf", 3.0, "3", True):
        with pytest.raises(ValueError):
            decode_valuation(bad)


def _sample_record():
    return ResultRecord(
        N=181,
        p=5,
        t=1,
        merel_value=180,
        merel_is_power_s={"1": True},
        merel_log_sum_s={"1": 0},
        ord_zeta_s={"1": 3},
        ord_cap=6,
        lecouturier_ok=True,
        e=3,
        ell_used=2,
        precision=5,
        f_coeffs=[595, 425, 330, 1],
        t_seq=[1, 1, 1, 0],
        np_vertices=[[0, 1], [3, 0]],
        components=[{"slope": [1, 3], "degree": 3, "resolved": True}],
        diagnostics={"f0_valuation": 1},
        flags=[],
        elapsed=0.5,
    )


def test_round_trip():
    rec = _sample_record()
    line = rec.to_json()
    back = ResultRecord.from_json(line)
    assert back == rec
    assert back.to_json() == line


def test_ord_1_accessor():
    rec = _sample_record()
    assert rec.ord_1() == 3
    rec.ord_zeta_s = {"1": {"geq": 6}}
    assert rec.ord_1() == AtLeast(6)


def test_schema_version_guard():
    rec = _sample_record()
    data = json.loads(rec.to_json())
    data["schema_version"] = 999
    with pytest.raises(ValueError):
        ResultRecord.from_json(json.dumps(data))


@pytest.mark.parametrize(
    "edit",
    [
        lambda data: [1, 2],  # not an object
        lambda data: "row",
        lambda data: {**data, "extra": 1},  # unknown field
        lambda data: {k: v for k, v in data.items() if k != "t"},  # missing required field
        lambda data: {k: v for k, v in data.items() if k != "flags"},  # missing field
    ],
    ids=["list", "string", "unknown-field", "missing-t", "missing-flags"],
)
def test_from_json_rejects_malformed_lines(edit):
    data = json.loads(_sample_record().to_json())
    with pytest.raises(ValueError):
        ResultRecord.from_json(json.dumps(edit(data)))


@pytest.mark.parametrize("command", ["verify", "stats"])
def test_cli_reports_malformed_line_as_error(tmp_path, capsys, command):
    from eisenlab.cli import main

    path = tmp_path / "rows.jsonl"
    data = json.loads(_sample_record().to_json())
    path.write_text(json.dumps({**data, "extra": 1}) + "\n", encoding="utf-8")
    assert main([command, "--in", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_append_read_and_keys(tmp_path):
    path = tmp_path / "rows.jsonl"
    rec = _sample_record()
    rec2 = _sample_record()
    rec2.N = 191
    append_records(str(path), [rec])
    append_records(str(path), [rec2])
    rows = read_records(str(path))
    assert [r.N for r in rows] == [181, 191]
    assert existing_keys(str(path)) == {(181, 5), (191, 5)}


def test_existing_keys_skips_partial_lines(tmp_path):
    path = tmp_path / "rows.jsonl"
    append_records(str(path), [_sample_record()])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"N": 191, "p":')  # simulated crash mid-write
    with pytest.warns(UserWarning, match="torn last line"):
        assert existing_keys(str(path)) == {(181, 5)}


def test_invariants_only_marker():
    # an invariants-only row is one whose e is null, through a round trip
    rec = _sample_record()
    assert rec.e is not None
    rec.e = None
    assert ResultRecord.from_json(rec.to_json()).e is None


def test_read_records_skips_torn_last_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    append_records(str(path), [_sample_record()])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"N": 191, "p":')  # simulated crash mid-write
    with pytest.warns(UserWarning, match="torn last line"):
        rows = read_records(str(path))
    assert [r.N for r in rows] == [181]


def test_read_records_rejects_malformed_middle_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    append_records(str(path), [_sample_record()])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"N": 191, "p":\n')
    rec = _sample_record()
    rec.N = 211
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(rec.to_json() + "\n")
    with pytest.raises(json.JSONDecodeError):
        read_records(str(path))


def test_append_after_torn_tail_loses_no_row(tmp_path):
    path = tmp_path / "rows.jsonl"
    append_records(str(path), [_sample_record()])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"N": 191, "p":')  # simulated crash mid-write
    rec2 = _sample_record()
    rec2.N = 191
    append_records(str(path), [rec2])
    assert [r.N for r in read_records(str(path))] == [181, 191]
    assert path.read_text(encoding="utf-8").endswith("\n")


def test_append_keeps_whole_last_record_without_newline(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text(_sample_record().to_json(), encoding="utf-8")  # crash before the newline
    rec2 = _sample_record()
    rec2.N = 191
    append_records(str(path), [rec2])
    assert [r.N for r in read_records(str(path))] == [181, 191]
