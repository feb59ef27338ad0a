"""JSON and CSV round trips plus the malformed-input taxonomy."""

import json

import pytest

from chogen.designs import ChoiceDesign
from chogen.errors import FormatError
from chogen.serialization import (design_from_dict, design_to_csv,
                                  design_to_dict, dumps, load, loads, save,
                                  save_csv)

D = ChoiceDesign.from_sets([("00", "11"), ("01", "10")])


def test_dict_round_trip_with_meta():
    doc = design_to_dict(D, {"model": "main-effects"})
    assert doc["n"] == 2 and doc["m"] == 2
    assert doc["sets"] == [["00", "11"], ["01", "10"]]
    design, meta = design_from_dict(doc)
    assert design == D
    assert meta == {"model": "main-effects"}


def test_text_round_trip_without_meta():
    design, meta = loads(dumps(D))
    assert design == D and meta == {}


def test_file_round_trip(tmp_path):
    path = tmp_path / "design.json"
    save(D, path, {"tag": 7})
    design, meta = load(path)
    assert design == D and meta == {"tag": 7}


def test_csv_export(tmp_path):
    expect = (
        "set,option,treatment\n"
        "1,1,00\n1,2,11\n2,1,01\n2,2,10\n"
    )
    assert design_to_csv(D) == expect
    path = tmp_path / "design.csv"
    save_csv(D, path)
    assert path.read_text() == expect


def test_malformed_documents():
    with pytest.raises(FormatError):
        design_from_dict(["not", "an", "object"])
    with pytest.raises(FormatError):
        design_from_dict({"n": 2})
    with pytest.raises(FormatError):
        design_from_dict({"sets": []})
    with pytest.raises(FormatError):
        design_from_dict({"sets": ["oops"]})
    with pytest.raises(FormatError):
        design_from_dict({"sets": [[7, 8]]})
    with pytest.raises(FormatError):
        design_from_dict({"sets": [["00", "2x"]]})
    with pytest.raises(FormatError):
        design_from_dict({"sets": [["00", "00"]]})
    with pytest.raises(FormatError):
        design_from_dict({"sets": [["00", "11"]], "meta": "text"})


def test_declared_shape_must_match():
    with pytest.raises(FormatError):
        design_from_dict({"n": 3, "sets": [["00", "11"]]})
    with pytest.raises(FormatError):
        design_from_dict({"m": 4, "sets": [["00", "11"]]})


def test_invalid_json_text():
    with pytest.raises(FormatError):
        loads("{nope")


def test_load_missing_file(tmp_path):
    with pytest.raises(FormatError):
        load(tmp_path / "absent.json")


def _document(N):
    return {"sets": [["0" * 12, "1" * 12, "01" * 6] for _ in range(N)]}


def test_large_malformed_documents_name_the_first_fault():
    # a repeated option early and a bad character late: the bad option is
    # reported, as every option is read before any set is checked
    doc = _document(4000)
    doc["sets"][10][0] = "1" * 12
    doc["sets"][3999][2] = "01010101010x"
    with pytest.raises(FormatError) as info:
        design_from_dict(doc)
    assert str(info.value) == ("bad option '01010101010x': invalid literal "
                               "for int() with base 10: 'x'")
    doc["sets"][3999][2] = "01010101012"
    with pytest.raises(FormatError) as info:
        design_from_dict(doc)
    assert str(info.value) == ("bad option '01010101012': treatment bits "
                               "must be 0 or 1, got (0, 1, 0, 1, 0, 1, 0, 1, "
                               "0, 1, 2)")
    doc["sets"][3999][2] = 7
    with pytest.raises(FormatError) as info:
        design_from_dict(doc)
    assert str(info.value) == "option 7 is not a bit string"
    doc["sets"][3999][2] = "01" * 6
    with pytest.raises(FormatError) as info:
        design_from_dict(doc)
    assert str(info.value) == ("sets do not form a design: option "
                               "111111111111 repeated in a choice set")
    doc["sets"][10][0] = "0" * 12
    doc["sets"][2000] = ["0" * 12, "1" * 11]
    with pytest.raises(FormatError) as info:
        design_from_dict(doc)
    assert str(info.value) == ("sets do not form a design: options of "
                               "widths 12 and 11 in one set")


def test_loaded_designs_read_each_option_once(monkeypatch):
    # plain bit strings never reach the error-reporting decode
    import chogen.serialization as serialization
    calls = []
    monkeypatch.setattr(serialization, "treatment",
                        lambda opt: calls.append(opt))
    design, _ = design_from_dict(_document(50))
    assert design.N == 50 and calls == []
    with pytest.raises(FormatError):
        design_from_dict({"sets": [["00", " 1"]]})
    assert calls == [" 1"]


@pytest.mark.parametrize("sets, text", [
    ([["00", "00"]], "sets do not form a design: option 00 repeated in a "
                     "choice set"),
    ([["0" * 64, "1" * 64, "0" * 64]],
     "sets do not form a design: option " + "0" * 64 + " repeated in a "
     "choice set"),
    ([["00", "111"]], "sets do not form a design: options of widths 2 and 3 "
                      "in one set"),
    ([["00", "11"], ["010", "101"]], "sets do not form a design: choice sets "
                                     "disagree on factor count"),
    ([["00", "11"], ["01", "10", "00"]], "sets do not form a design: choice "
                                         "sets disagree on set size m"),
    ([["00", "11"], ["01"]], "sets do not form a design: a choice set needs "
                             "at least 2 options"),
    ([["00", "2x"]], "bad option '2x': invalid literal for int() with base "
                     "10: 'x'"),
    ([["00", "12"]], "bad option '12': treatment bits must be 0 or 1, got "
                     "(1, 2)"),
    ([["", "1"]], "bad option '': a treatment needs at least one factor"),
    ([["00", "11"], "01"], "each choice set must be a list of bit strings"),
])
def test_malformed_sets_keep_their_format_errors(sets, text):
    with pytest.raises(FormatError) as info:
        design_from_dict({"sets": sets})
    assert str(info.value) == text


def test_64_factor_design_round_trips():
    wide = ["0" * 64, "1" * 64, "01" * 32]
    d = ChoiceDesign.from_sets([wide, wide[::-1]])
    assert d.n == 64 and d.array.dtype == object
    assert d.sets[0][1] == (1,) * 64
    text = dumps(d, {"model": "main-effects"})
    assert json.loads(text)["sets"] == [wide, wide[::-1]]
    again, meta = loads(text)
    assert again == d and meta == {"model": "main-effects"}
    rows = design_to_csv(d).splitlines()
    assert rows[1:4] == [f"1,{i},{t}" for i, t in enumerate(wide, start=1)]
    assert rows[-1] == f"2,3,{wide[0]}"
