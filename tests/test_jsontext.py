import json
import math
import struct

import numpy as np
import pytest

from trfd import jsontext


def bits(value):
    return struct.pack("<d", value)


def test_scalar_types():
    doc = {"i": 3, "f": 0.1, "b": True, "none": None, "s": "text"}
    text = jsontext.dumps(doc, indent=1)
    assert json.loads(text) == {"i": 3, "f": 0.1, "b": True, "none": None, "s": "text"}


def test_floats_round_trip_bit_for_bit():
    values = [0.0, -0.0, 5e-324, 1e300, math.pi] + list(np.random.default_rng(0).normal(size=40))
    values = [float(v) for v in values]
    back = json.loads(jsontext.dumps({"v": values}, indent=1))["v"]
    assert [bits(v) for v in back] == [bits(v) for v in values]


def test_nonfinite_raises():
    # a document says "absent" with None itself; no float becomes null
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            jsontext.dumps({"v": [1.0, value]}, indent=1)
        with pytest.raises(ValueError):
            jsontext.dumps_rows({"rows": [{"v": value}]}, "rows")


def test_key_order_preserved():
    doc = {"zebra": 1, "apple": {"y": 2, "b": None}}
    back = json.loads(jsontext.dumps(doc, indent=1))
    assert list(back) == ["zebra", "apple"] and list(back["apple"]) == ["y", "b"]


def test_byte_determinism():
    # equal documents, not only the same one, give equal bytes
    doc = {"x": [0.1, 0.2, {"y": 3}], "z": "s", "e": [], "m": {}, "t": True}
    twin = json.loads(json.dumps(doc))
    assert jsontext.dumps(twin, indent=1) == jsontext.dumps(doc, indent=1)


def test_python_and_numpy_floats_emit_equal_bytes():
    for value in (0.1, -0.0, 5e-324, math.pi):
        assert jsontext.dumps({"v": [value]}, indent=1) == jsontext.dumps({"v": [np.float64(value)]}, indent=1)
    assert jsontext.dumps([0.1, -0.0, 1e-05], indent=1) == "[\n 0.1,\n -0.0,\n 1e-05\n]\n"


def test_rows_layout():
    doc = {"a": {"x": 0.1}, "rows": [{"k": 0}, {"k": 1, "v": [1.0, None]}], "z": True}
    text = jsontext.dumps_rows(doc, "rows")
    assert text == '{"a": {"x": 0.1},\n "rows": [\n  {"k": 0},\n  {"k": 1, "v": [1.0, null]}\n ],\n "z": true}\n'
    assert json.loads(text) == doc
    # an empty row list stays on its field's line
    assert jsontext.dumps_rows({"rows": [], "z": 1}, "rows") == '{"rows": [],\n "z": 1}\n'


def test_the_reader_checks_exact_json_types():
    assert jsontext.field({"v": [1, 2.5, None]}, "v", "array", of="number or null", size=3) == [1, 2.5, None]
    assert jsontext.field({}, "v", "integer", default=7) == 7
    # a boolean is no number, a float no integer, a string no array
    for value, kind in [(True, "number"), (1.0, "integer"), ("12", "array"), (None, "string"), ([], "object")]:
        with pytest.raises(ValueError, match='^"v" must be '):
            jsontext.field({"v": value}, "v", kind)
    for value in ([1.0, True], [1.0], [[1.0], [2.0]]):
        with pytest.raises(ValueError, match=r'^"v" must be an array of 2 numbers, not \['):
            jsontext.field({"v": value}, "v", "array", of="number", size=2)
    with pytest.raises(ValueError, match='^"v" is missing$'):
        jsontext.field({}, "v", "integer")
