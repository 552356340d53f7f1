import json
import math

import numpy as np

from trfd import jsontext


def test_scalar_types():
    doc = {"i": 3, "f": 0.1, "b": True, "none": None, "s": "text"}
    text = jsontext.dumps(doc)
    assert json.loads(text) == {"i": 3, "f": 0.1, "b": True, "none": None, "s": "text"}


def test_float_17_digits_roundtrip():
    rng = np.random.default_rng(0)
    values = [0.0, -0.0, 1e-300, 1e300, math.pi, 2.0**-52] + list(rng.normal(size=40))
    back = json.loads(jsontext.dumps({"v": values}))["v"]
    for orig, parsed in zip(values, back):
        assert parsed == orig


def test_nonfinite_becomes_null():
    assert json.loads(jsontext.dumps({"v": math.inf}))["v"] is None
    assert json.loads(jsontext.dumps({"v": math.nan}))["v"] is None


def test_numpy_arrays_and_nested():
    doc = {"a": np.array([1.5, 2.5]), "nested": [{"x": np.int64(4)}], "empty": [], "emptymap": {}}
    parsed = json.loads(jsontext.dumps(doc, indent=2))
    assert parsed == {"a": [1.5, 2.5], "nested": [{"x": 4}], "empty": [], "emptymap": {}}


def test_key_order_preserved():
    doc = {"zebra": 1, "apple": 2}
    text = jsontext.dumps(doc)
    assert text.index("zebra") < text.index("apple")


def test_byte_determinism():
    doc = {"x": [0.1, 0.2, {"y": 3}], "z": "s"}
    assert jsontext.dumps(doc, indent=1) == jsontext.dumps(doc, indent=1)


def test_python_and_numpy_floats_emit_equal_bytes():
    for value in (0.1, -0.0, math.inf, -math.inf, math.nan):
        assert jsontext.dumps({"v": [value]}) == jsontext.dumps({"v": [np.float64(value)]})
    assert jsontext.dumps([0.1, -0.0, math.inf, math.nan]) == (
        "[1.0000000000000001e-01,-0.0000000000000000e+00,null,null]\n"
    )
