from oplip.serialize import canonical_json, format_float


def test_format_float_17_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    assert format_float(2.0 / 3.0) == "0.66666666666666663"


def test_canonical_json_sorted_and_deterministic():
    obj = {"b": [1.5, {"z": True, "a": None}], "a": "x"}
    text = canonical_json(obj)
    assert text == '{"a": "x", "b": [1.5, {"a": null, "z": true}]}'
    assert canonical_json(obj) == text
