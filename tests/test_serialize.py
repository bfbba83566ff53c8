import json

import numpy as np
import pytest

from oplip.errors import DomainError
from oplip.norms import profile_from_values
from oplip.serialize import (
    SIGNAL_MAGIC,
    canonical_json,
    format_float,
    load_signal,
    matrix_from_json,
    matrix_to_json,
    profile_from_json,
    profile_to_json,
    save_signal,
    signal_from_bytes,
    signal_from_json,
    signal_to_bytes,
    signal_to_json,
    tuple_from_json,
    tuple_to_json,
)
from oplip.spectral import planted_commuting_tuple
from oplip.torus import TorusSignal


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    obj = matrix_to_json(x)
    assert obj["dim"] == 3 and len(obj["entries"]) == 9
    np.testing.assert_array_equal(matrix_from_json(obj), x)
    # survives a JSON text round trip
    np.testing.assert_array_equal(matrix_from_json(json.loads(json.dumps(obj))), x)


def test_tuple_roundtrip():
    tup, _, _ = planted_commuting_tuple(4, 2, "uniform", seed=3)
    objs = tuple_to_json(tup)
    back = tuple_from_json(objs)
    for a, b in zip(tup.arrays(), back.arrays()):
        np.testing.assert_array_equal(a, b)


def test_profile_roundtrip():
    p = profile_from_values([3.0, 1.0, 0.25], [1.0, 2.0, 0.5])
    pairs = profile_to_json(p)
    assert pairs == [[3.0, 1.0], [1.0, 2.0], [0.25, 0.5]]
    back = profile_from_json(pairs)
    np.testing.assert_array_equal(back.values, p.values)
    np.testing.assert_array_equal(back.weights, p.weights)


def _signal():
    rng = np.random.default_rng(5)
    return TorusSignal(rng.standard_normal((6, 6, 2, 2))
                       + 1j * rng.standard_normal((6, 6, 2, 2)))


def test_signal_json_roundtrip():
    w = _signal()
    obj = signal_to_json(w)
    assert (obj["torus_dim"], obj["grid_size"], obj["fiber_dim"]) == (2, 6, 2)
    back = signal_from_json(obj)
    np.testing.assert_array_equal(back.samples, w.samples)


def test_signal_binary_roundtrip():
    w = _signal()
    blob = signal_to_bytes(w)
    assert blob[:4] == SIGNAL_MAGIC
    assert len(blob) == 8 + 16 * w.samples.size
    back = signal_from_bytes(blob)
    np.testing.assert_array_equal(back.samples, w.samples)
    with pytest.raises(ValueError):
        signal_from_bytes(b"XXXX" + blob[4:])


@pytest.mark.parametrize("mangle", [
    lambda blob: b"XXXX" + blob[4:],  # bad magic
    lambda blob: blob[:-16],  # truncated: one complex sample short
    lambda blob: blob + bytes(8),  # odd float count
    lambda blob: blob[:5],  # shorter than the header
])
def test_signal_from_bytes_rejects_malformed_blob(mangle):
    with pytest.raises(DomainError):
        signal_from_bytes(mangle(signal_to_bytes(_signal())))


def test_signal_file_dispatch(tmp_path):
    w = _signal()
    jpath = tmp_path / "sig.json"
    bpath = tmp_path / "sig.bin"
    save_signal(w, jpath)
    save_signal(w, bpath)
    np.testing.assert_array_equal(load_signal(jpath).samples, w.samples)
    np.testing.assert_array_equal(load_signal(bpath).samples, w.samples)
    # JSON file is actually JSON; binary starts with the magic
    json.loads(jpath.read_text())
    assert bpath.read_bytes()[:4] == SIGNAL_MAGIC


def test_format_float_17_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    assert format_float(2.0 / 3.0) == "0.66666666666666663"


def test_canonical_json_sorted_and_deterministic():
    obj = {"b": [1.5, {"z": True, "a": None}], "a": "x"}
    text = canonical_json(obj)
    assert text == '{"a": "x", "b": [1.5, {"a": null, "z": true}]}'
    assert canonical_json(obj) == text
