"""On-disk formats.

Matrices serialize to JSON objects {dim, entries} with entries a row-major
list of [re, im] pairs; commuting tuples are arrays of such objects; singular
value profiles are arrays of [value, weight] pairs.  Torus signals have both
a JSON form {torus_dim, grid_size, fiber_dim, samples} and a raw little-endian
binary of interleaved re/im doubles behind an 8-byte header (4-byte magic,
torus_dim u8, fiber_dim u8, grid_size u16).  File extension selects the
format: ``.json`` for JSON, anything else for binary.
"""

import json
import struct

import numpy as np

from .errors import DomainError
from .norms import SingularValueProfile, profile_from_pairs, profile_to_pairs
from .spectral import CommutingTuple, HermitianMatrix
from .torus import TorusSignal

SIGNAL_MAGIC = b"OTS1"
_HEADER = struct.Struct("<4sBBH")


def matrix_to_json(x) -> dict:
    data = x.data if isinstance(x, HermitianMatrix) else np.asarray(x, complex)
    return {
        "dim": int(data.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in data.ravel()],
    }


def matrix_from_json(obj) -> np.ndarray:
    dim = int(obj["dim"])
    flat = np.array([complex(re, im) for re, im in obj["entries"]])
    if flat.size != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {flat.size}")
    return flat.reshape(dim, dim)


def tuple_to_json(tup: CommutingTuple) -> list:
    return [matrix_to_json(m) for m in tup.matrices]


def tuple_from_json(objs) -> CommutingTuple:
    return CommutingTuple([HermitianMatrix(matrix_from_json(o)) for o in objs])


def profile_to_json(profile: SingularValueProfile) -> list:
    return profile_to_pairs(profile)


def profile_from_json(pairs) -> SingularValueProfile:
    return profile_from_pairs(pairs)


def signal_to_json(w: TorusSignal) -> dict:
    return {
        "torus_dim": w.torus_dim,
        "grid_size": w.grid_size,
        "fiber_dim": w.fiber_dim,
        "samples": [[float(z.real), float(z.imag)] for z in w.samples.ravel()],
    }


def signal_from_json(obj) -> TorusSignal:
    d, n_grid, n_fib = int(obj["torus_dim"]), int(obj["grid_size"]), int(obj["fiber_dim"])
    flat = np.array([complex(re, im) for re, im in obj["samples"]])
    return TorusSignal(flat.reshape((n_grid,) * d + (n_fib, n_fib)))


def signal_to_bytes(w: TorusSignal) -> bytes:
    header = _HEADER.pack(SIGNAL_MAGIC, w.torus_dim, w.fiber_dim, w.grid_size)
    interleaved = np.empty(w.samples.size * 2, dtype="<f8")
    interleaved[0::2] = w.samples.real.ravel()
    interleaved[1::2] = w.samples.imag.ravel()
    return header + interleaved.tobytes()


def signal_from_bytes(blob: bytes) -> TorusSignal:
    """Decode the binary signal format; a malformed blob raises DomainError."""
    if len(blob) < _HEADER.size:
        raise DomainError(f"signal blob of {len(blob)} bytes has no complete header")
    magic, d, n_fib, n_grid = _HEADER.unpack_from(blob)
    if magic != SIGNAL_MAGIC:
        raise DomainError(f"bad magic {magic!r}")
    payload = len(blob) - _HEADER.size
    expected = 16 * n_grid**d * n_fib**2
    if payload != expected:
        raise DomainError(
            f"payload of {payload} bytes, header (D={d}, N={n_grid}, n={n_fib}) "
            f"needs {expected}"
        )
    raw = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    flat = raw[0::2] + 1j * raw[1::2]
    return TorusSignal(flat.reshape((n_grid,) * d + (n_fib, n_fib)))


def save_signal(w: TorusSignal, path):
    path = str(path)
    if path.endswith(".json"):
        with open(path, "w") as fh:
            json.dump(signal_to_json(w), fh)
    else:
        with open(path, "wb") as fh:
            fh.write(signal_to_bytes(w))


def load_signal(path) -> TorusSignal:
    path = str(path)
    if path.endswith(".json"):
        with open(path) as fh:
            return signal_from_json(json.load(fh))
    with open(path, "rb") as fh:
        return signal_from_bytes(fh.read())


def format_float(x: float) -> str:
    """Fixed 17-significant-digit rendering used in all emitted tables."""
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""

    def render(o):
        if isinstance(o, dict):
            items = (f"{json.dumps(k)}: {render(o[k])}" for k in sorted(o))
            return "{" + ", ".join(items) + "}"
        if isinstance(o, (list, tuple)):
            return "[" + ", ".join(render(v) for v in o) + "]"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, float):
            return format_float(o)
        if isinstance(o, (int, str)) or o is None:
            return json.dumps(o)
        raise TypeError(f"cannot render {type(o)!r}")

    return render(obj)
