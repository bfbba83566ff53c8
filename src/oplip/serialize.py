"""Canonical float and JSON rendering for every emitted table and report.

Floats carry 17 significant digits and JSON keys are sorted, so one version
writes byte-identical output for identical input.
"""

import json


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
