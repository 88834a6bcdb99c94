"""Deterministic text rendering of numbers and JSON documents.

CLI output must be byte-stable across runs and platforms, so floats are
always printed with 17 significant digits (enough to round-trip an IEEE
double) and JSON is emitted by a tiny serializer with fixed key order and
no locale surprises.
"""

from __future__ import annotations


def format_float(x: float) -> str:
    x = float(x) + 0.0  # normalize -0.0
    return f"{x:.17g}"


def format_complex(z: complex) -> str:
    re = format_float(z.real)
    im = float(z.imag) + 0.0
    sign = "-" if im < 0 else "+"
    return f"{re}{sign}{format_float(abs(im))}j"


def render_json(obj) -> str:
    """Serialize nested dict/list/str/int/float structures.

    Dict keys are emitted in insertion order; floats via format_float.
    Exact ``float`` and ``int`` values are tested first, then dicts, then
    lists or tuples whose items are all exact ``int``: such a list prints as
    ``str(list(obj))``, because Python's list repr ``[1, 0, 2]`` is the JSON
    array.  Everything else (``bool``, ``str``, subclasses such as
    ``np.float64``, mixed sequences) goes through the ``isinstance`` chain,
    which also raises the ``TypeError``.
    """
    kind = type(obj)
    if kind is float:
        return format_float(obj)
    if kind is int:
        return str(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{render_json(str(k))}: {render_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if (kind is list or kind is tuple) and all(type(v) is int for v in obj):
        return str(list(obj))
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in obj) + "]"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")
