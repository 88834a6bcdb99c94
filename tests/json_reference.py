"""The recursive JSON serializer as first written, kept as a test oracle.

``bosonsim.formatting.render_json`` takes fast paths by exact type; this copy
tests every value through one ``isinstance`` chain, with its own float
formatting, so a test that compares the two checks the library against code
it does not share.
"""


def _format_float(x) -> str:
    x = float(x) + 0.0  # normalize -0.0
    return f"{x:.17g}"


def render_json_reference(obj) -> str:
    if isinstance(obj, dict):
        items = ", ".join(
            f"{render_json_reference(str(k))}: {render_json_reference(v)}" for k, v in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json_reference(v) for v in obj) + "]"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")
