"""JSON input typing: the one rule for what a valid JSON value is.

Every reader of JSON input builds its objects through `json_fields` and
`json_typed`.  A JSON integer is an int that is not a bool; a JSON number
is an int or float within the float range, stored as a float (bools are
neither, and NaN and infinities are not JSON); a "list of K" holds values
of kind K and is returned as a tuple.  A violation raises ValueError
naming the field: a validation error, exit 1.
"""

from __future__ import annotations

import json
import sys

# the Python types json.loads gives for each JSON kind
KINDS = {"integer": {int}, "number": {int, float}, "bool": {bool}, "string": {str},
         "list": {list}, "object": {dict}, "integer or null": {int, type(None)}}
_FLOAT_MAX = sys.float_info.max  # NaN is not within it either


def load_json(text):
    """json.loads of a str or of bytes; ValueError if it is not one JSON value."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("invalid JSON (nested too deeply)") from None
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError of bytes
        raise ValueError(f"invalid JSON ({getattr(exc, 'msg', 'not UTF-8 text')})") from None


def json_typed(value, kind: str, name: str):
    """value if it has JSON kind `kind`, a key of KINDS or "list of <kind>";
    else ValueError naming the field."""
    if kind.startswith("list of "):
        return tuple(json_typed(x, kind[8:], f"{name}[{k}]")
                     for k, x in enumerate(json_typed(value, "list", name)))
    if type(value) not in KINDS[kind] or kind == "number" and not abs(value) <= _FLOAT_MAX:
        raise ValueError(f"{name} must be a JSON {kind}, got {value!r}")
    return float(value) if kind == "number" else value


def json_fields(obj, table: dict, name: str) -> dict:
    """The typed fields of the JSON object obj that `table` declares: it maps
    each field name to (kind,) for a required field or (kind, default)."""
    obj = json_typed(obj, "object", name)
    out = {}
    for key, (kind, *default) in table.items():
        if key not in obj and not default:
            raise ValueError(f"{name} has no field {key!r}")
        out[key] = json_typed(obj[key], kind, key) if key in obj else default[0]
    return out
