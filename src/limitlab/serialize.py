"""Deterministic JSON/CSV output and schema validation helpers.

This is the one place a report value takes its JSON form: a report builder
returns ``_coerce`` of a dict of its fields as the library holds them, and
:func:`dump` writes that document and returns it as it is, what ``json.loads``
reads back; a numpy array or integer left in it is a ``TypeError``.

Every JSON and CSV artifact but the basin grid goes through these functions so
that two runs with the same seed produce byte-identical files: keys are sorted,
floats use Python's shortest round-trip repr, and numpy scalars and arrays
become plain Python values by numpy's own ``tolist`` before encoding.
``limits.write_basin_csv`` formats its integer and label cells by hand, for
speed, by the same rules.

JSON text is ``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)``
byte for byte, for every document with string keys, but not written by it:
with an indent, ``json`` runs its pure-Python encoder, a generator step per
element. ``_write`` writes a dict by its sorted keys; a list of scalars of one
type in one ``join``, by the reprs and string escaper ``json`` itself uses;
and a list of lists through the C encoder with no whitespace, re-indented by
``str.replace`` once a regex has confirmed that the text holds nothing but
nonempty rows of numbers, where a comma and a bracket can mean only one thing.
Anything else is written element by element. A NaN or infinity is a
``ValueError`` and a value ``json`` refuses, such as a numpy array, a
``TypeError``, as in ``json.dumps``.
"""

from __future__ import annotations

import csv
import json
import math
import re
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

_SCHEMA_DIR = Path(__file__).parent / "schemas"
_CANONICAL = {"sort_keys": True, "indent": 2, "allow_nan": False}


def _coerce(obj):
    if isinstance(obj, dict):
        return {str(k): _coerce(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_coerce(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


# the text of the C encoder for a list of rows of numbers and nothing else
_NUMBER = r"[-+.0-9e]+"
_ROW = rf"{_NUMBER}(?:,{_NUMBER})*"
_NUMBER_ROWS = re.compile(rf"\[\[{_ROW}(?:\],\[{_ROW})*\]\]")
_compact = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
_JOINS = {float: float.__repr__, int: int.__repr__, str: encode_basestring_ascii}


def _out_of_range(value) -> ValueError:
    return ValueError(f"Out of range float values are not JSON compliant: {value!r}")


def _write(obj, nl: str) -> str:
    """``obj`` as ``json.dumps(obj, **_CANONICAL)`` writes it at the depth
    whose line break and indent is ``nl``."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise _out_of_range(obj)
        return float.__repr__(obj)
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _write(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + inner + _items(obj, inner) + nl + "]" if obj else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _items(items, nl: str) -> str:
    """The elements of a nonempty list, each on its own line at ``nl``."""
    sep = "," + nl
    kinds = set(map(type, items))
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind in _JOINS:
            text = sep.join(map(_JOINS[kind], items))
            if kind is float and "n" in text:       # "inf" or "nan"
                raise _out_of_range(next(v for v in items if not math.isfinite(v)))
            return text
        if kind is list and _NUMBER_ROWS.fullmatch(text := _compact(items)):
            deeper = nl + "  "
            rows = text[2:-2].replace(",", "," + deeper).replace(
                "]," + deeper + "[", nl + "]," + nl + "[" + deeper)
            return "[" + deeper + rows + nl + "]"
    return sep.join([_write(v, nl) for v in items])


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, round-trip floats."""
    return _write(_coerce(obj), "\n")


def dump(doc: dict, path) -> dict:
    """Write a builder's coerced document to ``path`` as :func:`dumps` text and
    a newline, and return it as it is: what ``json.loads`` reads back."""
    Path(path).write_text(_write(doc, "\n") + "\n")
    return doc


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)) and not isinstance(value, bool):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """CSV with LF line endings and repr-formatted floats (None -> empty)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def schema_names() -> list[str]:
    return sorted(p.stem for p in _SCHEMA_DIR.glob("*.json"))


def load_schema(name: str) -> dict:
    path = _SCHEMA_DIR / f"{name}.json"
    if not path.exists():
        raise KeyError(f"no schema named {name!r}; have {schema_names()}")
    return json.loads(path.read_text())


def _parts(obj):
    """The reports nested in ``obj``: each dict below it with a ``kind``."""
    children = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ()
    for child in children:
        if isinstance(child, dict) and "kind" in child:
            yield child
        yield from _parts(child)


def validate(obj: dict, schema_name: str) -> None:
    """Validate a report dict against its bundled schema, and each report
    nested in it against the schema of its kind (needs jsonschema)."""
    import jsonschema

    doc = _coerce(obj)
    jsonschema.validate(doc, load_schema(schema_name))
    for part in _parts(doc):
        jsonschema.validate(part, load_schema(part["kind"]))
