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
"""

from __future__ import annotations

import csv
import json
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


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, round-trip floats."""
    return json.dumps(_coerce(obj), **_CANONICAL)


def dump(doc: dict, path) -> dict:
    """Write a builder's coerced document to ``path`` as :func:`dumps` text and
    a newline, and return it as it is: what ``json.loads`` reads back."""
    Path(path).write_text(json.dumps(doc, **_CANONICAL) + "\n")
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
