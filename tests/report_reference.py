"""The reference writer of the report format.

``cli.write_json_report`` writes a report in one walk.  This is the
two-step form it replaced and is held to: convert the report to plain
JSON values, then ``json.dumps(indent=2, sort_keys=True)``.  A result
dataclass instance converts as its fields by name, an array as its
nested lists, a complex number as ``{"re", "im"}``, each dict key as its
``str``, and a non-finite float as the string of its repr.
"""

import dataclasses
import json
import math

import numpy as np


def to_jsonable(obj):
    """Recursively convert to JSON-safe values; non-finite floats become
    string sentinels so every numeric entry in a report is finite."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        if not math.isfinite(val):
            return repr(val)
        return val
    if isinstance(obj, complex):
        return {"re": to_jsonable(obj.real), "im": to_jsonable(obj.imag)}
    return obj


def report_text(report):
    """The text of a report file: the reference for the bytes that
    ``cli.write_json_report`` writes."""
    return json.dumps(to_jsonable(report), indent=2, sort_keys=True) + "\n"
