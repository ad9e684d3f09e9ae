"""Byte-stable report rendering.

A report is one document: ``{"config": {...}, "checks"|"rows": [...]}``,
optionally followed by a summary (``"residuals"`` or ``"estimates"``). JSON is
the standard library's encoder with a two-space indent; CSV puts the config
and the summary in leading ``# key=value`` lines and the rows below a header
of their keys. Floats are written as their shortest round-trip repr in both,
and key order is insertion order, so identical documents render to identical
bytes. A non-finite float raises NumericError.
"""

from __future__ import annotations

import json
import math

from .errors import NumericError


def render_json(doc: dict) -> str:
    try:
        return json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"non-finite value in report: {exc}") from exc


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(_csv_cell(v) for v in value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NumericError(f"non-finite value in report: {value}")
        return repr(float(value))
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def render_csv(doc: dict) -> str:
    config, rows, *summary = doc.values()
    echoed = [item for part in (config, *summary) for item in part.items()]
    lines = [f"# {key}={_csv_cell(value)}" for key, value in echoed]
    header = list(rows[0]) if rows else []
    lines.append(",".join(header))
    lines += [",".join(_csv_cell(row[key]) for key in header) for row in rows]
    return "\n".join(lines) + "\n"
