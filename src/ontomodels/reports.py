"""Canonical report serialization.

Reports are meant to be diffed byte for byte across runs and platforms,
so JSON is emitted with sorted keys, two-space indentation, and every
float printed with 12 significant digits.  Each report envelope records
the tool version, the seed, the engine spec, and a sha256 digest of
every input file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

TOOL_NAME = "ontomodels"
TOOL_VERSION = "0.1.0"


def format_float(x: float) -> str:
    """Fixed 12-significant-digit decimal form, valid as a JSON number."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return f"{x:.12g}"


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, stable float formatting."""

    def go(o, pad):
        if isinstance(o, dict):
            if not o:
                return "{}"
            inner = ",\n".join(
                f"{' ' * (pad + 2)}{json.dumps(str(k))}: {go(o[k], pad + 2)}"
                for k in sorted(o, key=str)
            )
            return "{\n" + inner + "\n" + " " * pad + "}"
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            inner = ",\n".join(
                f"{' ' * (pad + 2)}{go(v, pad + 2)}" for v in o
            )
            return "[\n" + inner + "\n" + " " * pad + "]"
        if isinstance(o, bool) or o is None:
            return json.dumps(o)
        if isinstance(o, int):
            return str(o)
        if isinstance(o, float):
            return format_float(o)
        if isinstance(o, Fraction):
            return json.dumps(str(o))
        if isinstance(o, str):
            return json.dumps(o)
        raise TypeError(f"cannot serialize {type(o).__name__} in a report")

    return go(obj, 0) + "\n"


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def build_report(
    command: str,
    body: dict,
    seed: int,
    engine_spec: str | None = None,
    inputs=(),
) -> dict:
    """Standard envelope around a command's result body."""
    return {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "command": command,
        "seed": int(seed),
        "engine": engine_spec,
        "inputs": {
            str(Path(p).name): {"path": str(p), "sha256": file_digest(p)}
            for p in inputs
        },
        "report": body,
    }


def csv_text(columns, rows) -> str:
    """CSV with the given column order; floats use report formatting."""

    def cell(v):
        if isinstance(v, bool):
            return "yes" if v else "no"
        if isinstance(v, float):
            return format_float(v)
        return v

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell(row[c]) for c in columns])
    return buf.getvalue()
