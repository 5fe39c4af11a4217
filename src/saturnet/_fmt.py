"""Deterministic serialization helpers.

Every number leaving the package through the CLI is printed with 12
significant digits so that repeated runs produce byte-identical artifacts.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError


def fmt_float(x: float) -> str:
    """Render a finite float with 12 significant digits ('-0' normalized to '0')."""
    x = float(x)
    if not math.isfinite(x):
        raise InputError(f"cannot serialize non-finite value {x!r}")
    s = format(x, ".12g")
    if s == "-0":
        s = "0"
    return s


def fmt_cells(values) -> list[list[str]]:
    """The rows of a float matrix as ``fmt_float`` writes each cell.

    Each distinct value is formatted once and its text shared by every cell
    that holds it, so a table of repeated numbers costs its distinct ones.
    The first non-finite cell in row-major order raises ``fmt_float``'s
    ``InputError``.
    """
    values = np.asarray(values, dtype=float)
    flat = values.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        fmt_float(flat[~finite][0])
    # -0.0 + 0.0 is 0.0, which prints as 0; the inverse is reshaped from a
    # flat input, so its shape does not depend on the numpy version
    distinct, inverse = np.unique(flat + 0.0, return_inverse=True)
    text = np.array(["%.12g" % v for v in distinct.tolist()], dtype=object)
    return text[inverse.reshape(-1)].reshape(values.shape).tolist()


def _render(obj, out: list[str], slots: list, level: int) -> None:
    """Append obj's JSON text to ``out``, a float or list of floats as an empty slot (place, separator, floats)."""
    pad, pad_in = "  " * level, "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise InputError(f"JSON object keys must be strings, got {k!r}")
            out.append(f'{pad_in}"{k}": ')
            _render(v, out, slots, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        items = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        if all(isinstance(v, float) for v in items):  # one slot for a list of numbers
            slots.append((len(out) + 1, ",\n" + pad_in, items))
            out.extend((pad_in, "", "\n"))
        else:
            for i, v in enumerate(items):
                out.append(pad_in)
                _render(v, out, slots, level + 1)
                out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        slots.append((len(out), "", [obj]))
        out.append("")
    elif isinstance(obj, str):
        out.append(_escape(obj))
    else:
        raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def _escape(s: str) -> str:
    body = (
        s.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )
    return f'"{body}"'


def dumps(obj) -> str:
    """Serialize to JSON text, indented two spaces a level, with fixed float formatting and a trailing newline.

    One walk renders the document with its floats left as slots, and one
    ``fmt_cells`` call formats all of them in document order, so the first
    non-finite one raises (ahead of a fault the walk met after it).
    """
    out, slots = [], []
    try:
        _render(obj, out, slots, 0)
    finally:
        texts, at = fmt_cells([v for _, _, values in slots for v in values]), 0
    for i, sep, values in slots:
        out[i] = sep.join(texts[at : at + len(values)])
        at += len(values)
    return "".join(out) + "\n"


def csv_cell(v) -> str:
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    return str(v)


def csv_lines(header: list[str], rows) -> str:
    """Render a CSV table (comma-separated, '\\n' line endings, trailing newline).

    Each cell goes through ``csv_cell`` on its own; the table writers that
    use ``fmt_cells`` are tested against this.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"
