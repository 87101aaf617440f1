"""Machine-readable reports shared by every command.

One schema serves all commands; stages a command does not run are omitted
entirely.  Exact rationals serialize as ``"p/q"`` strings, floats as JSON
numbers with 17 significant digits, so reports round-trip bit-exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

SCHEMA_VERSION = "1"

__all__ = ["SCHEMA_VERSION", "dumps", "rational", "inequality"]


def rational(x):
    """``"p/q"`` form of an exact rational (the denominator is always
    written so exact values are visibly distinct from floats)."""
    f = Fraction(x)
    return "%d/%d" % (f.numerator, f.denominator)


def inequality(normal):
    """Human-readable strict inequality ``<normal, h> > 0``."""
    parts = []
    for i, c in enumerate(normal):
        c = Fraction(c)
        if c == 0:
            continue
        mag = abs(c)
        coef = "" if mag == 1 else "%s*" % (mag if mag.denominator == 1 else rational(mag))
        term = "%sh%d" % (coef, i)
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return (" ".join(parts) if parts else "0") + " > 0"


def _emit(obj, out, level):
    pad = "  " * level  # two spaces per nesting level
    pad_in = "  " * (level + 1)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, Fraction):
        out.append('"%s"' % rational(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if v != v or v in (float("inf"), float("-inf")):
            out.append('"%r"' % v)
        else:
            out.append("%.17g" % v)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            out.append(pad_in + json.dumps(str(k)) + ": ")
            _emit(v, out, level + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad_in)
            _emit(v, out, level + 1)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError("cannot serialize %r" % type(obj))


def dumps(obj):
    out = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)
