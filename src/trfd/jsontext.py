"""Deterministic JSON emission with bit-exact float round-trips.

Every float is written with 17 significant digits, which is enough to
reconstruct the exact float64 on parse.  Key order is insertion order,
so identical in-memory documents serialize to identical bytes: the
benchmark harness's determinism guarantee rests on this emitter.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .oracle import format_float


def dumps(doc, indent: int = 0) -> str:
    pieces = []
    _emit(doc, pieces, indent, 0)
    pieces.append("\n")
    return "".join(pieces)


def _emit(node, out, indent, level) -> None:
    # JSON has no non-finite literals; a run that died before its first
    # evaluation has no objective value to report.  Plain floats are most
    # of every trace, so they are tested first.
    if type(node) is float:
        out.append(format_float(node) if math.isfinite(node) else "null")
    elif isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        out.append("{")
        pad = _pad(indent, level + 1)
        for i, (key, val) in enumerate(node.items()):
            out.append(("," if i else "") + pad + json.dumps(str(key)) + ": ")
            _emit(val, out, indent, level + 1)
        out.append(_pad(indent, level) + "}")
    elif isinstance(node, (list, tuple, np.ndarray)):
        seq = node.tolist() if isinstance(node, np.ndarray) else node
        if not len(seq):
            out.append("[]")
            return
        out.append("[")
        pad = _pad(indent, level + 1)
        for i, val in enumerate(seq):
            out.append(("," if i else "") + pad)
            _emit(val, out, indent, level + 1)
        out.append(_pad(indent, level) + "]")
    elif isinstance(node, bool) or node is None:
        out.append(json.dumps(node))
    elif isinstance(node, (int, np.integer)):
        out.append(str(int(node)))
    elif isinstance(node, (float, np.floating)):
        out.append(format_float(float(node)) if np.isfinite(node) else "null")
    else:
        out.append(json.dumps(str(node)))


def _pad(indent, level) -> str:
    return "\n" + " " * (indent * level) if indent else ""
