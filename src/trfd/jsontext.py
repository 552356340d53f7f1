"""The one JSON writer for every document trfd saves.

Traces and ``summary.json`` are written by the stdlib encoder: key order
is insertion order, so equal documents give equal bytes, and each float
is its shortest round-trip decimal (Python's ``repr``), which parses back
to the same float64 bit for bit.  The profile CSVs and the oracle wire
write their floats with ``repr`` too, so every output shares one float
format.  JSON has no non-finite literals: a document says "absent" with
``None`` itself, and any other non-finite float raises ValueError.

``dumps`` indents, which the stdlib does in pure Python; ``dumps_rows``,
the trace layout, writes every value with the stdlib's C encoder (used
only without an indent): each top-level field on a line of its own and
each element of one array field on one line, so ``grep`` finds a row
and ``diff`` lines two documents up by row.
"""
import json

_encode = json.JSONEncoder(allow_nan=False).encode


def dumps(doc, indent: int) -> str:
    return json.dumps(doc, indent=indent, allow_nan=False) + "\n"


def dumps_rows(doc: dict, rows: str) -> str:
    """``doc`` with each field on a line and each of ``doc[rows]`` on one."""
    fields = []
    for key, value in doc.items():
        if key == rows and value:
            text = "[\n  " + ",\n  ".join(map(_encode, value)) + "\n ]"
        else:
            text = _encode(value)
        fields.append(f"{_encode(key)}: {text}")
    return "{" + ",\n ".join(fields) + "}\n"
