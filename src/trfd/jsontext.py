"""The one JSON writer for every document trfd saves.

Traces and ``summary.json`` are written by the stdlib encoder: key order
is insertion order, so equal documents give equal bytes, and each float
is its shortest round-trip decimal (Python's ``repr``), which parses back
to the same float64 bit for bit.  The profile CSVs and the oracle wire
write their floats with ``repr`` too, so every output shares one float
format.  JSON has no non-finite literals: a document says "absent" with
``None`` itself, and any other non-finite float raises ValueError.
"""
import json


def dumps(doc, indent: int) -> str:
    return json.dumps(doc, indent=indent, allow_nan=False) + "\n"
