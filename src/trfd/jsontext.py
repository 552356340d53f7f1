"""The one JSON writer for every document trfd saves, and the one parser
and typed reader for every document it reads.

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

``loads`` and ``load`` are the one parser, and ``field`` and ``check``
the one typed reader, for traces, configs and oracle replies alike.
Text that is not JSON, or that nests deeper than the interpreter's
recursion limit, raises ValueError.  A value has a JSON type by its
exact Python type as ``loads`` gives it, so a boolean is no number and
a float no integer; an array is checked for its length and each
element's type.
A missing key or a wrong type raises a ValueError naming the key; range
checks, finiteness among them, are the caller's, as is ``at_least_one``.
"""
import json

_encode = json.JSONEncoder(allow_nan=False).encode

# kind -> (the types loads gives it, its name, its plural)
_KINDS = {
    "integer": ({int}, "an integer", "integers"),
    "number": ({int, float}, "a number", "numbers"),
    "number or null": ({int, float, type(None)}, "a number or null", "numbers or nulls"),
    "string": ({str}, "a string", "strings"),
    "boolean": ({bool}, "true or false", "booleans"),
    "array": ({list}, "an array", "arrays"),
    "object": ({dict}, "an object", "objects"),
}
_REQUIRED = object()


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


def loads(text):
    """The JSON document ``text`` holds; a ValueError if there is none."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("the document nests too deeply") from None


def load(path):
    """The JSON document in the UTF-8 file ``path``, as by ``loads``."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def is_a(value, kind: str, of: str | None = None, size: int | None = None) -> bool:
    """Whether ``value`` has the JSON type ``kind``, and ``size`` elements of the type ``of`` when given."""
    # set(map(type, ...)) stays in C: the oracle wire checks every reply
    return (type(value) in _KINDS[kind][0] and (of is None or set(map(type, value)) <= _KINDS[of][0])
            and (size is None or len(value) == size))


def check(value, name: str, kind: str, of: str | None = None, size: int | None = None):
    """``value`` when ``is_a(value, kind, of, size)``; a ValueError naming ``name`` otherwise."""
    if not is_a(value, kind, of, size):
        what = _KINDS[kind][1]
        if of is not None:
            what += f" of {f'{size} ' if size else ''}{_KINDS[of][2]}"
        raise ValueError(f"{name} must be {what}, not {value!r:.40}")
    return value


def field(doc: dict, key: str, kind: str, of: str | None = None, size: int | None = None, default=_REQUIRED):
    """``doc[key]`` checked as by ``check``, or ``default``, when given, if ``key`` is absent."""
    if key in doc:
        return check(doc[key], f'"{key}"', kind, of, size)
    if default is _REQUIRED:
        raise ValueError(f'"{key}" is missing')
    return default


def at_least_one(value: int, key: str) -> int:
    if value < 1:
        raise ValueError(f'"{key}" must be an integer of at least 1, not {value!r}')
    return value
