"""Reference external oracle speaking the line protocol.

Run as ``python -m trfd.demo_oracle --problem rosenbrock`` to serve any
registry problem over stdin/stdout.  The child loads ``json`` and
``trfd.problems``, which imports ``math`` and ``functools`` alone, and
no numpy and no other trfd module, so it starts in little more than the
interpreter's own time.  A hello that asks for another n or m than the
child serves is answered ``{"ready": false, "error": ...}``, and the
child exits.  A query whose ``x`` is not an array of n finite numbers is
answered ``{"id": ..., "error": ...}``, as is a float fault in the map
or a value of it that is not finite, and the child serves on.
"""
from __future__ import annotations

import json
import math
import sys

from . import problems

USAGE = "usage: trfd-demo-oracle --problem NAME"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if args[:1] != ["--problem"] or len(args) != 2:
        print(USAGE, file=sys.stderr)
        return 2
    try:
        name, _, n, m, fn, *_ = problems.REGISTRY[problems.find(args[1])]
    except ValueError as exc:
        print(f"trfd-demo-oracle: error: {exc}", file=sys.stderr)
        return 2

    stdin = sys.stdin
    stdout = sys.stdout

    hello = json.loads(stdin.readline())
    if "hello" not in hello:
        print(json.dumps({"error": "expected hello"}), flush=True)
        return 2
    asked = (hello["hello"].get("n"), hello["hello"].get("m"))
    if asked != (n, m):
        error = "%s serves n = %s, m = %s, not n = %s, m = %s" % (name, n, m, *asked)
        print(json.dumps({"ready": False, "error": error}), flush=True)
        return 2
    stdout.write('{"ready": true}\n')
    stdout.flush()

    for line in stdin:
        line = line.strip()
        if not line:
            continue
        req = json.loads(line)
        try:
            fvec = [float(v) for v in fn(_point(req.get("x"), n))]
            # a product that overflows raises nothing, and JSON has no inf
            if not all(map(math.isfinite, fvec)):
                raise ArithmeticError(f"{name} returned non-finite values")
        except (ValueError, ArithmeticError) as exc:  # a bad x, an overflow or a division by zero
            stdout.write(json.dumps({"id": req["id"], "error": str(exc)}) + "\n")
        else:
            body = ", ".join([repr(v) for v in fvec])
            stdout.write('{"id": %d, "fvec": [%s]}\n' % (req["id"], body))
        stdout.flush()
    return 0


def _point(x, n: int) -> list:
    """``x``, a query's JSON value, as n floats; a ValueError unless it is
    an array of n finite numbers (a boolean is none, and ``json`` reads
    1e400 as inf), and an OverflowError for an integer beyond float
    range."""
    if type(x) is list and len(x) == n and {int, float}.issuperset(map(type, x)):
        point = [float(v) for v in x]
        if all(map(math.isfinite, point)):
            return point
    raise ValueError(f'"x" must be an array of {n} finite numbers, not {json.dumps(x):.40}')


if __name__ == "__main__":
    sys.exit(main())
