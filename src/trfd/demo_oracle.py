"""Reference external oracle speaking the line protocol.

Run as ``python -m trfd.demo_oracle --problem rosenbrock`` to serve any
registry problem over stdin/stdout, or ``--echo`` for the identity map
(m = n).  The child loads ``json`` and ``trfd.problems``, which imports
``math`` and ``functools`` alone, and no numpy and no other trfd module,
so it starts in little more than the interpreter's own time.  A hello
that asks for another n or m than the child serves is answered
``{"ready": false, "error": ...}``, and the child exits.
"""
from __future__ import annotations

import json
import sys

from . import problems

USAGE = "usage: trfd-demo-oracle (--problem NAME | --echo)"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if args[:1] == ["--problem"] and len(args) == 2:
        try:
            name, _, n, m, fn, *_ = problems.REGISTRY[problems.find(args[1])]
        except ValueError as exc:
            print(f"trfd-demo-oracle: error: {exc}", file=sys.stderr)
            return 2
    elif args == ["--echo"]:
        name, n, m, fn = "--echo", None, None, lambda x: x
    else:
        print(USAGE, file=sys.stderr)
        return 2

    stdin = sys.stdin
    stdout = sys.stdout

    hello = json.loads(stdin.readline())
    if "hello" not in hello:
        print(json.dumps({"error": "expected hello"}), flush=True)
        return 2
    asked = (hello["hello"].get("n"), hello["hello"].get("m"))
    served = (n, m) if n is not None else (asked[0], asked[0])
    if asked != served:
        error = "%s serves n = %s, m = %s, not n = %s, m = %s" % (name, *served, *asked)
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
            fvec = fn([float(v) for v in req["x"]])
        except ArithmeticError as exc:  # an overflow or a division by zero
            stdout.write(json.dumps({"id": req["id"], "error": str(exc)}) + "\n")
        else:
            body = ", ".join([repr(float(v)) for v in fvec])
            stdout.write('{"id": %d, "fvec": [%s]}\n' % (req["id"], body))
        stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
