"""Reference external oracle speaking the line protocol.

Run as ``python -m trfd.demo_oracle --problem rosenbrock`` to serve any
registry problem over stdin/stdout, or ``--echo`` for the identity map
(m = n).  The child loads numpy, ``json`` and ``trfd.problems`` and no
other trfd module, so it starts in little more than numpy's own time.
"""
from __future__ import annotations

import json
import sys

import numpy as np

from . import problems

USAGE = "usage: trfd-demo-oracle (--problem NAME | --echo)"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if args[:1] == ["--problem"] and len(args) == 2:
        try:
            fn = problems.residuals(args[1])
        except ValueError as exc:
            print(f"trfd-demo-oracle: error: {exc}", file=sys.stderr)
            return 2
    elif args == ["--echo"]:
        fn = lambda x: x
    else:
        print(USAGE, file=sys.stderr)
        return 2

    stdin = sys.stdin
    stdout = sys.stdout

    hello = json.loads(stdin.readline())
    if "hello" not in hello:
        print(json.dumps({"error": "expected hello"}), flush=True)
        return 2
    stdout.write('{"ready": true}\n')
    stdout.flush()

    for line in stdin:
        line = line.strip()
        if not line:
            continue
        req = json.loads(line)
        fvec = np.asarray(fn(np.asarray(req["x"], dtype=float)), dtype=float).reshape(-1)
        body = ", ".join(map(repr, fvec.tolist()))
        stdout.write('{"id": %d, "fvec": [%s]}\n' % (req["id"], body))
        stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
