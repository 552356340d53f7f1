"""Reference external oracle speaking the line protocol.

Run as ``python -m trfd.demo_oracle --problem rosenbrock`` to serve any
registry problem over stdin/stdout, or ``--echo`` for the identity map
(m = n).
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="trfd-demo-oracle")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--problem", help="serve a registry problem by name")
    mode.add_argument("--echo", action="store_true", help="fvec = x")
    args = parser.parse_args(argv)

    if args.problem:
        from .testset import registry_by_name

        fn = registry_by_name(args.problem).residuals
    else:
        fn = lambda x: x

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
