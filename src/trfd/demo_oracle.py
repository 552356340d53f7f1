"""Reference external oracle speaking the line protocol.

Run as ``python -m trfd.demo_oracle --problem rosenbrock`` to serve any
registry problem over stdin/stdout, or ``--echo`` for the identity map
(m = n).  The fault-injection flags exist so the protocol's error paths
can be exercised end to end in tests.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="trfd-demo-oracle")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--problem", help="serve a registry problem by name")
    mode.add_argument("--echo", action="store_true", help="fvec = x")
    parser.add_argument("--wrong-m", action="store_true", help="reply with one extra component")
    parser.add_argument("--garbage", action="store_true", help="reply with non-JSON text")
    parser.add_argument("--die-after", type=int, default=-1, metavar="K",
                        help="exit abruptly after K evaluations")
    parser.add_argument("--sleep", type=float, default=0.0, metavar="SECS",
                        help="delay each reply")
    parser.add_argument("--no-ready", action="store_true", help="skip the ready reply")
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
    if not args.no_ready:
        stdout.write('{"ready": true}\n')
        stdout.flush()

    served = 0
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        req = json.loads(line)
        qid = req["id"]
        if args.sleep:
            time.sleep(args.sleep)
        if args.garbage:
            stdout.write("this is not json\n")
            stdout.flush()
            continue
        fvec = np.asarray(fn(np.asarray(req["x"], dtype=float)), dtype=float).reshape(-1)
        if args.wrong_m:
            fvec = np.concatenate([fvec, [0.0]])
        body = ", ".join(map(repr, fvec.tolist()))
        stdout.write('{"id": %d, "fvec": [%s]}\n' % (qid, body))
        stdout.flush()
        served += 1
        if args.die_after >= 0 and served >= args.die_after:
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
