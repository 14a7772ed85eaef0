"""Warm in-process analyze runs, driven one request at a time over stdin/stdout.

Each request is one JSON line {"argv": [...], "trace": bool}; the reply is one
JSON line with the exit code, the wall time of creditfactors.cli.main(argv),
captured stderr, and, for traced runs, the per-function span summary. A
{"dump": path} request writes every span recorded so far and ends the worker.
"""

import contextlib
import gc
import io
import json
import sys
import time
import traceback

import creditfactors.cli as cli

from tracer import Tracer, summarize


def run(argv, tracer=None):
    err = io.StringIO()
    first = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
        wall = time.perf_counter() - start
    reply = {"rc": rc, "wall_s": wall, "stderr": err.getvalue()}
    if tracer:
        tracer.uninstall()
        reply["functions"], reply["counters"] = summarize(tracer.spans, first)
    return reply


def main():
    proto = sys.stdout
    tracer = Tracer()
    for line in sys.stdin:
        req = json.loads(line)
        if "dump" in req:
            tracer.dump(req["dump"])
            reply = {}
        else:
            reply = run(req["argv"], tracer if req.get("trace") else None)
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
        if "dump" in req:
            return


if __name__ == "__main__":
    main()
