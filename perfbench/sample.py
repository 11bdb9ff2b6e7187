"""One benchmark sample: a fresh interpreter imports the CLI and runs it once.

    python3 perfbench/sample.py SPEC

SPEC is a JSON object {"argv": [...], "t0": ..., "trace": false}, where t0
is CLOCK_MONOTONIC read by the parent just before it started this process.
Prints one JSON object: the CLI's exit code and captured stdout, setup_s
(t0 to `statpriv.cli` imported), wall_s (`main(argv)` entry to return),
peak_rss_mb, and with "trace" the per-layer metrics of tracer.Tracer.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import statpriv.cli

    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spec["t0"]
    if Path(statpriv.cli.__file__).resolve().parent.parent != SRC:
        print(f"imported {statpriv.cli.__file__}, not the package under {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = statpriv.cli.main(spec["argv"])
    wall_s = time.perf_counter() - start
    result = {
        "exit": code,
        "out": out.getvalue(),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["layers"]["cli.out_bytes"] = len(result["out"].encode("utf-8"))
        result["absent"] = tracer.absent
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
