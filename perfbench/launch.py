"""One benchmark child: runs ``hieram SUBCOMMAND ...`` as the console script does.

    python3 perfbench/launch.py RECORD {run,probe,trace} SUBCOMMAND [CLI ARGS...]

The only hook in a plain run is one CLOCK_MONOTONIC timestamp taken when the
subcommand runner is entered; the parent subtracts its own spawn time from it
to get the set-up time.  ``probe`` exits at that point, and ``trace`` also
records spans.  RECORD receives a JSON object when the child ends.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main() -> int:
    record_path, mode, *argv = sys.argv[1:]
    from hieram import cli

    record = {}
    sub = argv[0]
    runner = cli.RUNNERS[sub]

    def entered(ctx, writer):
        record["entered"] = time.monotonic()
        if mode == "probe":
            Path(record_path).write_text(json.dumps(record))
            os._exit(0)
        return runner(ctx, writer)

    cli.RUNNERS[sub] = entered
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    rc = cli.main(argv)
    if tracer is not None:
        record["spans"] = tracer.spans
    Path(record_path).write_text(json.dumps(record))
    return rc


if __name__ == "__main__":
    sys.exit(main())
