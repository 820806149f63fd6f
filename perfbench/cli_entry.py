"""Run one ``milnoralg`` CLI command from the checkout's sources.

Usage: python3 perfbench/cli_entry.py <0|1> <milnoralg arguments...>

With 1, the library's public functions are traced in this process and
the per-layer totals, the library import time and the cache counters
are written to stderr as one ``PERFBENCH_TRACE <json>`` line after the
command finishes. The exit code is the command's own.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    traced = sys.argv[1] == "1"
    argv = sys.argv[2:]
    t0 = perf_counter()
    import milnoralg.cli

    import_s = perf_counter() - t0
    if not traced:
        return milnoralg.cli.main(argv)

    import tracing

    modules = tracing.library_modules()
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        code = milnoralg.cli.main(argv)
    finally:
        tracer.uninstall()
    raw = tracer.raw()
    raw["import_s"] = [import_s]
    raw["cache"] = tracing.cache_counts(modules)
    sys.stderr.write("PERFBENCH_TRACE " + json.dumps(raw) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
