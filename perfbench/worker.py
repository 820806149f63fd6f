"""One benchmark process: set up a workload, then time passes over its ops.

Usage: python3 perfbench/worker.py --workload W --seed N --seconds S
           --trace <0|1> [--smoke] [--setup-only]

Set-up imports the library from the checkout's ``src``, generates the
workload's inputs from the seed and empties every library cache; its end
is printed as ``ready_at`` on the ``time.perf_counter`` clock, which on
Linux is the system-wide monotonic clock, so the parent process can
subtract its own spawn time. Each pass empties the caches again first,
so every pass starts cold, the way a fresh user call does. The last line
of stdout is one JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracing
import workloads


def _checked(op, result) -> bool:
    if isinstance(result, Exception):
        return False
    try:
        return bool(op.check(result))
    except Exception:  # a malformed output fails its check
        return False


def run_pass(ops, caches, modules, traced: bool, in_process: bool) -> dict:
    """One pass over the op list; op latencies exclude checks and digests."""
    started = perf_counter()
    for cache in caches.values():
        cache.cache_clear()
    gc.collect()
    tracer = tracing.Tracer() if traced and in_process else None
    child_traces = []
    latencies = []
    failed = 0
    digest = hashlib.sha256()
    for op in ops:
        if tracer is not None:
            tracer.install(modules)
        t0 = perf_counter()
        try:
            result = op.call(traced)
        except Exception as exc:  # a failed op is counted, not fatal
            result = exc
        latencies.append(perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
        if not _checked(op, result):
            failed += 1
            print(f"wrong: {op.label}: {workloads.canonical(result)[:200]}", file=sys.stderr)
        trace = getattr(result, "trace", None)
        if trace is not None:
            child_traces.append(trace)
        digest.update(f"{op.label}\n{workloads.canonical(result)}\n".encode())
    out = {
        "traced": traced,
        "wall": sum(latencies),
        "latencies": latencies,
        "failed": failed,
        "digest": digest.hexdigest(),
    }
    if traced:
        if tracer is not None:
            raw = tracer.raw()
            raw["cache"] = tracing.cache_counts(modules)
        else:
            raw = tracing.merge(child_traces)
        out["layers"] = tracing.metrics(raw)
    out["duration"] = perf_counter() - started
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(workloads.ROOT / "src"))
    modules = tracing.library_modules()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workloads.ROOT) as workdir:
        ops = workloads.build(args.workload, args.seed, args.smoke, modules, Path(workdir))
        caches = tracing.find_caches(modules)
        for cache in caches.values():
            cache.cache_clear()
        gc.collect()
        ready_at = perf_counter()
        if args.setup_only:
            print(json.dumps({"ready_at": ready_at}))
            return 0

        in_process = args.workload != "cli"
        schedule = [False, True] if args.trace else [False]
        passes = []
        start = perf_counter()
        while True:
            traced = schedule[len(passes) % len(schedule)]
            passes.append(run_pass(ops, caches, modules, traced, in_process))
            elapsed = perf_counter() - start
            if len(passes) >= len(schedule) and elapsed + passes[-1]["duration"] > args.seconds:
                break

    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    rational = modules["rationals"].Q
    print(json.dumps({
        "ready_at": ready_at,
        "passes": passes,
        "caches": list(caches),
        "peak_rss_kb": usage.ru_maxrss,
        "backend": f"{rational.__module__}.{rational.__qualname__}",
        "python": f"{sys.implementation.name} {sys.version.split()[0]}",
        "ops": len(ops),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
