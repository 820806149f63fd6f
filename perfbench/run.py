"""milnoralg benchmark: run one workload from a seed and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tangent --seed 1 --seconds 24 --trace 0

Workloads are ``tangent``, ``roundtrip``, ``large`` and ``cli`` (see
``workloads.py`` for why each exists). The library is run from the
checkout's ``src``; nothing needs building.

With ``--trace 0`` the end-to-end metrics are reported:

* ``wall_s``: one pass over the workload's fixed, verified op list,
  each op at its median latency over the passes that fit in
  ``--seconds``;
* ``setup_s``: interpreter start, library import, input generation and
  cache emptying, the median of several set-ups in fresh processes;
* ``peak_rss_mb``: peak resident memory of the processes doing the work.

Per-op latencies are reported on the ``report`` line only (``op_p50_ms``,
``op_p90_ms`` from 100 ops, and their sample count): the op lists mix
sizes whose costs span two orders of magnitude, so which op sits at the
median changes with the seed and the percentiles are too unsteady to
gate on.

With ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics of ``tracing.py`` are reported (medians over the
traced passes), with ``trace.overhead_s``, the traced minus the
untraced pass wall time.

Every op's output is checked, and the canonical outputs of a pass are
digested; every pass must give the same digest, and a seed recorded in
``digests.json`` must give the recorded one. The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The
exit code is 0 only when every output was right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # set-ups per untraced run; the median is reported
DEADLINE_S = 170  # the whole run, children included, ends before this
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def run_child(cmd: list, timeout: float) -> tuple:
    """Run a process in its own group; kill the group if it overruns."""
    spawned_at = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return spawned_at, proc.returncode, out, err


def last_json(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    return json.loads(lines[-1])


def pass_time(passes: list) -> float:
    """One pass over the op list with each op at its median over ``passes``.

    Per-op medians drop an op slowed by a burst of load from other
    processes on the host, which a median over whole passes keeps.
    """
    per_op = zip(*(p["latencies"] for p in passes))
    return sum(statistics.median(samples) for samples in per_op)


def source_stamp() -> dict:
    """The commit when the checkout is a git work tree, and a source digest."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "milnoralg").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description="milnoralg benchmark")
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="one input of the smallest size per workload (harness self-test)",
    )
    args = parser.parse_args()
    started = perf_counter()

    if not (ROOT / "src" / "milnoralg" / "__init__.py").is_file():
        print(f"error: no milnoralg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    worker = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])

    def remaining() -> float:
        return DEADLINE_S - (perf_counter() - started)

    setups = []
    try:
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            spawned_at, code, out, err = run_child(worker + ["--setup-only"], remaining())
            if code != 0:
                sys.stderr.write(err)
                return 1
            setups.append(last_json(out)["ready_at"] - spawned_at)
        spawned_at, code, out, err = run_child(worker, remaining())
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {DEADLINE_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(err)
    if code != 0:
        return 1
    raw = last_json(out)
    setups.append(raw["ready_at"] - spawned_at)

    passes = raw["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    digests = sorted({p["digest"] for p in passes})
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    latencies_ms = [x * 1000 for p in passes for x in p["latencies"]]

    recorded = None
    if not args.smoke:
        known = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        recorded = known.get(args.workload, {}).get(str(args.seed))
    digest_ok = len(digests) == 1 and recorded in (None, digests[0])
    correct = failed == 0 and digest_ok

    wall = pass_time(plain)
    if args.trace:
        names = traced[0]["layers"]
        metrics = {
            name: statistics.median(p["layers"][name] for p in traced) for name in names
        }
        metrics["trace.overhead_s"] = pass_time(traced) - wall
        units = tracing.UNITS
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": raw["peak_rss_kb"] / 1024,
        }
        units = END_TO_END_UNITS

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "backend": raw["backend"],
        "python": raw["python"],
        "nproc": os.cpu_count(),
        **source_stamp(),
        "ops_per_pass": raw["ops"],
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "pass_wall_s": [round(p["wall"], 4) for p in passes],
        "setup_samples_s": [round(s, 4) for s in setups],
        "caches_emptied": raw["caches"],
        "digest": digests[0] if len(digests) == 1 else digests,
        "digest_check": (
            "mismatch" if not digest_ok
            else "match" if recorded
            else "not recorded for this seed"
        ),
        "fail_frac": failed / attempted,
        "op_samples": len(latencies_ms),
        "op_p50_ms": statistics.median(latencies_ms),
    }
    if len(latencies_ms) >= 100:
        report["op_p90_ms"] = statistics.quantiles(latencies_ms, n=10)[-1]
    print("report " + json.dumps(report))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
