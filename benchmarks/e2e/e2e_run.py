"""Run the repository benchmark: one workload, or all of them.

From the repository root::

    python3 benchmarks/e2e/e2e_run.py --workload exec_hot --seed 1 \
        --seconds 10 --trace 0

runs one workload and prints every metric by name with its unit, then — as
the last line — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``--workload all`` runs every workload,
untraced and traced.  Each run is a fresh child process; this process only
supervises it, and does not return before every process the run started has
ended and been waited for.  The exit code is non-zero when any op failed
its reference check, a workload leaked a resource (a process included), or
the engine sources are missing.

The engine is measured from outside: this directory imports ``repro`` from
``src/`` and touches no file beyond ``benchmarks/e2e/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

import e2e_config as config
from e2e_config import OUT_DIR, ROOT


SOURCE = os.path.join(ROOT, "src")
#: Seconds a run may take before its supervisor ends it (the caller's
#: limit is 180), and seconds a finished run's descendants get to end on
#: their own before they are killed.
RUN_TIMEOUT = 170.0
EXIT_GRACE = 2.0


def prepare_environment() -> None:
    """Production defaults, the engine on the path, temp files in ``out/``.

    Spawned process-pool workers start from a copy of this ``sys.path``.
    """
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, SOURCE)
    os.makedirs(OUT_DIR, exist_ok=True)
    os.environ["TMPDIR"] = OUT_DIR


# ---------------------------------------------------------------------------
# Processes: nothing a run starts may outlive it
# ---------------------------------------------------------------------------


def children_of(parent: int) -> List[int]:
    """Pids whose parent is ``parent``, zombies included (from ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                # pid (comm) state ppid ...; comm may hold spaces and ")".
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # gone since the listing
        if int(fields[1]) == parent:
            found.append(int(entry))
    return found


def stop_resource_tracker() -> None:
    """End multiprocessing's resource tracker and wait for it.

    The standard library starts that process beside the first spawned pool
    worker and leaves it running until this process is gone: it would end
    after the run, as an orphan nobody waits for.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if tracker._pid is not None:
        os.close(tracker._fd)  # end of input is its signal to finish
        os.waitpid(tracker._pid, 0)
        tracker._fd = tracker._pid = None


def adopt_orphans() -> None:
    """Make this process the parent of every descendant that loses its own
    (``PR_SET_CHILD_SUBREAPER``), so that it can wait for all of them."""
    import ctypes

    ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)


def reap_descendants(grace: float) -> List[int]:
    """Wait until no descendant is left; returns the pids that had to be
    killed because they were still running ``grace`` seconds from now."""
    killed: List[int] = []
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() < deadline:
            time.sleep(0.01)
            continue
        # Killing a child hands its own children to this process: the next
        # rounds find them.
        for pid in children_of(os.getpid()):
            if pid not in killed:
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)
        time.sleep(0.01)


def supervise(args: argparse.Namespace, workload: str, trace: int) -> int:
    """One run as a child process; returns its exit code.

    The child closes what it opens and fails its run over anything left
    (``run_workload``).  This is the net under every other way out — a
    crash, a hang, a signal to this process: whatever the run started is
    killed if need be and waited for before this returns.
    """
    command = [sys.executable, os.path.abspath(__file__), "--supervised",
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--scale", args.scale]
    if args.out:
        command += ["--out", args.out]
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    # str hashing decides set and dict layouts in the planner, and with them
    # 4 % of a whole run's speed; a random hash seed per process is noise no
    # number of passes averages out, so every run (and every pool worker it
    # spawns) uses the same one.
    child = subprocess.Popen(command,
                             env=dict(os.environ, PYTHONHASHSEED="0"))
    try:
        status = child.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print("e2e_run: %s ran over %.0f s" % (workload, RUN_TIMEOUT),
              file=sys.stderr)
        status = 1
    finally:
        ended = child.returncode is not None
        if not ended:
            child.kill()
            child.wait()
        killed = reap_descendants(EXIT_GRACE if ended else 0.0)
        for pid in killed:
            print("e2e_run: killed process %d, left running by %s"
                  % (pid, workload), file=sys.stderr)
    return status or int(bool(killed))


def commit() -> str:
    """HEAD of the checkout, read from ``.git`` (no subprocess); the
    driver's checkouts are not repositories."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy

    return {"commit": commit(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "hash_seed": os.environ["PYTHONHASHSEED"], "seed": args.seed,
            "seconds": args.seconds, "scale": args.scale,
            "sizes": config.fixed_sizes(args.scale)}


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    times = os.times()
    return (times.user + times.system
            + times.children_user + times.children_system)


def end_to_end(ops: list, chunks: list, setup_s: List[float],
               cpu_s: float) -> Dict[str, float]:
    from e2e_workloads import nearest_rank

    latencies = [op.seconds * 1e3 for op in ops]
    return {
        # Median over chunks (passes, or 100 finished requests): one stall
        # moves one chunk, not the figure.
        "queries_per_s": statistics.median(
            correct / wall for correct, wall in chunks),
        "query_ms_p50": nearest_rank(latencies, 50),
        "query_ms_p95": nearest_rank(latencies, 95),
        "cpu_ms_per_query": cpu_s * 1e3 / len(ops),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_s),
    }


def run_workload(args: argparse.Namespace) -> int:
    """Set up, measure, check and report one workload in this process."""
    import e2e_checks as checks
    from e2e_spans import Recorder, installed
    from e2e_workloads import WORKLOADS

    sizes = config.SCALES[args.scale]
    seconds = float(args.seconds) if sizes.timed else 0.0
    # setup_s is the median of several whole set-ups; the traced run does
    # not report it and sets up once.
    setup_s: List[float] = []
    workload = None
    for _ in range(1 if args.trace else sizes.setup_reps):
        if workload is not None:
            # Drop the previous set-up whole (its objects sit in reference
            # cycles), or peak_rss_mb would count three data sets.
            workload.close()
            workload = None
            gc.collect()
        started = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, sizes)
        workload.setup()
        setup_s.append(time.perf_counter() - started)
    if args.corrupt_reference:
        workload.corrupt_reference()

    cpu_started = cpu_seconds()
    layers: Dict[str, float] = {}
    if not args.trace:
        ops, chunks = workload.region(seconds, None)
    else:
        # Half the time untraced, half traced: their throughput ratio is
        # the tracing overhead.
        untraced_ops, untraced = workload.region(seconds / 2, None)
        recorder = Recorder()
        with installed(recorder):
            before = workload.counters()
            ops, chunks = workload.region(seconds / 2, recorder)
            after = workload.counters()
            layers = workload.layers(recorder, before, after, len(chunks))
        layers["trace.self_time_coverage"] = recorder.coverage()
        layers["trace.overhead_frac"] = (
            statistics.median(c / w for c, w in chunks)
            / statistics.median(c / w for c, w in untraced))
        recorder.dump(os.path.join(OUT_DIR,
                                   "spans-%s.json" % args.workload))
        ops = untraced_ops + ops
    workload.close()
    cpu_s = cpu_seconds() - cpu_started
    leaked = checks.leaks(workload.spill_root)
    shutil.rmtree(workload.spill_root, ignore_errors=True)
    stop_resource_tracker()
    leaked += ["process %d" % pid for pid in children_of(os.getpid())]

    if args.trace:
        values = {name: float(layers.get(name, 0.0))
                  for name, _unit, _better in config.PER_LAYER}
        units = {name: unit for name, unit, _better in config.PER_LAYER}
    else:
        values = end_to_end(ops, chunks, setup_s, cpu_s)
        units = {name: unit for name, unit, _b, _bound in config.END_TO_END}
    failed = sum(not op.ok for op in ops)
    print("workload %s  seed %d  scale %s  trace %d  ops %d  failed %d"
          % (args.workload, args.seed, args.scale, args.trace, len(ops),
             failed))
    for name, value in values.items():
        print("  %-34s %16.6f %-6s (n=%d ops)"
              % (name, value, units[name], len(ops)))
    for item in leaked:
        print("LEAKED %s" % item, file=sys.stderr)
    correct = failed == 0 and not leaked
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    if args.out:
        record = dict(result, workload=args.workload, trace=args.trace,
                      samples_ms=[[op.kind, op.seconds * 1e3, op.ok]
                                  for op in ops], **provenance(args))
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", help="append this run's record, with its "
                        "per-op samples, to a JSON-lines file")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="spoil one reference (the smoke test's proof "
                        "that a wrong result fails the run)")
    parser.add_argument("--supervised", action="store_true",
                        help=argparse.SUPPRESS)  # set by supervise()
    args = parser.parse_args()
    if args.supervised:
        prepare_environment()
        return run_workload(args)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        sys.exit("e2e_run: no engine at %s; run from a full checkout"
                 % SOURCE)
    if len(os.sched_getaffinity(0)) < 2:
        sys.exit("e2e_run: needs at least 2 CPUs (exec_parallel and "
                 "serve_mixed run 2 workers)")
    if args.workload != "all" and args.workload not in config.WORKLOADS:
        parser.error("unknown workload %r (one of %s, all)"
                     % (args.workload, ", ".join(config.WORKLOADS)))
    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # runs finally:
    if args.workload != "all":
        return supervise(args, args.workload, args.trace)
    # Every workload, untraced then traced.
    status = 0
    for workload in config.WORKLOADS:
        for trace in (0, 1):
            status |= supervise(args, workload, trace)
    return status


if __name__ == "__main__":
    # The guard matters: process-pool workers are spawned and import this
    # module again.
    sys.exit(main())
