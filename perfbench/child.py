"""One benchmark child process: set up a workload, run it, report as JSON.

    python child.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

With --setup-only the child imports weierpath and numpy, builds the
workload and its first input, prints "ready" and exits; the parent times
this from process start.  Otherwise it runs a closed loop, one operation at
a time, and prints one JSON line with every operation's wall time and check
result, its peak RSS and its library versions.

Untraced (--trace 0): operations run until their summed wall time would
pass --seconds with one more of median length (at least two run).
Traced (--trace 1): the workload's fixed first `trace_ops` inputs run once
untraced, then twice under the tracer; the work counts of the two traced
passes must be identical.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback

# the median of one slow operation (ode_fig3 takes about 10 s) is too noisy
MIN_OPS = 2


def _one(workload, index, timed):
    """Prepare, run (timed) and check one operation; return its record."""
    kind, inputs = workload.prepare(index)
    gc.collect()
    try:
        output, seconds = timed(workload.run, inputs)
    except Exception:
        return {"index": index, "kind": kind, "seconds": None, "ok": False,
                "detail": traceback.format_exc(limit=3)}
    try:
        ok, detail = workload.check(inputs, output)
    except Exception:
        ok, detail = False, traceback.format_exc(limit=3)
    return {"index": index, "kind": kind, "seconds": seconds, "ok": bool(ok), "detail": detail}


def _untimed_clock(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import weierpath

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.prepare(0)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    out = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "weierpath": weierpath.__version__, "shares": workload.shares}
    if not args.trace:
        records = []
        spent = []
        while len(spent) < MIN_OPS or sum(spent) + statistics.median(spent) <= args.seconds:
            rec = _one(workload, len(records), _untimed_clock)
            records.append(rec)
            if rec["seconds"] is None:
                break
            spent.append(rec["seconds"])
        out["records"] = records
    else:
        from layers import Tracer

        count = workload.trace_ops
        out["records"] = [_one(workload, i, _untimed_clock) for i in range(count)]
        out["traced_records"] = []
        snapshots = []
        for _ in range(2):
            with Tracer() as tracer:
                out["traced_records"] += [_one(workload, i, tracer.op) for i in range(count)]
            snapshots.append(tracer.snapshot())
        out["trace"] = {
            "ops": count,
            "stats": snapshots[0],
            "counts": [{name: [st["calls"], st["work"]] for name, st in snap.items()}
                       for snap in snapshots],
            "absent": tracer.absent,
            "bindings": tracer.bindings,
        }
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
