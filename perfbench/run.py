"""weierpath benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a weierpath checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists): ode_fig3, rough_tol,
lift_points, converge_grid.  The seed drives every generated input; the
library sees only those inputs.

Each run starts child processes one after another, never two at once, with
BLAS/OpenMP thread counts pinned to 1 in the child's environment only:

* --trace 0: nine set-up probes (interpreter start to inputs ready; the
  median is setup_s), then one child that runs the closed loop for
  --seconds.  Prints op_p50_s, ops_per_s, peak_rss_mb and setup_s.
* --trace 1: one child that replays the workload's first inputs untraced
  and then twice with every module's entry points wrapped.  Prints the
  per-layer metrics (per operation) and trace.overhead_frac, and fails the
  run if the work counts of the two traced passes differ.

Every operation's output is checked outside the timed region; the last line
of standard output is one JSON object with correct, attempted, failed and
metrics.  Human-readable lines before it give the environment, failed_frac,
op_p90_s (only when at least 100 operations ran) and the layer report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ode_fig3", "rough_tol", "lift_points", "converge_grid")
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 160.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _child_cmd(args, *extra) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def _setup_probe(args, env, deadline) -> float:
    t0 = time.perf_counter()
    with subprocess.Popen(_child_cmd(args, "--setup-only"), env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def _run_child(args, env, deadline) -> dict:
    proc = subprocess.run(_child_cmd(args), env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload child failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _end_to_end(records, shares, setup_s, peak_rss_mb):
    times = [r["seconds"] for r in records if r["seconds"] is not None]
    by_kind = {}
    for r in records:
        if r["seconds"] is not None:
            by_kind.setdefault(r["kind"], []).append(r["seconds"])
    if set(by_kind) == set(shares):
        # the workload's fixed mix, so a run's cut point cannot move the rate
        mean_op = sum(share * statistics.fmean(by_kind[k]) for k, share in shares.items())
    else:
        mean_op = statistics.fmean(times)
    return {
        "op_p50_s": (statistics.median(times), "s"),
        "ops_per_s": (1.0 / mean_op, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "weierpath" / "__init__.py").is_file():
        print(f"error: no weierpath sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    env = _child_env(src)

    try:
        setup_s = None
        if not args.trace:
            setup_s = statistics.median(_setup_probe(args, env, deadline) for _ in range(SETUP_PROBES))
        child = _run_child(args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = child["records"] + child.get("traced_records", [])
    if not any(r["seconds"] is not None for r in child["records"]):
        print(f"error: no operation completed: {records[0]['detail'].strip()}", file=sys.stderr)
        return 1
    attempted = len(records)
    failures = [r for r in records if not r["ok"]]
    env_info = {
        "python": child["python"], "numpy": child["numpy"], "weierpath": child["weierpath"],
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(), "commit": _git_commit(root), "threads_per_child": 1,
    }
    print("env " + json.dumps(env_info))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {attempted} operations, {len(failures)} failed")
    for r in failures[:5]:
        print(f"  failed op {r['index']} ({r['kind']}): {r['detail'].strip()}")
    print(f"failed_frac {len(failures) / attempted:.6g} fraction")

    correct = not failures
    if not args.trace:
        metrics = _end_to_end(child["records"], child["shares"], setup_s, child["peak_rss_mb"])
        times = [r["seconds"] for r in child["records"] if r["seconds"] is not None]
        if len(times) >= 100:
            print(f"op_p90_s {statistics.quantiles(times, n=10)[8]:.6g} s (n={len(times)})")
        else:
            print(f"op_p90_s not reported: {len(times)} operations (< 100)")
    else:
        from layers import layer_report, per_layer_metrics

        trace = child["trace"]
        counts_a, counts_b = trace["counts"]
        repeat = counts_a == counts_b
        correct = correct and repeat
        untraced = statistics.median(r["seconds"] for r in child["records"] if r["seconds"] is not None)
        traced = statistics.median(
            r["seconds"] for r in child["traced_records"][: trace["ops"]] if r["seconds"] is not None
        )
        metrics = per_layer_metrics(trace["stats"], trace["ops"], traced / untraced - 1.0,
                                    len(trace["absent"]))
        print(f"traced operations per pass: {trace['ops']}; work counts repeat: {repeat}")
        print("absent names: " + (", ".join(trace["absent"]) or "none"))
        shared = {label: sites for label, sites in trace["bindings"].items() if len(sites) > 1}
        print("names wrapped at several bindings: " + "; ".join(
            f"{label} @ {', '.join(sites)}" for label, sites in shared.items()))
        for line in layer_report(args.workload, trace["stats"]):
            print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
