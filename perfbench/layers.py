"""Per-layer tracing of weierpath from outside the package.

A `Tracer` wraps the public entry points of each module (phase, weierstrass,
iterated, roughpath, rde) for the duration of a traced pass.  A function is
wrapped at every place it is bound: modules that did `from .x import y` hold
their own reference, so each loaded `weierpath.*` module is scanned for
attributes that are the original object, and each one is replaced.  Methods
are wrapped on their class.  A target that no longer exists is recorded as
absent instead of failing the run.

Every wrapped call adds to its layer's call count and to a work count taken
from the call's arguments (or result), so counts depend only on inputs and
repeat exactly between runs.  Coarse entries record nested spans: `busy` is
the outermost wall time in the layer, `self` subtracts the time covered by
wrapped calls made from inside it.  The scalar phase functions are hot per
call (tens of thousands per lift), so they get a leaf timer that never
pushes a span: two clock reads and a counter.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np

_clock = time.perf_counter


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _nodes(args, kwargs, result):
    # AffineNodes.{sin,cos}_scaled(self, scale): one trig value per node
    return args[0].count


def _table_entries(args, kwargs, result):
    # TrigTable.__init__(self, den) fills cos and sin for 2*den residues
    return 2 * int(_arg(args, kwargs, 1, "den"))


def _table_lookups(args, kwargs, result):
    # TrigTable.{cos,sin}_scaled(self, scale, idx)
    return int(np.size(_arg(args, kwargs, 2, "idx")))


def _kahan_elements(args, kwargs, result):
    return int(np.size(_arg(args, kwargs, 2, "term")))


def _pairs_mode_pairs(args, kwargs, result):
    # iterated_pairs(c1, c2, N, table, s_idx, t_idx): (N+1)^2 per interval
    n = int(_arg(args, kwargs, 2, "N"))
    return (n + 1) ** 2 * int(np.size(_arg(args, kwargs, 4, "s_idx")))


def _prefix_mode_pairs(args, kwargs, result):
    # iterated_grid_prefix(c1, c2, table, idx, levels): shells up to max level
    top = max(int(n) for n in _arg(args, kwargs, 4, "levels"))
    return (top + 1) ** 2 * int(np.size(_arg(args, kwargs, 3, "idx")))


def _sweep_pairs(args, kwargs, result):
    # _second_level_rows(q, wi, wj, rows, cols): one value per (s, t) pair
    return int(np.size(_arg(args, kwargs, 3, "rows"))) * int(np.size(_arg(args, kwargs, 4, "cols")))


def _limit_n_used(args, kwargs, result):
    return int(result.n_used)


def _level(args, kwargs, result):
    return int(result)


def _stage_steps(args, kwargs, result):
    # _stage_matrices(problem, N, seg_start, h, steps)
    return int(_arg(args, kwargs, 4, "steps"))


def _lift_steps(args, kwargs, result):
    # _lift_table(driver, N, h, K): one lift increment per rough step
    return int(_arg(args, kwargs, 3, "K"))


# (layer, module, attribute path, work count or None, leaf timer counting calls)
TARGETS = (
    ("phase.affine", "weierpath.phase", "AffineNodes.sin_scaled", _nodes, False),
    ("phase.affine", "weierpath.phase", "AffineNodes.cos_scaled", _nodes, False),
    ("phase.scalar", "weierpath.phase", "phase_mod2", None, True),
    ("phase.scalar", "weierpath.phase", "cos_pi", None, True),
    ("phase.scalar", "weierpath.phase", "sin_pi", None, True),
    ("phase.table.build", "weierpath.phase", "TrigTable.__init__", _table_entries, False),
    ("phase.table", "weierpath.phase", "TrigTable.cos_scaled", _table_lookups, False),
    ("phase.table", "weierpath.phase", "TrigTable.sin_scaled", _table_lookups, False),
    ("weierstrass.kahan", "weierpath.weierstrass", "_kahan_update", _kahan_elements, False),
    ("weierstrass.derivative_affine", "weierpath.weierstrass", "eval_derivative_affine", None, False),
    ("weierstrass.truncated_grid", "weierpath.weierstrass", "eval_truncated_grid", None, False),
    ("weierstrass.scalar_eval", "weierpath.weierstrass", "eval_truncated", None, False),
    ("weierstrass.scalar_eval", "weierpath.weierstrass", "eval_derivative", None, False),
    ("weierstrass.scalar_eval", "weierpath.weierstrass", "eval_limit", None, False),
    ("iterated.elementary", "weierpath.iterated", "elementary_integral", None, False),
    ("iterated.pairs", "weierpath.iterated", "iterated_pairs", _pairs_mode_pairs, False),
    ("iterated.prefix", "weierpath.iterated", "iterated_grid_prefix", _prefix_mode_pairs, False),
    ("iterated.calibrate", "weierpath.iterated", "_calibrate_tail_constant", None, False),
    ("iterated.best_path", "weierpath.iterated", "_truncated_best_path", None, False),
    ("iterated.limit", "weierpath.iterated", "iterated_integral_limit", _limit_n_used, False),
    ("roughpath.lift", "weierpath.roughpath", "lift_truncated", None, False),
    ("roughpath.lift", "weierpath.roughpath", "lift_limit", None, False),
    ("roughpath.level_tables", "weierpath.roughpath", "_level_tables", None, False),
    ("roughpath.pair_sweep", "weierpath.roughpath", "_second_level_rows", _sweep_pairs, False),
    ("roughpath.resolve_level", "weierpath.roughpath", "_resolve_level", _level, False),
    ("roughpath.convergence", "weierpath.roughpath", "convergence_report", None, False),
    ("rde.stage_matrices", "weierpath.rde", "_stage_matrices", _stage_steps, False),
    ("rde.ordered_product", "weierpath.rde", "_ordered_product", None, False),
    ("rde.lift_table", "weierpath.rde", "_lift_table", _lift_steps, False),
    ("rde.rough_loop", "weierpath.rde", "solve_rough", None, False),
    ("rde.ode", "weierpath.rde", "solve_ode_truncated", None, False),
)

ROOT = "bench.op"


@dataclass
class LayerStats:
    calls: int = 0
    work: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    active: int = 0


class Tracer:
    """Installs wrappers on enter and restores every original on exit."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self.absent: list[str] = []
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _layer(self, name: str) -> LayerStats:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = LayerStats()
        return st

    def _span_wrapper(self, fn, st: LayerStats, work):
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            st.active += 1
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                st.active -= 1
                st.calls += 1
                st.self_time += dt - frame[0]
                if not st.active:
                    st.busy += dt
                if stack:
                    stack[-1][0] += dt
            if work is not None:
                st.work += work(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf_wrapper(self, fn, st: LayerStats):
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = _clock()
            result = fn(*args, **kwargs)
            dt = _clock() - t0
            st.calls += 1
            st.work += 1
            st.busy += dt
            st.self_time += dt
            if stack:
                stack[-1][0] += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _install(self, layer, module_name, path, work, leaf):
        st = self._layer(layer)
        label = f"{module_name}.{path}"
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(label)
            return
        wrapper = self._leaf_wrapper(original, st) if leaf else self._span_wrapper(original, st, work)
        if outer:
            # a method: the class object is the one binding every caller shares
            sites = [(owner, attr)]
        else:
            sites = [
                (mod, name)
                for mod_name, mod in list(sys.modules.items())
                if mod is not None and (mod_name == "weierpath" or mod_name.startswith("weierpath."))
                for name, value in list(vars(mod).items())
                if value is original
            ]
        for obj, name in sites:
            self._restore.append((obj, name, getattr(obj, name)))
            setattr(obj, name, wrapper)
        self.bindings[label] = sorted(f"{getattr(o, '__name__', o)}.{n}" for o, n in sites)

    def __enter__(self):
        for target in TARGETS:
            self._install(*target)
        return self

    def __exit__(self, *exc):
        while self._restore:
            obj, name, original = self._restore.pop()
            setattr(obj, name, original)
        return False

    def op(self, fn, *args):
        """Run one benchmark operation under the root span; return (result, seconds)."""
        st = self._layer(ROOT)
        frame = [0.0]
        self._stack.append(frame)
        t0 = _clock()
        try:
            result = fn(*args)
        finally:
            dt = _clock() - t0
            self._stack.pop()
            st.calls += 1
            st.busy += dt
            st.self_time += dt - frame[0]
        return result, dt

    def snapshot(self) -> dict[str, dict]:
        return {
            name: {"calls": st.calls, "work": st.work, "busy": st.busy, "self": st.self_time}
            for name, st in sorted(self.stats.items())
        }


def per_layer_metrics(stats: dict[str, dict], ops: int, overhead_frac: float,
                      absent: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics from a traced pass of `ops` operations."""

    def g(layer, key):
        return stats.get(layer, {}).get(key, 0)

    def per_op(layer, key):
        return g(layer, key) / ops

    def rate(layer):
        busy = g(layer, "busy")
        return g(layer, "work") / busy if busy > 0 else 0.0

    def mean_work(layer):
        calls = g(layer, "calls")
        return g(layer, "work") / calls if calls else 0.0

    built = g("phase.table.build", "work")
    return {
        "phase.affine.trig_evals": (per_op("phase.affine", "work"), "count"),
        "phase.affine.busy_s": (per_op("phase.affine", "busy"), "s"),
        "phase.affine.trig_evals_per_s": (rate("phase.affine"), "1/s"),
        "phase.scalar.reductions": (per_op("phase.scalar", "work"), "count"),
        "phase.scalar.busy_s": (per_op("phase.scalar", "busy"), "s"),
        "phase.table.builds": (per_op("phase.table.build", "calls"), "count"),
        "phase.table.entries": (per_op("phase.table.build", "work"), "count"),
        "phase.table.build_s": (per_op("phase.table.build", "busy"), "s"),
        "phase.table.lookups": (per_op("phase.table", "work"), "count"),
        "phase.table.busy_s": (per_op("phase.table", "busy"), "s"),
        "phase.table.use_ratio": (g("phase.table", "work") / built if built else 0.0, "ratio"),
        "weierstrass.kahan.elements": (per_op("weierstrass.kahan", "work"), "count"),
        "weierstrass.kahan.busy_s": (per_op("weierstrass.kahan", "busy"), "s"),
        "weierstrass.derivative_affine.self_s": (per_op("weierstrass.derivative_affine", "self"), "s"),
        "weierstrass.truncated_grid.busy_s": (per_op("weierstrass.truncated_grid", "busy"), "s"),
        "weierstrass.scalar_eval.calls": (per_op("weierstrass.scalar_eval", "calls"), "count"),
        "weierstrass.scalar_eval.busy_s": (per_op("weierstrass.scalar_eval", "busy"), "s"),
        "iterated.elementary.calls": (per_op("iterated.elementary", "calls"), "count"),
        "iterated.elementary.busy_s": (per_op("iterated.elementary", "busy"), "s"),
        "iterated.pairs.mode_pairs": (per_op("iterated.pairs", "work"), "count"),
        "iterated.pairs.busy_s": (per_op("iterated.pairs", "busy"), "s"),
        "iterated.pairs.self_s": (per_op("iterated.pairs", "self"), "s"),
        "iterated.pairs.mode_pairs_per_s": (rate("iterated.pairs"), "1/s"),
        "iterated.prefix.mode_pairs": (per_op("iterated.prefix", "work"), "count"),
        "iterated.prefix.busy_s": (per_op("iterated.prefix", "busy"), "s"),
        "iterated.prefix.self_s": (per_op("iterated.prefix", "self"), "s"),
        "iterated.calibrate.calls": (per_op("iterated.calibrate", "calls"), "count"),
        "iterated.calibrate.busy_s": (per_op("iterated.calibrate", "busy"), "s"),
        "iterated.limit.n_used": (mean_work("iterated.limit"), "count"),
        "roughpath.lift.calls": (per_op("roughpath.lift", "calls"), "count"),
        "roughpath.lift.self_s": (per_op("roughpath.lift", "self"), "s"),
        "roughpath.level_tables.busy_s": (per_op("roughpath.level_tables", "busy"), "s"),
        "roughpath.pair_sweep.pairs": (per_op("roughpath.pair_sweep", "work"), "count"),
        "roughpath.pair_sweep.busy_s": (per_op("roughpath.pair_sweep", "busy"), "s"),
        "roughpath.resolve_level.busy_s": (per_op("roughpath.resolve_level", "busy"), "s"),
        "roughpath.resolve_level.n": (mean_work("roughpath.resolve_level"), "count"),
        "rde.stage_matrices.steps": (per_op("rde.stage_matrices", "work"), "count"),
        "rde.stage_matrices.busy_s": (per_op("rde.stage_matrices", "busy"), "s"),
        "rde.stage_matrices.self_s": (per_op("rde.stage_matrices", "self"), "s"),
        "rde.ordered_product.busy_s": (per_op("rde.ordered_product", "busy"), "s"),
        "rde.lift_table.busy_s": (per_op("rde.lift_table", "busy"), "s"),
        "rde.lift_table.self_s": (per_op("rde.lift_table", "self"), "s"),
        "rde.rough_steps": (per_op("rde.lift_table", "work"), "count"),
        "rde.rough_loop.self_s": (per_op("rde.rough_loop", "self"), "s"),
        "trace.overhead_frac": (overhead_frac, "fraction"),
        "trace.absent_names": (float(absent), "count"),
    }


# Which end-to-end metric each layer should move, and the workloads on
# which it must see zero calls.  Printed with every traced run.
LAYER_MAP = (
    ("phase.affine", "op_p50_s on ode_fig3", ("rough_tol", "lift_points", "converge_grid")),
    ("phase.scalar", "op_p50_s, ops_per_s on lift_points", ("converge_grid",)),
    ("phase.table", "op_p50_s on lift_points, rough_tol, converge_grid", ("ode_fig3",)),
    ("phase.table.build", "op_p50_s on lift_points", ("ode_fig3",)),
    ("weierstrass.kahan", "op_p50_s on ode_fig3, rough_tol, converge_grid", ()),
    ("weierstrass.derivative_affine", "op_p50_s on ode_fig3", ("rough_tol", "lift_points", "converge_grid")),
    ("weierstrass.truncated_grid", "op_p50_s on rough_tol, converge_grid", ("ode_fig3",)),
    ("weierstrass.scalar_eval", "ops_per_s on lift_points", ("converge_grid",)),
    ("iterated.elementary", "op_p50_s, ops_per_s on lift_points", ("ode_fig3", "converge_grid")),
    ("iterated.pairs", "op_p50_s, peak_rss_mb on rough_tol; op_p50_s on lift_points", ("ode_fig3", "converge_grid")),
    ("iterated.prefix", "op_p50_s on converge_grid", ("ode_fig3", "rough_tol", "lift_points")),
    ("iterated.calibrate", "ops_per_s on lift_points; op_p50_s on rough_tol", ("ode_fig3", "converge_grid")),
    ("iterated.limit", "ops_per_s on lift_points", ("ode_fig3", "converge_grid")),
    ("roughpath.lift", "op_p50_s on lift_points", ("ode_fig3", "converge_grid")),
    ("roughpath.level_tables", "op_p50_s on converge_grid", ("ode_fig3", "rough_tol", "lift_points")),
    ("roughpath.pair_sweep", "op_p50_s on converge_grid", ("ode_fig3", "rough_tol", "lift_points")),
    ("roughpath.resolve_level", "op_p50_s on rough_tol", ("ode_fig3", "converge_grid")),
    ("rde.stage_matrices", "op_p50_s on ode_fig3", ("rough_tol", "lift_points", "converge_grid")),
    ("rde.ordered_product", "op_p50_s on ode_fig3", ("rough_tol", "lift_points", "converge_grid")),
    ("rde.lift_table", "op_p50_s on rough_tol", ("ode_fig3", "lift_points", "converge_grid")),
    ("rde.rough_loop", "op_p50_s on rough_tol", ("ode_fig3", "lift_points", "converge_grid")),
)

# Layers whose self time together should lead each workload's traced pass.
DOMINANT = {
    "ode_fig3": ("phase.affine",),
    "rough_tol": ("iterated.pairs",),
    "lift_points": ("phase.scalar", "iterated.elementary"),
    "converge_grid": ("roughpath.pair_sweep", "iterated.prefix"),
}


def layer_report(workload: str, stats: dict[str, dict]) -> list[str]:
    """Self-time shares, zero-call expectations and the dominant-layer check."""
    total = sum(st["self"] for st in stats.values()) or 1.0
    shares = {name: st["self"] / total for name, st in stats.items()}
    lines = ["self-time shares: " + ", ".join(
        f"{name} {share:.3f}" for name, share in sorted(shares.items(), key=lambda kv: -kv[1])[:6]
    )]
    group = DOMINANT[workload]
    lead = sum(shares.get(name, 0.0) for name in group)
    rest = max((s for name, s in shares.items() if name not in group), default=0.0)
    op_busy = stats.get(ROOT, {}).get("busy") or 1.0
    lines.append(f"dominant {'+'.join(group)}: self share {lead:.3f} vs next layer {rest:.3f} "
                 f"-> {'holds' if lead > rest else 'does not hold'}; busy share of op time: "
                 + ", ".join(f"{name} {stats.get(name, {}).get('busy', 0.0) / op_busy:.3f}"
                             for name in group))
    nonzero = [name for name, _, zero_on in LAYER_MAP
               if workload in zero_on and stats.get(name, {}).get("calls", 0)]
    lines.append("expected-zero layers with calls: " + (", ".join(nonzero) if nonzero else "none"))
    return lines
