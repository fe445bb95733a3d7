"""The four benchmark workloads: seeded inputs, one operation, and its check.

Each workload turns (seed, index) into the inputs of one operation, so the
same seed always gives the same sequence and a traced pass can replay the
exact inputs of an untraced one.  The library sees only generated inputs.
`prepare` and `check` run outside the timed region; `run` is the operation.

References were recorded at the commit that introduced this benchmark:
the two RDE workloads are linear in the start state, so their endpoint is
y0[0] * E1 + y0[1] * E2 for the endpoints E1, E2 of the unit start states.
The (1, 0) endpoint of the figure-3 ODE is the criterion-10 baseline.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

# Entry points are looked up on the package at call time, so that a traced
# pass, which rebinds them there, sees every call the workload makes.
import weierpath as wp

FIGURE_PAIR = ((2, "18/25"), (3, "3/5"))

ENDPOINT_RTOL = 1e-9
LIFT_ATOL = 1e-9
RATIO_RTOL = 1e-7


def figure_pair() -> wp.VectorWeierstrass:
    return wp.VectorWeierstrass([wp.validate_component(b, a=a) for b, a in FIGURE_PAIR])


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def _start_state(seed: int, index: int) -> np.ndarray:
    rng = _rng(seed, index)
    radius = rng.uniform(0.5, 2.0)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([radius * math.cos(angle), radius * math.sin(angle)])


def _endpoint_check(y0, path, e1, e2) -> tuple[bool, str]:
    expected = y0[0] * np.asarray(e1) + y0[1] * np.asarray(e2)
    got = path.endpoint()
    err = float(np.linalg.norm(got - expected))
    scale = float(np.linalg.norm(expected))
    ok = path.values.shape == (1025, 2) and err <= ENDPOINT_RTOL * scale
    return ok, f"endpoint error {err:.3e} (allowed {ENDPOINT_RTOL * scale:.3e})"


class OdeFig3:
    """solve_ode_truncated on the figure pair, N = 12, default step, seeded y0."""

    name = "ode_fig3"
    shares = {"ode": 1.0}
    trace_ops = 1
    E1 = (3.325716356682091, 0.643022540127414)
    E2 = (-2.269379206517135, -0.13809415256081098)

    def __init__(self, seed: int):
        self.seed = seed
        self.driver = figure_pair()
        self.field = wp.BilinearField()

    def prepare(self, index: int):
        return "ode", wp.RdeProblem(self.field, self.driver, _start_state(self.seed, index))

    def run(self, problem):
        return wp.solve_ode_truncated(problem, 12)

    def check(self, problem, path):
        return _endpoint_check(problem.y0, path, self.E1, self.E2)


class RoughTol:
    """solve_rough at tolerance 1e-6 (eps' 0.1), step 2^-13, seeded y0."""

    name = "rough_tol"
    shares = {"rough": 1.0}
    trace_ops = 1
    E1 = (3.381153206554035, 0.7303091898054921)
    E2 = (-2.272791273726785, -0.19522706461992617)

    def __init__(self, seed: int):
        self.seed = seed
        self.driver = figure_pair()
        self.field = wp.BilinearField()
        self.policy = wp.TruncationPolicy.tolerance(1e-6, 0.1)
        self.step = Fraction(1, 1 << 13)

    def prepare(self, index: int):
        return "rough", wp.RdeProblem(self.field, self.driver, _start_state(self.seed, index))

    def run(self, problem):
        return wp.solve_rough(problem, self.policy, step=self.step)

    def check(self, problem, path):
        return _endpoint_check(problem.y0, path, self.E1, self.E2)


def _interval(rng: random.Random, lo: int, hi: int) -> tuple[Fraction, Fraction]:
    """[s, t] in [0, 1] whose lcm denominator D is drawn from (lo, hi], D not a power of 2."""
    while True:
        den = rng.randint(lo + 1, hi)
        num = rng.randrange(1, den)
        if den & (den - 1) and math.gcd(num, den) == 1:
            break
    other = rng.randrange(0, den + 1)
    while other == num:
        other = rng.randrange(0, den + 1)
    s, t = sorted((Fraction(num, den), Fraction(other, den)))
    return s, t


class LiftPoints:
    """Exact lifts at seeded rational times.

    Every 20th operation is one lift_limit (tol 1e-7, eps' 0.1) at a
    non-dyadic interval with denominator in (2^20, 2^22].  Every other
    operation is a pair of lift_truncated at N = 20: one interval with lcm
    denominator in (2^20 - 2^17, 2^20] (table path, just below the switch,
    where a table of about 2M entries serves one interval) and one in
    (2^20, 2^22] (scalar Fraction path).  A pair, not a single lift, is one
    operation so that op_p50_s sits inside one mode instead of between the
    two paths' modes.
    """

    name = "lift_points"
    shares = {"pair": 0.95, "limit": 0.05}
    trace_ops = 20
    N = 20
    LIMIT_TOL = 1e-7
    REF_LIMIT_LEVEL = 100

    def __init__(self, seed: int):
        self.seed = seed
        self.driver = figure_pair()
        self.policy = wp.TruncationPolicy.tolerance(self.LIMIT_TOL, 0.1)
        self.components = [(c.b, c.a) for c in self.driver.components]

    def prepare(self, index: int):
        rng = _rng(self.seed, index)
        if index % 20 == 0:
            return "limit", [_interval(rng, 1 << 20, 1 << 22)]
        return "pair", [_interval(rng, (1 << 20) - (1 << 17), 1 << 20), _interval(rng, 1 << 20, 1 << 22)]

    def run(self, intervals):
        if len(intervals) == 1:
            s, t = intervals[0]
            return [wp.lift_limit(self.driver, self.policy, s, t)]
        return [wp.lift_truncated(self.driver, self.N, s, t) for s, t in intervals]

    def check(self, intervals, increments):
        # imported here so that mpmath stays out of the measured set-up
        from reference import lift_reference

        limit = len(intervals) == 1
        level = self.REF_LIMIT_LEVEL if limit else self.N
        # A01 and A10 each carry at most the requested tail tolerance
        area_allowed = LIFT_ATOL + (2 * self.LIMIT_TOL if limit else 0.0)
        worst = {"first": 0.0, "sym": 0.0, "area": 0.0}
        for (s, t), inc in zip(intervals, increments):
            first_ref, area_ref = lift_reference(self.components, level, s, t)
            sym = inc.second + inc.second.T - np.outer(inc.first, inc.first)
            worst["first"] = max(worst["first"], float(np.max(np.abs(inc.first - first_ref))))
            worst["sym"] = max(worst["sym"], float(np.max(np.abs(sym))))
            area = float(inc.second[0, 1] - inc.second[1, 0])
            worst["area"] = max(worst["area"], abs(area - area_ref))
        ok = worst["first"] <= LIFT_ATOL and worst["sym"] <= LIFT_ATOL and worst["area"] <= area_allowed
        return ok, (f"first {worst['first']:.2e}, symmetric {worst['sym']:.2e}, "
                    f"area {worst['area']:.2e} (allowed {area_allowed:.1e})")


class ConvergeGrid:
    """convergence_report for the figure pair, Ns 4..12, eps' 0.1, depth 13."""

    name = "converge_grid"
    shares = {"converge": 1.0}
    trace_ops = 2
    RATIO_FIRST = 0.6439551967396803
    RATIO_SECOND = 0.7092634544719233

    def __init__(self, seed: int):
        self.driver = figure_pair()

    def prepare(self, index: int):
        return "converge", None

    def run(self, _):
        return wp.convergence_report(self.driver, list(range(4, 13)), eps_prime=0.1, depth=13)

    def check(self, _, report):
        ok = (
            report.monotone
            and math.isclose(report.fitted_ratio_first, self.RATIO_FIRST, rel_tol=RATIO_RTOL)
            and math.isclose(report.fitted_ratio_second, self.RATIO_SECOND, rel_tol=RATIO_RTOL)
        )
        return ok, (f"monotone {report.monotone}, ratios {report.fitted_ratio_first!r}, "
                    f"{report.fitted_ratio_second!r}")


WORKLOADS = {w.name: w for w in (OdeFig3, RoughTol, LiftPoints, ConvergeGrid)}
