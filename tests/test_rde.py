import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from weierpath import (
    BilinearField,
    LinearStateField,
    ParameterError,
    PathSample,
    RdeProblem,
    ScalarLinearField,
    TruncationPolicy,
    VectorWeierstrass,
    ZeroField,
    approximation_gap,
    default_ode_step,
    eval_derivative,
    eval_truncated,
    iterated_integral_truncated,
    lift_truncated,
    solve_ode_truncated,
    solve_rough,
    validate_component,
)
import weierpath.rde as rde_mod
from weierpath.iterated import _BLOCK
from weierpath.phase import AnchorLattice, TrigTable
from weierpath.weierstrass import derivative_offsets, eval_derivative_affine, eval_truncated_grid


@pytest.fixture(scope="module")
def fig_problem(figure_pair):
    return RdeProblem(BilinearField(), figure_pair, np.array([1.0, 0.0]))


def _dense_problem(phase, t_end=Fraction(1)):
    """A seeded dense d = 3 field, where every T_i T_j is nonzero and T_i T_j != T_j T_i,
    driven by three components (b = 2, 3, 5) in one phase."""
    rng = np.random.default_rng(20230423)
    field = LinearStateField(rng.uniform(-0.3, 0.3, (3, 3, 3)))
    driver = VectorWeierstrass([validate_component(b, a=a, phase=phase)
                                for b, a in ((2, "18/25"), (3, "3/5"), (5, "1/3"))])
    return RdeProblem(field, driver, rng.uniform(-1.0, 1.0, 3), t_end=t_end)


_ROUGH_LAYOUTS = [
    (Fraction(1), 64, 9),  # table-sized step denominator
    (Fraction(1000003, 1048583), 16, 5),  # step denominator above 2^20: scalar lifts
]


def _rk4_step(f, t, y, h):
    """One plain RK4 step of y' = f(t, y); the solver's step matrices share no code with it."""
    k1 = f(t, y)
    k2 = f(t + h / 2, y + (float(h) / 2.0) * k1)
    k3 = f(t + h / 2, y + (float(h) / 2.0) * k2)
    k4 = f(t + h, y + float(h) * k3)
    return y + (float(h) / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_reference(problem, N, K):
    """Y after each of K plain RK4 steps, with W_N' by math.fsum at Fraction times."""
    h = problem.t_end / K
    wprime = {}

    def f(t, y):
        if t not in wprime:
            wprime[t] = np.array([eval_derivative(c, N, t) for c in problem.driver.components])
        return problem.field.matrix(y) @ wprime[t]

    ys = [problem.y0.copy()]
    for k in range(K):
        ys.append(_rk4_step(f, h * k, ys[-1], h))
    return np.array(ys)


def _unscaled_stage_matrices(problem, N, seg_start, h, steps):
    """RK4 step matrices by the textbook stages on unscaled state matrices G, one stack of all
    nodes sliced with stride 2, and the coefficient h/6 (the solver's formula before scaling)."""
    lattice = AnchorLattice(0, h / 2)
    wp = np.stack([eval_derivative_affine(c, N, lattice, derivative_offsets(c, N, lattice),
                                          int(2 * seg_start / h), 2 * steps + 1)
                   for c in problem.driver.components])
    g = np.tensordot(problem.field.tensor, wp, axes=([1], [0]))
    g1, g2, g3 = g[..., 0:-1:2], g[..., 1::2], g[..., 2::2]
    hf = float(h)
    k1 = g1
    k2 = g2 + (hf / 2.0) * rde_mod._plane_product(g2, k1)
    k3 = g2 + (hf / 2.0) * rde_mod._plane_product(g2, k2)
    k4 = g3 + hf * rde_mod._plane_product(g3, k3)
    out = (hf / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    diag = np.arange(problem.driver.d)
    out[diag, diag] += 1.0
    return out


def _rough_reference(problem, N, K):
    """Y after each of K rough steps Y += sigma_j X^j + (D sigma_j sigma_i) A^(i,j)."""
    h = problem.t_end / K
    d = problem.driver.d
    jac = [problem.field.tensor[:, j, :] for j in range(d)]  # D sigma_j
    ys = [problem.y0.copy()]
    for k in range(K):
        inc = lift_truncated(problem.driver, N, h * k, h * (k + 1))
        y = ys[-1]
        m = problem.field.matrix(y)  # columns sigma_j(y)
        dy = m @ inc.first
        for i in range(d):
            for j in range(d):
                dy = dy + inc.second[i, j] * (jac[j] @ m[:, i])
        ys.append(y + dy)
    return np.array(ys)


class TestProblemValidation:
    def test_dimension_mismatch(self, figure_pair):
        with pytest.raises(ParameterError, match="dimensions"):
            RdeProblem(BilinearField(), figure_pair, np.array([1.0, 0.0, 0.0]))

    def test_step_bounds(self, figure_pair):
        with pytest.raises(ParameterError, match="step"):
            RdeProblem(BilinearField(), figure_pair, np.array([1.0, 0.0]), step=Fraction(2))

    def test_t_end_range(self, figure_pair):
        with pytest.raises(ParameterError):
            RdeProblem(BilinearField(), figure_pair, np.array([1.0, 0.0]), t_end=Fraction(0))

    @pytest.mark.parametrize("field", [None, "bilinear", np.zeros((2, 2, 2))])
    def test_field_must_be_linear_state_field(self, figure_pair, field):
        with pytest.raises(ParameterError, match="LinearStateField"):
            RdeProblem(field, figure_pair, np.array([1.0, 0.0]))

    def test_path_sample_invariants(self):
        with pytest.raises(ParameterError, match="increase"):
            PathSample(np.array([0.0, 0.5, 0.5]), np.zeros((3, 2)))
        with pytest.raises(ParameterError, match="align"):
            PathSample(np.array([0.0, 0.5]), np.zeros((3, 2)))


class TestBilinearField:
    def test_matrix_shape(self):
        f = BilinearField()
        m = f.matrix(np.array([2.0, 3.0]))
        assert np.array_equal(m, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_rough_step_matrix(self, figure_pair, monkeypatch):
        # T_1 = [[0, 0], [1/2, 0]], T_2 = [[0, 1/3], [0, 0]], so T_1 T_1 = T_2 T_2 = 0,
        # T_2 T_1 = diag(1/6, 0), T_1 T_2 = diag(0, 1/6), and one rough step is
        # I + X^1 T_1 + X^2 T_2 + A^(1,2) T_2 T_1 + A^(2,1) T_1 T_2
        x = np.array([0.5, 0.25])
        a = np.array([[0.125, 0.75], [-0.5, 0.0625]])
        monkeypatch.setattr(rde_mod, "_lift_table", lambda *args: (x[None], a[None]))
        want = np.array([[1 + 0.75 / 6, 0.25 / 3], [0.5 / 2, 1 - 0.5 / 6]])
        for col in range(2):
            p = RdeProblem(BilinearField(), figure_pair, np.eye(2)[col])
            path = solve_rough(p, 4, step=Fraction(1), output_points=2)
            assert np.allclose(path.values[1], want[:, col], rtol=0, atol=1e-15)


class TestOdeSolver:
    def test_zero_field_constant(self, figure_pair):
        p = RdeProblem(ZeroField(2), figure_pair, np.array([1.0, 0.0]))
        path = solve_ode_truncated(p, 4, output_points=33)
        assert np.max(np.abs(path.values - np.array([1.0, 0.0]))) == 0.0

    def test_manufactured_single_cosine_order_four(self, comp_b2):
        # one cosine per component: dY = M(Y) d cos(pi t) has the closed
        # solution exp(A (cos(pi t) - 1)) y0 with A^2 = I/6
        v = VectorWeierstrass([comp_b2, comp_b2])
        y0 = np.array([1.0, 0.0])
        A = np.array([[0.0, 1 / 3], [0.5, 0.0]])
        lam = 1 / math.sqrt(6)

        def exact(t):
            u = math.cos(math.pi * t) - 1.0
            return (math.cosh(lam * u) * np.eye(2) + math.sinh(lam * u) / lam * A) @ y0

        errs = []
        for k in (7, 8, 9):
            p = RdeProblem(BilinearField(), v, y0, step=Fraction(1, 2**k))
            path = solve_ode_truncated(p, 0, output_points=65)
            ref = np.array([exact(t) for t in path.times])
            errs.append(np.max(np.abs(path.values - ref)))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.3)

    def test_richardson_order_check_on_truncated_driver(self, fig_problem):
        paths = {}
        for k in (11, 12, 13):
            p = RdeProblem(BilinearField(), fig_problem.driver, fig_problem.y0,
                           step=Fraction(1, 2**k))
            paths[k] = solve_ode_truncated(p, 4, output_points=513)
        d1 = np.max(np.abs(paths[11].values - paths[12].values))
        d2 = np.max(np.abs(paths[12].values - paths[13].values))
        assert d1 / d2 == pytest.approx(16.0, rel=0.3)

    def test_spot_check_stays_inside_the_interval(self, figure_pair):
        # step 3/8 lays out K = 3 steps of 1/3; the check runs on those, not past t_end
        p = RdeProblem(BilinearField(), figure_pair, [1, 0], step=Fraction(3, 8))
        path = solve_ode_truncated(p, 0, local_error_tol=1.0)
        assert path.times[-1] == 1.0 and path.times.size == 4

    def test_spot_check_rejects_a_loose_step(self, figure_pair):
        p = RdeProblem(BilinearField(), figure_pair, [1, 0], step=Fraction(1, 1024))
        with pytest.raises(ParameterError, match="local error estimate .* exceeds tolerance 1e-12 "
                                                 "at the level-4 stiffness: decrease step below"):
            solve_ode_truncated(p, 4, local_error_tol=1e-12)

    def test_step_guard_prescribes_bound(self, figure_pair):
        p = RdeProblem(BilinearField(), figure_pair, np.array([1.0, 0.0]),
                       step=Fraction(1, 64))
        with pytest.raises(ParameterError, match="decrease step"):
            solve_ode_truncated(p, 8)

    def test_propagator_matches_plain_loop(self, fig_problem):
        # (N, K, output point counts): stride 1; stride 64; strides 4096 (one
        # full step block and one partial) and 12288 (one segment in two pieces)
        for N, K, counts in ((2, 64, (65,)), (3, 512, (9,)), (1, 12288, (4, 2))):
            p = RdeProblem(BilinearField(), fig_problem.driver, fig_problem.y0,
                           step=Fraction(1, K))
            ref = _rk4_reference(p, N, K)
            for points in counts:
                path = solve_ode_truncated(p, N, output_points=points)
                assert np.max(np.abs(path.values - ref[:: K // (points - 1)])) <= 1e-12

    @pytest.mark.parametrize("phase", ["cos", "sin"])
    def test_dense_field_matches_plain_loop(self, phase):
        # strides 1 and 64; the block boundaries are covered on the figure problem
        dense = _dense_problem(phase)
        N, K = 3, 512
        p = RdeProblem(dense.field, dense.driver, dense.y0, step=Fraction(1, K))
        ref = _rk4_reference(p, N, K)
        for points in (K + 1, 9):
            path = solve_ode_truncated(p, N, output_points=points)
            assert np.max(np.abs(path.values - ref[:: K // (points - 1)])) <= 1e-12

    def test_prefix_of_longer_solve(self, fig_problem):
        step = Fraction(1, 1024)
        full = solve_ode_truncated(RdeProblem(BilinearField(), fig_problem.driver,
                                              fig_problem.y0, step=step), 4, output_points=33)
        part = solve_ode_truncated(RdeProblem(BilinearField(), fig_problem.driver, fig_problem.y0,
                                              t_end=Fraction(3, 4), step=step), 4, output_points=25)
        assert np.array_equal(part.times, full.times[:25])
        # W' at a stage time does not depend on the block layout, so the prefix is the same bits
        assert np.array_equal(part.values, full.values[:25])

    def test_default_step_resolves_fastest_mode(self, figure_pair):
        for N in (4, 8, 12):
            h = default_ode_step(figure_pair, N)
            assert float(h) * 3.0**N <= 0.1
            assert h.numerator == 1 and (h.denominator & (h.denominator - 1)) == 0

    @pytest.mark.parametrize("b", [2, 3, 7])
    def test_step_and_guard_match_the_float_formulas(self, b):
        # the exact forms take the decisions the float forms take wherever those stay finite
        driver = VectorWeierstrass([validate_component(b, a="3/5")])
        steps = [Fraction(1, 1 << k) for k in range(1, 61)] + [Fraction(1, 3000),
                                                                 Fraction(1, 3000 * 4096)]
        for N in range(31):
            k = max(10, math.ceil(-math.log2(min(1e-3, 0.1 * float(b) ** (-N)))))
            assert default_ode_step(driver, N) == Fraction(1, 1 << k)
            for step in steps:
                try:
                    rde_mod._step_guard(driver, N, step)
                    rejected = False
                except ParameterError:
                    rejected = True
                assert rejected == (float(step) * float(b) ** N > 0.5), (N, step)

    def test_cost_guard_rejects_before_any_block(self, figure_pair, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("a step block was built")

        monkeypatch.setattr(rde_mod, "_stage_matrices", no_blocks)
        K = rde_mod.MAX_ODE_STEPS * 2
        p = RdeProblem(BilinearField(), figure_pair, np.array([1.0, 0.0]), step=Fraction(1, K))
        with pytest.raises(ParameterError, match=f"takes {K} RK4 steps, above "
                                                 f"{rde_mod.MAX_ODE_STEPS} \\(cost guard\\)"):
            solve_ode_truncated(p, 4)
        with pytest.raises(ParameterError, match="about 2\\^67 RK4 steps"):
            solve_ode_truncated(RdeProblem(BilinearField(), figure_pair, np.array([1.0, 0.0])), 40)

    def test_dense_output_grid(self, fig_problem):
        path = solve_ode_truncated(fig_problem, 4, output_points=129)
        assert path.times[0] == 0.0 and path.times[-1] == 1.0
        assert path.times.size == 129
        assert np.allclose(np.diff(path.times), 1 / 128)


class TestStageMatrices:
    """The solver runs RK4 on planes scaled by h/2; for a power-of-two h that scaling is exact."""

    @pytest.mark.parametrize("dense,N,h,block", [
        (False, 4, Fraction(1, 4096), 0),
        (False, 12, Fraction(1, 1 << 23), 0),
        (False, 12, Fraction(1, 1 << 23), 5),
        (True, 3, Fraction(1, 512), 0),
    ])
    def test_dyadic_step_keeps_the_unscaled_bits(self, fig_problem, dense, N, h, block):
        problem = _dense_problem("sin") if dense else fig_problem
        steps = min(rde_mod._STEP_BLOCK, int(1 / h))
        seg_start = h * block * steps
        got = rde_mod._stage_matrices(problem, N, seg_start, h, steps,
                                      rde_mod._half_step_lattice(problem, N, h))
        assert np.array_equal(got, _unscaled_stage_matrices(problem, N, seg_start, h, steps))

    def test_spot_check_half_steps_keep_the_unscaled_bits(self, fig_problem):
        h = Fraction(1, 1 << 24)
        got = rde_mod._stage_matrices(fig_problem, 12, Fraction(0), h, 8,
                                      rde_mod._half_step_lattice(fig_problem, 12, h))
        assert np.array_equal(got, _unscaled_stage_matrices(fig_problem, 12, Fraction(0), h, 8))

    @pytest.mark.parametrize("N,h", [(4, Fraction(1, 3000)), (12, Fraction(1, 3000 * 4096))])
    def test_other_steps_stay_within_four_ulp(self, fig_problem, N, h):
        steps = min(rde_mod._STEP_BLOCK, int(1 / h))
        got = rde_mod._stage_matrices(fig_problem, N, Fraction(0), h, steps,
                                      rde_mod._half_step_lattice(fig_problem, N, h))
        ref = _unscaled_stage_matrices(fig_problem, N, Fraction(0), h, steps)
        ulp = np.spacing(np.max(np.abs(ref - np.eye(2)[..., None])))
        assert np.max(np.abs(got - ref)) <= 4 * ulp

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_state_matrix_is_the_tensordot(self, d):
        rng = np.random.default_rng(d)
        field = LinearStateField(rng.uniform(-1.0, 1.0, (d, d, d)))
        for w in (rng.uniform(-50.0, 50.0, d), rng.uniform(-50.0, 50.0, (d, 1000))):
            got = field.state_matrix(w)
            assert got.shape == (d, d, *w.shape[1:])
            assert np.array_equal(got, np.tensordot(field.tensor, w, axes=([1], [0])))


_FAULT_PROBE = """
import resource
from fractions import Fraction
import numpy as np
from weierpath import BilinearField, RdeProblem, VectorWeierstrass, solve_ode_truncated, validate_component

driver = VectorWeierstrass([validate_component(2, a="18/25"), validate_component(3, a="3/5")])
for blocks in (8, 16):
    problem = RdeProblem(BilinearField(), driver, np.array([1.0, 0.0]), step=Fraction(1, 8192 * blocks))
    solve_ode_truncated(problem, 4)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    solve_ode_truncated(problem, 4)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_propagator_does_not_fault_per_block():
    # a block whose temporaries leave enough free at the heap top makes glibc trim it, and the
    # next block faults the pages in again: out-of-place RK4 sums read 867 faults at 8 blocks
    # and 1,250 at 16, the in-place ones 515 and 514; a fresh interpreter keeps the heap of
    # other tests out of the count
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(rde_mod.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout
    at8, at16 = (int(line) for line in out.split())
    assert at16 - at8 <= 128, (at8, at16)


class TestRoughSolver:
    def test_euler_reduction_for_zero_second_level(self):
        # constant-speed smooth driver: rough step = Euler + half-square
        # correction; with the zero field nothing moves at all
        c = validate_component(2, a="18/25")
        v = VectorWeierstrass([c])
        p = RdeProblem(ZeroField(1), v, np.array([2.5]))
        path = solve_rough(p, 4, step=Fraction(1, 64), output_points=17)
        assert np.max(np.abs(path.values - 2.5)) == 0.0

    def test_chain_rule_solution_scalar(self, comp_b2):
        # dY = Y dW has solution y0 exp(W_N(t) - W_N(0)) for smooth drivers
        v = VectorWeierstrass([comp_b2])
        p = RdeProblem(ScalarLinearField(), v, np.array([1.0]))
        errs = []
        for k in (8, 9):
            path = solve_rough(p, 3, step=Fraction(1, 2**k), output_points=257)
            exact = np.array([
                math.exp(
                    eval_truncated(comp_b2, 3, Fraction(i, 256)) - eval_truncated(comp_b2, 3, 0)
                )
                for i in range(257)
            ])
            errs.append(np.max(np.abs(path.values[:, 0] - exact)))
        assert errs[1] <= errs[0] / 1.8  # at least first order in the step
        assert errs[0] <= 5e-3

    def test_gap_to_ode_shrinks_when_halving(self, fig_problem):
        ref = solve_ode_truncated(
            RdeProblem(BilinearField(), fig_problem.driver, fig_problem.y0,
                       step=Fraction(1, 2**14)),
            4, output_points=257,
        )
        gaps = []
        for k in (8, 9, 10, 11):
            rough = solve_rough(fig_problem, 4, step=Fraction(1, 2**k), output_points=257)
            gaps.append(np.max(np.abs(rough.values - ref.values)))
        for lo, hi in zip(gaps[1:], gaps[:-1]):
            assert hi / lo >= 1.8

    def test_limit_lift_self_convergence(self, fig_problem):
        pol = TruncationPolicy.tolerance(1e-6, 0.1)
        paths = {
            k: solve_rough(fig_problem, pol, step=Fraction(1, 2**k), output_points=129)
            for k in (11, 12, 13)
        }
        g1 = np.max(np.abs(paths[11].values - paths[12].values))
        g2 = np.max(np.abs(paths[12].values - paths[13].values))
        # successive gaps shrink roughly like the step; allow a wide band
        assert g2 <= 10.0 * 0.5 * g1
        # regression baseline computed by this implementation (not external truth)
        endpoint = paths[13].values[-1]
        assert endpoint == pytest.approx([3.381153206554035, 0.7303091898054921], rel=1e-6)

    @pytest.mark.parametrize("t_end,K,points", _ROUGH_LAYOUTS)
    def test_propagator_matches_step_loop(self, fig_problem, t_end, K, points):
        p = RdeProblem(BilinearField(), fig_problem.driver, fig_problem.y0, t_end=t_end)
        path = solve_rough(p, 5, step=t_end / K, output_points=points)
        ref = _rough_reference(p, 5, K)
        assert np.max(np.abs(path.values - ref[:: K // (points - 1)])) <= 1e-12

    @pytest.mark.parametrize("t_end,K,points", _ROUGH_LAYOUTS)
    @pytest.mark.parametrize("phase", ["cos", "sin"])
    def test_dense_field_matches_step_loop(self, phase, t_end, K, points):
        p = _dense_problem(phase, t_end)
        path = solve_rough(p, 5, step=t_end / K, output_points=points)
        ref = _rough_reference(p, 5, K)
        assert np.max(np.abs(path.values - ref[:: K // (points - 1)])) <= 1e-12

    def test_prefix_of_longer_solve(self, fig_problem):
        step = Fraction(1, 256)
        full = solve_rough(fig_problem, 5, step=step, output_points=33)
        part = solve_rough(RdeProblem(BilinearField(), fig_problem.driver, fig_problem.y0,
                                      t_end=Fraction(3, 4)), 5, step=step, output_points=25)
        assert np.array_equal(part.times, full.times[:25])
        assert np.max(np.abs(part.values - full.values[:25])) <= 1e-12

    def test_lift_table_matches_direct_lift(self, fig_problem):
        # the table derives its diagonal and lower entries from level 1, so
        # the second level is compared against all entries summed pair by pair
        h = Fraction(1, 32)
        first, second = rde_mod._lift_table(fig_problem.driver, 5, h, 32)
        comps = fig_problem.driver.components
        for k in (0, 7, 31):
            inc = lift_truncated(fig_problem.driver, 5, h * k, h * (k + 1))
            assert np.allclose(first[k], inc.first, atol=1e-13)
            for i in range(2):
                for j in range(2):
                    want = iterated_integral_truncated(comps[i], comps[j], 5, h * k, h * (k + 1))
                    assert np.allclose(second[k, i, j], want, atol=1e-13)


class TestLiftTable:
    """The one-pass lift table over a grid of more than two blocks of _BLOCK steps."""

    K = 2 * _BLOCK + 100
    # a dyadic step denominator and one with a factor 3
    STEPS = [Fraction(1, 4096), Fraction(1, 3072)]
    # both sides of the first block boundary, and the first and last steps of
    # the last, partial block
    SAMPLED = (_BLOCK - 1, _BLOCK, 2 * _BLOCK, K - 1)

    @pytest.mark.parametrize("h", STEPS)
    def test_first_level_keeps_the_grid_bits(self, figure_pair, h):
        first, _ = rde_mod._lift_table(figure_pair, 73, h, self.K)
        table = TrigTable(h.denominator)
        idx = h.numerator * np.arange(self.K + 1, dtype=np.int64)
        w = np.stack([eval_truncated_grid(c, 73, table, idx) for c in figure_pair.components],
                     axis=1)
        assert np.array_equal(first, np.diff(w, axis=0))

    # F(t) - F(s) telescopes, so Chen holds for any coefficients in C*G and
    # C*H; the per-pair math.fsum sum is what checks them
    @pytest.mark.parametrize("N", [40, 73])
    @pytest.mark.parametrize("h", STEPS)
    def test_second_level_matches_per_pair_sum(self, figure_pair, h, N):
        _, second = rde_mod._lift_table(figure_pair, N, h, self.K)
        c1, c2 = figure_pair.components
        for k in self.SAMPLED:
            want = iterated_integral_truncated(c1, c2, N, h * k, h * (k + 1))
            assert abs(second[k, 0, 1] - want) <= 1e-12

    # with h = Fraction(0.9) / K the grid numerators k h.numerator pass 2^63
    # from k = 1,138 on, so the scalar path must keep them exact
    def test_scalar_path_keeps_exact_indices(self, figure_pair):
        N, h = 10, Fraction(0.9) / self.K
        assert h.numerator * self.K >= 1 << 63
        first, second = rde_mod._lift_table(figure_pair, N, h, self.K)
        c1, c2 = figure_pair.components
        for k in (0, _BLOCK, 2 * _BLOCK, self.K - 1):
            want = iterated_integral_truncated(c1, c2, N, h * k, h * (k + 1))
            assert abs(second[k, 0, 1] - want) <= 1e-12
            inc = [eval_truncated(c, N, h * (k + 1)) - eval_truncated(c, N, h * k)
                   for c in figure_pair.components]
            assert np.max(np.abs(first[k] - inc)) <= 1e-13

    @pytest.mark.parametrize("t_end", [Fraction(1), Fraction(3, 4), Fraction(7, 10)])
    def test_output_times_are_the_rounded_fractions(self, figure_pair, t_end):
        problem = RdeProblem(ZeroField(2), figure_pair, np.array([1.0, 0.0]), t_end=t_end)
        K, stride = rde_mod._grid_layout(t_end, Fraction(1, 1 << 13), 1025)
        path = rde_mod._propagate(problem, K, stride,
                                  lambda k, n: np.repeat(np.eye(2)[..., None], n, axis=2))
        h = t_end / K
        assert path.times.tolist() == [float(h * (stride * m)) for m in range(K // stride + 1)]


class TestLiftTableRows:
    """What the lift table gathers per block, and its int64 grid numerators."""

    def test_one_row_per_residue_class(self, figure_pair, monkeypatch):
        # at den 8,192, 2^n mod 2^14 is 0 for every n >= 14: 15 classes of
        # base 2 over n <= 73, while the 74 powers of 3 stay distinct
        rows, dtypes = [], []
        gather, grid_lift = TrigTable.cos_sin_scaled, rde_mod._grid_lift

        def counting(table, scale, idx):
            rows.append(len(scale))
            return gather(table, scale, idx)

        def recording(v, levels, den, idx, s_pos, t_pos):
            dtypes.append(idx.dtype)
            return grid_lift(v, levels, den, idx, s_pos, t_pos)

        monkeypatch.setattr(TrigTable, "cos_sin_scaled", counting)
        monkeypatch.setattr(rde_mod, "_grid_lift", recording)
        rde_mod._lift_table(figure_pair, 73, Fraction(1, 8192), 2 * _BLOCK + 100)
        assert rows == [15, 74] * 3
        assert dtypes == [np.int64]

    def test_int64_numerators_up_to_the_denominator(self, figure_pair):
        # h.denominator just below 2^63: the last grid numerator 3 h.numerator
        # is within it, so int64 holds every numerator exactly
        h = Fraction((1 << 63) - 26, 3 * ((1 << 63) - 25))
        assert (1 << 62) < h.denominator < 1 << 63 and 3 * h <= 1
        first, second = rde_mod._lift_table(figure_pair, 8, h, 3)
        c1, c2 = figure_pair.components
        for k in range(3):
            want = iterated_integral_truncated(c1, c2, 8, h * k, h * (k + 1))
            assert abs(second[k, 0, 1] - want) <= 1e-13
            inc = [eval_truncated(c, 8, h * (k + 1)) - eval_truncated(c, 8, h * k)
                   for c in figure_pair.components]
            assert np.max(np.abs(first[k] - inc)) <= 1e-13


class TestApproximationGap:
    def test_single_level_empty(self, fig_problem):
        assert approximation_gap(fig_problem, [4]) == []

    def test_zero_field_all_zero(self, figure_pair):
        p = RdeProblem(ZeroField(2), figure_pair, np.array([1.0, 0.0]))
        rows = approximation_gap(p, [2, 4, 6], output_points=65)
        assert all(gap == 0.0 for (_, _, gap) in rows)

    def test_gaps_decrease_with_level(self, fig_problem):
        rows = approximation_gap(fig_problem, [2, 4, 6], output_points=257)
        assert rows[0][2] > rows[1][2] > 0
