"""Differential equations driven by truncated Weierstrass sums and their lifts.

Two solvers for dY = M(Y) dW on [0, t_end], for fields linear in the state,
M(Y) = [T_1 Y | ... | T_d Y], so that every step is a d x d matrix acting on Y:

* solve_ode_truncated: the driver is the smooth level-N truncation, so the
  equation is a classical ODE Y' = M(Y) W_N'(t); a fixed-step fourth-order
  Runge-Kutta scheme integrates it.  Its stage times are nodes of one exact
  half-step lattice per solve, so driver phases never degrade and W' at a
  stage time does not depend on the block layout.  The stages run on the
  state matrices scaled by h/2, as contiguous planes of the even nodes (step
  ends) and the odd nodes (midpoints); for a power-of-two step the scaling is
  exact, so every step matrix keeps the bits of the unscaled formula.  The
  default step resolves the fastest mode b^N pi (explicit schemes must
  resolve it), and a solve takes at most MAX_ODE_STEPS steps.  A Richardson
  spot check takes the solver's first steps, at its own step t_end / K,
  whole and as two halves with the same RK4 step matrices.

* solve_rough: one explicit second-order (Davie) rough step per interval,

      Y += sigma_j(Y) X^j + (D sigma_j sigma_i)(Y) A^(i,j),

  that is Y <- (I + sum_j X^j T_j + sum_ij A^(i,j) T_j T_i) Y, consuming
  both levels of the lift increment over each step.  Increments come from a
  uniform-grid lift table (_lift_table): the one lift pass of the package
  (iterated._grid_lift), at any step denominator, builds each grid point's
  trig features once per block and takes from them the grid values, whose
  differences are the first level, and the bilinear mode-pair kernel
  between consecutive points for the entries i < j; the other entries
  follow from the first level (roughpath._geometric_second).

Both share one propagator (_propagate): step matrices are built in blocks of
whole output segments and each segment is reduced in fixed pairwise order.
n step matrices are (d, d, n) entry planes, batch axis last, and each product
of step matrices is the entrywise sum_r a[:, r] b[r, :] (_plane_product).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError
from .iterated import _grid_lift
from .phase import AnchorLattice, to_fraction, unit_time
from .roughpath import _geometric_second, _resolve_level
from .weierstrass import (TruncationPolicy, VectorWeierstrass, _validate_level, derivative_offsets,
                          eval_derivative_affine)

__all__ = [
    "LinearStateField",
    "BilinearField",
    "ScalarLinearField",
    "ZeroField",
    "RdeProblem",
    "PathSample",
    "solve_ode_truncated",
    "solve_rough",
    "approximation_gap",
    "default_ode_step",
]


class LinearStateField:
    """Field M(Y) linear in Y: M(Y)[p, j] = sum_q tensor[p, j, q] Y_q.

    Column j of M(Y) is the vector field multiplying dW^j; it is T_j Y with
    the constant matrix T_j = tensor[:, j, :], which is also its Jacobian.
    Both solvers accept only fields of this class.
    """

    def __init__(self, tensor: np.ndarray):
        tensor = np.asarray(tensor, dtype=np.float64)
        if tensor.ndim != 3 or tensor.shape[0] != tensor.shape[1] or tensor.shape[0] != tensor.shape[2]:
            raise ParameterError("field tensor must have shape (d, d, d)")
        tensor.setflags(write=False)
        self.tensor = tensor
        d = tensor.shape[0]
        # row p*d + q is tensor[p, :, q]
        self._rows = np.ascontiguousarray(tensor.transpose(0, 2, 1).reshape(d * d, d))

    @property
    def d(self) -> int:
        return self.tensor.shape[0]

    def matrix(self, y: np.ndarray) -> np.ndarray:
        return self.tensor @ np.asarray(y, dtype=np.float64)

    def state_matrix(self, wprime: np.ndarray) -> np.ndarray:
        """G[p, q] = sum_j tensor[p, j, q] wprime[j], so that Y' = G Y.

        wprime (d,) gives a (d, d) matrix; wprime (d, n) gives (d, d, n) entry
        planes G[p, q, k], batch axis last and contiguous.  One matmul of the
        (d*d, d) rows built in __init__ by wprime as (d, n): the product
        np.tensordot(tensor, wprime, axes=([1], [0])) forms, with its bits.
        """
        wprime = np.asarray(wprime, dtype=np.float64)
        d = self.d
        return (self._rows @ wprime.reshape(d, -1)).reshape(d, d, *wprime.shape[1:])


class BilinearField(LinearStateField):
    """The 2 x 2 field M(Y) = [[0, Y_2/3], [Y_1/2, 0]]."""

    def __init__(self):
        tensor = np.zeros((2, 2, 2))
        tensor[0, 1, 1] = 1.0 / 3.0
        tensor[1, 0, 0] = 1.0 / 2.0
        super().__init__(tensor)


class ScalarLinearField(LinearStateField):
    """d = 1 field M(Y) = [[Y]]; the chain-rule solution is y0 exp(dW)."""

    def __init__(self):
        super().__init__(np.ones((1, 1, 1)))


class ZeroField(LinearStateField):
    """M identically zero; solutions are constant (testing aid)."""

    def __init__(self, d: int):
        super().__init__(np.zeros((d, d, d)))


@dataclass(frozen=True)
class RdeProblem:
    """Equation dY = M(Y) dW: field, driving vector function, start state."""

    field: LinearStateField
    driver: VectorWeierstrass
    y0: np.ndarray
    t_end: Fraction = Fraction(1)
    step: Optional[Fraction] = None

    def __post_init__(self):
        if not isinstance(self.field, LinearStateField):
            raise ParameterError(
                f"field must be a LinearStateField, got {type(self.field).__name__}"
            )
        y0 = np.asarray(self.y0, dtype=np.float64)
        if y0.ndim != 1 or not np.all(np.isfinite(y0)):
            raise ParameterError("y0 must be a finite vector")
        d = self.driver.d
        if self.field.d != d or y0.shape[0] != d:
            raise ParameterError(
                f"dimensions disagree: driver d={d}, field d={self.field.d}, "
                f"y0 length {y0.shape[0]}"
            )
        t_end = unit_time(self.t_end)
        if t_end <= 0:
            raise ParameterError("t_end must lie in (0, 1]")
        step = self.step
        if step is not None:
            step = to_fraction(step)
            if not (0 < step <= t_end):
                raise ParameterError("step must satisfy 0 < step <= t_end")
        y0.setflags(write=False)
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "t_end", t_end)
        object.__setattr__(self, "step", step)


@dataclass(frozen=True)
class PathSample:
    """Solution values on an increasing time grid from 0 to t_end."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if times.ndim != 1 or values.ndim != 2 or values.shape[0] != times.size:
            raise ParameterError("times (n,) and values (n, d) must align")
        if times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ParameterError("times must increase from 0")
        if not np.all(np.isfinite(values)):
            raise ParameterError("path values must be finite")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def csv_rows(self) -> list[tuple]:
        return [(self.times[k], *self.values[k]) for k in range(self.times.size)]

    def endpoint(self) -> np.ndarray:
        return self.values[-1]


MAX_ODE_STEPS = 1 << 26  # 8 times the figure-3 solve at N = 12, about 6 s


def default_ode_step(driver: VectorWeierstrass, N: int) -> Fraction:
    """Power-of-two step resolving the fastest truncated mode b_max^N pi: the largest
    2^-k <= min(1e-3, 0.1 b_max^-N), that is k >= 10 with 2^k >= 10 b_max^N, in integers."""
    N = _validate_level(N)
    b_max = max(c.b for c in driver.components)
    return Fraction(1, 1 << max(10, (10 * b_max**N - 1).bit_length()))


def _step_guard(driver: VectorWeierstrass, N: int, step: Fraction) -> None:
    b_max = max(c.b for c in driver.components)
    bound = Fraction(1, 2 * b_max**N)
    if step > bound:
        limit = f"{float(bound):g}" if float(bound) else f"1/(2*{b_max}^{N})"
        raise ParameterError(
            f"step {float(step):g} too large for the level-{N} driver "
            f"(fastest mode {b_max}^{N} pi): decrease step to at most {limit}"
        )


def _grid_layout(t_end: Fraction, step: Fraction, output_points: int) -> tuple[int, int]:
    """Total step count K (multiple of the output interval count) and stride."""
    k0 = math.ceil(t_end / step)
    m = min(output_points - 1, k0)
    k = -(-k0 // m) * m
    return k, k // m


def _plane_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix products of entry planes: out[p, q, ...] = sum_r a[p, r, ...] b[r, q, ...]."""
    out = a[:, 0, None] * b[None, 0]
    for r in range(1, a.shape[1]):
        out += a[:, r, None] * b[None, r]
    return out


def _half_step_lattice(problem: RdeProblem, N: int, h: Fraction):
    """The lattice of stage times g*h/2 from 0, with each driver component's derivative offsets on
    it scaled by h/2, so that eval_derivative_affine gives (h/2) W' at the stage times."""
    lattice = AnchorLattice(0, h / 2)
    half = float(h / 2)
    return lattice, [half * derivative_offsets(c, N, lattice) for c in problem.driver.components]


def _stage_matrices(problem: RdeProblem, N: int, seg_start: Fraction, h: Fraction,
                    steps: int, lattice) -> np.ndarray:
    """RK4 propagator matrices of `steps` consecutive steps from seg_start, (d, d, steps); the
    stage times are the nodes from 2*seg_start/h on of lattice = _half_step_lattice(problem, N, h).

    The stages run on the planes H = (h/2) G of the state matrices G at the even nodes (step
    starts and ends) and the odd nodes (midpoints), as K_i = (h/2) k_i of the textbook stages:
    for a power-of-two h the scaling is exact, so these are the bits of the unscaled formula."""
    nodes, offsets = lattice
    wp = [eval_derivative_affine(c, N, nodes, b, int(2 * seg_start / h), 2 * steps + 1)
          for c, b in zip(problem.driver.components, offsets)]
    even = problem.field.state_matrix(np.stack([w[0::2] for w in wp]))
    mid = problem.field.state_matrix(np.stack([w[1::2] for w in wp]))
    start, end = even[..., :-1], even[..., 1:]
    # in-place sums on a fresh output: a figure-3 solve takes about 480 minor faults (one stack
    # of all nodes: about 550); out-of-place sums free enough at the heap top that glibc trims
    # it and faults it in again for every block (about 49,600)
    k2 = _plane_product(mid, start)
    k2 += mid
    k3 = _plane_product(mid, k2)
    k3 += mid
    k4 = _plane_product(end, k3)
    k4 *= 2.0
    k4 += end
    out = 2.0 * k2
    out += start
    k3 *= 2.0
    out += k3
    out += k4
    out *= 1.0 / 3.0
    for i in range(problem.driver.d):
        out[i, i] += 1.0
    return out


def _local_error_check(problem: RdeProblem, N: int, h: Fraction, K: int, tol: float, lattice) -> None:
    """Richardson spot check of the local error on the solver's first min(4, K) steps.

    Each step of size h is taken whole, on the solver's lattice, and as two halves, as RK4
    step matrices (_stage_matrices); the estimate is the gap between the results."""
    steps = min(4, K)
    whole = _stage_matrices(problem, N, Fraction(0), h, steps, lattice)
    halves = _stage_matrices(problem, N, Fraction(0), h / 2, 2 * steps, _half_step_lattice(problem, N, h / 2))
    twice = _plane_product(halves[..., 1::2], halves[..., ::2])
    y = problem.y0
    for k in range(steps):
        full = whole[..., k] @ y
        half = twice[..., k] @ y
        err = float(np.max(np.abs(full - half)))
        if err > tol * max(1.0, float(np.max(np.abs(y)))):
            raise ParameterError(
                f"local error estimate {err:g} exceeds tolerance {tol:g} at the "
                f"level-{N} stiffness: decrease step below {float(h) / 2:g}"
            )
        y = half


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """Product mats[..., n-1] ... mats[..., 0] of entry planes over the last axis.

    Pairwise reduction in a fixed topology; axes between the two matrix
    axes and the last are batched.
    """
    while mats.shape[-1] > 1:
        n = mats.shape[-1]
        paired = _plane_product(mats[..., 1 : n - n % 2 : 2], mats[..., 0 : n - n % 2 : 2])
        mats = np.concatenate([paired, mats[..., -1:]], axis=-1) if n % 2 else paired
    return mats[..., 0]


_STEP_BLOCK = 8192


def _propagate(problem: RdeProblem, K: int, stride: int, step_matrices) -> PathSample:
    """Apply K step matrices to y0 and sample Y after every stride steps.

    step_matrices(k, n) returns the (d, d, n) entry planes of steps k .. k+n-1.
    They are requested in blocks of at most _STEP_BLOCK steps: whole output
    segments when stride <= _STEP_BLOCK, else consecutive pieces of one
    segment.  Each segment (or piece) is reduced by _ordered_product.
    """
    d = problem.driver.d
    h = problem.t_end / K
    y = problem.y0.copy()
    values = [y]
    k = 0
    while k < K:
        if stride <= _STEP_BLOCK:
            span = stride
            n = min(_STEP_BLOCK // stride * stride, K - k)
        else:
            span = n = min(_STEP_BLOCK, stride - k % stride)
        # the previous block stays referenced while the next is built: freed
        # first, its pages were trimmed and faulted in again for every block
        mats = step_matrices(k, n)
        props = _ordered_product(mats.reshape(d, d, n // span, span))
        for m in range(n // span):
            y = props[..., m] @ y
            k += span
            if k % stride == 0:
                values.append(y)
    return PathSample(
        times=np.array([(h.numerator * stride * m) / h.denominator for m in range(len(values))]),
        values=np.vstack(values),
    )


def solve_ode_truncated(problem: RdeProblem, N: int, *, output_points: int = 1025,
                        local_error_tol: float = 1e-6) -> PathSample:
    """Fixed-step RK4 solution of Y' = M(Y) W_N'(t) with dense uniform output.

    The step (problem.step or the resolving default) is validated against
    the fastest driver mode; the solver's own step h = t_end / K of the grid
    layout is spot-checked by step halving on its first steps.  Violations
    raise with a prescribed smaller step.  Steps are the RK4 matrices of
    _stage_matrices, applied by the shared propagator (_propagate).
    """
    if output_points < 2:
        raise ParameterError("output_points must be >= 2")
    N = _validate_level(N)
    step = problem.step if problem.step is not None else default_ode_step(problem.driver, N)
    _step_guard(problem.driver, N, step)
    K, stride = _grid_layout(problem.t_end, step, output_points)
    if K > MAX_ODE_STEPS:
        count = K if K < 1 << 64 else f"about 2^{K.bit_length() - 1}"
        raise ParameterError(f"the level-{N} solve takes {count} RK4 steps, above {MAX_ODE_STEPS} "
                             f"(cost guard): increase step or lower N")
    h = problem.t_end / K
    lattice = _half_step_lattice(problem, N, h)
    _local_error_check(problem, N, h, K, local_error_tol, lattice)
    return _propagate(problem, K, stride,
                      lambda k, n: _stage_matrices(problem, N, h * k, h, n, lattice))


def _lift_table(driver: VectorWeierstrass, N: int, h: Fraction, K: int):
    """Per-step first and second level increments of the level-N lift.

    One _grid_lift pass over the steps (k h, (k + 1) h) evaluates the whole
    uniform grid with exact phases: the features of each grid point are
    built once and give both the grid values, whose differences are the
    first level, and the entries i < j of the second level over each step.
    The grid numerators k h.numerator are at most h.denominator, since
    K h <= 1: int64 when h.denominator < 2^63, else Python ints, which
    steps such as Fraction(0.9) / K need.
    """
    steps = np.arange(K + 1)
    num = steps if h.denominator < 1 << 63 else steps.astype(object)
    W, upper = _grid_lift(driver, [N], h.denominator, h.numerator * num, steps[:-1], steps[1:])
    first = np.diff(W[N], axis=1).T  # (K, d)
    return first, _geometric_second(first, upper[N])


def solve_rough(problem: RdeProblem, truncation, step=None, *,
                output_points: int = 1025) -> PathSample:
    """Second-order rough stepping driven by lift increments per step.

    ``truncation`` is a level N or a TruncationPolicy; tolerance policies
    resolve to a truncation deep enough that the lift tail is below the
    requested tolerance (components must then have alpha > 1/3).  Step k
    is the matrix I + sum_j X_k^j T_j + sum_ij A_k^(i,j) T_j T_i of the
    lift increment (X_k, A_k) over it, applied by the shared propagator
    (_propagate).
    """
    if output_points < 2:
        raise ParameterError("output_points must be >= 2")
    if isinstance(truncation, TruncationPolicy):
        problem.driver.require_lift_range()
    N = _resolve_level(problem.driver, truncation)
    step = to_fraction(step) if step is not None else (problem.step or Fraction(1, 1 << 10))
    if not (0 < step <= problem.t_end):
        raise ParameterError("step must satisfy 0 < step <= t_end")
    K, stride = _grid_layout(problem.t_end, step, output_points)
    first, second = _lift_table(problem.driver, N, problem.t_end / K, K)

    d = problem.driver.d
    tj = np.transpose(problem.field.tensor, (0, 2, 1))  # planes tj[..., j] = T_j
    tt = _plane_product(tj[:, :, None, :], tj[:, :, :, None])  # tt[..., i, j] = T_j T_i
    # step k = basis . (1, X_k, A_k): planes of I, every T_j and every T_j T_i
    basis = np.concatenate([np.eye(d)[..., None], tj, tt.reshape(d, d, d * d)], axis=-1)

    def step_matrices(k: int, n: int) -> np.ndarray:
        coef = np.concatenate([np.ones((n, 1)), first[k : k + n],
                               second[k : k + n].reshape(n, d * d)], axis=1)
        return np.tensordot(basis, coef, axes=([-1], [1]))

    return _propagate(problem, K, stride, step_matrices)


def approximation_gap(problem: RdeProblem, Ns: Sequence[int], *,
                      output_points: int = 1025) -> list[tuple[int, int, float]]:
    """Sup distance between ODE solutions at consecutive truncation levels.

    Solutions share the output grid, so the sup is over common times.
    Returns rows (N_lo, N_hi, sup_gap); expected to decrease as the levels
    deepen.
    """
    Ns = sorted(set(int(N) for N in Ns))
    if len(Ns) < 2:
        return []
    paths = {N: solve_ode_truncated(problem, N, output_points=output_points) for N in Ns}
    rows = []
    for lo, hi in zip(Ns, Ns[1:]):
        gap = float(np.max(np.abs(paths[lo].values - paths[hi].values)))
        rows.append((lo, hi, gap))
    return rows
