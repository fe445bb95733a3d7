"""Assembly and diagnostics of the rough lift above a vector Weierstrass function.

The lift of the level-N truncation over [s, t] is the pair

    ( W_N(t) - W_N(s),  A_N(s, t) )

where A_N[i][j] is the iterated integral of component i against component j.
Only the entries i < j are mode double sums; A_ii = X_i^2 / 2 and A_ji =
X_i X_j - A_ij follow from the first level X, as the lift is geometric.
This module builds truncated and limit lifts, checks
the algebraic rough-path axioms (increment consistency and the Chen
relation), estimates the two Hoelder-type seminorm parts on dyadic grids,
and measures the geometric rate at which truncated lifts converge.

Grid sweeps exploit that the canonical lift of a smooth truncation
satisfies the Chen relation exactly: A_N(s, t) is recovered from the
prefix values A_N(0, .) and the first level, so a pair costs O(1) instead
of O(modes^2).  Every grid diagnostic runs one pair sweep, _area_sups,
over the pair set its grid spec names (every pair s < t up to
FULL_SWEEP_DEPTH; beyond it the pairs of a stride subgrid and every
separation up to 8 strides), for both lift levels at once.  Per block and
term the sweep is one rank-(r + 2) product of small factors gathered from
grid tables (_second_level_rows): a matrix product on a coarse block of
the (sub)grid, and one einsum against a sliding window of the t-factors
on a band chunk, which holds every short separation of a range of start
points.  r = 0 for a first-level increment, r = 1 for A_N, r = 2 for its
distance to a reference level.  All results are sups over finite grids
and therefore lower bounds of the true seminorms.

Pure functions on immutable inputs throughout; reductions are max/sup, so
evaluation order cannot change any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError
from .iterated import (
    DEFAULT_LIMIT_CAP,
    _grid_lift,
    _interval_upper,
    _pair_tail_levels,
    _unreachable,
)
from .phase import unit_interval, unit_time
from .weierstrass import (
    TruncationPolicy,
    VectorWeierstrass,
    _geometric_tail_level,
    _validate_level,
    eval_limit,
    eval_vector,
)

__all__ = [
    "RoughIncrement",
    "RoughNormEstimate",
    "ConvergenceReport",
    "lift_truncated",
    "lift_limit",
    "chen_residual",
    "levy_area",
    "rough_norm",
    "area_holder_sup",
    "convergence_report",
    "polyline_signed_area",
    "MAX_GRID_DEPTH",
    "FULL_SWEEP_DEPTH",
    "RATE_MARGIN",
]

MAX_GRID_DEPTH = 14
FULL_SWEEP_DEPTH = 11  # beyond this, pair sweeps keep a subgrid and short separations
RATE_MARGIN = 1.25  # a fitted rate passes up to this factor above the theoretical one


@dataclass(frozen=True)
class RoughIncrement:
    """One two-level increment: first in R^d, second in R^(d x d), over [s, t]."""

    s: Fraction
    t: Fraction
    first: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        first = np.asarray(self.first, dtype=np.float64)
        second = np.asarray(self.second, dtype=np.float64)
        d = first.shape[0]
        if first.shape != (d,) or second.shape != (d, d):
            raise ParameterError("first must be a d-vector and second a d x d matrix")
        if not (np.all(np.isfinite(first)) and np.all(np.isfinite(second))):
            raise ParameterError("rough increment entries must be finite")
        first.setflags(write=False)
        second.setflags(write=False)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    @property
    def d(self) -> int:
        return self.first.shape[0]


@dataclass(frozen=True)
class RoughNormEstimate:
    """Grid estimate of the two seminorm parts (a lower bound of the sup)."""

    holder_part: float
    area_part: float
    alpha_used: float
    grid_spec: str
    growth_flagged: Optional[bool] = None

    def to_json_dict(self) -> dict:
        out = {
            "holderPart": self.holder_part,
            "areaPart": self.area_part,
            "alphaUsed": self.alpha_used,
            "gridSpec": self.grid_spec,
        }
        if self.growth_flagged is not None:
            out["growthFlagged"] = self.growth_flagged
        return out


def _geometric_second(first: np.ndarray, upper: dict) -> np.ndarray:
    """Level 2 of a geometric lift from its first level and strict upper entries.

    ``first`` has shape (..., d) and ``upper[(i, j)]``, i < j, holds A_ij
    with shape (...).  Returns the (..., d, d) matrix with A_ii = X_i^2 / 2
    and A_ji = X_i X_j - A_ij, since A_ij + A_ji = X_i X_j.
    """
    first = np.asarray(first, dtype=np.float64)
    second = first[..., :, None] * first[..., None, :]
    for i in range(first.shape[-1]):
        second[..., i, i] *= 0.5
    for (i, j), a_ij in upper.items():
        second[..., j, i] -= a_ij
        second[..., i, j] = a_ij
    return second


def lift_truncated(v: VectorWeierstrass, N: int, s, t) -> RoughIncrement:
    """Canonical lift of the level-N truncation over [s, t].

    The first level is the increment of the truncated sums (eval_vector).
    The entries i < j of the second level come from one _grid_lift pass
    over the two ends for all pairs, run only when d > 1; the rest are
    derived from the first level (_geometric_second).
    """
    s, t = unit_interval(s, t)
    d = v.d
    if s == t:
        return RoughIncrement(s=s, t=t, first=np.zeros(d), second=np.zeros((d, d)))
    first = eval_vector(v, N, t) - eval_vector(v, N, s)
    upper = _interval_upper(v, [N], s, t)[N] if d > 1 else {}
    return RoughIncrement(s=s, t=t, first=first, second=_geometric_second(first, upper))


def lift_limit(v: VectorWeierstrass, policy: TruncationPolicy, s, t) -> RoughIncrement:
    """Limit lift over [s, t]: tail-exact first level, tolerance-bounded second.

    Each entry i < j is read at its own level, the smallest N whose
    empirical tail bound on [s, t] is within the tolerance (_pair_tail_levels,
    shared with iterated_integral_limit and _resolve_level); one
    _interval_upper pass at the distinct levels serves every pair.  The
    rest follow from the first level (_geometric_second).  Requires every
    component exponent above 1/3 (the validity range of the level-2 lift);
    the error message names the offending component.  A fixed level is
    lift_truncated's.
    """
    s, t = unit_interval(s, t)
    v.require_lift_range()
    level = {p: N for p, (N, _) in _pair_tail_levels(v, policy, s, t).items()}
    d = v.d
    if s == t:
        return RoughIncrement(s=s, t=t, first=np.zeros(d), second=np.zeros((d, d)))
    first = np.array([eval_limit(c, t) - eval_limit(c, s) for c in v.components])
    by_level = _interval_upper(v, sorted(set(level.values())), s, t) if level else {}
    upper = {p: by_level[N][p] for p, N in level.items()}
    return RoughIncrement(s=s, t=t, first=first, second=_geometric_second(first, upper))


def chen_residual(v: VectorWeierstrass, N: int, s, u, t) -> np.ndarray:
    """Defect of the Chen relation at (s, u, t) for the level-N lift.

    Returns second(s,t) - second(s,u) - second(u,t) - first(s,u) x first(u,t);
    algebraically zero for canonical lifts, so only roundoff should remain.
    """
    s = unit_time(s)
    u = unit_time(u)
    t = unit_time(t)
    if not (s <= u <= t):
        raise ParameterError("requires s <= u <= t")
    whole = lift_truncated(v, N, s, t)
    left = lift_truncated(v, N, s, u)
    right = lift_truncated(v, N, u, t)
    return whole.second - left.second - right.second - np.outer(left.first, right.first)


def levy_area(inc: RoughIncrement, i: int, j: int) -> float:
    """Antisymmetric part second[i][j] - second[j][i] of one entry pair."""
    d = inc.d
    if not (0 <= i < d and 0 <= j < d):
        raise ParameterError(f"indices ({i}, {j}) outside dimension {d}")
    return float(inc.second[i, j] - inc.second[j, i])


def polyline_signed_area(x: np.ndarray, y: np.ndarray) -> float:
    """Signed area of the closed polygon through (x_k, y_k) (shoelace rule).

    For a planar curve sampled finely enough, this is the Green-Stokes area
    swept between the curve and its closing chord.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 3:
        raise ParameterError("need two equal-length coordinate arrays of size >= 3")
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


# ---------------------------------------------------------------------------
# dyadic grid sweeps


def _validate_depth(depth: int) -> int:
    if not isinstance(depth, (int, np.integer)) or isinstance(depth, bool):
        raise ParameterError("depth must be an integer")
    if depth < 1 or depth > MAX_GRID_DEPTH:
        raise ParameterError(f"depth must lie in [1, {MAX_GRID_DEPTH}] (cost guard), got {depth}")
    return int(depth)


def _validate_levels(levels: Sequence[int]) -> list[int]:
    """The distinct truncation levels in ascending order; at least one, each a nonnegative int."""
    levels = sorted({_validate_level(N) for N in levels})
    if not levels:
        raise ParameterError("need at least one truncation level")
    return levels


def _level_tables(v: VectorWeierstrass, levels: Sequence[int], depth: int):
    """First-level values and second-level prefixes on the dyadic grid.

    One _grid_lift pass over the intervals (0, k/den) gives, for every
    level N, the grid values W[N][i] = W_i and the prefixes A_ij(0, .),
    i < j; Q[N][:, i, j] is A_ij(0, .), the other entries following from
    X = W(.) - W(0).
    """
    levels = _validate_levels(levels)
    den = 1 << depth
    idx = np.arange(den + 1, dtype=np.int64)
    W, upper = _grid_lift(v, levels, den, idx, 0, idx)
    Q = {N: _geometric_second((W[N] - W[N][:, :1]).T, upper[N]) for N in levels}
    return idx, W, Q


def _grid_spec(depth: int, what: str) -> str:
    den = 1 << depth
    if depth <= FULL_SWEEP_DEPTH:
        pairs = den * (den + 1) // 2
        return f"dyadic(depth={depth}, pairs={pairs}, {what})"
    stride = 1 << (depth - FULL_SWEEP_DEPTH)
    return (
        f"dyadic(depth={depth}, subsampled: full pairs at stride {stride} "
        f"plus separations <= {8 * stride}/2^{depth}, {what})"
    )


_ROW_CHUNK = 64


def _band_block(den: int, K: int, lo: int, hi: int):
    """The pairs (s, s + k), lo <= s < hi and 1 <= k <= K, as one band chunk.

    rows is the slice [lo, hi); cols, dt and drop are (K, hi - lo) views,
    row k - 1 holding separation k, so the chunk costs O(hi - lo + K)
    memory.  cols holds t clipped to den; ``drop`` marks the pairs with
    t > den (None when there are none).
    """
    t = np.arange(lo, hi + K, dtype=np.int64)
    past = t > den
    dt = np.broadcast_to(np.arange(1, K + 1, dtype=np.int64)[:, None] / den, (K, hi - lo))
    return (slice(lo, hi), sliding_window_view(np.minimum(t, den), hi - lo)[1:], dt,
            sliding_window_view(past, hi - lo)[1:] if past.any() else None)


def _pair_blocks(den: int, depth: int):
    """Yield (rows, cols, dt, drop) blocks holding exactly the pairs _grid_spec names.

    rows and cols index s and t and broadcast against each other into the
    block; dt = (t - s) / den per pair.  A coarse block pairs a chunk
    [lo, hi) of the grid (or, beyond FULL_SWEEP_DEPTH, of its
    stride-2^(depth-11) subgrid), an index column, with the columns from
    lo + 1 on, an index row, so every pair s < t is swept once and the pairs
    s >= t lie only in the leading (hi - lo) x (hi - lo) square.  ``drop``
    marks them there; their dt is 1/den, and consumers zero them
    (_zero_dropped).  Beyond FULL_SWEEP_DEPTH, band chunks (_band_block) add
    every fine pair (s, s + k) with k <= K = 8 strides: each covers all K
    separations for _ROW_CHUNK x (subgrid points - 1) / K start points, so
    no chunk holds more pairs than the largest coarse block.
    Estimates remain lower bounds of the true sup.
    """
    stride = 1 << max(depth - FULL_SWEEP_DEPTH, 0)
    grid = np.arange(0, den + 1, stride, dtype=np.int64)
    for lo in range(0, grid.size - 1, _ROW_CHUNK):
        rows = grid[lo : min(lo + _ROW_CHUNK, grid.size - 1), None]
        cols = grid[lo + 1 :]
        sep = cols - rows
        square = sep[:, : rows.shape[0]]
        drop = square <= 0
        np.copyto(square, 1, where=drop)
        yield rows, cols, sep / den, drop
    if stride > 1:
        K = 8 * stride
        h = _ROW_CHUNK * (grid.size - 1) // K
        for lo in range(0, den, h):
            yield _band_block(den, K, lo, min(lo + h, den))


def _zero_dropped(x, drop):
    """Zero a block's dropped pairs, which lie in its leading columns."""
    if drop is not None:
        np.copyto(x[:, : drop.shape[1]], 0.0, where=drop)
    return x


def _second_level_rows(q, wi, wj, rows, cols, out, tmp):
    """Write A(s, t) = q(t) - q(s) - sum_k x_k(s) (y_k(t) - y_k(s)) for a block into ``out``.

    ``q`` is a grid table and ``wi``, ``wj`` are sequences of r grid tables,
    with x_k = wi[k] - wi[k][0] and y_k = wj[k]; r = 1 with (W_i,), (W_j,)
    and q = A_ij(0, .) gives A_ij by Chen.  Since A(s, t) = q(t) - p(s) -
    sum_k x_k(s) y_k(t) with p = q - sum_k x_k y_k, the block is the
    rank-(r + 2) product of the left factors [1, -p, -x_1, ...] over the s's
    and the right factors [q; 1; y_1; ...] over the t's.  A coarse block
    (rows an index column, cols an index row) is one matmul.  A band chunk
    (rows the slice [lo, hi), out of shape (K, hi - lo)) takes its right
    factors over t in [lo, hi + K), zero past the grid end, and is one
    einsum against their sliding window: out[k - 1, s - lo] = A(s, s + k),
    with no t-factor copied per separation.  ``tmp`` is an (r + 2, b + 2c)
    scratch for an out of shape (b, c).
    """
    band = isinstance(rows, slice)
    if band:  # right factors over t in [lo, hi + K), the live ones up to den
        h = out.shape[1]
        n = h + out.shape[0]
        cols = slice(rows.start, min(rows.start + n, q.size))
        m = cols.stop - cols.start
    else:
        h = out.shape[0]
        n = m = cols.size
        rows = rows.ravel()
    left, right = tmp[:, :h], tmp[:, h : h + n]
    live = right[:, :m]
    right[:, m:] = 0.0
    left[0] = 1.0
    left[1] = q[rows]
    live[0] = q[cols]
    live[1] = 1.0
    for k, (x, y) in enumerate(zip(wi, wj), 2):
        np.subtract(x[0], x[rows], out=left[k])
        left[1] += left[k] * y[rows]
        live[k] = y[cols]
    np.negative(left[1], out=left[1])
    if band:
        np.einsum("rs,rks->ks", left, sliding_window_view(right, h, axis=1)[:, 1:], out=out)
    else:
        np.matmul(left.T, right, out=out)


def _area_sups(terms, blocks) -> np.ndarray:
    """Per term (q, wi, wj, e), the sup of |A(s, t)| |t - s|^-e over the pairs of ``blocks``.

    The one loop over the blocks of _pair_blocks (coarse blocks and band
    chunks) in the package.  A(s, t) = q(t) - q(s) - sum_k x_k(s) (y_k(t) -
    y_k(s)) is one _second_level_rows product per block and term, with
    r = len(wi) grid tables on each side: r = 0 gives the first-level
    increment q(t) - q(s), r = 1 an entry A_ij (_entry_terms), r = 2 a
    distance to a reference level (convergence_report).  With e None the
    dropped pairs are zeroed instead; each block's weights are built once
    per distinct exponent.  The sup of a block is max(max, -min).
    """
    out = np.zeros(len(terms))
    rank = 2 + max(len(wi) for _, wi, _, _ in terms)
    exponents = {e for *_, e in terms if e is not None}
    buf = np.empty(0)  # one scratch for every block's product and factors
    for rows, cols, dt, drop in blocks:
        width = dt.shape[0] + 2 * dt.shape[1]
        if buf.size < dt.size + rank * width:
            buf = np.empty(dt.size + rank * width)
        a = buf[: dt.size].reshape(dt.shape)
        tmp = buf[dt.size : dt.size + rank * width].reshape(rank, width)
        weights = {e: _zero_dropped(dt**-e, drop) for e in exponents}
        for k, (q, wi, wj, e) in enumerate(terms):
            _second_level_rows(q, wi, wj, rows, cols, a, tmp[: 2 + len(wi)])
            if e is None:
                _zero_dropped(a, drop)
            else:
                a *= weights[e]
            out[k] = max(out[k], float(a.max()), -float(a.min()))
    return out


def _entry_terms(tables, N: int, d: int, expo: Optional[np.ndarray]) -> list:
    """_area_sups terms of the entries A_ij, row-major, of level N in _level_tables ``tables``.

    Entry (i, j) is (A_ij(0, .), (W_i,), (W_j,)), weighted by |t - s|^-expo[i, j] unless None.
    """
    _, W, Q = tables
    return [(Q[N][:, i, j], (W[N][i],), (W[N][j],), None if expo is None else expo[i, j])
            for i, j in product(range(d), repeat=2)]


def _resolve_level(v: VectorWeierstrass, truncation) -> int:
    """Truncation level for a sweep: an int is a fixed level; a policy resolves deep enough.

    A policy's level N is the smallest where, on [0, 1], each summed entry
    A_ij, i < j, has a tail bound eps_ij <= tol (_pair_tail_levels) and each
    first-level tail eps_i = 2 a_i^(N+1)/(1 - a_i) is below tol.  The derived
    entries A_ii = X_i^2/2 and A_ji = X_i X_j - A_ij then err by at most
    eps_i (|X_i| + eps_i/2) and eps_ij + eps_i |X_j| + eps_j |X_i| + eps_i eps_j.
    A level past DEFAULT_LIMIT_CAP raises ToleranceUnreachable.
    """
    if isinstance(truncation, (int, np.integer)) and not isinstance(truncation, bool):
        return _validate_level(truncation)
    if not isinstance(truncation, TruncationPolicy):
        raise ParameterError("truncation must be an int level or a TruncationPolicy")
    levels = [N for N, _ in _pair_tail_levels(v, truncation, Fraction(0), Fraction(1)).values()]
    for c in v.components:
        n = _geometric_tail_level(c.a, truncation.tol / 2, DEFAULT_LIMIT_CAP)
        if n is None:
            raise _unreachable(truncation.tol, 2 * c.a ** (DEFAULT_LIMIT_CAP + 1) / (1 - c.a))
        levels.append(n)
    return max(levels)


def rough_norm(v: VectorWeierstrass, truncation, alpha: float, depth: int,
               *, enforce_alpha_range: bool = True,
               flag_growth: bool = False) -> RoughNormEstimate:
    """Grid estimate of the alpha/2-alpha seminorm parts of the lift.

    ``truncation`` is an int (a fixed level N) or a TruncationPolicy;
    alpha must lie in (1/3, min_i alpha_i] unless ``enforce_alpha_range`` is
    lifted for negative controls.  One _area_sups pass gives both parts: the
    entries A_ij weighted by |t - s|^-2alpha and d more terms, the first-level
    increments (r = 0), by |t - s|^-alpha.  With ``flag_growth`` the
    adjacent-pair area ratio at depth is flagged when it exceeds 1.05 times
    the one at depth - 4, read from every 16th grid point (the signature of
    an exponent outside the valid range).
    """
    depth = _validate_depth(depth)
    alpha = float(alpha)
    min_alpha = min(v.alphas)
    if enforce_alpha_range and not (1 / 3 < alpha <= min_alpha):
        raise ParameterError(
            f"alpha = {alpha} outside (1/3, min alpha] = (1/3, {min_alpha:.6f}]"
        )
    if not (alpha > 0):
        raise ParameterError("alpha must be positive")
    if flag_growth and depth < 6:
        raise ParameterError("flag_growth needs depth >= 6")
    N = _resolve_level(v, truncation)
    d, den = v.d, 1 << depth
    idx, W, Q = tables = _level_tables(v, [N], depth)
    sups = _area_sups(_entry_terms(tables, N, d, np.full((d, d), 2 * alpha))
                      + [(x, (), (), alpha) for x in W[N]], _pair_blocks(den, depth))
    area, holder = float(sups[: d * d].max()), float(sups[d * d :].max())
    flagged = None
    if flag_growth:
        # the adjacent-pair area ratio sup max|A| / (1/n)^(2 alpha) at depth and depth - 4
        sub = (idx[::16], {N: W[N][:, ::16]}, {N: Q[N][::16]})
        fine, coarse = (
            float(_area_sups(_entry_terms(t, N, d, None), [_band_block(n, 1, 0, n)]).max())
            / (1.0 / n) ** (2 * alpha)
            for t, n in ((tables, den), (sub, den >> 4))
        )
        flagged = bool(fine > 1.05 * coarse)
    return RoughNormEstimate(
        holder_part=holder,
        area_part=area,
        alpha_used=alpha,
        grid_spec=_grid_spec(depth, f"level N={N}"),
        growth_flagged=flagged,
    )


def area_holder_sup(v: VectorWeierstrass, levels: Sequence[int], eps: float, depth: int,
                    *, exponent: Optional[float] = None) -> dict[int, float]:
    """Sup over dyadic pairs of |second(s,t)| / |t-s|^exponent, per level.

    With ``exponent=None`` each entry (i, j) uses alpha_i + alpha_j - 2 eps;
    otherwise the supplied uniform exponent applies to every entry.  The
    point of the diagnostic is stability of the result across levels: one
    constant serves all truncations.
    """
    depth = _validate_depth(depth)
    if not (eps > 0):
        raise ParameterError("eps must be positive")
    levels = _validate_levels(levels)
    alphas = np.array(v.alphas)
    expo = (alphas[:, None] + alphas - 2 * eps if exponent is None
            else np.full((v.d, v.d), float(exponent)))
    tables = _level_tables(v, levels, depth)
    sups = _area_sups([t for N in levels for t in _entry_terms(tables, N, v.d, expo)],
                      _pair_blocks(1 << depth, depth))
    return {N: float(sup.max()) for N, sup in zip(levels, sups.reshape(len(levels), -1))}


# ---------------------------------------------------------------------------
# convergence measurement


@dataclass(frozen=True)
class ConvergenceReport:
    """Measured sup distances to a deep reference truncation, with rate fits.

    sup_second tracks the off-diagonal entries for d >= 2 (the diagonal is
    determined by the first level, whose rate sup_first already reports);
    the full per-entry matrix is kept in sup_second_entries.
    """

    Ns: tuple
    sup_first: tuple
    sup_second: tuple
    fitted_ratio: Optional[float]
    theoretical_rho: float
    kappa: float
    beta: float
    eps: float
    eps_prime: float
    alpha: float
    reference_level: int
    monotone: bool
    rate_ok: Optional[bool]
    fitted_ratio_first: Optional[float]
    fitted_ratio_second: Optional[float]
    sup_second_entries: np.ndarray
    fitted_ratio_entries: Optional[np.ndarray]
    grid_spec: str

    def to_json_dict(self) -> dict:
        return {
            "Ns": list(self.Ns),
            "supFirst": list(self.sup_first),
            "supSecond": list(self.sup_second),
            "fittedRatio": self.fitted_ratio,
            "theoreticalRho": self.theoretical_rho,
            "kappa": self.kappa,
            "beta": self.beta,
            "eps": self.eps,
            "epsPrime": self.eps_prime,
            "alpha": self.alpha,
            "referenceLevel": self.reference_level,
            "monotone": self.monotone,
            "rateOk": self.rate_ok,
            "fittedRatioFirst": self.fitted_ratio_first,
            "fittedRatioSecond": self.fitted_ratio_second,
            "supSecondEntries": self.sup_second_entries.tolist(),
            "fittedRatioEntries": (
                None if self.fitted_ratio_entries is None else self.fitted_ratio_entries.tolist()
            ),
            "gridSpec": self.grid_spec,
        }

    def csv_rows(self) -> list[tuple]:
        return [
            (N, self.sup_first[k], self.sup_second[k])
            for k, N in enumerate(self.Ns)
        ]


def _fit_ratio(Ns, values) -> Optional[float]:
    vals = np.asarray(values, dtype=np.float64)
    if np.any(vals <= 0):
        return None
    slope = np.polyfit(np.asarray(Ns, dtype=np.float64), np.log(vals), 1)[0]
    return float(math.exp(slope))


def convergence_report(v: VectorWeierstrass, Ns: Sequence[int], *,
                       alpha: Optional[float] = None, eps: float = 0.02,
                       beta: Optional[float] = None, eps_prime: float = 0.1,
                       depth: int = 8, reference_offset: int = 10,
                       strict: bool = False) -> ConvergenceReport:
    """Measure sup-grid distances between lifts at each N and a deep reference.

    The reference is the truncation at max(Ns) + reference_offset (the true
    limit is unobservable; the geometric tail justifies the proxy); the
    distances |A_ref - A_N| are one _area_sups sweep.  Fits a log-linear
    rate per level; rate_ok says whether the worst fitted ratio is at most
    RATE_MARGIN times rho = (max_i b_i^(-alpha_i + eps'))^kappa, kappa =
    1 - (alpha - eps)/beta.  Distances that fail to decrease monotonically
    flag the report and skip the fit.  With ``strict`` a rate-bound
    violation raises ParameterError.
    """
    depth = _validate_depth(depth)
    Ns = _validate_levels(Ns)
    if len(Ns) < 2:
        raise ParameterError("insufficient truncation levels to fit a rate (need >= 2)")
    min_alpha = min(v.alphas)
    if alpha is None:
        alpha = min_alpha
    if not (0 < alpha <= min_alpha):
        raise ParameterError(f"alpha must lie in (0, {min_alpha:.6f}]")
    if not (0 < eps < alpha):
        raise ParameterError(f"eps must lie in (0, alpha) = (0, {alpha:.6f})")
    if beta is None:
        beta = alpha - eps / 2
    if not (alpha - eps < beta < alpha):
        raise ParameterError(
            f"beta must lie in (alpha - eps, alpha) = ({alpha - eps:.6f}, {alpha:.6f})"
        )
    if not (0 < eps_prime < alpha):
        raise ParameterError(f"eps_prime must lie in (0, alpha) = (0, {alpha:.6f})")

    ref = Ns[-1] + reference_offset
    _, W, Q = _level_tables(v, Ns + [ref], depth)

    sup_first = []
    for N in Ns:
        worst = 0.0
        for ci in range(v.d):
            diff = W[ref][ci] - W[N][ci]
            worst = max(worst, float(diff.max() - diff.min()))
        sup_first.append(worst)

    d = v.d
    # A_ref - A_N as one rank-4 product whose terms stay small: A_ref - A_N =
    # dQ(t) - dQ(s) - u(s) (dY(t) - dY(s)) - du(s) (W_N,j(t) - W_N,j(s)), with
    # dQ = Q_ref - Q_N, dY = W_ref,j - W_N,j, u = W_ref,i - W_ref,i(0) and du its
    # difference with the level's
    dQ = {N: Q[ref] - Q[N] for N in Ns}
    dW = {N: W[ref] - W[N] for N in Ns}
    terms = [(dQ[N][:, i, j], (W[ref][i], dW[N][i]), (dW[N][j], W[N][j]), None)
             for i, j in product(range(d), repeat=2) for N in Ns]
    entries = _area_sups(terms, _pair_blocks(1 << depth, depth))
    entries = entries.reshape(d, d, -1).transpose(2, 0, 1)

    if d >= 2:
        mask = ~np.eye(d, dtype=bool)
        sup_second = [float(entries[k][mask].max()) for k in range(len(Ns))]
    else:
        sup_second = [float(entries[k, 0, 0]) for k in range(len(Ns))]

    monotone = all(x > y for x, y in zip(sup_first, sup_first[1:])) and all(
        x > y for x, y in zip(sup_second, sup_second[1:])
    )
    kappa = 1 - (alpha - eps) / beta
    rho = max(c.b ** (-c.alpha + eps_prime) for c in v.components) ** kappa

    if monotone:
        fit_first = _fit_ratio(Ns, sup_first)
        fit_second = _fit_ratio(Ns, sup_second)
        fit_entries = np.zeros((d, d))
        for i in range(d):
            for j in range(d):
                r = _fit_ratio(Ns, entries[:, i, j])
                fit_entries[i, j] = math.nan if r is None else r
        fitted = None
        if fit_first is not None and fit_second is not None:
            fitted = max(fit_first, fit_second)
        rate_ok = None if fitted is None else bool(fitted <= rho * RATE_MARGIN)
    else:
        fit_first = fit_second = fitted = None
        fit_entries = None
        rate_ok = None

    report = ConvergenceReport(
        Ns=tuple(Ns),
        sup_first=tuple(sup_first),
        sup_second=tuple(sup_second),
        fitted_ratio=fitted,
        theoretical_rho=float(rho),
        kappa=float(kappa),
        beta=float(beta),
        eps=float(eps),
        eps_prime=float(eps_prime),
        alpha=float(alpha),
        reference_level=ref,
        monotone=monotone,
        rate_ok=rate_ok,
        fitted_ratio_first=fit_first,
        fitted_ratio_second=fit_second,
        sup_second_entries=entries,
        fitted_ratio_entries=fit_entries,
        grid_spec=_grid_spec(depth, f"reference N={ref}"),
    )
    if strict and rate_ok is False:
        raise ParameterError(
            f"fitted ratio {fitted:.4f} exceeds theoretical rho*margin = {rho * RATE_MARGIN:.4f}"
        )
    return report
