"""Closed-form elementary integrals and the truncated/limit iterated integrals.

The iterated integral of two truncated Weierstrass sums over [s, t],
int_s^t (W1_N(r) - W1_N(s)) dW2_N(r), is the double sum over n, ell <= N of
a1^n a2^ell J_mk(s, t), with m = b1^n, k = b2^ell and the elementary integral

    J_mk(s, t) = int_s^t (T_m(r) - T_m(s)) dT_k(r).

Here T_w(x) = trig(w pi x) in the components' phase and U_w is the other
function.  By product-to-sum on cos((k +- m) pi x), in both phases,

    J_mk(s, t) = P_mk(t) - P_mk(s) - T_m(s) (T_k(t) - T_k(s)),
    P_mk = G T_m T_k + H U_m U_k,

with G = k^2/(k^2 - m^2) and H = km/(k^2 - m^2), or G = 1/2 and H = 0 when
m == k.  Summed over modes with C = a1^n a2^ell = a1 (x) a2, the level-N
value is a bilinear form in 4(N + 1) exact trig values per time point
(_levy_kernel):

    I^N(s, t) = F(t) - F(s) - (a1 . T1(s)) ((a2 . T2)(t) - (a2 . T2)(s)),
    F(x) = T1(x)^T (C*G) T2(x) + U1(x)^T (C*H) U2(x).

C is rank one, so the cross term is a product of two mode sums.  Features
are (modes, points) arrays: F comes from the matrix products (C*G)^T T1 and
(C*H)^T U1, summed over modes against T2 and U2.  Every lift runs one pass
over blocks of intervals (_grid_lift): it builds each point's features
once and takes both levels from them, at several truncation levels at
once.  _grid_lift alone chooses the features: table features when the
grid denominator is at most _MAX_TABLE_DEN, exact scalar reductions
otherwise.  On a grid k/den a mode of scale w enters only through the
residue w mod 2 den, so modes with equal residues have equal feature rows
(for b = 2 and den = 8,192, every n >= 14 has residue 0).  The pass builds
one row per residue class and adds a, C*G and C*H over the classes; G and
H keep the true m and k.  Single lifts, limit values, the rough solver's
lift table, the sweep tables and iterated_pairs all run it.
elementary_integral keeps the Dcos_{k +- m} form of the same closed form
and iterated_integral_truncated sums it pair by pair with math.fsum;
together with the quadrature oracle they are the references the kernel is
tested against.  Frequencies are exact big integers and every phase is
reduced exactly, so both forms stay accurate at any mode order.
Everything is pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional

import numpy as np

from .errors import ParameterError, ToleranceUnreachable
from .phase import (_MAX_TABLE_DEN, AffineNodes, TrigTable, cos_pi, phase_mod2, sin_pi,
                    unit_interval, unit_time)
from .quadrature import QuadratureResult, integrate
from .weierstrass import (
    Phase,
    TruncationPolicy,
    VectorWeierstrass,
    WeierstrassComponent,
    _kahan_modes,
    _validate_level,
)

__all__ = [
    "FrequencyPair",
    "LimitResult",
    "elementary_integral",
    "elementary_integral_quadrature",
    "iterated_integral_truncated",
    "iterated_integral_limit",
    "iterated_pairs",
    "geometric_tail_bound",
    "bound_diagnostics",
    "BoundDiagnostics",
    "DEFAULT_LIMIT_CAP",
]

DEFAULT_LIMIT_CAP = 128
_PILOT = 20  # modes per component in the tail-constant calibration


# ---------------------------------------------------------------------------
# mode pairs


@dataclass(frozen=True)
class FrequencyPair:
    """One mode pair: integrand frequency b1^n, integrator frequency b2^ell."""

    b1: int
    b2: int
    n: int
    ell: int

    def __post_init__(self):
        if self.b1 < 2 or self.b2 < 2:
            raise ParameterError("bases must satisfy b >= 2")
        if self.n < 0 or self.ell < 0:
            raise ParameterError("mode indices must be nonnegative")

    @property
    def integrand_frequency(self) -> int:
        return self.b1**self.n

    @property
    def integrator_frequency(self) -> int:
        return self.b2**self.ell


# ---------------------------------------------------------------------------
# elementary integrals (scalar, exact phases)


def _dcos(w: int, s: Fraction, t: Fraction) -> float:
    return cos_pi(phase_mod2(w, t)) - cos_pi(phase_mod2(w, s))


def _dsin(w: int, s: Fraction, t: Fraction) -> float:
    return sin_pi(phase_mod2(w, t)) - sin_pi(phase_mod2(w, s))


def elementary_integral(pair: FrequencyPair, s, t, phase: Phase = Phase.COSINE) -> float:
    """Closed-form int_s^t (trig(m pi r) - trig(m pi s)) d trig(k pi r)."""
    s, t = unit_interval(s, t)
    if s == t:
        return 0.0
    m = pair.integrand_frequency
    k = pair.integrator_frequency
    if phase is Phase.COSINE:
        if m == k:
            d = _dcos(m, s, t)
            return 0.5 * d * d
        return (
            0.5 * float(Fraction(k, k + m)) * _dcos(k + m, s, t)
            + 0.5 * float(Fraction(k, k - m)) * _dcos(abs(k - m), s, t)
            - cos_pi(phase_mod2(m, s)) * _dcos(k, s, t)
        )
    if m == k:
        d = _dsin(m, s, t)
        return 0.5 * d * d
    return (
        -0.5 * float(Fraction(k, m + k)) * _dcos(m + k, s, t)
        - 0.5 * float(Fraction(k, m - k)) * _dcos(abs(m - k), s, t)
        - sin_pi(phase_mod2(m, s)) * _dsin(k, s, t)
    )


class _ElementaryIntegrand:
    """(trig(m pi r) - trig(m pi s)) * d/dr trig(k pi r), mode by mode.

    value_noise is the absolute evaluation noise per node: the bounded lead
    factor carries an O(eps) absolute error that the k*pi integrator factor
    amplifies, which caps how finely any quadrature can resolve this.
    """

    def __init__(self, pair: FrequencyPair, s: Fraction, phase: Phase):
        self.m = pair.integrand_frequency
        self.k = pair.integrator_frequency
        self.phase = phase
        if phase is Phase.COSINE:
            self.offset = cos_pi(phase_mod2(self.m, s))
        else:
            self.offset = sin_pi(phase_mod2(self.m, s))
        self.value_noise = 4.0 * 2.220446049250313e-16 * float(self.k) * math.pi

    def on_nodes(self, nodes: AffineNodes) -> np.ndarray:
        if self.phase is Phase.COSINE:
            lead = nodes.cos_scaled(self.m) - self.offset
            dint = -(self.k * math.pi) * nodes.sin_scaled(self.k)
        else:
            lead = nodes.sin_scaled(self.m) - self.offset
            dint = (self.k * math.pi) * nodes.cos_scaled(self.k)
        return lead * dint

def elementary_integral_quadrature(pair: FrequencyPair, s, t, phase: Phase = Phase.COSINE,
                                   tol: float = 1e-12) -> QuadratureResult:
    """Quadrature oracle for the elementary integral (independent of the closed form)."""
    s, t = unit_interval(s, t)
    freq = pair.integrand_frequency + pair.integrator_frequency
    return integrate(_ElementaryIntegrand(pair, s, phase), s, t, tol=tol, frequency_hint=freq)


# ---------------------------------------------------------------------------
# truncated double sum


def _require_same_phase(c1: WeierstrassComponent, c2: WeierstrassComponent) -> Phase:
    if c1.phase is not c2.phase:
        raise ParameterError("iterated integrals need both components in the same phase")
    return c1.phase


def iterated_integral_truncated(c1: WeierstrassComponent, c2: WeierstrassComponent,
                                N: int, s, t) -> float:
    """Double sum over modes n, ell <= N of a1^n a2^ell elementary integrals.

    Terms are accumulated in fixed (n outer, ell inner) order with exact
    compensated summation (math.fsum).
    """
    phase = _require_same_phase(c1, c2)
    N = _validate_level(N)
    s, t = unit_interval(s, t)
    if s == t:
        return 0.0
    terms = []
    a1_pow = 1.0
    for n in range(N + 1):
        a2_pow = 1.0
        for ell in range(N + 1):
            pair = FrequencyPair(c1.b, c2.b, n, ell)
            terms.append(a1_pow * a2_pow * elementary_integral(pair, s, t, phase))
            a2_pow *= c2.a
        a1_pow *= c1.a
    return math.fsum(terms)


@dataclass(frozen=True)
class LimitResult:
    value: float
    n_used: int
    tail_bound: float


def geometric_tail_bound(c1: WeierstrassComponent, c2: WeierstrassComponent,
                         N: int, eps_prime: float, constant: float) -> float:
    """Bound on the mass of all modes with n > N or ell > N.

    Each elementary integral is bounded by constant * b1^(e'n) b2^(e'ell),
    so with r_i = b_i^(e' - alpha_i) < 1 the L-shaped tail sums to

        C [ r1^(N+1)/(1-r1) * 1/(1-r2) + (1-r1^(N+1))/(1-r1) * r2^(N+1)/(1-r2) ].
    """
    r1 = c1.b ** (eps_prime - c1.alpha)
    r2 = c2.b ** (eps_prime - c2.alpha)
    if not (r1 < 1 and r2 < 1):
        raise ParameterError("eps_prime must be below both alpha exponents")
    head1 = (1 - r1 ** (N + 1)) / (1 - r1)
    tail1 = r1 ** (N + 1) / (1 - r1)
    tail2 = r2 ** (N + 1) / (1 - r2)
    return constant * (tail1 / (1 - r2) + head1 * tail2)


def _calibrate_tail_constant(c1: WeierstrassComponent, c2: WeierstrassComponent,
                             s: Fraction, t: Fraction, eps_prime: float) -> float:
    """Empirical constant for the mode bound |J| <= C b1^(e'n) b2^(e'ell).

    Twice the largest damped elementary integral over the pilot grid, with
    the (_PILOT + 1) x (_PILOT + 1) matrix of J from scalar features in the
    closed form of _levy_kernel, taken entry by entry.  The tail claim is
    validated a posteriori in the tests by deepening N.
    """
    (T1, U1), (T2, U2) = ([x.T for x in _features(c, [c.b**n for n in range(_PILOT + 1)], [s, t])]
                          for c in (c1, c2))
    G, H = _mode_pair_gh(c1.b, c2.b, _PILOT)
    J = (G * (np.outer(T1[1], T2[1]) - np.outer(T1[0], T2[0]))
         + H * (np.outer(U1[1], U2[1]) - np.outer(U1[0], U2[0]))
         - np.outer(T1[0], T2[1] - T2[0]))
    modes = np.arange(_PILOT + 1)
    damping = np.outer(c1.b ** (-eps_prime * modes), c2.b ** (-eps_prime * modes))
    return 2.0 * float(np.max(np.abs(J) * damping))


def _tail_level(c1: WeierstrassComponent, c2: WeierstrassComponent, s: Fraction,
                t: Fraction, tol: float, eps_prime: float) -> tuple[int, float]:
    """Smallest N <= DEFAULT_LIMIT_CAP whose tail bound on [s, t] is at most tol, and that bound.

    Raises ToleranceUnreachable (carrying the bound at the cap) otherwise.
    """
    constant = _calibrate_tail_constant(c1, c2, s, t, eps_prime)
    for N in range(DEFAULT_LIMIT_CAP + 1):
        bound = geometric_tail_bound(c1, c2, N, eps_prime, constant)
        if bound <= tol:
            return N, bound
    raise _unreachable(tol, bound)


def _unreachable(tol: float, reachable: float) -> ToleranceUnreachable:
    """The error of a level search past DEFAULT_LIMIT_CAP, carrying the bound reachable there."""
    return ToleranceUnreachable(f"tolerance unreachable: tol={tol:g} needs more than "
                                f"N={DEFAULT_LIMIT_CAP} modes; reachable bound at the cap is "
                                f"{reachable:g}", reachable_bound=reachable, cap=DEFAULT_LIMIT_CAP)


def _pair_tail_levels(v: VectorWeierstrass, policy: TruncationPolicy, s: Fraction,
                      t: Fraction) -> dict[tuple[int, int], tuple[int, float]]:
    """(N, bound) of _tail_level for each pair i < j of v on [s, t], the only mode double sums.

    Checks eps' < min alpha first (TruncationPolicy.check_eps_prime).
    """
    policy.check_eps_prime(min(v.alphas))
    return {(i, j): _tail_level(ci, cj, s, t, policy.tol, policy.eps_prime)
            for (i, ci), (j, cj) in combinations(enumerate(v.components), 2)}


def iterated_integral_limit(c1: WeierstrassComponent, c2: WeierstrassComponent,
                            s, t, tol: float, eps_prime: Optional[float] = None) -> LimitResult:
    """Limit of the truncated iterated integrals, to within an empirical tail bound.

    The level-N value with the smallest N whose geometric tail bound is below
    tol, and that bound, from the pair-level search shared with lift_limit
    and the sweeps (_pair_tail_levels; eps_prime defaults to min alpha / 2).
    Raises ToleranceUnreachable (carrying the bound reachable at the cap)
    if no N <= DEFAULT_LIMIT_CAP suffices.
    """
    s, t = unit_interval(s, t)
    v = VectorWeierstrass([c1, c2])
    policy = TruncationPolicy.tolerance(tol, min(v.alphas) / 2 if eps_prime is None else eps_prime)
    ((n_used, bound),) = _pair_tail_levels(v, policy, s, t).values()
    value = _interval_upper(v, [n_used], s, t)[n_used][0, 1] if s < t else 0.0
    return LimitResult(value, n_used, bound)


# ---------------------------------------------------------------------------
# the mode-pair kernel: level 2 as a bilinear form over exact trig features

_BLOCK = 1024  # intervals per _grid_lift block; bounds the feature arrays


def _mode_classes(b: int, top: int, two_den: int) -> tuple[list[int], np.ndarray]:
    """The residue classes of the scales b^n mod two_den, n <= top.

    Returns the distinct residues, one per class, and each mode's class.
    Classes are numbered in order of first occurrence, so the classes of the
    modes n <= N are the leading ones at every level N.
    """
    first: dict[int, int] = {}
    cls = []
    r = 1 % two_den
    for _ in range(top + 1):
        cls.append(first.setdefault(r, len(first)))
        r = r * b % two_den
    return list(first), np.array(cls)


def _features(c: WeierstrassComponent, scales: list[int], points, table: Optional[TrigTable] = None):
    """(T, U): T = trig(w pi x) in c's phase, U the other one, one row per scale w.

    Both are C-contiguous (scales, points) arrays.  With a table, points are
    grid indices k (x = k/den), reduced for all scales by one _residues call
    that serves both gathers; without one, points are Fraction times,
    reduced exactly by phase_mod2 and evaluated by cos_pi and sin_pi.  On a
    grid over den a mode of scale b^n enters only through b^n mod 2 den, so
    _grid_lift passes one scale per residue class (_mode_classes) and the
    modes of a class share its row.
    """
    if table is None:
        phases = [[phase_mod2(w, x) for x in points] for w in scales]
        cos_vals = np.array([[cos_pi(p) for p in row] for row in phases])
        sin_vals = np.array([[sin_pi(p) for p in row] for row in phases])
    else:
        cos_vals, sin_vals = table.cos_sin_scaled(scales, points)
    return (cos_vals, sin_vals) if c.phase is Phase.COSINE else (sin_vals, cos_vals)


def _mode_pair_gh(b1: int, b2: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """G and H of the mode-pair antiderivative over m = b1^n, k = b2^ell, n, ell <= N.

    G = k^2 / (k^2 - m^2) and H = k m / (k^2 - m^2), or G = 1/2 and H = 0
    when m == k; Python int true division rounds both correctly.  The
    squares are formed once per row and column.
    """
    ms = [(m, m * m) for m in (b1**n for n in range(N + 1))]
    ks = [(k, k * k) for k in (b2**ell for ell in range(N + 1))]
    G = np.array([[0.5 if m == k else k2 / (k2 - m2) for k, k2 in ks] for m, m2 in ms])
    H = np.array([[0.0 if m == k else (k * m) / (k2 - m2) for k, k2 in ks] for m, m2 in ms])
    return G, H


def _class_sums(cls: np.ndarray, N: int) -> np.ndarray:
    """The 0/1 (classes, modes) matrix that adds the modes n <= N of each residue class."""
    cls = cls[: N + 1]
    return np.equal.outer(np.arange(cls.max() + 1), cls).astype(np.float64)


def _coefficients(c1: WeierstrassComponent, c2: WeierstrassComponent, levels: list[int],
                  cls1: np.ndarray, cls2: np.ndarray) -> dict:
    """The coefficients of _levy_kernel per sorted level N, summed over residue classes.

    They are (a1^n), (a2^ell), (C*G)^T and (C*H)^T, C = a1^n a2^ell; cls1
    and cls2 give each mode's class (_mode_classes).  Entries of the
    modes n, ell <= N are added over their classes along both axes, so the
    arrays have one entry per class row of _features; G and H keep the
    true m and k, m == k included.  The transposed products are
    C-contiguous, indexed (ell class, n class).
    """
    top = levels[-1]
    a1 = np.array([c1.a**n for n in range(top + 1)])
    a2 = np.array([c2.a**ell for ell in range(top + 1)])
    G, H = _mode_pair_gh(c1.b, c2.b, top)
    C = np.outer(a1, a2)
    CGt, CHt = (C * G).T, (C * H).T
    out = {}
    for N in levels:
        S1, S2 = _class_sums(cls1, N), _class_sums(cls2, N)
        cut = slice(N + 1)
        out[N] = (S1 @ a1[cut], S2 @ a2[cut], S2 @ CGt[cut, cut] @ S1.T, S2 @ CHt[cut, cut] @ S1.T)
    return out


def _mode_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_n x[n] * y[n] per point of (modes, points) arrays; x is overwritten."""
    x *= y
    return x.sum(axis=0)


def _levy_kernel(f1, f2, coef, s_pos, t_pos) -> np.ndarray:
    """I^N(s, t) = F(t) - F(s) - (a1 . T1(s)) ((a2 . T2)(t) - (a2 . T2)(s)) from point features.

    f1 = (T1, U1) and f2 = (T2, U2) are _features of the two components,
    (modes, points) arrays; coef = (a1, a2, (C*G)^T, (C*H)^T) from
    _coefficients.  F(x) = T1(x)^T (C*G) T2(x) + U1(x)^T (C*H) U2(x) comes
    from the products (C*G)^T T1 and (C*H)^T U1 summed over modes against
    T2 and U2; C = a1 (x) a2 is rank one, so the cross term is the product
    of the mode sums a1 . T1 and a2 . T2.  s_pos and t_pos index the points
    of the interval ends (index arrays or slices).
    """
    (T1, U1), (T2, U2) = f1, f2
    a1, a2, CGt, CHt = coef
    F = _mode_dot(CGt @ T1, T2) + _mode_dot(CHt @ U1, U2)
    p1, p2 = a1 @ T1, a2 @ T2
    return F[t_pos] - F[s_pos] - p1[s_pos] * (p2[t_pos] - p2[s_pos])


def _block_points(ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of the int array ends, and the index of each end among them.

    One scatter over the range [min, max] of ends finds them without a
    sort; a block's ends lie on its grid, so that range is at most the grid.
    """
    lo = ends.min()
    seen = np.zeros(ends.max() - lo + 1, dtype=bool)
    seen[ends - lo] = True
    return np.flatnonzero(seen) + lo, (np.cumsum(seen) - 1)[ends - lo]


def _grid_lift(v: VectorWeierstrass, levels: list[int], den: int, idx: np.ndarray,
               s_pos, t_pos) -> tuple[dict, dict]:
    """Both levels of the lift of v on the grid idx/den, for each N in the sorted levels.

    The intervals are (idx[s_pos], idx[t_pos]), and every point of idx is an
    end of one.  Features come from one TrigTable(den) when den is at most
    _MAX_TABLE_DEN; otherwise each point is reduced exactly as the Fraction
    idx[k]/den by the scalar branch of _features, so there idx must hold
    exact ints (int64 or Python ints).  A mode of scale b^n enters only
    through its residue b^n mod 2 den: the modes of each component are
    grouped into residue classes once (_mode_classes), and _coefficients
    adds their coefficients per class and level.  One pass over blocks of
    _BLOCK intervals: a block builds each component's features once, one
    row per class, at the distinct points of its ends (_block_points).
    Level 1 is the Kahan sum of the class rows of the modes in ascending n,
    read after row N (_kahan_modes, bit for bit what eval_truncated_grid
    returns); the entry (i, j), i < j, is _levy_kernel on the leading class
    rows of level N.  Returns W[N], shape (d, points), and upper[N][(i, j)],
    one value per interval.
    """
    cs = v.components
    top = levels[-1]
    table = TrigTable(den) if den <= _MAX_TABLE_DEN else None
    classes = [_mode_classes(c.b, top, 2 * den) for c in cs]
    coef = {(i, j): _coefficients(cs[i], cs[j], levels, classes[i][1], classes[j][1])
            for i, j in combinations(range(v.d), 2)}
    s_pos, t_pos = np.broadcast_arrays(s_pos, t_pos)
    W = {N: np.empty((v.d, idx.size)) for N in levels}
    upper = {N: {p: np.empty(t_pos.size) for p in coef} for N in levels}
    for lo in range(0, t_pos.size, _BLOCK):
        pos, inv = _block_points(np.concatenate([s_pos[lo : lo + _BLOCK], t_pos[lo : lo + _BLOCK]]))
        half = inv.size // 2
        pts = idx[pos] if table is not None else [Fraction(int(k), den) for k in idx[pos]]
        f = [_features(c, residues, pts, table) for c, (residues, _) in zip(cs, classes)]
        for i, c in enumerate(cs):
            rows = (f[i][0][k] for k in classes[i][1])
            for N, w in zip(levels, _kahan_modes(c.a, rows, pos.shape, levels)):
                W[N][i, pos] = w
        for (i, j), by_level in coef.items():
            for N, (a1, a2, CGt, CHt) in by_level.items():
                upper[N][i, j][lo : lo + half] = _levy_kernel(
                    [x[: a1.size] for x in f[i]], [x[: a2.size] for x in f[j]],
                    (a1, a2, CGt, CHt), inv[:half], inv[half:],
                )
        del f  # freed before the next block's features are built
    return W, upper


def _interval_upper(v: VectorWeierstrass, levels: list[int], s: Fraction, t: Fraction) -> dict:
    """The entries (i, j), i < j, of the lift of v over [s, t], s < t, at each sorted level N.

    One _grid_lift pass over the two ends serves every pair and level; it
    backs lift_truncated, lift_limit and iterated_integral_limit.
    """
    den = math.lcm(s.denominator, t.denominator)
    idx = np.array([x.numerator * (den // x.denominator) for x in (s, t)], dtype=object)
    _, upper = _grid_lift(v, levels, den, idx, [0], [1])
    return {N: {p: float(a[0]) for p, a in by_pair.items()} for N, by_pair in upper.items()}


def iterated_pairs(c1: WeierstrassComponent, c2: WeierstrassComponent, N: int,
                   table: TrigTable, s_idx: np.ndarray, t_idx: np.ndarray) -> np.ndarray:
    """I^N(s, t) vectorized over interval arrays (s_idx/den, t_idx/den).

    The distinct interval ends form the grid of one _grid_lift pass, which
    sums all (N + 1)^2 mode pairs, merged into residue classes, by
    _levy_kernel on table features; the pass builds its own table over
    table.den.
    """
    _require_same_phase(c1, c2)
    N = _validate_level(N)
    s_idx = np.asarray(s_idx, dtype=np.int64)
    t_idx = np.asarray(t_idx, dtype=np.int64)
    if s_idx.shape != t_idx.shape:
        raise ParameterError("s and t index arrays must have the same shape")
    if np.any(s_idx > t_idx):
        raise ParameterError("requires s <= t")
    idx, pos = np.unique(np.concatenate([s_idx.ravel(), t_idx.ravel()]), return_inverse=True)
    _, upper = _grid_lift(VectorWeierstrass([c1, c2]), [N], table.den, idx,
                          pos[: s_idx.size], pos[s_idx.size :])
    return upper[N][0, 1].reshape(s_idx.shape)


# ---------------------------------------------------------------------------
# bound diagnostics


@dataclass(frozen=True)
class BoundDiagnostics:
    """Empirical constants for the four elementary-integral bounds.

    rows: one (s, t, J, rhs_i, rhs_ii, rhs_iii, rhs_iv) record per sample
    pair; constants: smallest multiplier making each bound hold over the
    sample; flagged: bounds whose fine-scale constant exceeds twice the
    coarse-scale constant (scaling drift).
    """

    pair: FrequencyPair
    eps: float
    rows: tuple
    constants: dict
    flagged: tuple

    def csv_rows(self) -> list[tuple]:
        out = []
        for (s, t, j, b1, b2, b3, b4) in self.rows:
            out.append((self.pair.n, self.pair.ell, float(s), float(t), j, b1, b2, b3, b4))
        return out


_BOUND_NAMES = ("bound_i", "bound_ii", "bound_iii", "bound_iv")


def _smallest_constant(rows, col: int) -> float:
    """Smallest C with |J| <= C rhs over ``rows``: the max |J| / rhs where rhs = row[col] > 0."""
    return max((abs(r[2]) / r[col] for r in rows if r[col] > 0), default=0.0)


def bound_diagnostics(pair: FrequencyPair, sample: Iterable[tuple], eps: float,
                      phase: Phase = Phase.COSINE) -> BoundDiagnostics:
    """Evaluate |J| against its four right-hand sides over sample intervals.

    The right-hand sides are b1^n b2^ell (t-s)^2, b2^ell (t-s), b1^n (t-s)
    and b1^(eps n) b2^(eps ell); the reported constant for each is the
    smallest multiplier that makes the bound hold over the whole sample.
    """
    if not (eps > 0):
        raise ParameterError(f"eps must be positive, got {eps}")
    m = pair.integrand_frequency
    k = pair.integrator_frequency
    rhs_iv = (pair.b1 ** (eps * pair.n)) * (pair.b2 ** (eps * pair.ell))
    rows = []
    for s_raw, t_raw in sample:
        s = unit_time(s_raw)
        t = unit_time(t_raw)
        if s > t:
            raise ParameterError("sample pairs must satisfy s <= t")
        j = elementary_integral(pair, s, t, phase)
        dt = float(t - s)
        rows.append((s, t, j, float(m) * float(k) * dt * dt, float(k) * dt, float(m) * dt, rhs_iv))
    constants = {name: _smallest_constant(rows, 3 + name_idx)
                 for name_idx, name in enumerate(_BOUND_NAMES)}
    # scaling drift: a valid bound's constant saturates at fine scales; one
    # still growing between the two finest width quartiles is flagged
    flagged = []
    if len(rows) >= 8:
        by_width = sorted(rows, key=lambda r: r[1] - r[0])
        quarter = len(rows) // 4
        finest, second = by_width[:quarter], by_width[quarter : 2 * quarter]
        for name_idx, name in enumerate(_BOUND_NAMES):
            k_finest, k_second = (_smallest_constant(part, 3 + name_idx)
                                  for part in (finest, second))
            if k_second > 0 and k_finest > 1.5 * k_second:
                flagged.append(name)
    return BoundDiagnostics(pair=pair, eps=eps, rows=tuple(rows),
                            constants=constants, flagged=tuple(flagged))
