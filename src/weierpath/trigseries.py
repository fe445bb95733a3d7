"""Pointwise iterated integrals of absolutely summable trigonometric series.

For finite series f(t) = sum c_n exp(i a_n t) and g(t) = sum d_n exp(i b_n t)
with strictly positive frequencies, the integral of f_N against dg_N has the
exact closed form

    sum_{n1,n2 <= N} c_{n1} d_{n2} (b_{n2}/(a_{n1}+b_{n2}))
                     (exp(i t (a_{n1}+b_{n2})) - exp(i s (a_{n1}+b_{n2})))

whose denominators never vanish because frequencies are positive.  The gap
between two partial sums obeys a fully computable coefficient bound, which
is what makes the Cauchy property of such integrals checkable term by term.

The equal-base mixed table evaluates the four real sine/cosine integral
combinations that arise when one complex series is integrated against
itself; the cos d(sin) and sin d(cos) pieces with equal mode frequencies
produce secular (t-s)-proportional terms, and the table records how the
difference combination therefore fails to settle while the sum combination
and the pure combinations do.  Divergence is never claimed, only measured
non-decay over the tested range.

Frequencies that are integer multiples of pi are tracked exactly and
reduced with integer arithmetic; arbitrary float frequencies fall back to
standard complex exponentials.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ParameterError
from .iterated import _dcos, _dsin
from .phase import cos_pi, phase_mod2, sin_pi, unit_interval, unit_time
from .weierstrass import WeierstrassComponent

__all__ = [
    "TrigTerm",
    "TrigSeries",
    "iterated_integral_partial",
    "cauchy_gap",
    "mixed_integral_table",
    "MixedIntegralTable",
]


@dataclass(frozen=True)
class TrigTerm:
    """One term: coefficient * exp(i * frequency * t).

    ``pi_multiple`` marks frequencies that are exact integer multiples of
    pi, enabling exact phase reduction.
    """

    coefficient: complex
    frequency: float
    pi_multiple: Optional[int] = None

    def __post_init__(self):
        if self.pi_multiple is not None:
            if self.pi_multiple <= 0:
                raise ParameterError("pi multiple frequencies must be positive")
            object.__setattr__(self, "frequency", self.pi_multiple * math.pi)
        if not (self.frequency > 0):
            raise ParameterError(f"frequencies must be positive, got {self.frequency}")


@dataclass(frozen=True)
class TrigSeries:
    """Finite trigonometric series with positive frequencies."""

    terms: tuple[TrigTerm, ...]

    @staticmethod
    def from_pairs(pairs: Sequence[tuple[complex, float]]) -> "TrigSeries":
        return TrigSeries(tuple(TrigTerm(complex(c), float(w)) for c, w in pairs))

    @staticmethod
    def complex_weierstrass(c: WeierstrassComponent, N: int, start: int = 1) -> "TrigSeries":
        """Terms a^n exp(i b^n pi t) for n = start..N (exact pi multiples)."""
        if start < 0 or N < start:
            raise ParameterError("need 0 <= start <= N")
        return TrigSeries(
            tuple(
                TrigTerm(complex(c.a**n), 0.0, pi_multiple=c.b**n)
                for n in range(start, N + 1)
            )
        )

    def __len__(self) -> int:
        return len(self.terms)

    def coefficient_abs_sum(self, lo: int, hi: int) -> float:
        """Sum of |coefficient| over term indices lo..hi-1."""
        return math.fsum(abs(t.coefficient) for t in self.terms[lo:hi])


def _unit_phase(term_sum_pi: Optional[int], freq: float, x: Fraction) -> complex:
    """exp(i * freq * x), exactly reduced when the frequency is k*pi."""
    if term_sum_pi is not None:
        r = phase_mod2(term_sum_pi, x)
        return complex(cos_pi(r), sin_pi(r))
    return cmath.exp(1j * freq * float(x))


def iterated_integral_partial(f: TrigSeries, g: TrigSeries, N: int, s, t) -> complex:
    """Closed-form integral of the N-term partial sum of f against d(g_N)."""
    if N < 0 or N > len(f) or N > len(g):
        raise ParameterError(
            f"N = {N} must lie in [0, min(len f, len g)] = [0, {min(len(f), len(g))}]"
        )
    s = unit_time(s)
    t = unit_time(t)
    if s == t:
        return 0j
    re_parts = []
    im_parts = []
    for tf in f.terms[:N]:
        for tg in g.terms[:N]:
            if tf.pi_multiple is not None and tg.pi_multiple is not None:
                k_sum = tf.pi_multiple + tg.pi_multiple
                ratio = float(Fraction(tg.pi_multiple, k_sum))
                osc = _unit_phase(k_sum, 0.0, t) - _unit_phase(k_sum, 0.0, s)
            else:
                w = tf.frequency + tg.frequency
                ratio = tg.frequency / w
                osc = _unit_phase(None, w, t) - _unit_phase(None, w, s)
            val = tf.coefficient * tg.coefficient * ratio * osc
            re_parts.append(val.real)
            im_parts.append(val.imag)
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def cauchy_gap(f: TrigSeries, g: TrigSeries, M: int, N: int, s, t) -> tuple[float, float]:
    """Gap |partial(N) - partial(M)| and its coefficient bound.

    The bound is 2 (sum_{n<=N} |c_n|)(sum_{M<n<=N} |d_n|)
               + 2 (sum_{M<n<=N} |c_n|)(sum_{n<=N} |d_n|),
    which holds deterministically because each oscillatory factor in the
    closed form has modulus at most 2 once the positive-frequency ratio is
    bounded by one.  A violation raises: it would mean the closed form and
    the bound disagree about the same finite sum.
    """
    if not (0 <= M < N):
        raise ParameterError(f"need 0 <= M < N, got M={M}, N={N}")
    gap = abs(iterated_integral_partial(f, g, N, s, t) - iterated_integral_partial(f, g, M, s, t))
    bound = 2.0 * f.coefficient_abs_sum(0, N) * g.coefficient_abs_sum(M, N) + \
        2.0 * f.coefficient_abs_sum(M, N) * g.coefficient_abs_sum(0, N)
    if not gap <= bound * (1.0 + 1e-12) + 1e-300:
        raise ParameterError(f"gap {gap!r} exceeded its coefficient bound {bound!r}")
    return gap, bound


# ---------------------------------------------------------------------------
# equal-base mixed sine/cosine integrals


def _dsin_signed(w: int, s: Fraction, t: Fraction) -> float:
    # sin is odd: handle negative frequency differences by sign flip
    return (1.0 if w >= 0 else -1.0) * _dsin(abs(w), s, t)


def _mixed_elementary(kind: str, m: int, k: int, s: Fraction, t: Fraction) -> float:
    """int_s^t trig1(m pi r) d trig2(k pi r) for the four sine/cosine kinds.

    kinds: 'cc' = cos d(cos), 'ss' = sin d(sin), 'cs' = cos d(sin),
    'sc' = sin d(cos).  'cs' and 'sc' with m == k carry the secular term
    +- (m pi / 2)(t - s).
    """
    if kind == "cc":
        if m == k:
            return _dcos(2 * m, s, t) / 4.0
        return 0.5 * float(Fraction(k, k + m)) * _dcos(k + m, s, t) + \
            0.5 * float(Fraction(k, k - m)) * _dcos(abs(k - m), s, t)
    if kind == "ss":
        if m == k:
            return -_dcos(2 * m, s, t) / 4.0
        return -0.5 * float(Fraction(k, m + k)) * _dcos(m + k, s, t) - \
            0.5 * float(Fraction(k, m - k)) * _dcos(abs(m - k), s, t)
    if kind == "cs":
        if m == k:
            return (m * math.pi / 2.0) * float(t - s) + _dsin_signed(2 * m, s, t) / 4.0
        return 0.5 * float(Fraction(k, m + k)) * _dsin_signed(m + k, s, t) + \
            0.5 * float(Fraction(k, k - m)) * _dsin_signed(k - m, s, t)
    if kind == "sc":
        if m == k:
            return -(m * math.pi / 2.0) * float(t - s) + _dsin_signed(2 * m, s, t) / 4.0
        return 0.5 * float(Fraction(k, m + k)) * _dsin_signed(m + k, s, t) - \
            0.5 * float(Fraction(k, m - k)) * _dsin_signed(m - k, s, t)
    raise ParameterError(f"unknown elementary kind {kind!r}")


@dataclass(frozen=True)
class MixedIntegralTable:
    """Per-level values of the four equal-base integral combinations.

    columns per row: (N, cos_d_cos, sin_d_sin, sum_combo, diff_combo,
    delta_cos_d_cos, delta_sin_d_sin, delta_sum, delta_diff); the deltas
    compare against the previous listed level (None on the first row).
    """

    b: int
    a: float
    s: Fraction
    t: Fraction
    rows: tuple

    def csv_rows(self) -> list[tuple]:
        return list(self.rows)

    def column(self, name: str) -> list:
        names = ["N", "cos_d_cos", "sin_d_sin", "sum_combo", "diff_combo",
                 "delta_cos_d_cos", "delta_sin_d_sin", "delta_sum", "delta_diff"]
        i = names.index(name)
        return [r[i] for r in self.rows]


def mixed_integral_table(b: int, a: float, Ns: Sequence[int], s, t) -> MixedIntegralTable:
    """The four real integral combinations for one base, per truncation level.

    Both series share base b and coefficients a^n (modes n = 1..N).  The
    columns report the pure combinations (cos against d cos, sin against
    d sin), their mixed sum, and the mixed difference whose equal-frequency
    secular terms grow like (a^2 b)^n (t-s).
    """
    if b < 2 or not isinstance(b, int):
        raise ParameterError("base b must be an integer >= 2")
    if not (0 < a < 1) or a * b <= 1:
        raise ParameterError("need 0 < a < 1 and a*b > 1")
    s, t = unit_interval(s, t)
    Ns = sorted(set(int(N) for N in Ns))
    if Ns and Ns[0] < 1:
        raise ParameterError("levels must be >= 1 (modes start at n = 1)")

    def level_values(N: int) -> tuple[float, float, float, float]:
        cc, ss, cs, sc = [], [], [], []
        for n in range(1, N + 1):
            m = b**n
            coeff_n = a**n
            for ell in range(1, N + 1):
                k = b**ell
                coeff = coeff_n * a**ell
                cc.append(coeff * _mixed_elementary("cc", m, k, s, t))
                ss.append(coeff * _mixed_elementary("ss", m, k, s, t))
                cs.append(coeff * _mixed_elementary("cs", m, k, s, t))
                sc.append(coeff * _mixed_elementary("sc", m, k, s, t))
        f1dg1 = math.fsum(cc)
        f2dg2 = math.fsum(ss)
        f1dg2 = math.fsum(cs)
        f2dg1 = math.fsum(sc)
        return f1dg1, f2dg2, f1dg2 + f2dg1, f1dg2 - f2dg1

    rows = []
    prev = None
    for N in Ns:
        vals = level_values(N)
        if prev is None:
            deltas = (None, None, None, None)
        else:
            deltas = tuple(v - p for v, p in zip(vals, prev))
        rows.append((N, *vals, *deltas))
        prev = vals
    return MixedIntegralTable(b=b, a=float(a), s=s, t=t, rows=tuple(rows))
