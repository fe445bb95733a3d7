"""Hoelder-exponent estimation and the truncation non-convergence witness.

The estimator measures M(m) = sup of |W_N(t) - W_N(s)| over adjacent dyadic
pairs at scale 2^-m and fits the slope of log M(m) against log 2^-m.  This
is a diagnostic, not a proof: the fitted exponent tracks -ln(a)/ln(b) to a
few percent on truncations deep enough to populate the fitted scales.

The witness exhibits the classical obstruction to convergence of the
truncations in the Hoelder norm: at t = b^-N (odd b) or t = b^-(N+1)
(even b) the tail increment divided by t^alpha is bounded below by a
constant independent of N, namely 2 b^-alpha / (1 - b^-alpha) for odd b
and exactly 2 for even b.  Both the closed form and a machine-precision
tail evaluation are returned; they must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError
from .phase import TrigTable
from .weierstrass import Phase, WeierstrassComponent, _geometric_tail_level, eval_truncated_grid

__all__ = ["ExponentFit", "WitnessResult", "estimate_exponent", "nonconvergence_witness"]


@dataclass(frozen=True)
class ExponentFit:
    alpha_hat: float
    constant: float
    rows: tuple  # (m, scale, sup_increment) per fitted scale

    def csv_rows(self) -> list[tuple]:
        return [(m, scale, sup) for (m, scale, sup) in self.rows]


def estimate_exponent(c: WeierstrassComponent, N: int, depth: int) -> ExponentFit:
    """Least-squares exponent fit from dyadic-scale increment maxima.

    Uses scales m = 2..depth; requires depth >= 4 so the fit has enough
    points.  Returns the fitted exponent and the intercept-derived constant.
    """
    if depth < 4:
        raise ParameterError(f"depth must be >= 4 for a meaningful fit, got {depth}")
    if depth > 16:
        raise ParameterError(f"depth must be <= 16 (cost guard), got {depth}")
    # pairs within separation 2^-m, endpoints refined 8x: the sup then tracks
    # the modulus of continuity instead of one fixed phase offset per scale
    refine = 3
    den = 1 << (depth + refine)
    finest = eval_truncated_grid(c, N, TrigTable(den), np.arange(den + 1, dtype=np.int64))
    rows = []
    for m in range(2, depth + 1):
        # the grid k/2^(m + refine) is every 2^(depth - m)-th point of the finest
        # one, with the same bits: pi/den differs from pi/2^(m + refine) by a power of 2
        vals = finest[:: 1 << (depth - m)]
        sup = 0.0
        for gap in range(1, (1 << refine) + 1):
            sup = max(sup, float(np.max(np.abs(vals[gap:] - vals[:-gap]))))
        if sup <= 0.0:
            raise ParameterError(f"degenerate fit: zero increment maximum at scale 2^-{m}")
        rows.append((m, 0.5 ** m, sup))
    x = np.array([-m * math.log(2.0) for (m, _, _) in rows])
    y = np.array([math.log(sup) for (_, _, sup) in rows])
    if np.var(y) == 0.0:
        raise ParameterError("degenerate fit: increment maxima carry no scale dependence")
    slope, intercept = np.polyfit(x, y, 1)
    return ExponentFit(alpha_hat=float(slope), constant=float(math.exp(intercept)), rows=tuple(rows))


@dataclass(frozen=True)
class WitnessResult:
    witness_t: Fraction
    lower_bound: float
    measured_ratio: float


def _tail_increment_ratio(c: WeierstrassComponent, N: int, t: Fraction) -> float:
    """|(W - W_N)(t) - (W - W_N)(0)| / t^alpha with the tail summed exactly.

    Terms are added up to the first mode whose geometric remainder is below
    1e-19 (_geometric_tail_level); phases are reduced exactly, so each term
    is an exact rational multiple of a cosine at a rational phase.
    """
    top = _geometric_tail_level(c.a, 1e-19, N + 100000)
    if top is None:
        raise ParameterError("tail did not converge (a too close to 1)")
    terms_t = []
    terms_0 = []
    a_pow = c.a ** (N + 1)
    for n in range(N + 1, top + 1):
        scale = c.b**n
        terms_t.append(a_pow * c.trig(scale, t))
        terms_0.append(a_pow * c.trig(scale, Fraction(0)))
        a_pow *= c.a
    diff = math.fsum(terms_t) - math.fsum(terms_0)
    return abs(diff) / float(t) ** c.alpha


def nonconvergence_witness(c: WeierstrassComponent, N: int) -> WitnessResult:
    """Witness point and lower bound for the Hoelder-norm gap of the tail.

    Odd base: t = b^-N with bound 2 b^-alpha/(1 - b^-alpha); even base:
    t = b^-(N+1) with bound 2.  Both bounds are independent of N.  The
    measured tail ratio is evaluated to machine precision and must reach
    the bound (up to 1e-9 relative); a violation raises, since it would
    mean the evaluation itself is broken.
    """
    if c.phase is not Phase.COSINE:
        raise ParameterError("witness formula proven for cosine only")
    if N < 0:
        raise ParameterError("N must be nonnegative")
    if c.b % 2 == 1:
        t = Fraction(1, c.b**N)
        lower = 2.0 * c.a / (1.0 - c.a)
    else:
        t = Fraction(1, c.b ** (N + 1))
        lower = 2.0
    measured = _tail_increment_ratio(c, N, t)
    if not measured >= lower * (1.0 - 1e-9):
        raise ParameterError(
            f"witness ratio {measured!r} fell below its lower bound {lower!r}"
        )
    return WitnessResult(witness_t=t, lower_bound=lower, measured_ratio=measured)
