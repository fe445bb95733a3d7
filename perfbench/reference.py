"""Independent high-precision reference for lift increments (mpmath).

Shares no code with weierpath.  For cosine-phase components the level-1
increment is sum_n a^n (cos(b^n pi t) - cos(b^n pi s)), and the level-2 entry
A[i][j] is the double sum over modes of a_i^n a_j^l J(b_i^n, b_j^l), where
J(m, k) is the integral over [s, t] of (cos(m pi r) - cos(m pi s)) against
d cos(k pi r).  Product-to-sum integration gives

    J(m, m) = (cos(m pi t) - cos(m pi s))^2 / 2
    J(m, k) = (k/2) [D_{k+m}/(k+m) + D_{k-m}/(k-m)] - cos(m pi s) D_k,

with D_w the increment of cos(w pi r) over [s, t].  Here cos((k +- m) pi x)
comes from angle addition over the per-mode values cos/sin(b^n pi x), each
evaluated by mpmath.cospi/sinpi at a working precision wide enough that
b^n x is represented exactly up to 64 guard bits.  No phase is reduced with
rational arithmetic, so the reference is independent of the library's
exact-reduction path.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath


class _Modes:
    """cos/sin(b^n pi x) for n = 0..N at x = s and x = t."""

    def __init__(self, b: int, a: float, N: int, s: Fraction, t: Fraction):
        self.amp = [mpmath.mpf(a) ** n for n in range(N + 1)]
        self.freq = [b**n for n in range(N + 1)]
        self.cs, self.ss, self.ct, self.st = [], [], [], []
        for w in self.freq:
            for x, cos_out, sin_out in ((s, self.cs, self.ss), (t, self.ct, self.st)):
                arg = mpmath.mpf(w * x.numerator) / x.denominator
                cos_out.append(mpmath.cospi(arg))
                sin_out.append(mpmath.sinpi(arg))

    def first(self):
        return mpmath.fsum(a * (ct - cs) for a, ct, cs in zip(self.amp, self.ct, self.cs))


def _entry(p: _Modes, q: _Modes):
    """A[p][q]: p integrates against q."""
    terms = []
    for n, m in enumerate(p.freq):
        cm_s, sm_s, cm_t, sm_t = p.cs[n], p.ss[n], p.ct[n], p.st[n]
        for ell, k in enumerate(q.freq):
            ck_s, sk_s, ck_t, sk_t = q.cs[ell], q.ss[ell], q.ct[ell], q.st[ell]
            d_k = ck_t - ck_s
            if m == k:
                d = cm_t - cm_s
                j = d * d / 2
            else:
                d_plus = (ck_t * cm_t - sk_t * sm_t) - (ck_s * cm_s - sk_s * sm_s)
                d_minus = (ck_t * cm_t + sk_t * sm_t) - (ck_s * cm_s + sk_s * sm_s)
                j = mpmath.mpf(k) / 2 * (d_plus / (k + m) + d_minus / (k - m)) - cm_s * d_k
            terms.append(p.amp[n] * q.amp[ell] * j)
    return mpmath.fsum(terms)


def lift_reference(components, N: int, s: Fraction, t: Fraction):
    """(first level, antisymmetric entry A01 - A10) of the level-N lift, as floats.

    `components` is a sequence of two (b, a) pairs in cosine phase.
    """
    bits = max(N * b.bit_length() for b, _ in components) + max(
        s.denominator.bit_length(), t.denominator.bit_length()
    )
    with mpmath.workprec(bits + 64):
        modes = [_Modes(b, a, N, s, t) for b, a in components]
        first = [float(m.first()) for m in modes]
        area = _entry(modes[0], modes[1]) - _entry(modes[1], modes[0])
        return first, float(area)
