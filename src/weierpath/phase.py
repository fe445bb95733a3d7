"""Exact trigonometric phase reduction for arguments of the form w*pi*t.

Frequencies in this package grow like b^n, so for moderate n the product
w*t is far beyond the range where a double resolves phase at all.  Every
reduction here therefore happens on exact rationals: a time is a Fraction
(binary floats are dyadic rationals and convert exactly), the scaled phase
w*t is reduced mod 2 with arbitrary-precision integers, and only the
reduced argument in [0, 2) ever reaches libm.  The returned trig value is
then accurate to an ulp or so for any frequency.

Four evaluation paths share this reduction:

* scalar: one Fraction time, one big-int frequency (phase_mod2);
* table: a dyadic grid k/den with small den, where cos(pi*r/den) is
  precomputed for every residue r in [0, 2*den);
* affine: uniform node families (start + j*step); only about 2*sqrt(count)
  anchor and offset phases are reduced exactly, and node values follow by
  angle addition (the quadrature oracle);
* lattice: offset phases reduced once for all nodes origin + g*step (the ODE).

The table, affine and lattice paths share one exact array reducer, _residues.

All functions are pure; tables are immutable after construction.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ParameterError

__all__ = [
    "to_fraction",
    "unit_time",
    "unit_interval",
    "phase_mod2",
    "cos_pi",
    "sin_pi",
    "TrigTable",
    "AffineNodes",
    "AnchorLattice",
]


def to_fraction(value) -> Fraction:
    """Convert a time-like value (Fraction, int, float, or 'p/q' string) exactly."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParameterError("time must be numeric, got bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ParameterError("time must be finite")
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"cannot parse rational time {value!r}") from exc
    raise ParameterError(f"unsupported time type {type(value).__name__}")


def unit_time(value) -> Fraction:
    """Validate and convert a time in the unit interval [0, 1]."""
    t = to_fraction(value)
    if not (0 <= t <= 1):
        raise ParameterError(f"time {t} outside the interval [0, 1]")
    return t


def unit_interval(s, t) -> tuple[Fraction, Fraction]:
    """Validate and convert the ends of an interval [s, t] within [0, 1]."""
    s, t = unit_time(s), unit_time(t)
    if s > t:
        raise ParameterError("requires s <= t")
    return s, t


def phase_mod2(scale: int, t: Fraction) -> Fraction:
    """Reduce scale*t mod 2 exactly; result in [0, 2).  The scalar form of _residues."""
    num = (scale * t.numerator) % (2 * t.denominator)
    return Fraction(num, t.denominator)


def cos_pi(x: Fraction) -> float:
    """cos(pi*x) for rational x, exact at half-integer multiples.

    The argument is folded into [0, 1/2] before the libm call so the result
    is monotone-accurate near the zeros and extremes of the cosine.
    """
    x %= 2
    if x > 1:
        x = 2 - x
    # now x in [0, 1]
    sign = 1.0
    if 2 * x > 1:
        x = 1 - x
        sign = -1.0
    if x == 0:
        return sign
    if 2 * x == 1:
        return 0.0
    return sign * math.cos(math.pi * float(x))


def sin_pi(x: Fraction) -> float:
    """sin(pi*x) for rational x, exact at half-integer multiples."""
    x %= 2
    sign = 1.0
    if x > 1:
        x -= 1
        sign = -1.0
    # now x in [0, 1]
    if 2 * x > 1:
        x = 1 - x
    if x == 0:
        return 0.0
    if 2 * x == 1:
        return sign
    return sign * math.sin(math.pi * float(x))


def _residues(r0, c, j, two_den: int) -> np.ndarray:
    """Exact (r0 + j*c) mod two_den for integer indices j >= 0.

    r0 and c are ints, or lists of ints giving one row each (a leading axis);
    c is a list whenever r0 is.  The arithmetic is int64 when two_den < 2^62
    and max r0 + max j * max c < 2^63, decided on Python ints, and Python
    ints otherwise; it works in place on one buffer of the result's shape,
    and skips the addition when r0 reduces to the int 0.
    The result is int64 when two_den <= 2^63, else an object array.
    """
    r0, c = ([x % two_den for x in v] if isinstance(v, list) else v % two_den for v in (r0, c))
    j = np.asarray(j, dtype=np.int64)
    top = [max(v) if isinstance(v, list) else v for v in (r0, c)]
    dtype = np.int64 if two_den < 1 << 62 and top[0] + int(j.max(initial=0)) * top[1] < 1 << 63 else object
    r0, c = (np.array(v, dtype).reshape((-1,) + (1,) * j.ndim) if isinstance(v, list) else v for v in (r0, c))
    out = c * j.astype(dtype, copy=False)
    if isinstance(r0, np.ndarray) or r0:
        out += r0
    out %= two_den
    return out if two_den > 1 << 63 else out.astype(np.int64, copy=False)


_MAX_TABLE_DEN = 1 << 20
LATTICE_R = 512


class TrigTable:
    """Lookup table of cos/sin(pi*r/den) for all residues r in [0, 2*den).

    Serves grids of rationals with common denominator ``den``: the value
    cos(w*pi*k/den) is the table entry at residue (w mod 2den) * k mod 2den,
    with exact integer arithmetic throughout.
    """

    def __init__(self, den: int):
        if not (1 <= den <= _MAX_TABLE_DEN):
            raise ParameterError(f"table denominator {den} outside [1, {_MAX_TABLE_DEN}]")
        self.den = den
        r = np.arange(2 * den, dtype=np.float64)
        ang = (np.pi / den) * r
        cos_vals = np.cos(ang)
        sin_vals = np.sin(ang)
        # pin the quarter-period values that are exact in rational arithmetic
        cos_vals[0] = 1.0
        sin_vals[0] = 0.0
        if den % 2 == 0:
            cos_vals[den // 2] = 0.0
            sin_vals[den // 2] = 1.0
            cos_vals[3 * den // 2] = 0.0
            sin_vals[3 * den // 2] = -1.0
        cos_vals[den] = -1.0
        sin_vals[den] = 0.0
        cos_vals.setflags(write=False)
        sin_vals.setflags(write=False)
        self._cos = cos_vals
        self._sin = sin_vals

    def cos_scaled(self, scale, idx: np.ndarray) -> np.ndarray:
        """cos(scale*pi*idx/den) for grid indices idx >= 0; a list of scales gives one row each."""
        return self._cos[_residues(0, scale, idx, 2 * self.den)]

    def sin_scaled(self, scale, idx: np.ndarray) -> np.ndarray:
        """sin(scale*pi*idx/den) for grid indices idx >= 0; a list of scales gives one row each."""
        return self._sin[_residues(0, scale, idx, 2 * self.den)]

    def cos_sin_scaled(self, scale, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """cos_scaled and sin_scaled, both gathered from one residue array."""
        r = _residues(0, scale, idx, 2 * self.den)
        return self._cos[r], self._sin[r]


class AnchorLattice:
    """Exact node lattice t_g = origin + g*step, g >= 0: node g = q*R + r, R = LATTICE_R, has the
    phase w*t_{q*R} + w*r*step in mode w, from exact anchors and offsets shared by every window."""

    def __init__(self, origin, step):
        origin, step = to_fraction(origin), to_fraction(step)
        self.den = math.lcm(origin.denominator, step.denominator)
        self.num0 = origin.numerator * (self.den // origin.denominator)
        self.dnum = step.numerator * (self.den // step.denominator)

    def _angles(self, r0, c, n: int) -> np.ndarray:
        """pi/den times the residues (r0 + j*c) mod 2*den for j = 0..n-1 (see _residues)."""
        return (np.pi / self.den) * _residues(r0, c, np.arange(n), 2 * self.den).astype(np.float64)

    def offsets(self, scales: list[int]) -> np.ndarray:
        """B[n, r] = scales[n]*pi*r*step mod 2*pi for r < R, (modes, R), in one _residues call."""
        return self._angles(0, [s * self.dnum for s in scales], LATTICE_R)

    def anchors(self, scales: list[int], q0: int, Q: int) -> np.ndarray:
        """A[n, q] = scales[n]*pi*t_{(q0 + q)*R} mod 2*pi for q < Q, (modes, Q), in one _residues call."""
        num = self.num0 + q0 * LATTICE_R * self.dnum
        return self._angles([s * num for s in scales], [s * LATTICE_R * self.dnum for s in scales], Q)


class AffineNodes(AnchorLattice):
    """The first count nodes t_j = start + j*step of AnchorLattice(start, step) (the quadrature oracle).

    On a grid of their own, j = q*R + r with R = isqrt(count - 1) + 1 and
    Q = ceil(count / R), only the Q anchor phases scale*t_{q*R} and the R
    offset phases scale*r*step are reduced mod 2 exactly; node values follow
    by angle addition, within 4e-15 of np.sin/np.cos on the reduced angles."""

    def __init__(self, start, step, count: int):
        if count < 1:
            raise ParameterError("node count must be >= 1")
        super().__init__(start, step)
        self.count = count

    def times(self) -> np.ndarray:
        """Node positions rounded to double (for reporting only)."""
        j = np.arange(self.count, dtype=np.float64)
        return (self.num0 + j * self.dnum) / self.den

    def _anchor_offset(self, scale: int):
        """Anchor angles A[q] = scale*pi*t_{q*R} and offsets B[r] = scale*pi*r*step, exact mod 2*pi."""
        R = math.isqrt(self.count - 1) + 1
        a = self._angles(scale * self.num0, scale * R * self.dnum, -(-self.count // R))
        return a, self._angles(0, scale * self.dnum, R)

    def cos_scaled(self, scale: int) -> np.ndarray:
        """cos(scale*pi*t_j) for every node."""
        a, b = self._anchor_offset(scale)
        vals = np.multiply.outer(np.cos(a), np.cos(b))
        vals -= np.multiply.outer(np.sin(a), np.sin(b))
        return vals.reshape(-1)[: self.count]

    def sin_scaled(self, scale: int) -> np.ndarray:
        """sin(scale*pi*t_j) for every node."""
        a, b = self._anchor_offset(scale)
        vals = np.multiply.outer(np.sin(a), np.cos(b))
        vals += np.multiply.outer(np.cos(a), np.sin(b))
        return vals.reshape(-1)[: self.count]
