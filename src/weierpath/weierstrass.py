"""Parameter validation and trustworthy evaluation of truncated Weierstrass sums.

A scalar component is W(t) = sum_n a^n trig(b^n pi t) with integer base
b >= 2, amplitude ratio a in (0,1), a*b > 1, and trig either cosine or
sine.  The Hoelder exponent alpha = -ln(a)/ln(b) and the amplitude a are
kept mutually consistent to within an ulp.  All evaluation happens on the
unit interval with exact phase reduction (see phase.py); scalar sums use
math.fsum, grid sums use Kahan compensation in fixed ascending order, and
derivatives on a node lattice are one matrix product over the modes, so
results are reproducible bit for bit on one machine.

Everything here is pure and immutable; safe for concurrent use.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError
from .phase import LATTICE_R, AnchorLattice, TrigTable, cos_pi, phase_mod2, sin_pi, unit_time

__all__ = [
    "Phase",
    "WeierstrassComponent",
    "VectorWeierstrass",
    "TruncationPolicy",
    "validate_component",
    "eval_truncated",
    "eval_derivative",
    "eval_vector",
    "eval_limit",
    "eval_truncated_grid",
    "derivative_offsets",
    "eval_derivative_affine",
]


class Phase(str, enum.Enum):
    COSINE = "cos"
    SINE = "sin"


def _coerce_phase(phase) -> Phase:
    if isinstance(phase, Phase):
        return phase
    try:
        return Phase(str(phase))
    except ValueError:
        raise ParameterError(f"phase must be 'cos' or 'sin', got {phase!r}") from None


@dataclass(frozen=True)
class WeierstrassComponent:
    """One scalar Weierstrass function: base b, amplitude a = b^(-alpha), phase."""

    b: int
    a: float
    alpha: float
    phase: Phase
    a_rational: Optional[Fraction] = None

    def trig(self, scale: int, t: Fraction) -> float:
        x = phase_mod2(scale, t)
        return cos_pi(x) if self.phase is Phase.COSINE else sin_pi(x)

    def trig_prime_factor(self, scale: int, t: Fraction) -> float:
        """d/dt trig(scale*pi*t) without the scale*pi prefactor (sign folded in)."""
        x = phase_mod2(scale, t)
        return -sin_pi(x) if self.phase is Phase.COSINE else cos_pi(x)

    def to_config(self) -> dict:
        cfg = {"b": self.b, "phase": self.phase.value}
        if self.a_rational is not None:
            cfg["a"] = f"{self.a_rational.numerator}/{self.a_rational.denominator}"
        else:
            cfg["alpha"] = self.alpha
        return cfg


def _validate_base(b) -> int:
    if isinstance(b, bool):
        raise ParameterError("base b must be an integer >= 2, got bool")
    if isinstance(b, float):
        if not b.is_integer():
            raise ParameterError(f"base b must be integral, got {b!r}")
        b = int(b)
    if not isinstance(b, int):
        raise ParameterError(f"base b must be an integer, got {type(b).__name__}")
    if b < 2:
        raise ParameterError(f"base b must satisfy b >= 2, got {b}")
    return b


def _alpha_from_amplitude(b: int, a: float) -> float:
    # nudge so that b^(-alpha) reproduces a to within one ulp
    alpha0 = -math.log(a) / math.log(b)
    best = alpha0
    best_err = abs(b ** (-alpha0) - a)
    step = math.ulp(alpha0)
    for k in range(-3, 4):
        cand = alpha0 + k * step
        err = abs(b ** (-cand) - a)
        if err < best_err:
            best, best_err = cand, err
    return best


def validate_component(b, *, a=None, alpha=None, phase=Phase.COSINE) -> WeierstrassComponent:
    """Validate parameters and build a component from either a or alpha.

    Exactly one of ``a`` (amplitude ratio, may be a Fraction, float, or
    'p/q' string) and ``alpha`` (Hoelder exponent) must be given; the other
    is derived via alpha = -ln(a)/ln(b).
    """
    b = _validate_base(b)
    phase = _coerce_phase(phase)
    if (a is None) == (alpha is None):
        raise ParameterError("give exactly one of a and alpha")
    if a is not None:
        if isinstance(a, (str, Fraction, int)):
            try:
                a_rational = Fraction(a)
            except (ValueError, ZeroDivisionError):
                raise ParameterError(f"amplitude ratio a must be a rational such as 18/25, "
                                     f"got {a!r}") from None
        else:
            a_rational = Fraction(float(a)) if math.isfinite(float(a)) else None
        if a_rational is None or not (0 < a_rational < 1 and 0 < float(a_rational) < 1):
            raise ParameterError(f"amplitude ratio a must lie in (0, 1), got {a}")
        if a_rational * b <= 1:
            raise ParameterError(f"a*b = {a_rational * b} violates a*b > 1")
        a_float = float(a_rational)
        alpha_val = _alpha_from_amplitude(b, a_float)
        return WeierstrassComponent(b=b, a=a_float, alpha=alpha_val, phase=phase, a_rational=a_rational)
    alpha = float(alpha)
    if not (0 < alpha < 1):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    a_float = b ** (-alpha)
    if a_float * b <= 1:  # cannot happen for alpha < 1, kept as a guard
        raise ParameterError(f"a*b = {a_float * b} violates a*b > 1")
    return WeierstrassComponent(b=b, a=a_float, alpha=alpha, phase=phase, a_rational=None)


def component_from_config(cfg: dict) -> WeierstrassComponent:
    known = {"b", "a", "alpha", "phase"}
    unknown = set(cfg) - known
    if unknown:
        raise ParameterError(f"unknown component config fields: {sorted(unknown)}")
    if "b" not in cfg:
        raise ParameterError("component config is missing field 'b'")
    return validate_component(
        cfg["b"], a=cfg.get("a"), alpha=cfg.get("alpha"), phase=cfg.get("phase", "cos")
    )


@dataclass(frozen=True)
class VectorWeierstrass:
    """d scalar components sharing one phase convention (all cos or all sin)."""

    components: tuple[WeierstrassComponent, ...]

    def __init__(self, components: Sequence[WeierstrassComponent]):
        components = tuple(components)
        if len(components) < 1:
            raise ParameterError("a vector Weierstrass function needs d >= 1 components")
        phases = {c.phase for c in components}
        if len(phases) > 1:
            raise ParameterError("all components must share the same phase (no sin/cos mixing)")
        object.__setattr__(self, "components", components)

    @property
    def d(self) -> int:
        return len(self.components)

    @property
    def phase(self) -> Phase:
        return self.components[0].phase

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(c.alpha for c in self.components)

    def require_lift_range(self) -> None:
        """Components entering a rough lift must have alpha > 1/3."""
        for i, c in enumerate(self.components):
            if c.alpha <= 1 / 3:
                raise ParameterError(
                    f"component {i} (b={c.b}, alpha={c.alpha:.6f}) has alpha <= 1/3; "
                    "the level-2 lift is only defined for alpha > 1/3"
                )

    def to_config(self) -> dict:
        return {"components": [c.to_config() for c in self.components]}


def vector_from_config(cfg: dict) -> VectorWeierstrass:
    if "components" not in cfg:
        raise ParameterError("config is missing field 'components'")
    return VectorWeierstrass([component_from_config(c) for c in cfg["components"]])


@dataclass(frozen=True)
class TruncationPolicy:
    """A tolerance-driven tail cut; a fixed truncation level is passed as an int instead."""

    tol: float
    eps_prime: float

    @staticmethod
    def tolerance(tol: float, eps_prime: float) -> "TruncationPolicy":
        if not (0 < tol < math.inf):
            raise ParameterError(f"tolerance must be positive and finite, got {tol}")
        if not (eps_prime > 0):
            raise ParameterError(f"eps_prime must be positive, got {eps_prime}")
        return TruncationPolicy(tol=float(tol), eps_prime=float(eps_prime))

    def check_eps_prime(self, min_alpha: float) -> None:
        # the eps_prime < min alpha constraint needs component context
        if not (self.eps_prime < min_alpha):
            raise ParameterError(
                f"eps_prime = {self.eps_prime} must be below min alpha = {min_alpha:.6f}"
            )


def _validate_level(N: int) -> int:
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool) or N < 0:
        raise ParameterError(f"truncation level N must be a nonnegative integer, got {N!r}")
    return int(N)


def _mode_sum(c: WeierstrassComponent, top: int, t: Fraction) -> float:
    """math.fsum of a^n trig(b^n pi t) over n <= top, with a^n formed by repeated products."""
    terms = []
    a_pow = 1.0
    for n in range(top + 1):
        terms.append(a_pow * c.trig(c.b**n, t))
        a_pow *= c.a
    return math.fsum(terms)


def eval_truncated(c: WeierstrassComponent, N: int, t) -> float:
    """Value of the level-N partial sum at t in [0, 1], exact phases."""
    N = _validate_level(N)
    return _mode_sum(c, N, unit_time(t))


def eval_derivative(c: WeierstrassComponent, N: int, t) -> float:
    """Termwise derivative of the level-N partial sum (the sum is smooth)."""
    N = _validate_level(N)
    t = unit_time(t)
    terms = []
    ab_pow = 1.0
    for n in range(N + 1):
        terms.append(ab_pow * c.trig_prime_factor(c.b**n, t))
        ab_pow *= c.a * c.b
    return math.pi * math.fsum(terms)


def eval_vector(v: VectorWeierstrass, N: int, t) -> np.ndarray:
    """Componentwise partial-sum values as a length-d vector."""
    return np.array([eval_truncated(c, N, t) for c in v.components])


def _geometric_tail_level(a: float, threshold: float, cap: int) -> Optional[int]:
    """Smallest n <= cap with a^(n+1)/(1 - a) below threshold, or None.

    The one first-level tail search (eval_limit, the witness tail, sweep
    levels); a^(n+1) is formed by repeated products, as the sums form theirs.
    """
    scale = 1.0 / (1.0 - a)
    a_pow = a
    for n in range(cap + 1):
        if a_pow * scale < threshold:
            return n
        a_pow *= a
    return None


def eval_limit(c: WeierstrassComponent, t) -> float:
    """Limit value of the full sum at t: the modes up to the first whose tail is below 1e-17."""
    t = unit_time(t)
    top = _geometric_tail_level(c.a, 1e-17, 200000 - 1)
    if top is None:
        raise ParameterError("tail did not fall below 1e-17 within 200000 terms")
    return _mode_sum(c, top, t)


def _kahan_update(acc: np.ndarray, comp: np.ndarray, term: np.ndarray) -> None:
    y = term - comp
    t = acc + y
    comp[...] = (t - acc) - y
    acc[...] = t


def _kahan_modes(a: float, rows, shape, levels: Sequence[int]) -> list[np.ndarray]:
    """sum_{n <= N} a^n rows[n] for each N in the sorted levels, by one Kahan pass.

    rows yields one array of the given shape per mode, summed in ascending
    n; the partial sum of level N is read after row N.  The order is fixed,
    so each partial sum is bit for bit the sum that stops at row N.
    """
    acc = np.zeros(shape, dtype=np.float64)
    comp = np.zeros_like(acc)
    sums = []
    a_pow = 1.0
    for n, vals in zip(range(levels[-1] + 1), rows):
        _kahan_update(acc, comp, a_pow * vals)
        a_pow *= a
        if n in levels:
            sums.append(acc.copy())
    return sums


def eval_truncated_grid(c: WeierstrassComponent, N: int, table: TrigTable, idx: np.ndarray) -> np.ndarray:
    """Partial sums on a dyadic-style grid idx/den, vectorized with exact phases.

    Gathers one mode at a time and sums in ascending n by _kahan_modes.
    """
    N = _validate_level(N)
    idx = np.asarray(idx, dtype=np.int64)
    trig = table.cos_scaled if c.phase is Phase.COSINE else table.sin_scaled
    return _kahan_modes(c.a, (trig(c.b**n, idx) for n in range(N + 1)), idx.shape, [N])[0]


def derivative_offsets(c: WeierstrassComponent, N: int, lattice: AnchorLattice) -> np.ndarray:
    """The 2(N+1) x R right factor of eval_derivative_affine, from the lattice offsets B of each mode:
    [w*(-cos B) ; w*(-sin B)] (cos phase) or [w*(-sin B) ; w*cos B] (sin phase), w_n = pi (ab)^n."""
    N = _validate_level(N)
    b = lattice.offsets([c.b**n for n in range(N + 1)])
    w = math.pi * (c.a * c.b) ** np.arange(N + 1, dtype=np.float64)[:, None]
    if c.phase is Phase.COSINE:
        return np.concatenate([-w * np.cos(b), -w * np.sin(b)])
    return np.concatenate([-w * np.sin(b), w * np.cos(b)])


def eval_derivative_affine(c: WeierstrassComponent, N: int, lattice: AnchorLattice, offsets: np.ndarray,
                           first: int, count: int) -> np.ndarray:
    """Derivative of the level-N partial sum at lattice nodes first .. first+count-1, by one GEMM.

    Node g = q*R + r has the angle A_nq + B_nr in mode n; by angle addition the sum over modes is
    [sin A | cos A] of the window's anchor rows times offsets = derivative_offsets(c, N, lattice)."""
    q0, r0 = divmod(first, LATTICE_R)
    # two rows at least: numpy runs one row as a GEMV, whose sums differ from GEMM's in the last bits
    a = lattice.anchors([c.b**n for n in range(N + 1)], q0, max(2, (r0 + count - 1) // LATTICE_R + 1))
    left = np.concatenate([np.sin(a), np.cos(a)]).T
    return (left @ offsets).reshape(-1)[r0 : r0 + count]
