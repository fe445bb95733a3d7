"""Oscillation-aware adaptive Simpson quadrature.

This is the independent oracle the closed-form integrals are certified
against, so it never sees those closed forms: integrands are evaluated
mode by mode on exact rational nodes (see phase.py) and integrated with
composite Simpson rules under global bisection.

The initial partition is keyed to the highest frequency present (at least
eight nodes per oscillation, otherwise a trigonometric quadrature value is
meaningless) and the whole grid is bisected until the Richardson gap
|S(h) - S(2h)|/15 falls below the requested absolute tolerance.  For
integrands that oscillate everywhere, uniform bisection is the efficient
refinement; it also keeps every node inside one exact affine family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .phase import AffineNodes, to_fraction

__all__ = ["QuadratureResult", "integrate"]

_MAX_NODES = (1 << 22) + 1
_NODES_PER_OSCILLATION = 8


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _composite_simpson(f: np.ndarray, width: float) -> float:
    # f holds 2P+1 values on a uniform grid
    h = width / (f.size - 1)
    return (h / 3.0) * float(f[0] + f[-1] + 4.0 * np.sum(f[1:-1:2]) + 2.0 * np.sum(f[2:-1:2]))


def integrate(integrand, a, b, *, tol: float = 1e-12,
              frequency_hint: float = 1.0) -> QuadratureResult:
    """Integrate on [a, b] (exact rational endpoints) to absolute tolerance tol.

    ``integrand`` provides ``on_nodes(AffineNodes) -> ndarray``.
    ``frequency_hint`` is the highest angular frequency divided by pi (so an
    integrand built from cos(w*pi*r) passes w); the initial grid resolves
    that oscillation and bisection proceeds from there, up to _MAX_NODES nodes.
    """
    a = to_fraction(a)
    b = to_fraction(b)
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    if a > b:
        res = integrate(integrand, b, a, tol=tol, frequency_hint=frequency_hint)
        return QuadratureResult(-res.value, res.error_estimate, res.evaluations)
    if not (tol > 0):
        raise ParameterError(f"tolerance must be positive, got {tol}")

    width = float(b - a)
    cycles = 0.5 * frequency_hint * width
    need = max(8.0, (_NODES_PER_OSCILLATION / 2.0) * cycles)
    panels = 1 << max(3, math.ceil(math.log2(need)))
    if 2 * panels + 1 > _MAX_NODES:
        raise ParameterError(
            f"quadrature cannot resolve {cycles:.3g} oscillations on this interval "
            f"(needs more than {_MAX_NODES} nodes)"
        )

    evaluations = 0
    prev = None
    last_gap = math.inf
    effective_tol = tol
    while True:
        nodes = AffineNodes(a, (b - a) / (2 * panels), 2 * panels + 1)
        f = integrand.on_nodes(nodes)
        if f.shape != (2 * panels + 1,):
            raise ParameterError("integrand returned an unexpected shape")
        if not np.all(np.isfinite(f)):
            raise ParameterError("integrand returned non-finite values")
        evaluations += f.size
        if prev is None:
            # the rule cannot beat the conditioning of its own sum (or the
            # integrand's own evaluation noise): widen the target accordingly
            eps = float(np.finfo(np.float64).eps)
            floor = 16.0 * eps * width * float(np.max(np.abs(f)))
            noise = float(getattr(integrand, "value_noise", 0.0))
            floor = max(floor, 4.0 * noise * width)
            effective_tol = max(tol, floor)
        current = _composite_simpson(f, width)
        if prev is not None:
            err = (current - prev) / 15.0
            last_gap = abs(err)
            if last_gap <= effective_tol:
                return QuadratureResult(current + err, last_gap, evaluations)
        prev = current
        panels *= 2
        if 2 * panels + 1 > _MAX_NODES:
            raise ParameterError(
                f"quadrature did not reach tol={effective_tol:g} within {_MAX_NODES} nodes "
                f"(last Richardson gap {last_gap:.3g})"
            )
