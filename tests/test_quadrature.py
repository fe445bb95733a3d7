import math
from fractions import Fraction

import numpy as np
import pytest

from weierpath import ParameterError
from weierpath.phase import AffineNodes
from weierpath.quadrature import integrate


class FloatIntegrand:
    """Adapter giving plain float callables the node-family interface."""

    def __init__(self, fn):
        self._fn = fn

    def on_nodes(self, nodes: AffineNodes) -> np.ndarray:
        return np.asarray(self._fn(nodes.times()), dtype=np.float64)


class TestIntegrate:
    def test_polynomial_exact(self):
        # Simpson is exact on cubics
        res = integrate(FloatIntegrand(lambda x: x**3 - 2 * x + 1), 0, 1, tol=1e-13)
        assert res.value == pytest.approx(1 / 4 - 1 + 1, abs=1e-13)

    def test_empty_and_reversed(self):
        f = FloatIntegrand(lambda x: np.sin(x))
        assert integrate(f, Fraction(1, 3), Fraction(1, 3)).value == 0.0
        fwd = integrate(f, 0, 1, tol=1e-12)
        rev = integrate(f, 1, 0, tol=1e-12)
        assert rev.value == -fwd.value

    def test_oscillatory_closed_form(self):
        # int_0^1 sin(200 pi x) dx over [0, 3/4]: closed form available
        w = 200

        class I:
            def on_nodes(self, nodes):
                return np.sin(w * np.pi * nodes.times())

        res = integrate(I(), 0, Fraction(3, 4), tol=1e-12, frequency_hint=w)
        want = (1 - math.cos(w * math.pi * 0.75)) / (w * math.pi)
        assert res.value == pytest.approx(want, abs=1e-12)

    def test_error_estimate_reported(self):
        res = integrate(FloatIntegrand(lambda x: np.exp(x)), 0, 1, tol=1e-11)
        assert abs(res.value - (math.e - 1)) <= 1e-11
        assert res.error_estimate <= 1e-11
        assert res.evaluations > 0

    def test_unresolvable_oscillation_rejected(self):
        class I:
            def on_nodes(self, nodes):
                return np.ones(nodes.count)

        with pytest.raises(ParameterError, match="resolve"):
            integrate(I(), 0, 1, frequency_hint=1e9)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ParameterError, match="tolerance"):
            integrate(FloatIntegrand(lambda x: x), 0, 1, tol=0.0)

    def test_nonfinite_integrand_rejected(self):
        class I:
            def on_nodes(self, nodes):
                out = np.ones(nodes.count)
                out[0] = np.inf
                return out

        with pytest.raises(ParameterError, match="finite"):
            integrate(I(), 0, 1)
