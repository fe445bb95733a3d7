"""AffineNodes trig values: angle addition over exactly reduced anchors and offsets."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weierpath.phase import AffineNodes, cos_pi, phase_mod2, sin_pi

TOL = 4e-15


def _scalar_reference(nodes: AffineNodes, start: Fraction, step: Fraction, scale: int):
    """Per-node values from the scalar Fraction path, which shares no code with AffineNodes."""
    phases = [phase_mod2(scale, start + j * step) for j in range(nodes.count)]
    return np.array([sin_pi(x) for x in phases]), np.array([cos_pi(x) for x in phases])


@given(
    start_num=st.integers(0, 10**6),
    start_den=st.integers(1, 1 << 30),
    step_num=st.integers(1, 10**4),
    step_den=st.integers(1, 1 << 30),
    count=st.integers(1, 700),
    scale=st.one_of(
        st.integers(0, 73).map(lambda n: 3**n),
        st.integers(0, 115).map(lambda n: 2**n),
        st.integers(1, 3**73),
    ),
)
def test_matches_libm_on_reduced_angles(start_num, start_den, step_num, step_den, count, scale):
    nodes = AffineNodes(Fraction(start_num, start_den), Fraction(step_num, step_den), count)
    ang = nodes.angles(scale)
    s, c = nodes.sin_scaled(scale), nodes.cos_scaled(scale)
    assert s.shape == c.shape == (count,)
    assert np.max(np.abs(s - np.sin(ang))) <= TOL
    assert np.max(np.abs(c - np.cos(ang))) <= TOL


@pytest.mark.parametrize("count", [1, 2, 16, 17, 121, 122])
@pytest.mark.parametrize("scale", [1, 3**12, 2**40, 3**73])
def test_square_edges_match_scalar_path(count, scale):
    # count = 1, k^2 and k^2 + 1 fill the (Q, R) grid exactly or leave one node in a new row
    start, step = Fraction(5, 997), Fraction(1, 2**14)
    nodes = AffineNodes(start, step, count)
    ref_sin, ref_cos = _scalar_reference(nodes, start, step, scale)
    assert np.max(np.abs(nodes.sin_scaled(scale) - ref_sin)) <= TOL
    assert np.max(np.abs(nodes.cos_scaled(scale) - ref_cos)) <= TOL


@pytest.mark.parametrize("count", [1, 49, 50])
def test_big_denominator_fallback(count):
    start, step = Fraction(1, 3**40), Fraction(7, 2**30)
    nodes = AffineNodes(start, step, count)
    assert 2 * nodes.den > 1 << 61
    for scale in (3**5, 3**41, 2**31 * 3**40 + 1):
        ref_sin, ref_cos = _scalar_reference(nodes, start, step, scale)
        ang = nodes.angles(scale)
        assert np.max(np.abs(nodes.sin_scaled(scale) - ref_sin)) <= TOL
        assert np.max(np.abs(nodes.cos_scaled(scale) - ref_cos)) <= TOL
        assert np.max(np.abs(nodes.sin_scaled(scale) - np.sin(ang))) <= TOL
