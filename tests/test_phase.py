"""The exact residue reducer, and the table, affine and lattice trig values built on it."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weierpath.phase import (LATTICE_R, AffineNodes, AnchorLattice, TrigTable, _residues, cos_pi, phase_mod2,
                             sin_pi)

from conftest import affine_angles

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
    ang = affine_angles(nodes, scale)
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
        ang = affine_angles(nodes, scale)
        assert np.max(np.abs(nodes.sin_scaled(scale) - ref_sin)) <= TOL
        assert np.max(np.abs(nodes.cos_scaled(scale) - ref_cos)) <= TOL
        assert np.max(np.abs(nodes.sin_scaled(scale) - np.sin(ang))) <= TOL


# moduli near the int64 limits of _residues and beyond, and table sizes
_TWO_DEN = st.one_of(
    st.integers(1, 1 << 21),
    st.tuples(st.sampled_from([61, 62, 63, 64, 100]), st.integers(-(1 << 20), 1 << 20)).map(
        lambda eo: (1 << eo[0]) + eo[1]
    ),
)
# small values keep the int64 branch reachable at every modulus; large ones
# of both signs need the reduction before any arithmetic
_INT = st.one_of(st.integers(0, 1 << 10), st.integers(-(1 << 200), 1 << 200))
_J = st.lists(st.integers(0, 1 << 22), max_size=12).map(lambda j: np.array(j, dtype=np.int64))


def _expected(r0, c, j, two_den):
    return [(r0 + int(k) * c) % two_den for k in j]


@given(two_den=_TWO_DEN, r0=_INT, c=_INT, j=_J)
def test_residues_match_python_ints(two_den, r0, c, j):
    got = _residues(r0, c, j, two_den)
    assert got.shape == j.shape
    assert got.dtype == (object if two_den > 1 << 63 else np.int64)
    assert [int(x) for x in got] == _expected(r0, c, j, two_den)


@given(two_den=_TWO_DEN, rows=st.lists(st.tuples(_INT, _INT), min_size=1, max_size=4), j=_J)
def test_residues_rows_match_python_ints(two_den, rows, j):
    got = _residues([r for r, _ in rows], [c for _, c in rows], j, two_den)
    assert got.shape == (len(rows),) + j.shape
    for row, (r0, c) in zip(got, rows):
        assert [int(x) for x in row] == _expected(r0, c, j, two_den)
    # a scalar offset is shared by every row
    got = _residues(0, [c for _, c in rows], j, two_den)
    for row, (_, c) in zip(got, rows):
        assert [int(x) for x in row] == _expected(0, c, j, two_den)


@pytest.mark.parametrize("two_den,r0,c,j", [
    # max r0 + max j * max c is 2^63 - 1 (int64) and 2^63 (Python ints)
    ((1 << 62) - 1, 1 << 61, (1 << 61) - 1, [0, 4]),
    ((1 << 62) - 1, (1 << 61) + 3, (1 << 61) - 1, [0, 4]),
    # j * c between 2^63 and 2^64 would wrap in int64
    ((1 << 61) + 1, 5, 1 << 61, [0, 1, 4, 7]),
    # moduli at and above 2^62 with small operands
    (1 << 62, 3, 2, [0, 1, 2]),
    ((1 << 63) + 5, 3, 2, [0, 1, 2]),
    ((1 << 64) + 5, (1 << 64) + 4, (1 << 63) + 9, [0, 1, 2]),
])
def test_residues_at_the_int64_limits(two_den, r0, c, j):
    j = np.array(j, dtype=np.int64)
    assert [int(x) for x in _residues(r0, c, j, two_den)] == _expected(r0, c, j, two_den)
    assert [int(x) for x in _residues([r0], [c], j, two_den)[0]] == _expected(r0, c, j, two_den)


_SCALES = [1, 3, 2**40, 3**12, 3**73, 2**31 * 3**40 + 1]


@pytest.mark.parametrize("origin,step,q0", [
    (Fraction(5, 997), Fraction(1, 2**14), 3),
    (Fraction(1, 3**40), Fraction(7, 2**30), 0),
    (Fraction(-2, 3**40), Fraction(7, 2**30), 1),
])
def test_lattice_rows_equal_single_scales(origin, step, q0):
    lattice, Q, R = AnchorLattice(origin, step), 5, LATTICE_R
    a, b = lattice.anchors(_SCALES, q0, Q), lattice.offsets(_SCALES)
    assert a.shape == (len(_SCALES), Q) and b.shape == (len(_SCALES), R)
    num = lattice.num0 + q0 * R * lattice.dnum
    for n, scale in enumerate(_SCALES):
        # each row is the single-scale reduction, and within TOL of the scalar Fraction path
        assert np.array_equal(a[n], lattice._angles(scale * num, scale * R * lattice.dnum, Q))
        assert np.array_equal(b[n], lattice._angles(0, scale * lattice.dnum, R))
        ref = [phase_mod2(scale, origin + (q0 + q) * R * step) for q in range(Q)]
        assert np.max(np.abs(np.cos(a[n]) - [cos_pi(x) for x in ref])) <= TOL
        ref = [phase_mod2(scale, r * step) for r in range(R)]
        assert np.max(np.abs(np.sin(b[n]) - [sin_pi(x) for x in ref])) <= TOL


@pytest.mark.parametrize("den", [1, 40, 1 << 20])
def test_table_rows_equal_single_scales(den):
    table = TrigTable(den)
    idx = np.array([0, 1, 7, den - 1, den, 3 * den, 1 << 43], dtype=np.int64)
    cos_rows, sin_rows = table.cos_scaled(_SCALES, idx), table.sin_scaled(_SCALES, idx)
    both = table.cos_sin_scaled(_SCALES, idx)
    assert np.array_equal(both[0], cos_rows) and np.array_equal(both[1], sin_rows)
    for n, scale in enumerate(_SCALES):
        assert np.array_equal(cos_rows[n], table.cos_scaled(scale, idx))
        assert np.array_equal(sin_rows[n], table.sin_scaled(scale, idx))
        ref = [phase_mod2(scale, Fraction(int(k), den)) for k in idx]
        assert np.max(np.abs(cos_rows[n] - [cos_pi(x) for x in ref])) <= TOL
        assert np.max(np.abs(sin_rows[n] - [sin_pi(x) for x in ref])) <= TOL
