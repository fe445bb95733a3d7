import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weierpath import (
    ParameterError,
    TrigSeries,
    TrigTerm,
    cauchy_gap,
    eval_truncated,
    iterated_integral_partial,
    iterated_integral_truncated,
    mixed_integral_table,
    validate_component,
)
from weierpath.quadrature import integrate

from conftest import affine_angles
from weierpath.trigseries import _mixed_elementary


class TestConstruction:
    def test_positive_frequencies_enforced(self):
        with pytest.raises(ParameterError, match="positive"):
            TrigSeries.from_pairs([(1.0, -2.0)])
        with pytest.raises(ParameterError, match="positive"):
            TrigTerm(1.0, 0.0)

    def test_complex_weierstrass_terms(self, comp_b2):
        s = TrigSeries.complex_weierstrass(comp_b2, 3, start=1)
        assert len(s) == 3
        assert s.terms[0].pi_multiple == 2
        assert s.terms[2].coefficient == pytest.approx(comp_b2.a**3)


class TestIteratedIntegralPartial:
    def test_single_term_closed_form(self):
        c, a = 1.5 + 0.5j, 2.0
        d, b = 0.25 - 1.0j, 3.0
        f = TrigSeries.from_pairs([(c, a)])
        g = TrigSeries.from_pairs([(d, b)])
        s, t = Fraction(1, 10), Fraction(7, 10)
        got = iterated_integral_partial(f, g, 1, s, t)
        want = c * d * b * (cmath.exp(1j * (a + b) * 0.7) - cmath.exp(1j * (a + b) * 0.1)) / (a + b)
        assert abs(got - want) <= 1e-14

    def test_empty_interval(self, comp_b2, comp_b3):
        f = TrigSeries.complex_weierstrass(comp_b2, 5)
        g = TrigSeries.complex_weierstrass(comp_b3, 5)
        assert iterated_integral_partial(f, g, 5, Fraction(1, 4), Fraction(1, 4)) == 0j

    def test_level_bounds_checked(self, comp_b2, comp_b3):
        f = TrigSeries.complex_weierstrass(comp_b2, 4)
        g = TrigSeries.complex_weierstrass(comp_b3, 6)
        with pytest.raises(ParameterError, match="N"):
            iterated_integral_partial(f, g, 5, 0, 1)

    def test_complex_weierstrass_against_quadrature(self, comp_b2, comp_b3):
        N = 6
        f = TrigSeries.complex_weierstrass(comp_b2, N, start=1)
        g = TrigSeries.complex_weierstrass(comp_b3, N, start=1)
        s, t = Fraction(0), Fraction(3, 10)
        got = iterated_integral_partial(f, g, N, s, t)

        def make(part):
            class I:
                def on_nodes(self, nodes):
                    fv = np.zeros(nodes.count, dtype=complex)
                    gp = np.zeros(nodes.count, dtype=complex)
                    for n in range(1, N + 1):
                        a1 = affine_angles(nodes, comp_b2.b**n)
                        a2 = affine_angles(nodes, comp_b3.b**n)
                        fv += comp_b2.a**n * (np.cos(a1) + 1j * np.sin(a1))
                        gp += comp_b3.a**n * (1j * comp_b3.b**n * np.pi) * (np.cos(a2) + 1j * np.sin(a2))
                    prod = fv * gp
                    return prod.real if part == "re" else prod.imag
            return I()

        freq = comp_b2.b**N + comp_b3.b**N
        qr = integrate(make("re"), s, t, tol=1e-12, frequency_hint=freq)
        qi = integrate(make("im"), s, t, tol=1e-12, frequency_hint=freq)
        want = complex(qr.value, qi.value)
        assert abs(got - want) <= 1e-9 * (1 + abs(want))

    def test_matches_iterated_module_where_they_coincide(self, comp_b2, comp_b3):
        # Re int f dg = [I_cos + F1(s) dG1] - [I_sin + F2(s) dG2] with the
        # same modes; ties the complex closed form to the real one
        N = 6
        f = TrigSeries.complex_weierstrass(comp_b2, N - 1, start=0)
        g = TrigSeries.complex_weierstrass(comp_b3, N - 1, start=0)
        s, t = Fraction(1, 8), Fraction(5, 8)
        z = iterated_integral_partial(f, g, N, s, t)
        sin1 = validate_component(comp_b2.b, a=comp_b2.a_rational, phase="sin")
        sin2 = validate_component(comp_b3.b, a=comp_b3.a_rational, phase="sin")
        i_cos = iterated_integral_truncated(comp_b2, comp_b3, N - 1, s, t)
        i_sin = iterated_integral_truncated(sin1, sin2, N - 1, s, t)
        f1_s = eval_truncated(comp_b2, N - 1, s)
        f2_s = eval_truncated(sin1, N - 1, s)
        dg1 = eval_truncated(comp_b3, N - 1, t) - eval_truncated(comp_b3, N - 1, s)
        dg2 = eval_truncated(sin2, N - 1, t) - eval_truncated(sin2, N - 1, s)
        want = (i_cos + f1_s * dg1) - (i_sin + f2_s * dg2)
        assert abs(z.real - want) <= 1e-10

    def test_order_independence_within_level(self):
        terms = [(0.3 - 0.2j, 2.5), (0.1 + 0.7j, 4.0), (-0.4 + 0.05j, 7.25)]
        f = TrigSeries.from_pairs(terms)
        g = TrigSeries.from_pairs(terms[::-1])
        a = iterated_integral_partial(f, f, 3, 0, Fraction(4, 5))
        # same multiset of term pairs, different storage order
        fr = TrigSeries.from_pairs(terms[::-1])
        b = iterated_integral_partial(fr, fr, 3, 0, Fraction(4, 5))
        assert abs(a - b) <= 1e-12


class TestCauchyGap:
    def test_zero_tail_coefficients(self):
        f = TrigSeries.from_pairs([(1.0, 1.0), (0.0, 2.0)])
        g = TrigSeries.from_pairs([(0.5, 1.5), (0.0, 3.0)])
        gap, bound = cauchy_gap(f, g, 1, 2, 0, Fraction(1, 2))
        assert gap == 0.0 and bound == 0.0

    def test_complex_weierstrass_pair(self, comp_b2, comp_b3):
        f = TrigSeries.complex_weierstrass(comp_b2, 10)
        g = TrigSeries.complex_weierstrass(comp_b3, 10)
        gap, bound = cauchy_gap(f, g, 5, 10, 0, 1)
        assert gap <= bound

    def test_geometric_coefficient_bound(self):
        # c_n = d_n = 2^-n for n = 1..N gives bound <= 2^(-M+3)
        N, M = 12, 6
        pairs = [(2.0**-n, float(n)) for n in range(1, N + 1)]
        f = TrigSeries.from_pairs(pairs)
        gap, bound = cauchy_gap(f, f, M, N, 0, Fraction(9, 10))
        assert bound <= 2.0 ** (-M + 3)
        assert gap <= bound

    def test_m_not_below_n_rejected(self, comp_b2):
        f = TrigSeries.complex_weierstrass(comp_b2, 5)
        with pytest.raises(ParameterError, match="M"):
            cauchy_gap(f, f, 5, 5, 0, 1)

    @given(
        data=st.lists(
            st.tuples(
                st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False),
                st.floats(0.01, 50.0, allow_nan=False),
            ),
            min_size=2,
            max_size=10,
        ),
        split=st.integers(1, 9),
        interval=st.tuples(
            st.fractions(min_value=0, max_value=1, max_denominator=64),
            st.fractions(min_value=0, max_value=1, max_denominator=64),
        ),
    )
    def test_gap_never_exceeds_bound(self, data, split, interval):
        pairs = [(complex(re, im), w) for (re, im, w) in data]
        f = TrigSeries.from_pairs(pairs)
        g = TrigSeries.from_pairs(pairs[::-1])
        M = min(split, len(pairs) - 1)
        s, t = sorted(interval)
        gap, bound = cauchy_gap(f, g, M, len(pairs), s, t)
        assert gap <= bound * (1 + 1e-12) + 1e-300


class TestMixedElementary:
    @pytest.mark.parametrize("kind", ["cc", "ss", "cs", "sc"])
    @pytest.mark.parametrize("m,k", [(8, 8), (8, 27), (4, 9), (16, 16)])
    def test_certified_against_quadrature(self, kind, m, k):
        s, t = Fraction(1, 5), Fraction(4, 5)
        cf = _mixed_elementary(kind, m, k, s, t)

        class I:
            def on_nodes(self, nodes):
                am, ak = affine_angles(nodes, m), affine_angles(nodes, k)
                lead = np.cos(am) if kind[0] == "c" else np.sin(am)
                dint = (k * np.pi) * (np.cos(ak) if kind[1] == "s" else -np.sin(ak))
                return lead * dint

        q = integrate(I(), s, t, tol=1e-12, frequency_hint=m + k)
        assert abs(cf - q.value) <= 1e-10 * (1 + abs(q.value))


class TestMixedTable:
    def test_pure_combination_decays_geometrically(self):
        tab = mixed_integral_table(2, 18 / 25, range(1, 17), 0, Fraction(7, 10))
        deltas = [abs(x) for x in tab.column("delta_cos_d_cos")[1:]]
        assert max(deltas[-3:]) <= 0.25 * max(deltas[:3])

    def test_sum_combination_obeys_cauchy_bound(self, comp_b2):
        # the sum combo is the imaginary part of the complex integral, so its
        # per-level deltas are bounded by the complex gap bound
        s, t = Fraction(0), Fraction(7, 10)
        tab = mixed_integral_table(2, 18 / 25, range(1, 13), s, t)
        f = TrigSeries.complex_weierstrass(comp_b2, 12)
        levels = tab.column("N")
        sums = tab.column("sum_combo")
        for i in range(1, len(levels)):
            _, bound = cauchy_gap(f, f, levels[i - 1], levels[i], s, t)
            assert abs(sums[i] - sums[i - 1]) <= bound * (1 + 1e-12)

    def test_difference_combination_does_not_decay(self):
        tab = mixed_integral_table(2, 18 / 25, range(1, 17), 0, Fraction(7, 10))
        deltas = [abs(x) for x in tab.column("delta_diff")[1:]]
        assert max(deltas[-3:]) >= 0.5 * max(deltas[:3])

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            mixed_integral_table(2, 0.5, [1, 2], 0, 1)  # a*b = 1
        with pytest.raises(ParameterError, match="levels"):
            mixed_integral_table(2, 18 / 25, [0, 1], 0, 1)

    def test_csv_rows_width(self):
        tab = mixed_integral_table(2, 18 / 25, [1, 2], 0, Fraction(1, 2))
        rows = tab.csv_rows()
        assert len(rows) == 2 and len(rows[0]) == 9
        assert rows[0][5] is None and rows[1][5] is not None
