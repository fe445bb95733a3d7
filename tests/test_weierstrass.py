import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weierpath import (
    ParameterError,
    TruncationPolicy,
    VectorWeierstrass,
    eval_derivative,
    eval_limit,
    eval_truncated,
    eval_vector,
    validate_component,
)
from weierpath.phase import LATTICE_R, AnchorLattice, TrigTable, phase_mod2, unit_time
from weierpath.weierstrass import (
    component_from_config,
    derivative_offsets,
    eval_derivative_affine,
    eval_truncated_grid,
)


class TestValidateComponent:
    def test_figure_pair_exponents(self):
        c1 = validate_component(2, a="18/25")
        c2 = validate_component(3, a="3/5")
        assert abs(c1.alpha - 0.473931) < 1e-6
        assert abs(c2.alpha - 0.464974) < 1e-6

    def test_amplitude_exponent_consistency_within_ulp(self):
        for b, a in [(2, "18/25"), (3, "3/5"), (5, "7/10"), (2, 0.75)]:
            c = validate_component(b, a=a)
            assert abs(b ** (-c.alpha) - c.a) <= math.ulp(c.a)

    def test_alpha_input_derives_amplitude(self):
        c = validate_component(2, alpha=0.473931)
        assert abs(c.a - 2 ** (-0.473931)) <= math.ulp(c.a)

    def test_boundary_ab_equals_one_rejected(self):
        with pytest.raises(ParameterError, match="a\\*b"):
            validate_component(2, a=Fraction(1, 2))

    def test_bad_base_rejected(self):
        with pytest.raises(ParameterError, match="b"):
            validate_component(1, a="3/5")
        with pytest.raises(ParameterError, match="integral"):
            validate_component(2.5, a="3/5")

    def test_amplitude_range_rejected(self):
        # 1e400 is too large for a float and 1e-400 rounds to 0.0
        for a in ("5/4", "1e400", "1e-400", float("inf"), float("nan"), 1.0):
            with pytest.raises(ParameterError, match="a must lie"):
                validate_component(2, a=a)
        with pytest.raises(ParameterError, match="alpha"):
            validate_component(2, alpha=1.5)

    def test_exactly_one_of_a_alpha(self):
        with pytest.raises(ParameterError, match="exactly one"):
            validate_component(2, a="3/5", alpha=0.4)
        with pytest.raises(ParameterError, match="exactly one"):
            validate_component(2)

    def test_config_round_trip(self):
        c = validate_component(2, a="18/25", phase="sin")
        cfg = c.to_config()
        assert cfg == {"b": 2, "a": "18/25", "phase": "sin"}
        c2 = component_from_config(cfg)
        assert c2 == c


class TestVectorWeierstrass:
    def test_mixed_phases_rejected(self):
        c1 = validate_component(2, a="18/25", phase="cos")
        c2 = validate_component(3, a="3/5", phase="sin")
        with pytest.raises(ParameterError, match="phase"):
            VectorWeierstrass([c1, c2])

    def test_empty_rejected(self):
        with pytest.raises(ParameterError, match="d >= 1"):
            VectorWeierstrass([])

    def test_lift_range_names_offender(self):
        ok = validate_component(2, a="18/25")
        bad = validate_component(2, alpha=0.2)
        v = VectorWeierstrass([ok, bad])
        with pytest.raises(ParameterError, match="component 1"):
            v.require_lift_range()


class TestTruncationPolicy:
    def test_tolerance_validation(self):
        pol = TruncationPolicy.tolerance(1e-6, 0.1)
        pol.check_eps_prime(0.46)
        with pytest.raises(ParameterError, match="eps_prime"):
            pol.check_eps_prime(0.05)
        for tol in (-1.0, 0.0, float("inf"), float("nan")):
            with pytest.raises(ParameterError, match=f"must be positive and finite, got {tol}"):
                TruncationPolicy.tolerance(tol, 0.1)


class TestEvalTruncated:
    def test_single_term_at_zero(self, comp_b2):
        assert eval_truncated(comp_b2, 0, 0) == 1.0

    def test_limit_at_zero_is_geometric_sum(self, comp_b2):
        assert eval_limit(comp_b2, 0) == pytest.approx(25 / 7, rel=1e-15)

    def test_limit_b3_at_one(self, comp_b3):
        # cos(3^n pi) = -1 for every n since 3^n is odd
        assert eval_limit(comp_b3, 1) == pytest.approx(-5 / 2, rel=1e-15)

    def test_b2_at_one(self, comp_b2):
        assert eval_truncated(comp_b2, 0, 1) == -1.0
        assert eval_limit(comp_b2, 1) == pytest.approx(11 / 7, rel=1e-15)

    def test_outside_unit_interval_rejected(self, comp_b2):
        with pytest.raises(ParameterError, match="interval"):
            eval_truncated(comp_b2, 3, Fraction(5, 4))
        with pytest.raises(ParameterError, match="interval"):
            eval_truncated(comp_b2, 3, -0.25)

    def test_float_time_matches_fraction_time(self, comp_b2):
        t = 0.37
        assert eval_truncated(comp_b2, 25, t) == eval_truncated(comp_b2, 25, Fraction(t))

    def test_deep_truncation_against_mpmath(self, comp_b2, comp_b3):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 45
        t = Fraction(0.37)
        v = VectorWeierstrass([comp_b2, comp_b3])
        got = eval_vector(v, 25, 0.37)
        for c, g in zip(v.components, got):
            ref = mpmath.mpf(0)
            for n in range(26):
                arg = mpmath.mpf(c.b) ** n * mpmath.pi * mpmath.mpf(t.numerator) / t.denominator
                ref += mpmath.mpf(c.a) ** n * mpmath.cos(arg)
            assert abs(g - float(ref)) <= 1e-12

    def test_vector_matches_components(self, figure_pair):
        t = Fraction(3, 7)
        got = eval_vector(figure_pair, 6, t)
        for c, g in zip(figure_pair.components, got):
            assert g == eval_truncated(c, 6, t)

    def test_vector_at_zero(self, figure_pair):
        assert np.array_equal(eval_vector(figure_pair, 0, 0), np.array([1.0, 1.0]))


class TestEvalDerivative:
    def test_zero_at_origin(self, comp_b2):
        assert eval_derivative(comp_b2, 0, 0) == 0.0

    def test_exact_half_point(self, comp_b2):
        # -pi (sin(pi/2) + a*2*sin(pi)) = -pi
        assert eval_derivative(comp_b2, 1, Fraction(1, 2)) == pytest.approx(-math.pi, rel=1e-15)

    def test_finite_difference_oracle(self, comp_b3):
        t = 0.3
        h = 1e-6
        fd = (eval_truncated(comp_b3, 3, t + h) - eval_truncated(comp_b3, 3, t - h)) / (2 * h)
        d = eval_derivative(comp_b3, 3, t)
        assert abs(d - fd) <= 1e-7 * max(1.0, abs(d))

    def test_finite_difference_order_two(self, comp_b2):
        t = Fraction(2, 5)
        d = eval_derivative(comp_b2, 4, t)
        errs = []
        for h in (1e-3, 5e-4):
            fd = (eval_truncated(comp_b2, 4, t + Fraction(h)) -
                  eval_truncated(comp_b2, 4, t - Fraction(h))) / (2 * h)
            errs.append(abs(fd - d))
        assert errs[1] <= errs[0] / 3.0  # ~4x for O(h^2)

    def test_sine_phase_derivative(self):
        c = validate_component(2, a="18/25", phase="sin")
        assert eval_derivative(c, 0, 0) == pytest.approx(math.pi, rel=1e-15)


rational_times = st.fractions(min_value=0, max_value=1, max_denominator=1 << 12)


class TestInvariants:
    @given(t=rational_times, N=st.integers(0, 24))
    def test_uniform_bound(self, comp_b2, t, N):
        assert abs(eval_truncated(comp_b2, N, t)) <= 1 / (1 - comp_b2.a) + 1e-12

    @given(t=rational_times, N=st.integers(0, 20), M=st.integers(0, 20))
    def test_geometric_tail_bound(self, comp_b3, t, N, M):
        gap = abs(eval_truncated(comp_b3, N, t) - eval_truncated(comp_b3, M, t))
        lo = min(N, M)
        assert gap <= 2 * comp_b3.a ** (lo + 1) / (1 - comp_b3.a) + 1e-12

    @given(t=rational_times, N=st.integers(0, 16))
    def test_reflection_symmetry(self, comp_b2, t, N):
        # cosine phases reduce 2 - t to t exactly, so the values agree
        mirrored = 2 - t
        for n in range(N + 1):
            assert phase_mod2(comp_b2.b**n, mirrored) in (
                phase_mod2(comp_b2.b**n, t),
                2 - phase_mod2(comp_b2.b**n, t),
            )
        direct = eval_truncated(comp_b2, N, t)
        via_reduction = math.fsum(
            comp_b2.a**n * math.cos(math.pi * float(phase_mod2(comp_b2.b**n, mirrored)))
            for n in range(N + 1)
        )
        assert direct == pytest.approx(via_reduction, abs=1e-12)

    def test_holder_constant_stable_in_level(self, comp_b2):
        def constant(N):
            den = 1 << 8
            table = TrigTable(den)
            idx = np.arange(den + 1, dtype=np.int64)
            vals = eval_truncated_grid(comp_b2, N, table, idx)
            best = 0.0
            for gap in (1, 2, 4, 8, 16):
                dt = gap / den
                best = max(best, float(np.max(np.abs(vals[gap:] - vals[:-gap]))) / dt**comp_b2.alpha)
            return best

        c12, c16 = constant(12), constant(16)
        assert abs(c16 - c12) <= 0.2 * c12

    def test_grid_matches_scalar(self, comp_b3):
        den = 64
        table = TrigTable(den)
        idx = np.arange(den + 1, dtype=np.int64)
        vals = eval_truncated_grid(comp_b3, 9, table, idx)
        for k in (0, 17, 40, 64):
            assert vals[k] == pytest.approx(eval_truncated(comp_b3, 9, Fraction(k, den)), abs=5e-15)


# counts 1, k^2 and k^2 + 1 up to 145; with the firsts below, windows stay in one anchor row or cross one
_node_counts = st.integers(1, 12).flatmap(lambda k: st.sampled_from([1, k * k, k * k + 1]))
# the window's first lattice node: on the origin, or off an anchor in one of the first rows
_firsts = st.one_of(st.just(0), st.integers(1, 3 * LATTICE_R))


@st.composite
def _affine_families(draw, big_den):
    """(start, step, count) with every node in [0, 1]; big_den makes 2*den > 2^61."""
    count = draw(_node_counts)
    if big_den:  # a numerator prime to 3 keeps the denominator 3^39
        start = Fraction(3 * draw(st.integers(0, 3**38 // 2)) + 1, 3**39)
    else:
        start_den = draw(st.integers(1, 1 << 30))
        start = Fraction(draw(st.integers(0, start_den // 2)), start_den)
    step_den = draw(st.integers(2 * count, 1 << 30))
    step = Fraction(draw(st.integers(1, step_den // (2 * count))), step_den)
    return start, step, count


class TestEvalDerivativeAffine:
    """The lattice GEMM over modes against math.fsum of exact scalar terms at Fraction node times."""

    TOL = 1e-14

    def _check(self, c, N, start, step, count, first):
        # lattice node `first` is the family's start: the origin when first = 0
        lattice = AnchorLattice(start - first * step, step)
        got = eval_derivative_affine(c, N, lattice, derivative_offsets(c, N, lattice), first, count)
        ref = np.array([eval_derivative(c, N, start + j * step) for j in range(count)])
        assert got.shape == (count,)
        # relative to max|W'| over the nodes, floored at the top mode's amplitude
        # so that a lone node near a zero of W' does not shrink the scale
        scale = max(float(np.max(np.abs(ref))), math.pi * (c.a * c.b) ** N)
        assert np.max(np.abs(got - ref)) <= self.TOL * scale

    @given(b=st.integers(2, 9), alpha=st.floats(0.3, 0.7), phase=st.sampled_from(["cos", "sin"]),
           N=st.integers(0, 20), family=_affine_families(big_den=False), first=_firsts)
    def test_matches_scalar_derivative(self, b, alpha, phase, N, family, first):
        self._check(validate_component(b, alpha=alpha, phase=phase), N, *family, first)

    @given(b=st.integers(2, 9), alpha=st.floats(0.3, 0.7), phase=st.sampled_from(["cos", "sin"]),
           N=st.integers(0, 20), family=_affine_families(big_den=True), first=_firsts)
    def test_big_denominator_family(self, b, alpha, phase, N, family, first):
        start, step, count = family
        assert 2 * AnchorLattice(start, step).den > 1 << 61
        self._check(validate_component(b, alpha=alpha, phase=phase), N, *family, first)

    @pytest.mark.parametrize("block", [0, 5, 1023])
    @pytest.mark.parametrize("phase", ["cos", "sin"])
    def test_block_values_do_not_depend_on_the_window(self, figure_pair, block, phase):
        # the figure-3 ODE's 8,192-step blocks at N = 12: 16,385 stage times of the half step 2^-24
        lattice = AnchorLattice(0, Fraction(1, 1 << 24))
        first, count = 16384 * block, 16385
        for comp in figure_pair.components:
            c = validate_component(comp.b, a=comp.a_rational, phase=phase)
            offsets = derivative_offsets(c, 12, lattice)
            one = eval_derivative_affine(c, 12, lattice, offsets, first, count)
            for cut in (1, 2, LATTICE_R, 5000, 16384):
                head = eval_derivative_affine(c, 12, lattice, offsets, first, cut)
                tail = eval_derivative_affine(c, 12, lattice, offsets, first + cut, count - cut)
                assert np.array_equal(np.concatenate([head, tail]), one)
            for lead in (1, 37, 127):
                # first - lead is off an anchor (not a multiple of LATTICE_R) when block > 0
                wide = eval_derivative_affine(c, 12, lattice, offsets, max(first - lead, 0), count + lead)
                assert np.array_equal(wide[-count:] if block else wide[:count], one)


class TestPhaseReduction:
    def test_mod2_huge_scale(self):
        t = Fraction(3, 7)
        r = phase_mod2(3**200, t)
        assert 0 <= r < 2
        assert (3**200 * 3 - r.numerator * (7 // r.denominator)) % 14 in (0, 14)

    def test_unit_time_parsing(self):
        assert unit_time("3/4") == Fraction(3, 4)
        assert unit_time(0.5) == Fraction(1, 2)
        with pytest.raises(ParameterError):
            unit_time("7/4")
