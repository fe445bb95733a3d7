import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from weierpath import (
    FrequencyPair,
    ParameterError,
    Phase,
    ToleranceUnreachable,
    TruncationPolicy,
    VectorWeierstrass,
    bound_diagnostics,
    elementary_integral,
    elementary_integral_quadrature,
    iterated_integral_limit,
    iterated_integral_truncated,
    lift_truncated,
    validate_component,
)
from weierpath.iterated import (
    DEFAULT_LIMIT_CAP,
    _block_points,
    _calibrate_tail_constant,
    _grid_lift,
    _mode_classes,
    _mode_pair_gh,
    geometric_tail_bound,
    iterated_pairs,
)
from weierpath.phase import _MAX_TABLE_DEN, TrigTable, cos_pi, phase_mod2
from weierpath.quadrature import integrate
from weierpath.roughpath import _resolve_level
from weierpath.weierstrass import eval_truncated_grid


class TestElementaryIntegral:
    def test_empty_interval(self):
        p = FrequencyPair(2, 3, 4, 5)
        assert elementary_integral(p, Fraction(1, 3), Fraction(1, 3)) == 0.0

    def test_equal_frequency_case(self):
        # 2^2 = 4^1, interval [0, 1/8]: 0.5*(cos(pi/2) - 1)^2 = 1/2
        p = FrequencyPair(2, 4, 2, 1)
        assert elementary_integral(p, 0, Fraction(1, 8)) == pytest.approx(0.5, rel=1e-15)

    def test_order_rejected(self):
        p = FrequencyPair(2, 3, 1, 1)
        with pytest.raises(ParameterError, match="s <= t"):
            elementary_integral(p, Fraction(1, 2), Fraction(1, 4))

    @pytest.mark.parametrize("phase", [Phase.COSINE, Phase.SINE])
    @pytest.mark.parametrize(
        "b1,n,b2,ell,s,t",
        [
            (2, 1, 3, 1, Fraction(0), Fraction(2, 5)),
            (2, 9, 3, 6, Fraction(1, 7), Fraction(5, 7)),
            (8, 4, 3, 5, Fraction(3, 11), Fraction(7, 11)),
            (4, 3, 2, 6, Fraction(1, 64), Fraction(63, 64)),  # equal frequencies 4^3 = 2^6
            (2, 0, 2, 0, Fraction(0), Fraction(1)),
        ],
    )
    def test_certified_against_quadrature(self, phase, b1, n, b2, ell, s, t):
        p = FrequencyPair(b1, b2, n, ell)
        cf = elementary_integral(p, s, t, phase)
        q = elementary_integral_quadrature(p, s, t, phase)
        assert abs(cf - q.value) <= 1e-10 * (1 + abs(q.value))

    @given(
        n=st.integers(0, 8),
        ell=st.integers(0, 8),
        su=st.tuples(
            st.fractions(min_value=0, max_value=1, max_denominator=64),
            st.fractions(min_value=0, max_value=1, max_denominator=64),
            st.fractions(min_value=0, max_value=1, max_denominator=64),
        ),
    )
    def test_additivity_kernel(self, n, ell, su):
        # J(s,t) - J(s,u) - J(u,t) = (cos(m pi u) - cos(m pi s)) (cos(k pi t) - cos(k pi u))
        s, u, t = sorted(su)
        p = FrequencyPair(2, 3, n, ell)
        m, k = p.integrand_frequency, p.integrator_frequency
        lhs = (
            elementary_integral(p, s, t)
            - elementary_integral(p, s, u)
            - elementary_integral(p, u, t)
        )
        rhs = (cos_pi(phase_mod2(m, u)) - cos_pi(phase_mod2(m, s))) * (
            cos_pi(phase_mod2(k, t)) - cos_pi(phase_mod2(k, u))
        )
        assert abs(lhs - rhs) <= 1e-10


class TestIteratedTruncated:
    def test_level_zero_full_interval(self, comp_b2, comp_b3):
        assert iterated_integral_truncated(comp_b2, comp_b3, 0, 0, 1) == pytest.approx(2.0, rel=1e-14)

    def test_empty_interval(self, comp_b2, comp_b3):
        assert iterated_integral_truncated(comp_b2, comp_b3, 9, Fraction(1, 3), Fraction(1, 3)) == 0.0

    def test_quadrature_oracle_level_six(self, comp_b2, comp_b3):
        # direct quadrature of the truncated integrand (W1 - W1(0)) W2'
        s, t = Fraction(0), Fraction(1, 2)
        N = 6

        class Integrand:
            def on_nodes(self, nodes):
                w1 = np.zeros(nodes.count)
                w2p = np.zeros(nodes.count)
                for n in range(N + 1):
                    w1 += comp_b2.a**n * nodes.cos_scaled(comp_b2.b**n)
                    w2p += (comp_b3.a * comp_b3.b) ** n * -nodes.sin_scaled(comp_b3.b**n)
                w1_at_s = sum(comp_b2.a**n for n in range(N + 1))
                return (w1 - w1_at_s) * (math.pi * w2p)

        freq = comp_b2.b**N + comp_b3.b**N
        q = integrate(Integrand(), s, t, tol=1e-12, frequency_hint=freq)
        got = iterated_integral_truncated(comp_b2, comp_b3, N, s, t)
        assert abs(got - q.value) <= 1e-9 * (1 + abs(q.value))

    def test_incremental_shell_identity(self, comp_b2, comp_b3):
        s, t = Fraction(1, 5), Fraction(4, 5)
        for N in (3, 7):
            full = iterated_integral_truncated(comp_b2, comp_b3, N, s, t)
            prev = iterated_integral_truncated(comp_b2, comp_b3, N - 1, s, t)
            shell = []
            for ell in range(N):
                shell.append(
                    comp_b2.a**N * comp_b3.a**ell
                    * elementary_integral(FrequencyPair(2, 3, N, ell), s, t)
                )
            for n in range(N):
                shell.append(
                    comp_b2.a**n * comp_b3.a**N
                    * elementary_integral(FrequencyPair(2, 3, n, N), s, t)
                )
            shell.append(
                comp_b2.a**N * comp_b3.a**N * elementary_integral(FrequencyPair(2, 3, N, N), s, t)
            )
            assert full == pytest.approx(prev + math.fsum(shell), abs=1e-12)

    def test_symmetric_part_identity(self, comp_b2, comp_b3):
        # I(1,2) + I(2,1) = dW1 dW2 for smooth truncations (integration by parts)
        from weierpath import eval_truncated

        for (s, t) in [(Fraction(0), Fraction(1)), (Fraction(1, 3), Fraction(5, 6))]:
            N = 9
            i12 = iterated_integral_truncated(comp_b2, comp_b3, N, s, t)
            i21 = iterated_integral_truncated(comp_b3, comp_b2, N, s, t)
            d1 = eval_truncated(comp_b2, N, t) - eval_truncated(comp_b2, N, s)
            d2 = eval_truncated(comp_b3, N, t) - eval_truncated(comp_b3, N, s)
            assert i12 + i21 == pytest.approx(d1 * d2, abs=1e-10)

    def test_mixed_phase_rejected(self, comp_b2):
        sin_c = validate_component(3, a="3/5", phase="sin")
        with pytest.raises(ParameterError, match="phase"):
            iterated_integral_truncated(comp_b2, sin_c, 4, 0, 1)

    def test_sine_phase_pair(self):
        c1 = validate_component(2, a="18/25", phase="sin")
        c2 = validate_component(3, a="3/5", phase="sin")
        got = iterated_integral_truncated(c1, c2, 4, Fraction(1, 8), Fraction(3, 4))

        class Integrand:
            def on_nodes(self, nodes):
                w1 = np.zeros(nodes.count)
                w2p = np.zeros(nodes.count)
                for n in range(5):
                    w1 += c1.a**n * nodes.sin_scaled(c1.b**n)
                    w2p += (c2.a * c2.b) ** n * nodes.cos_scaled(c2.b**n)
                w1s = math.fsum(c1.a**n * math.sin(math.pi * float(phase_mod2(c1.b**n, Fraction(1, 8))))
                                for n in range(5))
                return (w1 - w1s) * (math.pi * w2p)

        q = integrate(Integrand(), Fraction(1, 8), Fraction(3, 4), tol=1e-12,
                      frequency_hint=c1.b**4 + c2.b**4)
        assert abs(got - q.value) <= 1e-10 * (1 + abs(q.value))


class TestIteratedLimit:
    def test_empty_interval(self, comp_b2, comp_b3):
        res = iterated_integral_limit(comp_b2, comp_b3, Fraction(1, 2), Fraction(1, 2), tol=1e-8)
        assert (res.value, res.n_used, res.tail_bound) == (0.0, 0, 0.0)

    def test_self_consistency_deeper_truncation(self, comp_b2, comp_b3):
        res = iterated_integral_limit(comp_b2, comp_b3, 0, 1, tol=1e-8, eps_prime=0.1)
        deeper = iterated_integral_truncated(comp_b2, comp_b3, res.n_used + 10, 0, 1)
        assert res.tail_bound <= 1e-8
        assert abs(res.value - deeper) <= 1e-8

    def test_half_interval_against_deep_closed_form(self, comp_b2, comp_b3):
        # N = 40 itself carries a certified tail, so the comparison allows it
        s, t = Fraction(0), Fraction(1, 2)
        res = iterated_integral_limit(comp_b2, comp_b3, s, t, tol=1e-6, eps_prime=0.1)
        deep = iterated_integral_truncated(comp_b2, comp_b3, 40, s, t)
        c40 = _calibrate_tail_constant(comp_b2, comp_b3, s, t, 0.1)
        allowance = geometric_tail_bound(comp_b2, comp_b3, 40, 0.1, c40)
        assert abs(res.value - deep) <= 1e-6 + allowance

    def test_level_is_the_smallest_within_tolerance(self, comp_b2, comp_b3):
        s, t = Fraction(0), Fraction(1, 2)
        res = iterated_integral_limit(comp_b2, comp_b3, s, t, tol=1e-6, eps_prime=0.1)
        c = _calibrate_tail_constant(comp_b2, comp_b3, s, t, 0.1)
        assert res.tail_bound == geometric_tail_bound(comp_b2, comp_b3, res.n_used, 0.1, c)
        assert res.tail_bound <= 1e-6
        assert geometric_tail_bound(comp_b2, comp_b3, res.n_used - 1, 0.1, c) > 1e-6

    def test_tolerance_unreachable_carries_bound(self, comp_b2, comp_b3):
        with pytest.raises(ToleranceUnreachable) as exc:
            iterated_integral_limit(comp_b2, comp_b3, 0, 1, tol=1e-30)
        assert exc.value.reachable_bound > 0
        assert exc.value.cap == 128

    def test_eps_prime_range_validated(self, comp_b2, comp_b3):
        with pytest.raises(ParameterError, match="eps_prime"):
            iterated_integral_limit(comp_b2, comp_b3, 0, 1, tol=1e-6, eps_prime=0.48)

    def test_tail_bound_decreases(self, comp_b2, comp_b3):
        b8 = geometric_tail_bound(comp_b2, comp_b3, 8, 0.1, 4.0)
        b16 = geometric_tail_bound(comp_b2, comp_b3, 16, 0.1, 4.0)
        assert 0 < b16 < b8


# A posteriori audit of the empirical tail bound: the level-N value moves by
# at most the reported bound when 15 more modes per component are added.
_AUDIT_DEPTH = 15


@st.composite
def _audit_cases(draw):
    phase = draw(st.sampled_from(["cos", "sin"]))
    comps = [validate_component(draw(st.integers(2, 9)), alpha=draw(st.floats(0.35, 0.95)),
                                phase=phase) for _ in range(2)]
    eps_prime = draw(st.floats(0.05, 0.7)) * min(c.alpha for c in comps)
    tol = 10.0 ** -draw(st.floats(3.0, 10.0))
    den = draw(st.integers(1, 1 << 22))
    s, t = sorted(Fraction(draw(st.integers(0, den)), den) for _ in range(2))
    return comps, s, t, tol, eps_prime


def _audit_gap(c1, c2, s, t, res):
    deeper = lift_truncated(VectorWeierstrass([c1, c2]), res.n_used + _AUDIT_DEPTH, s, t)
    return abs(res.value - deeper.second[0, 1])


class TestTailAudit:
    @given(case=_audit_cases())
    def test_deeper_level_within_reported_bound(self, case):
        (c1, c2), s, t, tol, eps_prime = case
        try:
            res = iterated_integral_limit(c1, c2, s, t, tol=tol, eps_prime=eps_prime)
        except ToleranceUnreachable:
            assume(False)
        assert _audit_gap(c1, c2, s, t, res) <= res.tail_bound

    @given(case=_audit_cases())
    def test_calibration_matches_per_pair_reference(self, case):
        (c1, c2), s, t, _, eps_prime = case
        want = 2.0 * max(
            abs(elementary_integral(FrequencyPair(c1.b, c2.b, n, ell), s, t, c1.phase))
            * c1.b ** (-eps_prime * n) * c2.b ** (-eps_prime * ell)
            for n in range(21) for ell in range(21)
        )
        got = _calibrate_tail_constant(c1, c2, s, t, eps_prime)
        assert abs(got - want) <= 1e-12

    def test_level_at_the_cap(self, comp_b2, comp_b3):
        s, t = Fraction(123457, 1048573), Fraction(900001, 1048573)
        constant = _calibrate_tail_constant(comp_b2, comp_b3, s, t, 0.3)
        tol = geometric_tail_bound(comp_b2, comp_b3, DEFAULT_LIMIT_CAP, 0.3, constant)
        res = iterated_integral_limit(comp_b2, comp_b3, s, t, tol=tol, eps_prime=0.3)
        assert res.n_used == DEFAULT_LIMIT_CAP
        assert _audit_gap(comp_b2, comp_b3, s, t, res) <= res.tail_bound

    @pytest.mark.parametrize("spec", [((2, "18/25"), (3, "3/5")), ((2, "18/25"),)],
                             ids=["figure", "d1"])
    def test_derived_entries_at_the_resolved_level(self, spec):
        # a tolerance calibrates only the pairs i < j; the first level moves
        # by at most eps_i = 2 a_i^(N+1)/(1 - a_i), so A_ii = X_i^2/2 moves by
        # at most eps_i (|X_i| + eps_i/2) and A_ji = X_i X_j - A_ij by at most
        # eps_ij + eps_i |X_j| + eps_j |X_i| + eps_i eps_j
        v = VectorWeierstrass([validate_component(b, a=a) for b, a in spec])
        cs = v.components
        N = _resolve_level(v, TruncationPolicy.tolerance(1e-6, 0.1))
        eps = np.array([2 * c.a ** (N + 1) / (1 - c.a) for c in cs])
        # on dyadic intervals the base-2 tail increments vanish; the last two do not
        for s, t in [(0, 1), (0, Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4)),
                     (Fraction(5, 8), Fraction(3, 4)), (Fraction(3, 40), Fraction(31, 40)),
                     (Fraction(1, 3), Fraction(5, 7))]:
            inc = lift_truncated(v, N, s, t)
            deeper = lift_truncated(v, N + _AUDIT_DEPTH, s, t)
            x = np.abs(inc.first)
            gap = np.abs(deeper.second - inc.second)
            assert np.all(np.abs(deeper.first - inc.first) <= eps)
            assert np.all(np.diag(gap) <= eps * (x + eps / 2))
            for i, j in combinations(range(v.d), 2):
                constant = _calibrate_tail_constant(cs[i], cs[j], s, t, 0.1)
                pair = geometric_tail_bound(cs[i], cs[j], N, 0.1, constant)
                assert gap[i, j] <= pair
                assert gap[j, i] <= pair + eps[i] * x[j] + eps[j] * x[i] + eps[i] * eps[j]


@pytest.mark.parametrize("b1,b2", [(2, 3), (2, 4), (3, 3)])
def test_mode_pair_gh_matches_per_entry_formula(b1, b2):
    ms = [b1**n for n in range(74)]
    ks = [b2**ell for ell in range(74)]
    G = np.array([[0.5 if m == k else (k * k) / (k * k - m * m) for k in ks] for m in ms])
    H = np.array([[0.0 if m == k else (k * m) / (k * k - m * m) for k in ks] for m in ms])
    got_g, got_h = _mode_pair_gh(b1, b2, 73)
    assert np.array_equal(got_g, G) and np.array_equal(got_h, H)


class TestGridPaths:
    def test_prefix_matches_scalar(self, comp_b2, comp_b3):
        den = 64
        idx = np.arange(den + 1, dtype=np.int64)
        v = VectorWeierstrass([comp_b2, comp_b3])
        _, upper = _grid_lift(v, [3, 6], den, idx, 0, idx)
        for N in (3, 6):
            for k in (0, 9, 40, 64):
                want = iterated_integral_truncated(comp_b2, comp_b3, N, 0, Fraction(k, den))
                assert upper[N][0, 1][k] == pytest.approx(want, abs=2e-13)

    def test_pairs_matches_scalar(self, comp_b2, comp_b3):
        den = 128
        table = TrigTable(den)
        s_idx = np.array([0, 3, 50], dtype=np.int64)
        t_idx = np.array([128, 77, 101], dtype=np.int64)
        vals = iterated_pairs(comp_b2, comp_b3, 5, table, s_idx, t_idx)
        for k in range(3):
            want = iterated_integral_truncated(
                comp_b2, comp_b3, 5, Fraction(int(s_idx[k]), den), Fraction(int(t_idx[k]), den)
            )
            assert vals[k] == pytest.approx(want, abs=2e-13)

    @pytest.mark.parametrize("N", [-1, 2.5, True])
    def test_pairs_reject_invalid_level(self, comp_b2, comp_b3, N):
        with pytest.raises(ParameterError, match="truncation level"):
            iterated_pairs(comp_b2, comp_b3, N, TrigTable(8), np.array([0]), np.array([8]))

    def test_pairs_memory_stays_bounded(self, comp_b2, comp_b3):
        # N = 60 over 2,048 intervals: the N + 1 integrator arrays need about
        # 1 MB, one array per distinct frequency k +- m over 100 MB
        den = 2048
        table = TrigTable(den)
        s_idx = np.arange(den, dtype=np.int64)
        t_idx = s_idx + 1
        tracemalloc.start()
        try:
            iterated_pairs(comp_b2, comp_b3, 60, table, s_idx, t_idx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_pairs_sine_phase(self):
        c1 = validate_component(2, a="18/25", phase="sin")
        c2 = validate_component(3, a="3/5", phase="sin")
        den = 64
        table = TrigTable(den)
        vals = iterated_pairs(c1, c2, 4, table, np.array([8]), np.array([48]))
        want = iterated_integral_truncated(c1, c2, 4, Fraction(8, den), Fraction(48, den))
        assert vals[0] == pytest.approx(want, abs=2e-13)


class TestResidueClasses:
    """_grid_lift builds one feature row per residue b^n mod 2 den and adds coefficients per class.

    Each pass is checked against the per-pair math.fsum sum at every level
    of one pass; the levels are chosen so that the classes of base 2 split
    differently per level (n >= 14 share residue 0 at den 8,192, and n >= 11
    alternate between two residues at den 3,072), and at den 1 every mode
    of base 3 has residue 1.  With equal bases, m == k (G = 1/2) occurs
    inside a merged class.
    """

    LEVELS = [5, 16, 24]

    @pytest.mark.parametrize("phase", ["cos", "sin"])
    @pytest.mark.parametrize("den", [8192, 3072, 1])
    @pytest.mark.parametrize("b1,b2", [(2, 3), (2, 4), (3, 3)])
    def test_pass_matches_per_pair_sum(self, b1, b2, den, phase):
        c1 = validate_component(b1, a="18/25", phase=phase)
        c2 = validate_component(b2, a="3/5", phase=phase)
        ends = [(0, 1)] if den == 1 else [(1, den - 1), (den // 3, den), (0, 7)]
        idx, pos = np.unique(np.array(ends), return_inverse=True)
        pos = pos.reshape(-1, 2)
        W, upper = _grid_lift(VectorWeierstrass([c1, c2]), self.LEVELS, den, idx,
                              pos[:, 0], pos[:, 1])
        table = TrigTable(den)
        for N in self.LEVELS:
            for k, (s, t) in enumerate(ends):
                want = iterated_integral_truncated(c1, c2, N, Fraction(s, den), Fraction(t, den))
                assert abs(upper[N][0, 1][k] - want) <= 1e-13
            for i, c in enumerate((c1, c2)):
                assert np.array_equal(W[N][i], eval_truncated_grid(c, N, table, idx))

    def test_classes_split_per_level(self):
        residues, cls = _mode_classes(2, 24, 2 * 3072)
        assert residues == [1 << n for n in range(13)]
        assert cls.tolist() == list(range(13)) + [11, 12] * 6
        assert [int(cls[: N + 1].max()) + 1 for N in self.LEVELS] == [6, 13, 13]
        assert _mode_classes(3, 24, 2)[0] == [1]

    def test_scalar_branch_merges_classes(self, comp_b2, comp_b3):
        # 2 den = 3 * 2^21: 2^n for n >= 21 alternates between 2^21 and 2^22
        den = 3 << 20
        assert den > _MAX_TABLE_DEN and len(_mode_classes(2, 24, 2 * den)[0]) == 23
        idx = np.array([12345, den - 999], dtype=object)
        _, upper = _grid_lift(VectorWeierstrass([comp_b2, comp_b3]), [10, 24], den, idx, [0], [1])
        for N in (10, 24):
            want = iterated_integral_truncated(comp_b2, comp_b3, N, Fraction(12345, den),
                                               Fraction(den - 999, den))
            assert abs(upper[N][0, 1][0] - want) <= 1e-13


@given(ends=st.lists(st.integers(0, 5000), min_size=1, max_size=64))
def test_block_points_are_the_unique_ends(ends):
    ends = np.array(ends, dtype=np.int64)
    pos, inv = _block_points(ends)
    want_pos, want_inv = np.unique(ends, return_inverse=True)
    assert np.array_equal(pos, want_pos) and np.array_equal(inv, want_inv)


class TestBoundDiagnostics:
    def test_level_zero_bounded_by_two(self):
        p = FrequencyPair(2, 3, 0, 0)
        sample = [(Fraction(k, 16), Fraction(k + j, 16)) for k in range(8) for j in (1, 4, 8)]
        diag = bound_diagnostics(p, sample, eps=0.2)
        assert all(abs(r[2]) <= 2.0 + 1e-12 for r in diag.rows)

    def test_lipschitz_constant_for_equal_pair(self):
        # equal bases and exponents: J = (cos difference)^2 / 2 with Lipschitz
        # constant pi per factor, so bound (i) needs at most pi^2 / 2
        p = FrequencyPair(2, 2, 3, 3)
        den = 1 << 10
        sample = []
        for j in range(10, 0, -1):
            width = 1 << (10 - j)
            for i in range(10):
                lo = (i * 97) % (den - width)
                sample.append((Fraction(lo, den), Fraction(lo + width, den)))
        diag = bound_diagnostics(p, sample, eps=0.2)
        assert diag.constants["bound_i"] <= math.pi**2 / 2 + 1e-9
        assert "bound_i" not in diag.flagged

    def test_dependent_offresonance_bounded(self):
        # b1 = 2, b2 = 4 with 2^5 != 4^1: Case-3 style flat bound
        p = FrequencyPair(2, 4, 5, 1)
        sample = [(Fraction(k, 64), Fraction(k + j, 64)) for k in range(0, 32, 3) for j in (1, 8, 32)]
        diag = bound_diagnostics(p, sample, eps=0.1)
        assert max(abs(r[2]) for r in diag.rows) <= 4.0

    def test_csv_rows_shape(self):
        p = FrequencyPair(2, 3, 1, 2)
        diag = bound_diagnostics(p, [(0, Fraction(1, 2))], eps=0.1)
        rows = diag.csv_rows()
        assert len(rows) == 1 and len(rows[0]) == 9
