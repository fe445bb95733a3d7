import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from weierpath import (
    ParameterError,
    ToleranceUnreachable,
    TruncationPolicy,
    VectorWeierstrass,
    area_holder_sup,
    chen_residual,
    convergence_report,
    iterated,
    levy_area,
    lift_limit,
    lift_truncated,
    polyline_signed_area,
    rough_norm,
    roughpath,
    validate_component,
)
from weierpath.iterated import (
    _BLOCK,
    DEFAULT_LIMIT_CAP,
    iterated_integral_limit,
    iterated_integral_truncated,
    iterated_pairs,
)
from weierpath.phase import _MAX_TABLE_DEN, TrigTable
from weierpath.rde import _lift_table
from weierpath.roughpath import (
    FULL_SWEEP_DEPTH,
    _ROW_CHUNK,
    _area_sups,
    _entry_terms,
    _level_tables,
    _pair_blocks,
    _resolve_level,
    _second_level_rows,
    _zero_dropped,
)
from weierpath.weierstrass import _kahan_modes, eval_truncated_grid, eval_vector


class TestLiftTruncated:
    def test_empty_interval_zeros(self, figure_pair):
        inc = lift_truncated(figure_pair, 5, Fraction(1, 3), Fraction(1, 3))
        assert np.all(inc.first == 0.0) and np.all(inc.second == 0.0)

    def test_first_level_is_vector_increment(self, figure_pair):
        s, t = Fraction(1, 7), Fraction(6, 7)
        inc = lift_truncated(figure_pair, 8, s, t)
        want = eval_vector(figure_pair, 8, t) - eval_vector(figure_pair, 8, s)
        assert np.array_equal(inc.first, want)

    def test_scalar_diagonal_is_half_square(self, comp_b2):
        v1 = VectorWeierstrass([comp_b2])
        inc = lift_truncated(v1, 8, 0, Fraction(3, 5))
        assert inc.second[0, 0] == pytest.approx(0.5 * inc.first[0] ** 2, abs=1e-10)

    def test_symmetric_part_outer_product(self, figure_pair):
        inc = lift_truncated(figure_pair, 8, 0, 1)
        sym = inc.second + inc.second.T - np.outer(inc.first, inc.first)
        assert np.abs(sym).max() <= 1e-10

    def test_increment_is_immutable(self, figure_pair):
        inc = lift_truncated(figure_pair, 3, 0, 1)
        with pytest.raises(ValueError):
            inc.first[0] = 0.0


class TestLiftLimit:
    def test_empty_interval(self, figure_pair):
        pol = TruncationPolicy.tolerance(1e-6, 0.1)
        inc = lift_limit(figure_pair, pol, Fraction(2, 5), Fraction(2, 5))
        assert np.all(inc.first == 0.0) and np.all(inc.second == 0.0)

    def test_against_deep_truncation(self, figure_pair):
        pol = TruncationPolicy.tolerance(1e-7, 0.1)
        inc = lift_limit(figure_pair, pol, 0, 1)
        deep = lift_truncated(figure_pair, 60, 0, 1)
        assert np.abs(inc.second - deep.second).max() <= 1e-6
        assert np.abs(inc.first - deep.first).max() <= 1e-9

    def test_identical_components_reduce_to_scalar_case(self, comp_b2):
        v = VectorWeierstrass([comp_b2, comp_b2])
        pol = TruncationPolicy.tolerance(1e-8, 0.1)
        inc = lift_limit(v, pol, 0, Fraction(1, 2))
        half_sq = 0.5 * inc.first[0] ** 2
        assert inc.second[0, 1] == pytest.approx(half_sq, abs=1e-8)
        assert inc.second[1, 0] == pytest.approx(half_sq, abs=1e-8)

    def test_low_exponent_rejected_by_name(self, comp_b2):
        rough = validate_component(2, alpha=0.25)
        v = VectorWeierstrass([comp_b2, rough])
        with pytest.raises(ParameterError, match="component 1"):
            lift_limit(v, TruncationPolicy.tolerance(1e-6, 0.1), 0, 1)

    def test_unreachable_tolerance_propagates(self, figure_pair):
        with pytest.raises(ToleranceUnreachable):
            lift_limit(figure_pair, TruncationPolicy.tolerance(1e-30, 0.1), 0, 1)


class TestTableBuilds:
    """Single lifts build at most one TrigTable, and only when a pair i < j needs it."""

    @pytest.fixture
    def built(self, monkeypatch):
        dens = []
        init = TrigTable.__init__

        def counting(table, den):
            dens.append(den)
            init(table, den)

        monkeypatch.setattr(TrigTable, "__init__", counting)
        return dens

    def test_one_table_serves_every_pair(self, built):
        v = VectorWeierstrass([validate_component(b, a=a) for b, a, _ in _DERIVED_DRIVERS["d3"]])
        lift_truncated(v, 6, Fraction(3, 40), Fraction(31, 40))
        assert built == [40]

    def test_no_table_without_a_pair(self, built, comp_b2):
        lift_truncated(VectorWeierstrass([comp_b2]), 6, Fraction(3, 40), Fraction(31, 40))
        assert built == []

    def test_one_table_serves_every_limit_pair(self, built):
        # the three pairs stop at different levels (72, 67 and 44 here); one
        # pass at those levels reads each entry at its own
        cs = [validate_component(b, a=a) for b, a, _ in _DERIVED_DRIVERS["d3"]]
        s, t = Fraction(3, 40), Fraction(31, 40)
        inc = lift_limit(VectorWeierstrass(cs), TruncationPolicy.tolerance(1e-6, 0.1), s, t)
        assert built == [40]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            res = iterated_integral_limit(cs[i], cs[j], s, t, tol=1e-6, eps_prime=0.1)
            assert abs(inc.second[i, j] - res.value) <= 1e-13

    def test_limit_lift_above_the_table_range(self, built, figure_pair):
        den = _MAX_TABLE_DEN + 7
        lift_limit(figure_pair, TruncationPolicy.tolerance(1e-7, 0.1),
                   Fraction(123457, den), Fraction(900001, den))
        assert built == []


# Drivers whose derived second-level entries are checked against entries
# summed independently: the figure pair, dependent bases (m == k occurs),
# equal bases, the sine phase, and d = 3.
_DERIVED_DRIVERS = {
    "figure": ((2, "18/25", "cos"), (3, "3/5", "cos")),
    "dependent": ((2, "18/25", "cos"), (8, "2/5", "cos")),
    "equal_bases": ((2, "18/25", "cos"), (2, "3/5", "cos")),
    "sine": ((2, "18/25", "sin"), (3, "3/5", "sin")),
    "sine_dependent": ((8, "2/5", "sin"), (2, "18/25", "sin")),
    "d3": ((2, "18/25", "cos"), (3, "3/5", "cos"), (8, "2/5", "cos")),
}

_LEVEL_DRIVERS = {
    "d1": ((2, "18/25"),),
    "figure": ((2, "18/25"), (3, "3/5")),
    "d3": ((2, "18/25"), (3, "3/5"), (5, "1/2")),
}


def _level_driver(name):
    return VectorWeierstrass([validate_component(b, a=a) for b, a in _LEVEL_DRIVERS[name]])


_drivers = st.sampled_from(sorted(_DERIVED_DRIVERS)).map(
    lambda name: VectorWeierstrass(
        [validate_component(b, a=a, phase=ph) for b, a, ph in _DERIVED_DRIVERS[name]]
    )
)


@st.composite
def _intervals(draw, min_den, max_den):
    den = draw(st.integers(min_den, max_den))
    ends = sorted(Fraction(draw(st.integers(0, den)), den) for _ in range(2))
    return ends[0], ends[1]


def _all_entries(v, entry):
    return np.array([[entry(ci, cj) for cj in v.components] for ci in v.components])


class TestGeometricSecondLevel:
    """Entries derived from level 1 against all d^2 entries summed on the test side."""

    @given(v=_drivers, N=st.integers(0, 8), st_pair=_intervals(1, 1024))
    def test_lift_truncated_table_path(self, v, N, st_pair):
        s, t = st_pair
        inc = lift_truncated(v, N, s, t)
        want = _all_entries(v, lambda ci, cj: iterated_integral_truncated(ci, cj, N, s, t))
        assert np.abs(inc.second - want).max() <= 1e-12

    @given(v=_drivers, N=st.integers(0, 6),
           st_pair=_intervals(_MAX_TABLE_DEN + 1, 4 * _MAX_TABLE_DEN))
    def test_lift_truncated_scalar_path(self, v, N, st_pair):
        s, t = st_pair
        assume(math.lcm(s.denominator, t.denominator) > _MAX_TABLE_DEN)
        inc = lift_truncated(v, N, s, t)
        want = _all_entries(v, lambda ci, cj: iterated_integral_truncated(ci, cj, N, s, t))
        assert np.abs(inc.second - want).max() <= 1e-12

    # the grid tables run the same kernel as iterated_pairs, so both are
    # checked against the per-pair fsum sum on sampled steps and prefixes
    @given(v=_drivers, N=st.integers(0, 10), K=st.integers(1, 64), den_factor=st.integers(1, 16))
    def test_lift_table_steps(self, v, N, K, den_factor):
        h = Fraction(1, K * den_factor)
        first, second = _lift_table(v, N, h, K)
        assert second.shape == (K, v.d, v.d)
        for k in sorted({0, K // 2, K - 1}):
            want = _all_entries(
                v, lambda ci, cj: iterated_integral_truncated(ci, cj, N, h * k, h * (k + 1))
            )
            assert np.abs(second[k] - want).max() <= 1e-12

    @given(v=_drivers, levels=st.lists(st.integers(0, 10), min_size=1, max_size=3),
           depth=st.integers(1, 8))
    def test_level_table_prefixes(self, v, levels, depth):
        idx, W, Q = _level_tables(v, levels, depth)
        den = 1 << depth
        for k in sorted({1, den // 3, den}):
            for N in set(levels):
                want = _all_entries(
                    v, lambda ci, cj: iterated_integral_truncated(ci, cj, N, 0, Fraction(k, den))
                )
                assert np.abs(Q[N][k] - want).max() <= 1e-12

    # F(t) - F(s) telescopes, so the Chen relation holds for any mode-pair
    # coefficients; these two compare the kernel with the per-pair fsum sum.
    @given(v=_drivers, N=st.integers(0, 12), den=st.integers(1, 1024), data=st.data())
    def test_pairs_on_arbitrary_intervals(self, v, N, den, data):
        d = v.d
        i, j = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
        ends = data.draw(st.lists(_intervals(den, den), min_size=1, max_size=4))
        ci, cj = v.components[i], v.components[j]
        s_idx = np.array([s.numerator * (den // s.denominator) for s, _ in ends])
        t_idx = np.array([t.numerator * (den // t.denominator) for _, t in ends])
        got = iterated_pairs(ci, cj, N, TrigTable(den), s_idx, t_idx)
        want = [iterated_integral_truncated(ci, cj, N, s, t) for s, t in ends]
        assert np.abs(got - want).max() <= 1e-12

    @settings(max_examples=20)
    @given(v=_drivers, N=st.sampled_from([0, 1, 12, 40]),
           st_pair=st.one_of(_intervals(1, 1024), _intervals(_MAX_TABLE_DEN + 1, 4 * _MAX_TABLE_DEN)))
    def test_lift_truncated_deep_levels(self, v, N, st_pair):
        s, t = st_pair
        inc = lift_truncated(v, N, s, t)
        want = _all_entries(v, lambda ci, cj: iterated_integral_truncated(ci, cj, N, s, t))
        assert np.abs(inc.second - want).max() <= 1e-12

    def test_upper_entries_keep_their_bits(self, figure_pair):
        s, t = Fraction(3, 40), Fraction(31, 40)
        inc = lift_truncated(figure_pair, 9, s, t)
        table = TrigTable(40)
        c1, c2 = figure_pair.components
        direct = iterated_pairs(c1, c2, 9, table, np.array([3]), np.array([31]))[0]
        assert inc.second[0, 1] == direct
        assert np.array_equal(np.diag(inc.second), 0.5 * inc.first * inc.first)


class TestChen:
    def test_degenerate_midpoint_exact_zero(self, figure_pair):
        for u in (Fraction(0), Fraction(1)):
            res = chen_residual(figure_pair, 10, 0, u, 1)
            assert np.all(res == 0.0)

    def test_interior_midpoint(self, figure_pair):
        res = chen_residual(figure_pair, 10, 0, Fraction(1, 3), 1)
        assert np.abs(res).max() <= 1e-10

    def test_ordering_rejected(self, figure_pair):
        with pytest.raises(ParameterError, match="s <= u <= t"):
            chen_residual(figure_pair, 5, 0, Fraction(3, 4), Fraction(1, 2))

    @given(
        triple=st.tuples(
            st.fractions(min_value=0, max_value=1, max_denominator=512),
            st.fractions(min_value=0, max_value=1, max_denominator=512),
            st.fractions(min_value=0, max_value=1, max_denominator=512),
        ),
        N=st.integers(0, 12),
    )
    def test_random_rational_triples(self, figure_pair, triple, N):
        s, u, t = sorted(triple)
        res = chen_residual(figure_pair, N, s, u, t)
        assert np.abs(res).max() <= 1e-9


class TestLevyArea:
    def test_diagonal_zero(self, figure_pair):
        inc = lift_truncated(figure_pair, 6, 0, 1)
        assert levy_area(inc, 0, 0) == 0.0

    def test_equal_components_zero(self, comp_b2):
        v = VectorWeierstrass([comp_b2, comp_b2])
        inc = lift_truncated(v, 8, 0, Fraction(2, 3))
        assert abs(levy_area(inc, 0, 1)) <= 1e-10

    def test_index_validation(self, figure_pair):
        inc = lift_truncated(figure_pair, 3, 0, 1)
        with pytest.raises(ParameterError, match="indices"):
            levy_area(inc, 0, 2)

    def test_green_stokes_shoelace_oracle(self, figure_pair, comp_b2, comp_b3):
        # antisymmetric part = closed-curve shoelace area times two
        inc = lift_truncated(figure_pair, 8, 0, 1)
        la = levy_area(inc, 0, 1)
        den = 1 << 18
        table = TrigTable(den)
        idx = np.arange(den + 1, dtype=np.int64)
        x = eval_truncated_grid(comp_b2, 8, table, idx)
        y = eval_truncated_grid(comp_b3, 8, table, idx)
        area = polyline_signed_area(x, y)
        assert abs(la - 2 * area) <= 1e-6 * (1 + abs(la))


class TestRoughNorm:
    def test_alpha_range_enforced(self, figure_pair):
        with pytest.raises(ParameterError, match="alpha"):
            rough_norm(figure_pair, 10, 0.5, 8)
        with pytest.raises(ParameterError, match="alpha"):
            rough_norm(figure_pair, 10, 0.2, 8)

    def test_depth_guard(self, figure_pair):
        with pytest.raises(ParameterError, match="depth"):
            rough_norm(figure_pair, 10, 0.46, 15)

    def test_negative_level_rejected(self, figure_pair):
        with pytest.raises(ParameterError, match="truncation level"):
            rough_norm(figure_pair, -1, 0.46, 8)

    def test_scalar_component_stability_in_level(self, comp_b2):
        v = VectorWeierstrass([comp_b2])
        e12 = rough_norm(v, 12, 0.47, 10)
        e16 = rough_norm(v, 16, 0.47, 10)
        assert 1.0 <= e12.holder_part <= 50.0
        assert abs(e16.holder_part - e12.holder_part) <= 0.2 * e12.holder_part

    def test_monotone_refinement_in_depth(self, figure_pair):
        parts = [rough_norm(figure_pair, 10, 0.46, d) for d in (4, 6, 8)]
        assert parts[0].holder_part <= parts[1].holder_part <= parts[2].holder_part
        assert parts[0].area_part <= parts[1].area_part <= parts[2].area_part

    def test_subsampled_depth_not_below_full_depth(self, figure_pair):
        full = rough_norm(figure_pair, 10, 0.46, 11)
        sub = rough_norm(figure_pair, 10, 0.46, 12)
        assert sub.area_part >= full.area_part - 1e-12
        assert "subsampled" in sub.grid_spec

    def test_invalid_alpha_growth_flagged(self, figure_pair):
        bad = rough_norm(figure_pair, 12, 0.55, 10, enforce_alpha_range=False, flag_growth=True)
        good = rough_norm(figure_pair, 12, 0.46, 10, enforce_alpha_range=False, flag_growth=True)
        assert bad.growth_flagged is True
        assert good.growth_flagged is False

    # the growth flag reads depth - 4 from every 16th point of the same tables
    @pytest.mark.parametrize("flag_growth,depths", [(False, [8]), (True, [8])])
    def test_depth_tables_built_once(self, figure_pair, monkeypatch, flag_growth, depths):
        built = []

        def counting(v, levels, depth):
            built.append(depth)
            return _level_tables(v, levels, depth)

        monkeypatch.setattr(roughpath, "_level_tables", counting)
        rough_norm(figure_pair, 6, 0.46, 8, flag_growth=flag_growth)
        assert built == depths

    def test_tolerance_policy_resolves_level(self, figure_pair):
        est = rough_norm(figure_pair, TruncationPolicy.tolerance(1e-4, 0.1), 0.46, 6)
        assert est.area_part > 0
        assert "level N=" in est.grid_spec

    # the level is the deepest of the pair levels i < j on [0, 1] and the
    # first-level levels; the diagonal pairs are not calibrated, and they had
    # set the level at 1e-10 (109) and for d = 1 (73)
    @pytest.mark.parametrize("driver,tol,level", [("figure", 1e-6, 73), ("d3", 1e-6, 75),
                                                  ("figure", 1e-10, 108), ("d1", 1e-6, 48)])
    def test_tolerance_level_of_the_figure_pair(self, driver, tol, level):
        v = _level_driver(driver)
        assert _resolve_level(v, TruncationPolicy.tolerance(tol, 0.1)) == level

    @pytest.mark.parametrize("driver,calls", [("d1", 0), ("figure", 1), ("d3", 3)])
    def test_level_calibrates_only_the_summed_pairs(self, driver, calls, monkeypatch):
        made = []
        calibrate = iterated._calibrate_tail_constant

        def counting(c1, c2, *args):
            made.append((c1, c2))
            return calibrate(c1, c2, *args)

        monkeypatch.setattr(iterated, "_calibrate_tail_constant", counting)
        v = _level_driver(driver)
        _resolve_level(v, TruncationPolicy.tolerance(1e-6, 0.1))
        assert len(made) == calls
        assert made == list(combinations(v.components, 2))

    def test_unreachable_level_raises(self, figure_pair):
        with pytest.raises(ToleranceUnreachable, match="unreachable") as exc:
            _resolve_level(figure_pair, TruncationPolicy.tolerance(1e-30, 0.1))
        assert exc.value.cap == 128 and exc.value.reachable_bound > 0
        # d = 1: the first-level tail alone passes the cap
        v = VectorWeierstrass([validate_component(2, alpha=0.01)])
        with pytest.raises(ToleranceUnreachable, match="unreachable") as exc:
            _resolve_level(v, TruncationPolicy.tolerance(1e-12, 0.005))
        assert exc.value.cap == DEFAULT_LIMIT_CAP and exc.value.reachable_bound > 1e-12

    def test_first_level_at_the_cap(self):
        c = validate_component(2, alpha=0.1)
        at_cap = 2 * c.a ** (DEFAULT_LIMIT_CAP + 1) / (1 - c.a)
        v = VectorWeierstrass([c])
        assert _resolve_level(v, TruncationPolicy.tolerance(1.000001 * at_cap, 0.05)) == DEFAULT_LIMIT_CAP
        with pytest.raises(ToleranceUnreachable) as exc:
            _resolve_level(v, TruncationPolicy.tolerance(0.999999 * at_cap, 0.05))
        assert exc.value.reachable_bound == pytest.approx(at_cap, rel=1e-12)

    def test_json_keys(self, figure_pair):
        est = rough_norm(figure_pair, 8, 0.46, 6)
        d = est.to_json_dict()
        assert set(d) >= {"holderPart", "areaPart", "alphaUsed", "gridSpec"}


class TestLevelTablesOverBlocks:
    """_level_tables at depth 12: the prefixes span four _BLOCK blocks."""

    DEPTH = 12
    LEVELS = [0, 5, 12, 30]

    @pytest.fixture(scope="class")
    def tables(self, figure_pair):
        return _level_tables(figure_pair, self.LEVELS, self.DEPTH)

    def test_first_level_keeps_the_grid_bits(self, figure_pair, tables):
        idx, W, _ = tables
        table = TrigTable(1 << self.DEPTH)
        for i, c in enumerate(figure_pair.components):
            for N in self.LEVELS:
                assert np.array_equal(W[N][i], eval_truncated_grid(c, N, table, idx))

    def test_partial_sums_equal_single_level_sums(self, comp_b3):
        rows = np.random.default_rng(7).uniform(-1, 1, (31, 257))
        sums = _kahan_modes(comp_b3.a, rows, (257,), self.LEVELS)
        for N, got in zip(self.LEVELS, sums):
            assert np.array_equal(got, _kahan_modes(comp_b3.a, rows, (257,), [N])[0])

    @pytest.mark.parametrize("k", [_BLOCK - 1, _BLOCK, 2 * _BLOCK, 1 << DEPTH])
    def test_prefixes_match_per_pair_sum(self, figure_pair, tables, k):
        _, _, Q = tables
        c1, c2 = figure_pair.components
        for N in self.LEVELS:
            want = iterated_integral_truncated(c1, c2, N, 0, Fraction(k, 1 << self.DEPTH))
            assert abs(Q[N][k, 0, 1] - want) <= 1e-12


class TestAreaHolderSup:
    def test_stability_across_levels(self, figure_pair):
        eps = 0.02
        expo = sum(c.alpha for c in figure_pair.components) - 2 * eps
        sups = area_holder_sup(figure_pair, [8, 16], eps, 8, exponent=expo)
        vals = list(sups.values())
        assert min(vals) > 0
        assert (max(vals) - min(vals)) / min(vals) < 0.25

    def test_per_entry_exponents_default(self, figure_pair):
        sups = area_holder_sup(figure_pair, [8], 0.02, 6)
        assert sups[8] > 0

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("levels", [[], [-1, 3], [2.5], [True]])
    def test_invalid_levels_rejected(self, figure_pair, d, levels):
        v = VectorWeierstrass(figure_pair.components[:d])
        with pytest.raises(ParameterError, match="level"):
            area_holder_sup(v, levels, 0.02, 4)

    def test_band_chunks_set_the_sup(self, figure_pair):
        # at exponent 1.5 the sup lies at a short separation, which only the band
        # chunks sweep: it is the brute-force max over every k <= 32 = 8 strides
        N, depth, K = 8, 13, 32
        den = 1 << depth
        got = area_holder_sup(figure_pair, [N], 0.02, depth, exponent=1.5)[N]
        tables = _level_tables(figure_pair, [N], depth)
        W, Q = tables[1][N].T, tables[2][N]
        want = 0.0
        for k in range(1, K + 1):
            s = np.arange(den + 1 - k)
            # Chen: A(s, t) = A(0, t) - A(0, s) - X(0, s) x X(s, t)
            a = Q[s + k] - Q[s] - (W[s] - W[0])[:, :, None] * (W[s + k] - W[s])[:, None, :]
            want = max(want, float(np.abs(a).max()) * (k / den) ** -1.5)
        assert got == pytest.approx(want, rel=1e-12)
        coarse = [b for b in _pair_blocks(den, depth) if not isinstance(b[0], slice)]
        terms = _entry_terms(tables, N, 2, np.full((2, 2), 1.5))
        assert got >= 1.3 * _area_sups(terms, coarse).max()


class TestPairBlocks:
    @pytest.mark.parametrize("depth", [6, FULL_SWEEP_DEPTH, FULL_SWEEP_DEPTH + 1,
                                       FULL_SWEEP_DEPTH + 2])
    def test_weighted_pairs_are_the_named_set(self, depth):
        # pairs as codes s (den + 1) + t: a dense (den + 1)^2 mask is 67 MB at depth 13,
        # where the band splits into two chunks
        den = 1 << depth
        idx = np.arange(den + 1)
        stride = 1 << max(depth - FULL_SWEEP_DEPTH, 0)
        sub = idx[::stride]
        covered = []
        for rows, cols, dt, drop in _pair_blocks(den, depth):
            # no block above the largest coarse one: the bound that keeps peak RSS level
            assert dt.size <= _ROW_CHUNK * (sub.size - 1)
            s, t = np.broadcast_arrays(idx[rows], idx[cols])
            assert s.shape == dt.shape
            weighted = _zero_dropped(dt**-0.5, drop) != 0
            s, t = s[weighted], t[weighted]
            assert np.all(s < t)
            assert np.array_equal(dt[weighted], (t - s) / den)
            covered.append(s * (den + 1) + t)
        # every s < t of the subgrid, and beyond FULL_SWEEP_DEPTH every t - s <= 8 strides
        s, t = np.triu_indices(sub.size, 1)
        named = [sub[s] * (den + 1) + sub[t]]
        if stride > 1:
            s, t = np.broadcast_arrays(idx[:, None], idx[:, None] + np.arange(1, 8 * stride + 1))
            named.append((s * (den + 1) + t)[t <= den])
        assert np.array_equal(_distinct(covered), _distinct(named))


def _distinct(codes):
    """The sorted distinct values of a list of arrays (a sort, where np.unique is far slower)."""
    codes = np.sort(np.concatenate(codes))
    return codes[np.diff(codes, prepend=-1) != 0]


def _kernel(q, wi, wj, rows, cols, shape):
    out = np.empty(shape)
    _second_level_rows(q, wi, wj, rows, cols, out,
                       np.empty((len(wi) + 2, shape[0] + 2 * shape[-1])))
    return out


class TestSecondLevelRows:
    """The rank-(r + 2) block product against q(t) - q(s) - sum_k x_k(s) (y_k(t) - y_k(s))."""

    DEPTH = FULL_SWEEP_DEPTH + 1
    DEN = 1 << DEPTH
    EPS = np.finfo(float).eps

    @classmethod
    def blocks(cls):
        """{name: (rows, cols, past_end)}; past_end marks the band's pairs with t > den."""
        coarse, *_, band = _pair_blocks(cls.DEN, cls.DEPTH)
        return {
            "rectangle": (np.arange(5, 40)[:, None], np.arange(100, 400), None),
            # the last band chunk: its separations reach past the grid end
            "band": (band[0], band[1], band[3]),
            # stride 2, with its dropped square, which follows the formula too
            "stride_subgrid": (coarse[0], coarse[1], None),
        }

    def tables(self, r, seed):
        rng = np.random.default_rng(seed)
        q, *w = rng.standard_normal((2 * r + 1, self.DEN + 1))
        return q, w[:r], w[r:]

    def scale(self, q, wi, wj):
        # a bound on every term of either form: |q|, |p| <= |q| + sum |x_k| |y_k|
        return np.abs(q).max() + sum(2 * np.abs(x).max() * np.abs(y).max() for x, y in zip(wi, wj))

    @pytest.mark.parametrize("r", [0, 1, 2])
    @pytest.mark.parametrize("block", ["rectangle", "band", "stride_subgrid"])
    def test_matches_direct_formula(self, r, block):
        q, wi, wj = self.tables(r, seed=10 * r + len(block))
        rows, cols, past_end = self.blocks()[block]
        idx = np.arange(self.DEN + 1)
        s, t = np.broadcast_arrays(idx[rows], idx[cols])
        want = q[t] - q[s] - sum((x[s] - x[0]) * (y[t] - y[s]) for x, y in zip(wi, wj))
        got = _kernel(q, wi, wj, rows, cols, s.shape)
        kept = np.ones(s.shape, dtype=bool)
        if past_end is not None:
            assert past_end.any()
            assert np.all(got[past_end] == 0)  # the zero columns past the grid end
            kept = ~past_end
        # 2(r + 2) roundings of terms at most the scale on each side
        assert np.abs(got - want)[kept].max() <= 4 * (r + 2) * self.EPS * self.scale(q, wi, wj)

    @pytest.mark.parametrize("r", [1, 2])
    def test_dropped_square_is_zero_on_the_diagonal(self, r):
        # the pairs s >= t of a coarse block follow the same formula (checked
        # above); at s = t the product cancels to roundoff before it is dropped
        q, wi, wj = self.tables(r, seed=3)
        rows, cols, _, drop = next(_pair_blocks(self.DEN, self.DEPTH))
        got = _kernel(q, wi, wj, rows, cols, drop.shape[:1] + cols.shape)
        diagonal = np.broadcast_to(rows, got.shape) == cols
        assert diagonal.sum() == drop.shape[0] - 1
        assert np.abs(got[diagonal]).max() <= 4 * (r + 2) * self.EPS * self.scale(q, wi, wj)
        assert not np.any(_zero_dropped(got, drop)[diagonal])

    @pytest.mark.parametrize("block", ["rectangle", "band", "stride_subgrid"])
    def test_folded_reference_matches_two_sweeps(self, block):
        # A_ref - A_N as one r = 2 product on the difference tables, against
        # two r = 1 products subtracted; W_N sits 1e-3 from W_ref, as a level
        # sits from its reference
        rng = np.random.default_rng(7)
        q_ref, wi_ref, wj_ref = rng.standard_normal((3, self.DEN + 1))
        q_n, wi_n, wj_n = (x + 1e-3 * rng.standard_normal(x.size) for x in (q_ref, wi_ref, wj_ref))
        rows, cols, past_end = self.blocks()[block]
        idx = np.arange(self.DEN + 1)
        shape = np.broadcast_shapes(idx[rows].shape, idx[cols].shape)
        two = (_kernel(q_ref, [wi_ref], [wj_ref], rows, cols, shape)
               - _kernel(q_n, [wi_n], [wj_n], rows, cols, shape))
        folded = _kernel(q_ref - q_n, [wi_ref, wi_ref - wi_n], [wj_ref - wj_n, wj_n],
                         rows, cols, shape)
        # the subtracted pair carries the roundoff of both full-size products
        bound = 12 * self.EPS * (self.scale(q_ref, [wi_ref], [wj_ref])
                                 + self.scale(q_n, [wi_n], [wj_n]))
        assert np.abs(folded - two).max() <= bound
        assert np.abs(two).max() > 1e3 * bound  # the distance itself is far from roundoff
        if past_end is not None:
            assert np.all(folded[past_end] == 0)


class TestConvergenceReport:
    def test_entry_sups_match_direct_lifts(self, figure_pair):
        # the buffered Chen-prefix sweep against pairwise lifts at depth 4
        report = convergence_report(figure_pair, [2, 3], depth=4, reference_offset=2)
        want = np.zeros((2, 2, 2))
        for a in range(16):
            for b in range(a + 1, 17):
                s, t = Fraction(a, 16), Fraction(b, 16)
                ref = lift_truncated(figure_pair, 5, s, t).second
                for k, N in enumerate((2, 3)):
                    diff = np.abs(ref - lift_truncated(figure_pair, N, s, t).second)
                    want[k] = np.maximum(want[k], diff)
        assert np.abs(report.sup_second_entries - want).max() <= 1e-12

    def test_requires_two_levels(self, figure_pair):
        with pytest.raises(ParameterError, match="insufficient"):
            convergence_report(figure_pair, [4])

    @pytest.mark.parametrize("Ns", [[-1, 4], [4, 6.5], [True, 4]])
    def test_invalid_levels_rejected(self, figure_pair, Ns):
        with pytest.raises(ParameterError, match="level"):
            convergence_report(figure_pair, Ns, depth=4)

    def test_scalar_first_level_rate(self, comp_b2):
        # per-step ratio over Delta N = 2 stays below a^2 with 10% margin
        v = VectorWeierstrass([comp_b2])
        rep = convergence_report(v, [2, 4, 6, 8], depth=10)
        assert rep.monotone
        for lo, hi in zip(rep.sup_first, rep.sup_first[1:]):
            assert hi / lo <= comp_b2.a**2 * 1.1

    def test_two_component_rates_and_rho(self, figure_pair):
        rep = convergence_report(figure_pair, list(range(4, 13)), depth=10, eps_prime=0.1)
        assert rep.monotone
        assert rep.rate_ok is True
        assert 0 < rep.kappa < 1
        assert 0 < rep.theoretical_rho < 1
        # measured second-level rate obeys the single-base bound implied by
        # the L-shaped tail (the region n > N alone carries b1^-alpha1)
        corrected = max(
            c.b ** (-c.alpha + rep.eps_prime) for c in figure_pair.components
        )
        assert rep.fitted_ratio_second <= corrected * 1.25
        assert rep.fitted_ratio_first <= max(c.a for c in figure_pair.components) * 1.25

    def test_parameter_validation(self, figure_pair):
        with pytest.raises(ParameterError, match="beta"):
            convergence_report(figure_pair, [4, 6], beta=0.5)
        with pytest.raises(ParameterError, match="eps_prime"):
            convergence_report(figure_pair, [4, 6], eps_prime=0.9)
        with pytest.raises(ParameterError, match="eps"):
            convergence_report(figure_pair, [4, 6], eps=0.7)

    def test_json_keys_exact(self, figure_pair):
        rep = convergence_report(figure_pair, [4, 6], depth=6)
        d = rep.to_json_dict()
        assert set(d) >= {
            "Ns", "supFirst", "supSecond", "fittedRatio", "theoreticalRho",
            "kappa", "beta", "eps", "epsPrime",
        }
        assert d["Ns"] == [4, 6]

    def test_strict_mode_accepts_valid_rate(self, figure_pair):
        rep = convergence_report(figure_pair, [4, 6, 8], depth=8, strict=True)
        assert rep.rate_ok is True

    def test_csv_rows(self, figure_pair):
        rep = convergence_report(figure_pair, [4, 6], depth=6)
        rows = rep.csv_rows()
        assert len(rows) == 2 and len(rows[0]) == 3


class TestSweepAgainstPairLifts:
    """Every grid sweep against sups taken pair by pair over lift_truncated, d = 3."""

    DEPTH = 5
    # The base-2 modes 2^n, n >= 6, are constant on the 1/32 grid.  So at N = 3
    # the reference (N = 9) differs in modes 2^4 and 2^5 and every entry of the
    # distance is nonzero, but at N = 5 the first level X_0 agrees with the
    # reference's and entry (0, 0) = X_0^2 / 2 of the distance is exactly zero.
    LEVELS = (3, 5)
    EXACT_ZERO = {(5, 0, 0)}
    EPS = 0.02

    @pytest.fixture(scope="class")
    def driver(self):
        return VectorWeierstrass([
            validate_component(2, a="18/25"),
            validate_component(3, a="3/5"),
            validate_component(5, a="1/2"),
        ])

    @pytest.fixture(scope="class")
    def pair_lifts(self, driver):
        """{N: [(t - s, first, second)]} for every grid pair s < t."""
        den = 1 << self.DEPTH
        levels = self.LEVELS + (self.LEVELS[-1] + 4,)
        out = {N: [] for N in levels}
        for a in range(den):
            for b in range(a + 1, den + 1):
                s, t = Fraction(a, den), Fraction(b, den)
                for N in levels:
                    inc = lift_truncated(driver, N, s, t)
                    out[N].append(((b - a) / den, inc.first, inc.second))
        return out

    def test_area_holder_sup_per_entry_exponents(self, driver, pair_lifts):
        alphas = np.array(driver.alphas)
        expo = alphas[:, None] + alphas[None, :] - 2 * self.EPS
        got = area_holder_sup(driver, self.LEVELS, self.EPS, self.DEPTH)
        for N in self.LEVELS:
            want = max(np.max(np.abs(a) * dt**-expo) for dt, _, a in pair_lifts[N])
            assert got[N] == pytest.approx(want, rel=1e-9)

    def test_area_holder_sup_uniform_exponent(self, driver, pair_lifts):
        got = area_holder_sup(driver, self.LEVELS, self.EPS, self.DEPTH, exponent=0.8)
        for N in self.LEVELS:
            want = max(np.max(np.abs(a)) * dt**-0.8 for dt, _, a in pair_lifts[N])
            assert got[N] == pytest.approx(want, rel=1e-9)

    def test_rough_norm_parts(self, driver, pair_lifts):
        alpha = 0.42
        for N in self.LEVELS:
            est = rough_norm(driver, N, alpha, self.DEPTH)
            holder = max(np.max(np.abs(x)) * dt**-alpha for dt, x, _ in pair_lifts[N])
            area = max(np.max(np.abs(a)) * dt ** (-2 * alpha) for dt, _, a in pair_lifts[N])
            assert est.holder_part == pytest.approx(holder, rel=1e-9)
            assert est.area_part == pytest.approx(area, rel=1e-9)

    def test_convergence_entries(self, driver, pair_lifts):
        ref = self.LEVELS[-1] + 4
        report = convergence_report(driver, list(self.LEVELS), depth=self.DEPTH,
                                    reference_offset=4)
        assert report.reference_level == ref
        # both sides of an exact zero are roundoff: each is held to 16 ulps of
        # the largest reference entry instead of to the other
        bound = 16 * np.finfo(float).eps * max(np.abs(a).max() for _, _, a in pair_lifts[ref])
        for k, N in enumerate(self.LEVELS):
            want = np.zeros((3, 3))
            for (_, _, a), (_, _, a_ref) in zip(pair_lifts[N], pair_lifts[ref]):
                want = np.maximum(want, np.abs(a_ref - a))
            got = report.sup_second_entries[k]
            zero = np.zeros((3, 3), dtype=bool)
            for n, i, j in self.EXACT_ZERO:
                zero[i, j] = n == N
            assert got[zero].max(initial=0.0) <= bound and want[zero].max(initial=0.0) <= bound
            np.testing.assert_allclose(got[~zero], want[~zero], rtol=1e-9)


class TestShoelace:
    def test_unit_square(self):
        x = np.array([0.0, 1.0, 1.0, 0.0])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        assert polyline_signed_area(x, y) == pytest.approx(1.0)
        assert polyline_signed_area(x[::-1], y[::-1]) == pytest.approx(-1.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            polyline_signed_area(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
