"""Perturbation bound for the mean when the generator is replaced."""

import itertools
import math

import numpy as np
import pytest

from regmeans import (
    Generator,
    Interval,
    InvalidParameterError,
    NumericError,
    blend_distances,
    invert,
    mean,
    normalize_increasing,
    parse_generator,
    theorem4_bound,
    verify_stability,
)
from regmeans import stability
from regmeans.means import means_from_sums, row_means

B = Interval(1.0, 2.0)
TS = (0.0, 0.25, 0.5, 0.75, 1.0)


class TestBound:
    def test_identity_vs_log_constant(self):
        # L = 1/min g' = 1, m = min(1, 1/2) -> constant 3; sup|x - ln x| at 2
        bound = theorem4_bound(parse_generator("identity"), parse_generator("log"), B)
        assert bound == pytest.approx(3.0 * (2.0 - math.log(2.0)), rel=1e-9)

    def test_identical_generators_give_zero(self):
        g = parse_generator("log")
        assert theorem4_bound(g, g, B) == 0.0

    def test_constant_is_asymmetric(self):
        # swapping g and h changes L (it tracks g only), not m
        g, h = parse_generator("identity"), parse_generator("power:3.0")
        d = 2.0 ** 3 - 2.0  # sup|x^3 - x| on [1,2]
        assert theorem4_bound(g, h, B) == pytest.approx(2.0 * d, rel=1e-6)
        assert theorem4_bound(h, g, B) == pytest.approx((1.0 / 3.0 + 1.0) * d, rel=1e-6)

    def test_decreasing_generator_normalized_first(self):
        # reciprocal is flipped to -1/x before distances are measured
        bound = theorem4_bound(parse_generator("reciprocal"), parse_generator("log"), B)
        d = math.log(2.0) + 0.5  # sup|-1/x - ln x| on [1,2], attained at 2
        assert bound == pytest.approx(8.0 * d, rel=1e-6)


class TestVerifyStability:
    def test_identity_vs_log_certificate(self):
        rep = verify_stability(parse_generator("identity"), parse_generator("log"),
                               B, n=2, grid_per_dim=101)
        assert rep.satisfied
        # worst pair is the extreme corner: AM - GM at (1, 2)
        assert rep.sup_mean_distance == pytest.approx(1.5 - math.sqrt(2.0), rel=1e-9)
        assert rep.sup_mean_distance <= rep.bound
        assert rep.bound == pytest.approx(3.0 * (2.0 - math.log(2.0)), rel=1e-9)

    def test_report_dict_round_trip(self):
        rep = verify_stability(parse_generator("log"), parse_generator("reciprocal"),
                               B, n=2, grid_per_dim=41)
        d = rep.as_dict()
        assert d["satisfied"] is True
        assert d["g_name"] == "log"
        assert d["n"] == 2
        assert d["box"] == [1.0, 2.0]

    def test_same_generator_trivially_tight(self):
        g = parse_generator("power:2.0")
        rep = verify_stability(g, g, B, n=3, grid_per_dim=21)
        assert rep.sup_mean_distance == 0.0 and rep.bound == 0.0 and rep.satisfied

    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_grids_small(self, n):
        rep = verify_stability(parse_generator("identity"), parse_generator("exp"),
                               B, n=n, grid_per_dim=21)
        assert rep.satisfied
        assert rep.n == n

    def test_large_n_uses_sampling(self):
        rep = verify_stability(parse_generator("identity"), parse_generator("log"),
                               B, n=7, grid_per_dim=51, samples=20_000)
        assert rep.satisfied
        # AM - GM on [1,2]^n is maximized at vertices; over all vertex mixes
        # the gap never exceeds max_t (2 - t - 2^(1-t)) ~ 0.08607
        assert 0.0 < rep.sup_mean_distance < 0.0861

    def test_sampling_is_seeded(self):
        kw = dict(n=5, grid_per_dim=31, samples=5_000)
        a = verify_stability(parse_generator("identity"), parse_generator("log"), B, **kw)
        b = verify_stability(parse_generator("identity"), parse_generator("log"), B, **kw)
        assert a.sup_mean_distance == b.sup_mean_distance

    def test_validation(self):
        g, h = parse_generator("identity"), parse_generator("log")
        with pytest.raises(InvalidParameterError):
            verify_stability(g, h, B, n=0)
        with pytest.raises(InvalidParameterError):
            verify_stability(g, h, B, n=2, grid_per_dim=1)

    def test_single_point_vectors_cannot_differ(self):
        # every quasi-arithmetic mean is the identity at n = 1
        rep = verify_stability(parse_generator("identity"), parse_generator("exp"),
                               B, n=1, grid_per_dim=31)
        assert rep.sup_mean_distance == pytest.approx(0.0, abs=1e-12)


class TestBlendDistances:
    def test_endpoints(self):
        dists = blend_distances(parse_generator("identity"), parse_generator("log"),
                                B, n=2, ts=(0.0, 1.0), grid_per_dim=41)
        assert dists[0] == 0.0
        assert dists[1] == pytest.approx(1.5 - math.sqrt(2.0), rel=1e-6)

    def test_monotone_along_the_homotopy(self):
        dists = blend_distances(parse_generator("identity"), parse_generator("log"),
                                B, n=2, ts=(0.0, 0.25, 0.5, 0.75, 1.0),
                                grid_per_dim=41)
        assert all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))

    def test_midpoint_blend_is_a_genuine_mean(self):
        # the blended mean must still sit between min and max (internality)
        dists = blend_distances(parse_generator("identity"), parse_generator("exp"),
                                B, n=2, ts=(0.5,), grid_per_dim=31)
        max_possible = B.width  # means live in [1,2], so distances must too
        assert 0.0 <= dists[0] <= max_possible

    def test_ts_validated(self):
        with pytest.raises(InvalidParameterError):
            blend_distances(parse_generator("identity"), parse_generator("log"),
                            B, n=2, ts=(0.0, 1.5), grid_per_dim=21)


class TestAgainstDirectMeans:
    def test_sup_distance_matches_brute_force(self):
        g, h = parse_generator("identity"), parse_generator("reciprocal")
        pts = np.linspace(1.0, 2.0, 21)
        worst = 0.0
        for i, a in enumerate(pts):
            for b in pts[i:]:
                worst = max(worst, abs(mean(g, (a, b)) - mean(h, (a, b))))
        rep = verify_stability(g, h, B, n=2, grid_per_dim=21)
        assert rep.sup_mean_distance == pytest.approx(worst, rel=1e-10)


class TestOverflow:
    """Overflow must surface as NumericError, never as a RuntimeWarning (an
    error under the suite's filterwarnings) or a NaN."""

    BOX = Interval(700.0, 800.0)  # exp overflows past ~709.78

    def test_verify_raises(self):
        with pytest.raises(NumericError):
            verify_stability(parse_generator("exp"), parse_generator("identity"),
                             self.BOX, n=2)

    @pytest.mark.parametrize("ts", [(0.0, 0.5, 1.0), (0.0, 1.0)])
    def test_blend_raises_instead_of_nan(self, ts):
        with pytest.raises(NumericError):
            blend_distances(parse_generator("exp"), parse_generator("identity"),
                            self.BOX, n=2, ts=ts)

    def test_bound_raises_instead_of_inf(self):
        with pytest.raises(NumericError):
            theorem4_bound(parse_generator("exp"), parse_generator("identity"), self.BOX)

    def test_sampled_rows_raise(self):
        with pytest.raises(NumericError):
            blend_distances(parse_generator("identity"), parse_generator("exp"),
                            self.BOX, n=5, ts=(1.0,), samples=100)

    def test_bound_is_finite_where_the_slope_overflows(self):
        # -1/x**2 overflows at the low end of the box; g itself stays finite
        bound = theorem4_bound(parse_generator("reciprocal"), parse_generator("log"),
                               Interval(1e-200, 1e-100))
        assert math.isfinite(bound)


class TestBlockedPath:
    """Grids larger than one block of rows (2**15): n = 3 on 101 points has
    C(103, 3) = 176 851 multisets."""

    GRID = 101

    @staticmethod
    def _multisets(grid, n):
        axis = B.grid(grid)
        return axis[np.array(list(itertools.combinations_with_replacement(range(grid), n)))]

    def test_grid_spans_several_blocks(self):
        assert math.comb(self.GRID + 2, 3) > 5 * stability._BLOCK_ROWS

    @pytest.mark.parametrize("grid,n", [(7, 1), (9, 2), (12, 3), (201, 3)])
    def test_multiset_indices_enumerate_sorted_tuples(self, grid, n):
        want = list(itertools.combinations_with_replacement(range(grid), n))
        assert stability._multiset_indices(grid, n).T.tolist() == [list(w) for w in want]

    @pytest.mark.parametrize("pair", [("identity", "log"), ("reciprocal", "exp"),
                                      ("power:2.0", "log")])
    def test_verify_equals_unblocked_row_means_bit_for_bit(self, pair):
        # the certificates take g_inv of each row's plain mean of g: the box
        # keeps g finite, so they skip the anchoring row_means applies to
        # exp and power generators
        def plain_row_means(gen, rows):
            return means_from_sums(gen.inverse, np.sum(gen.forward(rows), axis=1), 3)[1]

        g, h = (parse_generator(s) for s in pair)
        rows = self._multisets(self.GRID, 3)
        want = float(np.max(np.abs(plain_row_means(g, rows) - plain_row_means(h, rows))))
        rep = verify_stability(g, h, B, n=3, grid_per_dim=self.GRID)
        assert rep.sup_mean_distance == want

    def test_sampled_rows_equal_one_unblocked_draw(self):
        g, h = parse_generator("identity"), parse_generator("log")
        samples = 2 * stability._BLOCK_ROWS + 17
        rows = np.random.default_rng(5).uniform(B.lo, B.hi, size=(samples, 5))
        want = float(np.max(np.abs(row_means(g, rows) - row_means(h, rows))))
        rep = verify_stability(g, h, B, n=5, seed=5, samples=samples)
        assert rep.sup_mean_distance == want

    def test_blend_does_not_depend_on_the_block_size(self, monkeypatch):
        g, h = parse_generator("log"), parse_generator("reciprocal")
        blocked = blend_distances(g, h, B, n=3, ts=TS, grid_per_dim=self.GRID)
        monkeypatch.setattr(stability, "_BLOCK_ROWS", 10 ** 6)
        assert blend_distances(g, h, B, n=3, ts=TS, grid_per_dim=self.GRID) == blocked

    @pytest.mark.parametrize("pair", [("identity", "exp"), ("log", "reciprocal")])
    def test_blend_matches_scalar_bisection(self, pair, monkeypatch):
        # scalar inversion of every row is slow, so the blocks shrink instead
        # of the grid growing: 969 multisets in blocks of 400
        monkeypatch.setattr(stability, "_BLOCK_ROWS", 400)
        g, h = (parse_generator(s) for s in pair)
        gn, hn = normalize_increasing(g), normalize_increasing(h)
        rows = self._multisets(17, 3)
        sg = np.mean(gn.forward(rows), axis=1)
        sh = np.mean(hn.forward(rows), axis=1)
        mg = gn.inverse(sg)
        bracket = Interval(B.lo - 1e-6, B.hi + 1e-6)
        want = []
        for t in TS:
            blend = Generator("blend", gn.domain,
                              lambda z, t=t: (1.0 - t) * gn.forward(z) + t * hn.forward(z),
                              None, None, "increasing")
            mt = [invert(blend, float(y), bracket, tol=0.0)
                  for y in (1.0 - t) * sg + t * sh]
            want.append(float(np.max(np.abs(mg - np.array(mt)))))
        got = blend_distances(g, h, B, n=3, ts=TS, grid_per_dim=17)
        assert got == pytest.approx(want, abs=1e-12, rel=0.0)

    def test_wrong_derivative_falls_back_to_bisection(self):
        # a slope a million times too steep stalls Newton; bisection must
        # still land on the blended means of the true log
        log = parse_generator("log")
        calls = []

        def forward(x):
            calls.append(1)
            return np.log(x)

        bad_log = Generator("bad_log", log.domain, forward, np.exp,
                            lambda x: 1e6 / x, "increasing")
        ident = parse_generator("identity")
        want = blend_distances(ident, log, B, n=3, ts=TS, grid_per_dim=self.GRID)
        calls.clear()
        got = blend_distances(ident, bad_log, B, n=3, ts=TS, grid_per_dim=self.GRID)
        assert got == pytest.approx(want, abs=1e-12, rel=0.0)
        assert len(calls) > 100  # the bisection's 100 halvings ran

    def test_sampled_rows_need_a_sample(self):
        with pytest.raises(InvalidParameterError):
            verify_stability(parse_generator("identity"), parse_generator("log"),
                             B, n=5, samples=0)
