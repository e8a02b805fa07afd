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
        # g'/h' = x e**-x rises then falls on [0.5, 3]: the sampled path runs
        g, h, box = parse_generator("power:2.0"), parse_generator("exp"), Interval(0.5, 3.0)
        assert not stability._ratio_monotone(*stability._normalized_pair(g, h, box), box)
        rep = verify_stability(g, h, box, n=7, grid_per_dim=51, samples=20_000)
        assert rep.satisfied
        assert rep.sup_mean_distance > 0.0

    def test_large_n_reduced_path_stays_below_the_vertex_gap(self):
        rep = verify_stability(parse_generator("identity"), parse_generator("log"),
                               B, n=7, grid_per_dim=51, samples=20_000)
        assert rep.satisfied
        # AM - GM on [1,2]^n is maximized at vertices; over all vertex mixes
        # the gap never exceeds max_t (2 - t - 2^(1-t)) ~ 0.08607
        assert 0.0 < rep.sup_mean_distance < 0.0861

    def test_sampling_is_seeded(self):
        g, h, box = parse_generator("power:2.0"), parse_generator("exp"), Interval(0.5, 3.0)
        assert not stability._ratio_monotone(*stability._normalized_pair(g, h, box), box)
        kw = dict(n=5, grid_per_dim=31, samples=5_000)
        a, b, c = (verify_stability(g, h, box, seed=seed, **kw).sup_mean_distance
                   for seed in (1, 1, 2))
        assert a == b
        assert a != c

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

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_rejected(self, n):
        # n = 0 divided by zero, and n = -1 failed to converge
        with pytest.raises(InvalidParameterError):
            blend_distances(parse_generator("identity"), parse_generator("log"),
                            B, n=n, ts=(0.0, 0.5, 1.0))


class TestMonotonePremise:
    """Both certificates assume increasing generators; sin turns down at pi/2."""

    SIN = Generator("sin", Interval(-10.0, 10.0), np.sin, np.arcsin, np.cos, "increasing")
    BOX = Interval(0.5, 2.4)

    def test_blend_rejects_a_generator_that_decreases(self):
        with pytest.raises(NumericError):
            blend_distances(self.SIN, parse_generator("identity"), self.BOX, n=2,
                            ts=(0.0, 0.5, 1.0))

    def test_verify_rejects_a_generator_that_decreases(self):
        with pytest.raises(NumericError):
            verify_stability(parse_generator("identity"), self.SIN, self.BOX, n=2)


def _unpruned_blend_distances(g, h, box, n, ts, grid_per_dim, samples):
    """blend_distances inverting every row, as it did before the pruning."""
    gn, hn = stability._normalized_pair(g, h, box)
    tables = {t: stability._blend_inverse_table(gn, hn, t, box)[0]
              for t in ts if 0.0 < t < 1.0}
    sups = [0.0] * len(ts)
    for sg, sh, mg, mh in stability._pair_blocks(gn, hn, box, n, grid_per_dim, 0, samples):
        for i, t in enumerate(ts):
            if t == 0.0:
                continue
            mt = mh if t == 1.0 else stability._invert_blend(
                gn, hn, t, (1.0 - t) * sg + t * sh, tables[t], box)
            sups[i] = max(sups[i], float(np.max(np.abs(mg - mt))))
    return sups


def _grid_path(g, h, box, n, ts, grid_per_dim=201, seed=0, samples=100_000):
    """The grid/sample path of both certificates, called directly: the
    reference the reduced path is held to."""
    gn, hn = stability._normalized_pair(g, h, box)
    return stability._grid_sups(gn, hn, box, n, [float(t) for t in ts],
                                grid_per_dim, seed, samples)


class TestPruning:
    """Only rows whose bracket [M_g, M_h] can reach the running sup are
    inverted; the answers must be those of inverting every row."""

    SPECS = ("identity", "log", "reciprocal", "power:2.0", "exp")
    BOXES = [Interval(1.0, 2.0), Interval(0.5, 3.0), Interval(1.0, 1.001),
             Interval(0.1, 0.2)]
    TS9 = [i / 8 for i in range(9)]

    @pytest.mark.parametrize("pair", list(itertools.permutations(SPECS, 2)),
                             ids="-".join)
    def test_equals_inverting_every_row_bit_for_bit(self, pair):
        # n = 1 distances are rounding noise, a few ulp that exceed the t = 1
        # gap: the slack must keep those rows
        g, h = (parse_generator(s) for s in pair)
        for n, box in itertools.product((1, 2, 3, 4), self.BOXES):
            kw = dict(grid_per_dim=31, samples=5_000)
            want = _unpruned_blend_distances(g, h, box, n, self.TS9, **kw)
            got = _grid_path(g, h, box, n, self.TS9, **kw)
            assert [d.hex() for d in got] == [d.hex() for d in want], (n, box)

    def test_few_rows_reach_the_root_finder(self, monkeypatch):
        inverted = []
        invert_blend = stability._invert_blend

        def counting(gn, hn, t, y, table, box):
            inverted.append(y.size)
            return invert_blend(gn, hn, t, y, table, box)

        monkeypatch.setattr(stability, "_invert_blend", counting)
        grid = TestBlockedPath.GRID
        _grid_path(parse_generator("identity"), parse_generator("log"), B, 3, TS,
                   grid_per_dim=grid)
        row_ts = math.comb(grid + 2, 3) * sum(0.0 < t < 1.0 for t in TS)
        assert 0 < sum(inverted) < 0.01 * row_ts


class TestReducedPath:
    """Where g'/h' is strictly monotone on the box, both certificates maximise
    over rows of k_a copies of a, k_b of b and k_z of one z."""

    @pytest.mark.parametrize("pair", list(itertools.permutations(TestPruning.SPECS, 2)),
                             ids="-".join)
    def test_never_below_the_grid_path(self, pair):
        g, h = (parse_generator(s) for s in pair)
        reduced = 0
        for box in TestPruning.BOXES:
            gn, hn = stability._normalized_pair(g, h, box)
            if not stability._ratio_monotone(gn, hn, box):
                continue
            reduced += 1
            # count-weighted sums round apart from left-to-right row sums
            tol = 8.0 * np.spacing(max(abs(box.lo), abs(box.hi)))
            for n in (1, 2, 3):
                got = blend_distances(g, h, box, n=n, ts=TestPruning.TS9)
                want = _grid_path(g, h, box, n, TestPruning.TS9, grid_per_dim=31)
                for t, r, q in zip(TestPruning.TS9, got, want):
                    if n == 1 and 0.0 < t < 1.0:
                        # every mean is the identity at n = 1: both sides are
                        # Newton's stopping error, which the slack bounds
                        slack = stability._blend_inverse_table(gn, hn, t, box)[1]
                        assert max(r, q) <= slack, (box, t, r, q)
                    else:
                        assert r >= q - tol, (box, n, t, r, q)
        assert reduced >= 3

    @pytest.mark.parametrize("n", [5, 8])
    def test_am_gm_is_the_vertex_formula(self, n):
        # AM - GM is convex, so its sup sits at k copies of 2 and n - k of 1
        want = max((n + k) / n - 2.0 ** (k / n) for k in range(n + 1))
        g, h = parse_generator("identity"), parse_generator("log")
        rep = verify_stability(g, h, B, n=n)
        assert rep.sup_mean_distance == pytest.approx(want, rel=0.0, abs=1e-14)
        assert rep.satisfied
        assert blend_distances(g, h, B, n=n, ts=(1.0,)) == [rep.sup_mean_distance]

    def test_interior_maximiser_beats_the_grid(self):
        g, h = parse_generator("log"), parse_generator("reciprocal")
        box = Interval(0.1, 5.0)
        got = verify_stability(g, h, box, n=2).sup_mean_distance
        assert got > _grid_path(g, h, box, 2, (1.0,), grid_per_dim=201)[0]
        brute = _grid_path(g, h, box, 2, (1.0,), grid_per_dim=4001)[0]
        assert got >= brute - 8.0 * np.spacing(5.0)

    def test_non_monotone_ratio_keeps_the_grid_path_bits(self):
        # r = 2x e^(-x) peaks at x = 1, inside the box
        g, h = parse_generator("power:2.0"), parse_generator("exp")
        box = Interval(0.5, 3.0)
        assert not stability._ratio_monotone(*stability._normalized_pair(g, h, box), box)
        for n, kw in ((2, dict(grid_per_dim=31)), (5, dict(seed=3, samples=3_000))):
            got = blend_distances(g, h, box, n=n, ts=TestPruning.TS9, **kw)
            want = _grid_path(g, h, box, n, TestPruning.TS9, **kw)
            assert [d.hex() for d in got] == [d.hex() for d in want]
            rep = verify_stability(g, h, box, n=n, **kw)
            assert rep.sup_mean_distance.hex() == want[-1].hex()

    @pytest.mark.parametrize("spec", TestPruning.SPECS)
    def test_a_generator_against_itself_is_zero(self, spec):
        # r is constant, so the grid path runs; M_g and M_h share every bit
        g = parse_generator(spec)
        assert not stability._ratio_monotone(*stability._normalized_pair(g, g, B), B)
        assert verify_stability(g, g, B, n=4, samples=1_000).sup_mean_distance == 0.0
        assert blend_distances(g, g, B, n=3, ts=(0.0, 1.0), grid_per_dim=21) == [0.0, 0.0]

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 60])
    def test_counts_list_every_triple_once(self, n):
        total = n * (n + 1) // 2
        ka, kb, kz = (np.concatenate(c).ravel() for c in zip(
            *(stability._counts(n, lo, min(total, lo + 5)) for lo in range(0, total, 5))))
        want = sorted((a, b, n - a - b) for a in range(n) for b in range(n - a))
        assert sorted(zip(ka.tolist(), kb.tolist(), kz.tolist())) == want

    def test_counts_at_a_large_n(self):
        # this large, the float root of 8i + 1 rounds past some group ends
        n = 10 ** 9
        total = n * (n + 1) // 2
        for lo, hi in ((total - n - 10 ** 4, total - n + 10 ** 4), (total - 10 ** 5, total)):
            ka, kb, kz = (c.ravel() for c in stability._counts(n, lo, hi))
            assert np.all((ka >= 0) & (kb >= 0) & (kz >= 1)) and np.all(ka + kb + kz == n)
            m = ka + kb
            assert np.array_equal(m * (m + 1) // 2 + ka, np.arange(lo, hi))
        assert (ka[-1], kz[-1]) == (n - 1, 1)

    def test_does_not_depend_on_the_block_size(self, monkeypatch):
        g, h = parse_generator("log"), parse_generator("reciprocal")
        whole = blend_distances(g, h, B, n=12, ts=TS)
        monkeypatch.setattr(stability, "_BLOCK_ROWS", 2 * stability._Z_POINTS)
        assert blend_distances(g, h, B, n=12, ts=TS) == whole


class TestAgainstDirectMeans:
    def test_sup_distance_matches_brute_force(self):
        g, h = parse_generator("identity"), parse_generator("reciprocal")
        pts = np.linspace(1.0, 2.0, 21)
        worst = 0.0
        for i, a in enumerate(pts):
            for b in pts[i:]:
                worst = max(worst, abs(mean(g, (a, b)) - mean(h, (a, b))))
        (sup,) = _grid_path(g, h, B, 2, (1.0,), grid_per_dim=21)
        assert sup == pytest.approx(worst, rel=1e-10)


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
    C(103, 3) = 176 851 sorted tuples."""

    GRID = 101

    @staticmethod
    def _multisets(grid, n):
        axis = B.grid(grid)
        return axis[np.array(list(itertools.combinations_with_replacement(range(grid), n)))]

    def test_grid_spans_several_blocks(self):
        assert math.comb(self.GRID + 2, 3) > 5 * stability._BLOCK_ROWS

    @pytest.mark.parametrize("grid", [7, 9, 12, 101])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sorted_tuple_sums_equal_summed_rows_bit_for_bit(self, grid, n):
        # every sorted tuple, in lexicographic order, each summed left to right
        gx, hx = np.log(B.grid(grid)), -1.0 / B.grid(grid)
        tuples = np.array(list(itertools.combinations_with_replacement(range(grid), n)))
        blocks = list(stability._tuple_sums(gx, hx, n))
        for got, vals in zip(zip(*blocks), (gx, hx)):
            assert np.concatenate(got).tobytes() == np.sum(vals[tuples], axis=1).tobytes()
        assert all(gsum.size >= stability._BLOCK_ROWS for gsum, _ in blocks[:-1])
        if (grid, n) == (self.GRID, 3):
            assert len(blocks) > 1

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
        (sup,) = _grid_path(g, h, B, 3, (1.0,), grid_per_dim=self.GRID)
        assert sup == want

    def test_sampled_rows_equal_one_unblocked_draw(self):
        g, h = parse_generator("identity"), parse_generator("log")
        samples = 2 * stability._BLOCK_ROWS + 17
        rows = np.random.default_rng(5).uniform(B.lo, B.hi, size=(samples, 5))
        want = float(np.max(np.abs(row_means(g, rows) - row_means(h, rows))))
        (sup,) = _grid_path(g, h, B, 5, (1.0,), seed=5, samples=samples)
        assert sup == want

    def test_blend_does_not_depend_on_the_block_size(self, monkeypatch):
        g, h = parse_generator("log"), parse_generator("reciprocal")
        blocked = _grid_path(g, h, B, 3, TS, grid_per_dim=self.GRID)
        monkeypatch.setattr(stability, "_BLOCK_ROWS", 10 ** 6)
        assert _grid_path(g, h, B, 3, TS, grid_per_dim=self.GRID) == blocked

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
        got = _grid_path(g, h, B, 3, TS, grid_per_dim=17)
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
        want = _grid_path(ident, log, B, 3, TS, grid_per_dim=self.GRID)
        calls.clear()
        got = _grid_path(ident, bad_log, B, 3, TS, grid_per_dim=self.GRID)
        assert got == pytest.approx(want, abs=1e-12, rel=0.0)
        assert len(calls) > 100  # the bisection's 100 halvings ran

    def test_sampled_rows_need_a_sample(self):
        with pytest.raises(InvalidParameterError):
            verify_stability(parse_generator("identity"), parse_generator("log"),
                             B, n=5, samples=0)
