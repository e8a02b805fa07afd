"""Perturbation bound for the mean when the generator is replaced."""

import contextlib
import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import lambertw

from regmeans import (
    ConfigurationError,
    DegenerateSlopeError,
    Generator,
    Interval,
    InvalidParameterError,
    NumericError,
    affine_transform,
    blend_distances,
    mean,
    parse_generator,
    theorem4_bound,
    verify_stability,
)
from regmeans import stability
from regmeans.means import means_from_sums

B = Interval(1.0, 2.0)
TS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _increasing(g, h, box):
    """g and h in the increasing form the certificates read on the box."""
    return stability._normalized_pair(g, h, box, "box")[:2]


def _blend_means(gn, hn, t, y, box):
    """The z of the box with (1-t) g(z) + t h(z) = y, elementwise (t and y
    broadcast): bisection of the box until the bracket holds no float
    between its ends."""
    lo, hi = np.full(np.shape(y), box.lo), np.full(np.shape(y), box.hi)
    while True:
        mid = 0.5 * (lo + hi)
        open_ = (lo < mid) & (mid < hi)
        if not np.any(open_):
            return mid
        below = (1.0 - t) * gn.forward(mid) + t * hn.forward(mid) < y
        lo, hi = np.where(open_ & below, mid, lo), np.where(open_ & ~below, mid, hi)


def _brute_force(g, h, box, n, ts, points):
    """sup |M_g - M_t| over every sorted n-tuple of a `points` axis of the
    box, by the definition: each row's plain sum of g through
    means_from_sums, and each blended mean by bisection of the blend
    (_blend_means).  Rows are taken lead by lead, all of them."""
    gn, hn = _increasing(g, h, box)
    axis = box.grid(points)
    tails = np.array(list(itertools.combinations_with_replacement(range(points), n - 1)),
                     dtype=np.intp)
    blends = np.array([t for t in ts if 0.0 < t < 1.0])[:, None]
    sups = dict.fromkeys(ts, 0.0)
    for lead in range(points):
        idx = tails[np.all(tails >= lead, axis=1)]
        rows = axis[np.column_stack([np.full(len(idx), lead), idx])]
        sg, mg = means_from_sums(gn.inverse, np.sum(gn.forward(rows), axis=1), n)
        sh, mh = means_from_sums(hn.inverse, np.sum(hn.forward(rows), axis=1), n)
        mts = {1.0: mh}
        if blends.size:
            mts.update(zip(blends[:, 0].tolist(),
                           _blend_means(gn, hn, blends, (1.0 - blends) * sg + blends * sh, box)))
        for t, mt in mts.items():
            if t in sups:
                sups[t] = max(sups[t], float(np.max(np.abs(mg - mt))))
    return [sups[t] for t in ts]


def _four_free_values(g, h, box, n, points=65):
    """sup |M_g - M_h| over rows of k_a copies of a, k_b of b, k_1 >= 1 of
    z1 and k_2 >= 1 of z2, every count split: each split's best point of a
    square grid, polished by Nelder-Mead."""
    gn, hn = _increasing(g, h, box)

    def distance(k, z1, z2):
        ka, kb, k1, k2 = k

        def m(gen):
            s = (ka * gen.forward(box.lo) + kb * gen.forward(box.hi)
                 + k1 * gen.forward(z1) + k2 * gen.forward(z2))
            return means_from_sums(gen.inverse, np.atleast_1d(s), n)[1]
        return np.abs(m(gn) - m(hn))

    z1, z2 = (x.ravel() for x in np.meshgrid(box.grid(points), box.grid(points)))
    best = 0.0
    for ka, kb in itertools.product(range(n + 1), repeat=2):
        for k1 in range(1, n - ka - kb):
            k = (ka, kb, k1, n - ka - kb - k1)
            d = distance(k, z1, z2)
            i = int(np.argmax(d))
            res = minimize(lambda v: -float(distance(k, *np.clip(v, box.lo, box.hi))[0]),
                           [z1[i], z2[i]], method="Nelder-Mead",
                           options=dict(xatol=1e-12, fatol=1e-16, maxiter=2000))
            best = max(best, float(d[i]), -res.fun)
    return best


def _pieces(g, h, box):
    with np.errstate(all="ignore"):
        return stability._ratio_pieces(stability._normalized_pair(g, h, box, "box"), box)[0]


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

    def test_an_interior_peak_of_g_minus_h(self):
        # |g - h| = 0.1 |sin 3x| peaks at pi/2 and h' = 1 + 0.3 cos 3x dips to
        # 0.7 at pi/3, both inside the box and off any short grid of it
        h = Generator("wave", Interval(-10.0, 10.0), lambda x: x + 0.1 * np.sin(3.0 * x),
                      None, lambda x: 1.0 + 0.3 * np.cos(3.0 * x))
        bound = theorem4_bound(parse_generator("identity"), h, B)
        assert bound == pytest.approx((1.0 + 1.0 / 0.7) * 0.1, rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("flat_is_g", [True, False])
    def test_a_flat_generator_is_degenerate_slope_error(self, flat_is_g):
        # the slope rule of min_slope: min |g'| = 0 on [1.4, 1.6]
        pair = (TestOneInversion.FLAT, parse_generator("identity"))
        with pytest.raises(DegenerateSlopeError, match="vanishing slope"):
            theorem4_bound(*(pair if flat_is_g else pair[::-1]), B)


class TestOneRead:
    """A certificate reads g, h, g' and h' on its axis once, and g and h
    again only in its rows: once on the grid of z for every block, then in
    two evaluations per block of them."""

    @staticmethod
    def _counted(spec, calls):
        """The builtin spec as a custom generator that logs (spec, callable,
        shape of x) to calls."""
        gen = parse_generator(spec)

        def forward(x):
            calls.append((spec, "forward", np.shape(x)))
            return gen.forward(x)

        def derivative(x):
            calls.append((spec, "derivative", np.shape(x)))
            return gen.derivative(x)
        return Generator(spec, gen.domain, forward, gen.inverse, derivative)

    def test_the_bound_reads_each_generator_on_the_axis_once(self):
        calls = []
        theorem4_bound(self._counted("identity", calls), self._counted("log", calls), B)
        axis = (stability._AXIS_POINTS,)
        assert sorted(calls) == sorted((spec, kind, axis) for spec in ("identity", "log")
                                       for kind in ("forward", "derivative"))

    def test_verify_reads_each_generator_on_the_axis_once(self, monkeypatch):
        calls = []
        counted = functools.partial(self._counted, calls=calls)
        blocks = []
        counts = stability._counts

        def counting(m, lo, hi):
            blocks.append(m)
            return counts(m, lo, hi)

        monkeypatch.setattr(stability, "_counts", counting)
        # g'/h' = x is monotone on the box: the rows have no partner
        verify_stability(counted("identity"), counted("log"), B, n=2)
        axis = (stability._AXIS_POINTS,)
        assert blocks == [2]
        for spec in ("identity", "log"):
            assert [(kind, shape) for s, kind, shape in calls
                    if s == spec and kind == "derivative"] == [("derivative", axis)]
            forward = [shape for s, kind, shape in calls if s == spec and kind == "forward"]
            assert forward.count(axis) == 1
            assert len(forward) == 2 + 2 * len(blocks)


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

    def test_large_n_reduced_path_stays_below_the_vertex_gap(self):
        rep = verify_stability(parse_generator("identity"), parse_generator("log"),
                               B, n=7, grid_per_dim=51)
        assert rep.satisfied
        # AM - GM on [1,2]^n is maximized at vertices; over all vertex mixes
        # the gap never exceeds max_t (2 - t - 2^(1-t)) ~ 0.08607
        assert 0.0 < rep.sup_mean_distance < 0.0861

    def test_validation(self):
        g, h = parse_generator("identity"), parse_generator("log")
        with pytest.raises(InvalidParameterError):
            verify_stability(g, h, B, n=0)
        with pytest.raises(InvalidParameterError):
            verify_stability(g, h, B, n=2, grid_per_dim=1)

    @pytest.mark.parametrize("factor", [math.nan, -1.0, math.inf, "0", None])
    def test_tolerance_factor_must_be_finite_and_nonnegative(self, factor):
        # NaN and -1 were accepted, and satisfied came out a silent False;
        # "0" and None raised a bare TypeError from the comparison with 0.0
        with pytest.raises(InvalidParameterError, match="tolerance_factor"):
            verify_stability(parse_generator("identity"), parse_generator("log"), B, n=2,
                             tolerance_factor=factor)

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

    @pytest.mark.parametrize("ts", [None, "ab", 0.5, [0.5, None]])
    def test_ts_must_be_an_iterable_of_numbers(self, ts):
        # None and 0.5 raised a bare TypeError, "ab" a bare ValueError
        with pytest.raises(InvalidParameterError, match="ts must be"):
            blend_distances(parse_generator("identity"), parse_generator("log"),
                            B, n=2, ts=ts)

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_rejected(self, n):
        # n = 0 divided by zero, and n = -1 failed to converge
        with pytest.raises(InvalidParameterError):
            blend_distances(parse_generator("identity"), parse_generator("log"),
                            B, n=n, ts=(0.0, 0.5, 1.0))

    @pytest.mark.parametrize("g, h, box", [("identity", "log", B),
                                           ("power:2.0", "exp", Interval(0.5, 3.0))])
    def test_each_t_keeps_its_value_whatever_the_order_of_ts(self, g, h, box):
        # identity vs log has one piece of g'/h' on B, power:2 vs exp two on
        # [0.5, 3]; the t = 1 entry beside interior t is verify's sup
        gen_g, gen_h = parse_generator(g), parse_generator(h)
        ts = (1.0, 0.5, 0.0, 0.5, 0.25)
        got = blend_distances(gen_g, gen_h, box, n=3, ts=ts)
        in_order = (0.0, 0.25, 0.5, 1.0)
        want = dict(zip(in_order, blend_distances(gen_g, gen_h, box, n=3, ts=in_order)))
        assert [v.hex() for v in got] == [want[t].hex() for t in ts]
        assert got[0].hex() == verify_stability(gen_g, gen_h, box, n=3).sup_mean_distance.hex()


class TestNormalizedPair:
    """The increasing form the certificates read: a generator whose values
    fall across the box is negated, one that rises is kept as given."""

    def test_increasing_passes_through(self):
        g, h = parse_generator("log"), parse_generator("identity")
        pair = stability._normalized_pair(g, h, B, "box")
        assert pair.gn is g and pair.hn is h
        np.testing.assert_array_equal(pair.g, np.log(pair.axis))

    def test_reciprocal_flipped(self):
        pair = stability._normalized_pair(parse_generator("reciprocal"),
                                          parse_generator("log"), B, "box")
        gn = pair.gn
        assert gn.forward(2.0) == pytest.approx(-0.5)
        assert gn.inverse(-0.5) == pytest.approx(2.0)
        assert gn.derivative(2.0) == pytest.approx(0.25)
        # the values read on the axis are the negated forward's, bit for bit
        np.testing.assert_array_equal(pair.g, gn.forward(pair.axis))
        np.testing.assert_array_equal(pair.dg, gn.derivative(pair.axis))

    def test_mean_is_preserved(self):
        raw = parse_generator("reciprocal")
        flipped = stability._normalized_pair(raw, parse_generator("log"), B, "box").gn
        data = (2.0, 6.0, 3.0)
        assert mean(flipped, data) == pytest.approx(mean(raw, data), rel=1e-12)


class TestMonotonePremise:
    """Both certificates assume monotone generators, and read the direction
    off the box: sin turns down at pi/2."""

    SIN = Generator("sin", Interval(-10.0, 10.0), np.sin, np.arcsin, np.cos)
    BOX = Interval(0.5, 2.4)
    POSITIVE = Interval(0.0, math.inf)

    def test_blend_rejects_a_generator_that_decreases(self):
        with pytest.raises(NumericError, match="generator 'sin' is not monotone"):
            blend_distances(self.SIN, parse_generator("identity"), self.BOX, n=2,
                            ts=(0.0, 0.5, 1.0))

    @pytest.mark.parametrize("box", [BOX, Interval(1.0, 3.0)], ids=["rises", "falls"])
    def test_verify_rejects_a_generator_that_decreases(self, box):
        # sin falls from 1 to 3 overall: negated, it still turns
        with pytest.raises(NumericError, match="generator 'sin' is not monotone"):
            verify_stability(parse_generator("identity"), self.SIN, box, n=2)

    @pytest.mark.parametrize("box", [B, Interval(0.5, 3.0)])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("rec_is_g", [True, False])
    def test_a_custom_reciprocal_is_the_built_in_bit_for_bit(self, box, n, rec_is_g):
        # declared by no one, its direction is read off its values
        custom = Generator("reciprocal", self.POSITIVE, lambda x: 1.0 / x, lambda y: 1.0 / y,
                           lambda x: -1.0 / (x * x))
        log = parse_generator("log")

        def both(rec):
            g, h = (rec, log) if rec_is_g else (log, rec)
            return (verify_stability(g, h, box, n).as_dict(),
                    [d.hex() for d in blend_distances(g, h, box, n, TS)])
        assert both(custom) == both(parse_generator("reciprocal"))

    def test_a_decreasing_custom_generator_is_served(self):
        # -log x, which had to be declared "decreasing": declared
        # "increasing", it was NumericError "is not increasing"
        neg_log = Generator("neg_log", self.POSITIVE, lambda x: -np.log(x),
                            lambda y: np.exp(-y), lambda x: -1.0 / x)
        ident = parse_generator("identity")
        want = verify_stability(parse_generator("log"), ident, B, n=3).sup_mean_distance
        assert verify_stability(neg_log, ident, B, n=3).sup_mean_distance == want
        assert blend_distances(neg_log, ident, B, n=3, ts=TS) == pytest.approx(
            blend_distances(parse_generator("log"), ident, B, n=3, ts=TS), rel=1e-12)


class TestRatioPieces:
    """The monotone pieces of g'/h' on the _AXIS_POINTS axis choose the rows."""

    SPECS = ("identity", "log", "reciprocal", "power:2.0", "exp")
    BOXES = [Interval(1.0, 2.0), Interval(0.5, 3.0), Interval(1.0, 1.001),
             Interval(0.1, 0.2)]
    # g = x + 0.1 sin(3x): g'/identity' = 1 + 0.3 cos(3x) turns four times on [0, 5]
    WIGGLE = Generator("wiggle", Interval(-10.0, 10.0), lambda x: x + 0.1 * np.sin(3.0 * x),
                       None, lambda x: 1.0 + 0.3 * np.cos(3.0 * x))

    @pytest.mark.parametrize("pair", list(itertools.permutations(SPECS, 2)), ids="-".join)
    def test_one_piece_for_distinct_builtins_off_the_turning_point(self, pair):
        g, h = (parse_generator(s) for s in pair)
        for box in self.BOXES + [Interval(2.0, 2.0 + 1e-9)]:
            want = 2 if set(pair) == {"power:2.0", "exp"} and box.lo < 1.0 < box.hi else 1
            assert _pieces(g, h, box) == want, box

    @pytest.mark.parametrize("g, h", [
        ("log", "log"), ("exp", "exp"), ("power:2.0", "power:2.0"),
        ("power:1.0", "identity"), ("identity", "power:1.0")])
    def test_none_where_the_means_agree(self, g, h):
        for box in self.BOXES:
            assert _pieces(parse_generator(g), parse_generator(h), box) == 0

    @pytest.mark.parametrize("spec", SPECS)
    def test_none_for_an_affine_image(self, spec):
        # a g + b only rounds apart from g: r is constant up to a few ulp
        g = parse_generator(spec)
        for box, (a, b) in itertools.product(self.BOXES, [(3.0, 1.0), (-2.5, 7.0), (1e-3, 5.0)]):
            assert _pieces(g, affine_transform(g, a, b), box) == 0

    @pytest.mark.parametrize("p, box", [(2.0, Interval(0.5, 3.0)), (3.0, Interval(0.5, 4.0)),
                                        (1.5, Interval(0.2, 2.0)), (4.0, Interval(2.5, 12.0))])
    def test_two_where_the_box_holds_the_turning_point(self, p, box):
        # r = p x^(p-1) e^(-x) peaks at x = p - 1
        g, h = parse_generator(f"power:{p}"), parse_generator("exp")
        assert _pieces(g, h, box) == _pieces(h, g, box) == 2

    def test_a_turn_where_the_ratio_is_small_still_counts(self):
        # r = e^x / (2x) falls by ~1e-2 per step near x = 0.5 and rises to
        # ~3e15 at x = 40: each step is held to the ratio at its own ends
        g, h, box = parse_generator("power:2.0"), parse_generator("exp"), Interval(0.5, 40.0)
        assert _pieces(g, h, box) == _pieces(h, g, box) == 2

    def test_more_than_two_pieces_rejected(self):
        ident, box = parse_generator("identity"), Interval(0.0, 5.0)
        assert _pieces(self.WIGGLE, ident, box) == 5
        with pytest.raises(ConfigurationError):
            verify_stability(self.WIGGLE, ident, box, n=2)
        with pytest.raises(ConfigurationError):
            blend_distances(ident, self.WIGGLE, box, n=3, ts=(0.0, 0.5, 1.0))

    def test_a_ratio_that_is_not_finite_is_a_numeric_error(self):
        # 1/x**2 overflows at the low end of the box, and with it g'/h'
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                blend_distances(parse_generator("reciprocal"), parse_generator("log"),
                                Interval(1e-200, 1e-100), n=2, ts=(0.0, 0.5, 1.0))


class TestReducedPath:
    """Both certificates maximise over rows of k_a copies of a, k_b of b and
    k_z of one z, and where g'/h' turns once, also over rows of n - 1 such
    values and the y with g'/h' at y equal to g'/h' at z."""

    TS9 = [i / 8 for i in range(9)]

    @pytest.mark.parametrize("pair", list(itertools.permutations(TestRatioPieces.SPECS, 2)),
                             ids="-".join)
    def test_never_below_the_brute_force(self, pair):
        g, h = (parse_generator(s) for s in pair)
        for box in TestRatioPieces.BOXES:
            gn, hn, zs = stability._normalized_pair(g, h, box, "box")[:3]
            # count-weighted sums round apart from left-to-right row sums, and
            # a blended mean is Newton's, stopped within 1e-13 max(1, |y|) of
            # the blend's value: that over the blend's least slope apart
            tol = {t: 8.0 * np.spacing(max(abs(box.lo), abs(box.hi))) for t in self.TS9}
            for t in self.TS9[1:-1]:
                k = (1.0 - t) * gn.forward(zs) + t * hn.forward(zs)
                tol[t] += (4e-13 * max(1.0, float(np.max(np.abs(k))))
                           / float(np.min(np.diff(k) / np.diff(zs))))
            for n in (1, 2, 3):
                got = blend_distances(g, h, box, n=n, ts=self.TS9)
                want = _brute_force(g, h, box, n, self.TS9, points=31)
                for t, r, q in zip(self.TS9, got, want):
                    assert r >= q - tol[t], (box, n, t, r, q)
                    if n == 1:
                        # every mean is the identity at n = 1: both sides are
                        # rounding and stopping errors
                        assert max(r, q) <= tol[t], (box, t, r, q)

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
        assert got > _brute_force(g, h, box, 2, (1.0,), points=201)[0]
        brute = _brute_force(g, h, box, 2, (1.0,), points=4001)[0]
        assert got >= brute - 8.0 * np.spacing(5.0)

    @pytest.mark.parametrize("spec", TestRatioPieces.SPECS)
    def test_a_generator_against_itself_is_zero(self, spec):
        # r is constant; M_g and M_h share every bit
        g = parse_generator(spec)
        assert _pieces(g, g, B) == 0
        assert verify_stability(g, g, B, n=4).sup_mean_distance == 0.0
        assert blend_distances(g, g, B, n=3, ts=(0.0, 1.0), grid_per_dim=21) == [0.0, 0.0]

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 60, 200])
    def test_counts_list_every_triple_once(self, n):
        # in order: m = k_a + k_b rising, and k_a rising within each m
        total = n * (n + 1) // 2
        want = [(ka, m - ka, n - m) for m in range(n) for ka in range(m + 1)]
        for per_block in (1, 3, 5, 127):
            blocks = [stability._counts(n, lo, min(total, lo + per_block))
                      for lo in range(0, total, per_block)]
            assert all(c.dtype == np.int64 and c.shape[1:] == (1,) for b in blocks for c in b)
            assert list(zip(*(np.concatenate(c).ravel().tolist() for c in zip(*blocks)))) == want

    def test_counts_at_a_large_n(self):
        # this large, a float root of 8i + 1 would round past some group ends
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


class TestTwoPieces:
    """power:p against exp on a box holding x = p - 1, where g'/h' turns once:
    the sups are those of rows with one more interior value y, where g'/h'
    takes its level at z on the other side of the turn."""

    CASES = [("power:2.0", "exp", Interval(0.5, 3.0)), ("power:3.0", "exp", Interval(0.5, 4.0))]
    IDS = ["power2-exp", "power3-exp"]

    @pytest.mark.parametrize("g, h, box", CASES, ids=IDS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_never_below_the_brute_force(self, g, h, box, n):
        g, h = parse_generator(g), parse_generator(h)
        got = verify_stability(g, h, box, n=n).sup_mean_distance
        assert got >= _brute_force(g, h, box, n, (1.0,), points=201)[0] - 8.0 * np.spacing(box.hi)

    @pytest.mark.parametrize("g, h, box", CASES, ids=IDS)
    def test_n2_is_the_fine_brute_force(self, g, h, box):
        g, h = parse_generator(g), parse_generator(h)
        got = verify_stability(g, h, box, n=2).sup_mean_distance
        assert got == pytest.approx(_brute_force(g, h, box, 2, (1.0,), points=4001)[0],
                                    rel=0.0, abs=1e-9)

    @pytest.mark.parametrize("g, h, box", CASES, ids=IDS)
    def test_n1_locates_no_partner(self, g, h, box, monkeypatch):
        # the family of n - 1 = 0 coordinates has no triples, so no y; the
        # mean of one value is that value under both generators
        calls = []
        partner = stability._partner
        monkeypatch.setattr(stability, "_partner",
                            lambda *args: calls.append(args) or partner(*args))
        g, h = parse_generator(g), parse_generator(h)
        got = verify_stability(g, h, box, n=1).sup_mean_distance
        assert got <= 4.0 * np.spacing(box.hi)
        assert blend_distances(g, h, box, n=1, ts=(1.0,)) == [got]
        assert calls == []

    @pytest.mark.parametrize("n, want", [(5, 0.2633347976696), (8, 0.2725991902899)])
    def test_reaches_the_four_free_value_maximum(self, n, want):
        # one coordinate at most on the second piece: rows with any number
        # there reach no further
        g, h, box = parse_generator("power:2.0"), parse_generator("exp"), Interval(0.5, 3.0)
        got = verify_stability(g, h, box, n=n).sup_mean_distance
        assert got >= _four_free_values(g, h, box, n) - 1e-12
        assert got >= want - 1e-12
        assert blend_distances(h, g, box, n=n, ts=(1.0,)) == [got]

    @pytest.mark.parametrize("g, h, box", CASES, ids=IDS)
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_blends_nondecreasing_in_t(self, g, h, box, n):
        dists = blend_distances(parse_generator(g), parse_generator(h), box, n=n,
                                ts=TestReducedPath.TS9)
        assert dists[0] == 0.0
        assert all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))

    def test_blends_never_below_the_brute_force(self):
        g, h, box = parse_generator("power:2.0"), parse_generator("exp"), Interval(0.5, 3.0)
        got = blend_distances(g, h, box, n=3, ts=TS)
        want = _brute_force(g, h, box, 3, TS, points=13)
        assert all(r >= q - 8.0 * np.spacing(box.hi) for r, q in zip(got, want))


def _row_family_sup(g, h, box, n, t, partner=None, points=4001):
    """sup |M_g - M_t| over the rows of k_a copies of a, k_b of b and k_z of
    one z (and one more value partner(z) where partner is given), every
    count split, by the definition: plain row sums through each inverse,
    blended means by _blend_means.  Each split's z is the best of a dense
    axis, then golden-section search over the cells beside it."""
    gn, hn = _increasing(g, h, box)
    m = n - (partner is not None)

    def distance(k, z):
        ka, kb, kz = k
        cols = [np.full(z.shape, box.lo)] * ka + [np.full(z.shape, box.hi)] * kb + [z] * kz
        rows = np.column_stack(cols + ([partner(z)] if partner else []))
        sg, mg = means_from_sums(gn.inverse, np.sum(gn.forward(rows), axis=1), n)
        sh, mh = means_from_sums(hn.inverse, np.sum(hn.forward(rows), axis=1), n)
        mt = mh if t == 1.0 else _blend_means(gn, hn, t, (1.0 - t) * sg + t * sh, box)
        return np.abs(mg - mt)

    axis, best = box.grid(points), 0.0
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for ka in range(m):
        for kb in range(m - ka):
            k = (ka, kb, m - ka - kb)
            d = distance(k, axis)
            i = int(np.argmax(d))
            lo, hi = axis[max(i - 1, 0)], axis[min(i + 1, points - 1)]
            best = max(best, float(d[i]))
            while hi - lo > 1e-13 * box.width:
                u, v = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
                du, dv = distance(k, np.array([u, v]))
                best = max(best, float(du), float(dv))
                lo, hi = (lo, v) if du >= dv else (u, hi)
    return best


class TestRefinement:
    """Where a maximiser is interior, three evaluations of the rows reach
    the maximum of the reduced rows, which a scalar search finds by the
    definition."""

    @pytest.mark.parametrize("box, n", [(Interval(0.1, 5.0), 2), (Interval(0.01, 5.0), 3)])
    def test_interior_maximiser_is_the_scalar_maximum(self, box, n):
        # the 257-point grid alone is 3.8e-5 short on [0.1, 5], and the best
        # of the stencil about its quartic peak 1.4e-10 short on [0.01, 5]
        g, h = parse_generator("log"), parse_generator("reciprocal")
        want = _row_family_sup(g, h, box, n, 1.0)
        assert want > _brute_force(g, h, box, n, (1.0,), points=257)[0] + 1e-6
        got = verify_stability(g, h, box, n=n).sup_mean_distance
        assert got == pytest.approx(want, rel=0.0, abs=1e-12)

    def test_two_piece_blends_are_the_scalar_maximum(self):
        # r = g'/h' = 2 x e**-x turns at 1: the rows gain those of two counted
        # values and the y of the other piece with r(y) = r(z), here by Lambert W
        g, h, box = parse_generator("power:2.0"), parse_generator("exp"), Interval(0.5, 3.0)

        def partner(z):
            w = np.where(z <= 1.0, -1, 0)
            y = np.array([-lambertw(-zi * math.exp(-zi), wi).real for zi, wi in zip(z, w)])
            # z = 1 is the branch point -1/e, where lambertw gives NaN for W = -1
            y = np.where(np.isnan(y), 1.0, y)
            return np.where(z <= 1.0, np.clip(y, 1.0, box.hi), np.clip(y, box.lo, 1.0))

        ts = (0.25, 0.5)
        got = blend_distances(g, h, box, n=3, ts=ts)
        for t, r in zip(ts, got):
            want = max(_row_family_sup(g, h, box, 3, t),
                       _row_family_sup(g, h, box, 3, t, partner=partner))
            assert r == pytest.approx(want, rel=0.0, abs=1e-12), t

    @pytest.mark.parametrize("g, h, box, n", [
        ("log", "reciprocal", Interval(0.1, 5.0), 3), ("power:2.0", "exp", Interval(0.5, 3.0), 6)])
    def test_at_most_three_evaluations_of_the_rows_per_block(self, monkeypatch, g, h, box, n):
        # each evaluation sums g and h and takes both means; four triples to
        # a block, so the power:2 rows (21 triples and 15 with a partner)
        # span several
        calls = []  # means_from_sums calls of each block
        counts, sums = stability._counts, stability.means_from_sums

        def counting_blocks(m, lo, hi):
            calls.append(0)
            return counts(m, lo, hi)

        def counting_means(*args):
            calls[-1] += 1
            return sums(*args)

        monkeypatch.setattr(stability, "_counts", counting_blocks)
        monkeypatch.setattr(stability, "means_from_sums", counting_means)
        monkeypatch.setattr(stability, "_BLOCK_ROWS", 4 * stability._Z_POINTS)
        blend_distances(parse_generator(g), parse_generator(h), box, n=n, ts=TS)
        assert len(calls) >= 2
        assert all(0 < c <= 2 * 3 for c in calls)


class TestBisect:
    def test_halves_every_bracket_toward_its_root(self):
        roots = np.array([1.0, 2.0, 5.0])  # the last beyond the bracket: its end
        got = stability._bisect(lambda mid: mid * mid < roots, np.zeros(3), np.full(3, 2.0), 60)
        np.testing.assert_allclose(got, [1.0, math.sqrt(2.0), 2.0], rtol=0, atol=4e-16)

    def test_zero_halvings_is_the_midpoint(self):
        got = stability._bisect(lambda mid: 1 / 0, np.array([1.0]), np.array([2.0]), 0)
        assert got.tolist() == [1.5]


class TestAgainstDirectMeans:
    def test_sup_distance_matches_brute_force(self):
        g, h = parse_generator("identity"), parse_generator("reciprocal")
        pts = np.linspace(1.0, 2.0, 21)
        worst = 0.0
        for i, a in enumerate(pts):
            for b in pts[i:]:
                worst = max(worst, abs(mean(g, (a, b)) - mean(h, (a, b))))
        sup = verify_stability(g, h, B, n=2, grid_per_dim=21).sup_mean_distance
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

    def test_overflowing_rows_raise(self):
        with pytest.raises(NumericError):
            blend_distances(parse_generator("identity"), parse_generator("exp"),
                            self.BOX, n=5, ts=(1.0,))

    @pytest.mark.parametrize("errors", ["default", "raise"])
    def test_an_underflowing_slope_is_numeric_error_whatever_the_errstate(self, errors):
        # exp' = exp underflows to 0 at -800, so g'/h' = 1/exp is not finite
        # there; a caller raising on float errors must get the same error
        with np.errstate(all="raise") if errors == "raise" else contextlib.nullcontext():
            with pytest.raises(NumericError, match="not finite"):
                verify_stability(parse_generator("identity"), parse_generator("exp"),
                                 Interval(-800.0, 1.0), n=2)

    def test_bound_is_finite_where_the_slope_overflows(self):
        # -1/x**2 overflows at the low end of the box; g itself stays finite
        bound = theorem4_bound(parse_generator("reciprocal"), parse_generator("log"),
                               Interval(1e-200, 1e-100))
        assert math.isfinite(bound)


class TestBlockedPath:
    """Families larger than one block of rows (2**15): at n = 60 the rows
    with a partner y hold 1770 count triples, 127 to a block."""

    @staticmethod
    def _multisets(grid, n):
        axis = B.grid(grid)
        return axis[np.array(list(itertools.combinations_with_replacement(range(grid), n)))]

    def test_grid_spans_several_blocks(self, monkeypatch):
        blocks = []
        counts = stability._counts

        def counting(m, lo, hi):
            blocks.append(m)
            return counts(m, lo, hi)

        monkeypatch.setattr(stability, "_counts", counting)
        verify_stability(parse_generator("power:2.0"), parse_generator("exp"),
                         Interval(0.5, 3.0), n=60)
        assert blocks.count(59) > 5 and blocks.count(60) > 5

    @pytest.mark.parametrize("pair", [("identity", "log"), ("reciprocal", "exp"),
                                      ("power:2.0", "log")])
    def test_verify_equals_unblocked_row_means_bit_for_bit(self, pair):
        # the sup of these pairs sits at a row of the box's ends, which the
        # reduction sums in the order a row is summed
        def plain_row_means(gen, rows):
            return means_from_sums(gen.inverse, np.sum(gen.forward(rows), axis=1), 3)[1]

        g, h = (parse_generator(s) for s in pair)
        rows = self._multisets(101, 3)
        want = float(np.max(np.abs(plain_row_means(g, rows) - plain_row_means(h, rows))))
        assert verify_stability(g, h, B, n=3).sup_mean_distance == want

    def test_blend_does_not_depend_on_the_block_size(self, monkeypatch):
        # two count triples to a block: the 66 triples with a partner y take 33
        g, h, box = parse_generator("power:2.0"), parse_generator("exp"), Interval(0.5, 3.0)
        whole = blend_distances(g, h, box, n=12, ts=TS)
        monkeypatch.setattr(stability, "_BLOCK_ROWS", 2 * stability._Z_POINTS)
        assert blend_distances(g, h, box, n=12, ts=TS) == whole

    def test_reference_bisection_recovers_the_grid(self):
        # _blend_means, which the brute force inverts blends with, takes the
        # blend of each grid point back to that point
        g, h, box = parse_generator("power:2.0"), parse_generator("exp"), Interval(0.5, 3.0)
        zs = box.grid(41)
        for t in (0.125, 0.5, 0.875):
            ys = (1.0 - t) * g.forward(zs) + t * h.forward(zs)
            got = _blend_means(g, h, t, ys, box)
            assert np.allclose(got, zs, rtol=0.0, atol=4.0 * np.spacing(box.hi))

    @pytest.mark.parametrize("pair", [("identity", "exp"), ("log", "reciprocal")])
    def test_blend_matches_scalar_bisection(self, pair):
        g, h = (parse_generator(s) for s in pair)
        want = _brute_force(g, h, B, 3, TS, points=17)
        assert blend_distances(g, h, B, n=3, ts=TS) == pytest.approx(want, abs=1e-12, rel=0.0)

    def test_wrong_derivative_falls_back_to_bisection(self):
        # a slope a million times too steep stalls Newton; bisection must
        # still land on the blended means of the true log
        log = parse_generator("log")
        calls = []

        def forward(x):
            calls.append(1)
            return np.log(x)

        bad_log = Generator("bad_log", log.domain, forward, np.exp,
                            lambda x: 1e6 / x)
        ident = parse_generator("identity")
        want = blend_distances(ident, log, B, n=3, ts=TS)
        calls.clear()
        got = blend_distances(ident, bad_log, B, n=3, ts=TS)
        assert got == pytest.approx(want, abs=1e-12, rel=0.0)
        assert len(calls) > 100  # the bisection's 100 halvings ran


class TestOneInversion:
    """The blended means of every interior t are found by one Newton
    iteration per evaluation of the rows, the rows of each t a leading
    slice."""

    # increasing, but flat on [1.4, 1.6]: as h, it makes g'/h' = g'/0 there
    FLAT = Generator("flat", Interval(-10.0, 10.0),
                     lambda x: np.where(x < 1.4, x, np.where(x <= 1.6, 1.4, x - 0.2)), None,
                     lambda x: np.where((1.4 <= x) & (x <= 1.6), 0.0, 1.0))

    @pytest.mark.parametrize("pair, box", [(("log", "reciprocal"), B),
                                           (("power:2.0", "exp"), Interval(0.5, 3.0))])
    def test_calls_do_not_depend_on_the_number_of_ts(self, monkeypatch, pair, box):
        g, h = (parse_generator(s) for s in pair)
        invert_blend = stability._invert_blend
        calls = []

        def counting(gn, hn, weights, y, start, box):
            calls.append(np.unique(weights[1]).size)
            return invert_blend(gn, hn, weights, y, start, box)

        monkeypatch.setattr(stability, "_invert_blend", counting)
        per_ts = []
        for ts in ((0.0, 0.5, 1.0), [i / 8 for i in range(9)]):
            calls.clear()
            blend_distances(g, h, box, n=2, ts=ts)
            per_ts.append(list(calls))
        assert len(per_ts[0]) == len(per_ts[1]) > 0
        assert set(per_ts[0]) == {1} and set(per_ts[1]) == {7}

    @pytest.mark.parametrize("g, h, box", [
        *((g, h, B) for g, h in itertools.permutations(TestRatioPieces.SPECS, 2)),
        ("power:2.0", "exp", Interval(0.5, 3.0)), ("log", "reciprocal", Interval(0.1, 5.0)),
        ("reciprocal", "log", Interval(1e-200, 1e-100))])
    def test_the_same_whatever_the_errstate(self, g, h, box):
        # a Newton step runs on every row, those it does not move included
        gen_g, gen_h = parse_generator(g), parse_generator(h)

        def outcome(certificate):
            try:
                return certificate()
            except NumericError as e:  # the outcome is the error's type
                return type(e)

        certificates = (lambda: blend_distances(gen_g, gen_h, box, n=2, ts=TS),
                        lambda: verify_stability(gen_g, gen_h, box, n=2))
        default = [outcome(c) for c in certificates]
        with np.errstate(all="raise"):
            assert [outcome(c) for c in certificates] == default

    def test_a_flat_generator_is_numeric_error(self):
        ident = parse_generator("identity")
        with pytest.raises(NumericError, match="not finite"):
            verify_stability(ident, self.FLAT, B, n=2)
        with pytest.raises(NumericError, match="not finite"):
            blend_distances(ident, self.FLAT, B, n=2, ts=TS)

    def test_a_flat_g_is_degenerate_slope_error(self):
        # g'/h' = 0 on the flat piece; blend_distances returned
        # [0.0, 0.19999999776482..., 0.19999999776482...]
        flat = Generator("flat", self.FLAT.domain, self.FLAT.forward,
                         lambda y: np.where(y < 1.4, y, y + 0.2), self.FLAT.derivative)
        ident = parse_generator("identity")
        with pytest.raises(DegenerateSlopeError, match="vanishes"):
            verify_stability(flat, ident, B, n=2)
        with pytest.raises(DegenerateSlopeError, match="vanishes"):
            blend_distances(flat, ident, B, n=2, ts=(0.0, 0.5, 1.0))


# (g, h, box, n, sup |M_g - M_h| of verify_stability, blend distances at
# t = 0.25, 0.5 and 1), as computed before the swap to numpy's ufuncs and
# their reductions: power:2.0 and exp turn once on [0.5, 3], so their n = 3
# rows include the partner coordinate
_PINNED = [
    ("identity", "log", (1.0, 2.0), 3, 0.07926561469846738,
     [0.015084940120713375, 0.03219243415485673, 0.07926561469846738]),
    ("log", "exp", (1.0, 2.0), 3, 0.1929113753690681,
     [0.13354349658708586, 0.16389025459267637, 0.1929113753690681]),
    ("identity", "log", (0.5, 3.0), 3, 0.5157030422193531,
     [0.10147313564125304, 0.21116069025264106, 0.5157030422193531]),
    ("power:2.0", "exp", (0.5, 3.0), 3, 0.27388305371780675,
     [0.10818310922751673, 0.1823065807718265, 0.27388305371780675]),
    ("exp", "power:2.0", (0.5, 3.0), 3, 0.27388305371780675,
     [0.03887716611225889, 0.09157647294598026, 0.27388305371780675]),
]


@pytest.mark.parametrize("g, h, box, n, sup, blends", _PINNED,
                         ids=[f"{g}-{h}-{box}" for g, h, box, *_ in _PINNED])
def test_certificates_keep_their_bits(g, h, box, n, sup, blends):
    gen_g, gen_h, box = parse_generator(g), parse_generator(h), Interval(*box)
    assert _pieces(gen_g, gen_h, box) == (2 if box.lo == 0.5 and "power:2.0" in (g, h) else 1)
    assert verify_stability(gen_g, gen_h, box, n).sup_mean_distance == sup
    assert blend_distances(gen_g, gen_h, box, n, ts=(0.25, 0.5, 1.0)) == blends


def test_n2_bound_parts_keep_their_bits():
    report = verify_stability(parse_generator("power:2.0"), parse_generator("exp"),
                              Interval(0.5, 3.0), 2)
    assert (report.sup_mean_distance, report.bound) == (0.23516123697194757, 22.171073846375336)
    report = verify_stability(parse_generator("reciprocal"), parse_generator("power:2.0"), B, 2)
    assert (report.sup_mean_distance, report.bound) == (0.2478054967508565, 36.0)
