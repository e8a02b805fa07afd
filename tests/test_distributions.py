"""Scenario distributions: sampling, densities, quantiles, moment formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, stats

from regmeans.distributions import _polygamma
from regmeans import (
    DomainError,
    Gamma,
    InvalidParameterError,
    LogNormal,
    NumericError,
    Pareto,
    Uniform,
    parse_distribution,
    parse_generator,
)

ALL = [
    LogNormal(2.0, 1.0),
    Gamma(100.0, 1.0),
    Uniform(1.0, 2.0),
    Pareto(10.0, 1.0),
]


def _ids(ds):
    return [d.spec for d in ds]


# ---------------------------------------------------------------------------
# Construction and parsing

class TestParsing:
    @pytest.mark.parametrize("spec", ["lognormal:0:inf", "lognormal:nan:1", "gamma:inf:1",
                                      "gamma:1:inf", "uniform:1:inf", "uniform:-inf:1",
                                      "pareto:inf", "pareto:2:inf", "power:inf"])
    def test_parameters_must_be_finite(self, spec):
        parse = parse_generator if spec.startswith("power") else parse_distribution
        with pytest.raises(InvalidParameterError):
            parse(spec)

    @pytest.mark.parametrize("spec,expected", [
        ("lognormal:2:1", LogNormal(2.0, 1.0)),
        ("gamma:100:1", Gamma(100.0, 1.0)),
        ("uniform:1:2", Uniform(1.0, 2.0)),
        ("pareto:10", Pareto(10.0, 1.0)),
        ("pareto:10:3", Pareto(10.0, 3.0)),
    ])
    def test_round_trip(self, spec, expected):
        assert parse_distribution(spec) == expected

    @pytest.mark.parametrize("dist", ALL, ids=_ids(ALL))
    def test_spec_is_parseable(self, dist):
        assert parse_distribution(dist.spec) == dist

    @pytest.mark.parametrize("bad", [
        "lognormal:2", "gamma:1:2:3", "uniform:2:1", "pareto",
        "pareto:10:1:9", "weibull:1:1", "gamma:0:1", "gamma:1:0",
        "lognormal:0:0", "pareto:0", "pareto:10:0", "uniform:1:1",
        "gamma:a:b",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(InvalidParameterError):
            parse_distribution(bad)

    @pytest.mark.parametrize("spec", [None, 2.0, b"uniform:1:2"])
    def test_spec_must_be_a_string(self, spec):
        # None raised a bare AttributeError (no .strip)
        with pytest.raises(InvalidParameterError, match="string"):
            parse_distribution(spec)

    @pytest.mark.parametrize("cls,params,name", [
        pytest.param(cls, params, name, id=f"{cls.__name__}-{name}")
        for cls, params, name in [
            (LogNormal, ("0", 1.0), "mu"), (LogNormal, (0.0, None), "sigma2"),
            (Gamma, ("2", 1.0), "shape"), (Gamma, (2.0, "1"), "rate"),
            (Uniform, ("1", "2"), "lo"), (Uniform, (1.0, None), "hi"),
            (Pareto, (None,), "alpha"), (Pareto, (3.0, "1"), "scale")]])
    def test_parameters_must_be_real_numbers(self, cls, params, name):
        # each raised a bare TypeError from a comparison or math.isfinite
        with pytest.raises(InvalidParameterError, match=rf"^{name} must be a real number"):
            cls(*params)

    def test_parameter_validation_direct(self):
        with pytest.raises(InvalidParameterError):
            LogNormal(0.0, -1.0)
        with pytest.raises(InvalidParameterError):
            Gamma(-1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            Uniform(2.0, 2.0)
        with pytest.raises(InvalidParameterError):
            Pareto(10.0, -1.0)


# ---------------------------------------------------------------------------
# Sampling

class TestSampling:
    @pytest.mark.parametrize("dist", ALL, ids=_ids(ALL))
    def test_same_seed_same_vector(self, dist):
        a = dist.sample(256, np.random.default_rng(5))
        b = dist.sample(256, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dist", ALL, ids=_ids(ALL))
    def test_samples_inside_support(self, dist):
        x = dist.sample(4096, np.random.default_rng(0))
        s = dist.support
        assert np.all(x >= s.lo) and np.all(x <= s.hi)

    @pytest.mark.parametrize("dist,mean_", [
        (LogNormal(2.0, 1.0), math.exp(2.5)),
        (Gamma(100.0, 1.0), 100.0),
        (Uniform(1.0, 2.0), 1.5),
        (Pareto(10.0, 1.0), 10.0 / 9.0),
    ], ids=_ids(ALL))
    def test_sample_mean_near_analytic(self, dist, mean_):
        x = dist.sample(200_000, np.random.default_rng(17))
        assert np.mean(x) == pytest.approx(mean_, rel=0.02)

    # every family, Gamma at shapes below, at and above 1, and Pareto with
    # exponents -1/alpha of -0.1, -1, -0.5 and -2
    OUT_CASES = [LogNormal(0.0, 1.0), LogNormal(-3.0, 0.25), Gamma(0.5, 1.0), Gamma(1.0, 1.0),
                 Gamma(100.0, 1.0), Gamma(2.5, 3.7), Uniform(1.0, 2.0), Uniform(-3.0, 7.1),
                 Pareto(10.0, 1.0), Pareto(1.0, 1.0), Pareto(2.0, 1.0), Pareto(0.5, 1.5)]

    @pytest.mark.parametrize("dist", OUT_CASES, ids=_ids(OUT_CASES))
    @pytest.mark.parametrize("seed", range(4))
    def test_out_holds_the_bits_of_a_fresh_draw(self, dist, seed):
        fresh = dist.sample(1000, np.random.default_rng(seed))
        buf = np.full(1003, np.nan)
        got = dist.sample(1000, np.random.default_rng(seed), out=buf[:1000])
        assert np.shares_memory(got, buf) and got.shape == (1000,)
        assert got.tobytes() == fresh.tobytes()
        assert np.isnan(buf[1000:]).all()  # nothing written past out

    @pytest.mark.parametrize("dist", OUT_CASES, ids=_ids(OUT_CASES))
    def test_draws_keep_the_bits_of_the_plain_formula(self, dist):
        # the in-place draws are numpy's own samplers written out, op for op
        rng, got = np.random.default_rng(11), dist.sample(1000, np.random.default_rng(11))
        if isinstance(dist, LogNormal):
            want = np.exp(dist.mu + dist.sigma * rng.standard_normal(1000))
        elif isinstance(dist, Gamma):
            want = rng.gamma(dist.shape, 1.0 / dist.rate, 1000)
        elif isinstance(dist, Uniform):
            want = dist.lo + (dist.hi - dist.lo) * rng.random(1000)
        else:
            want = dist.scale * (1.0 - rng.random(1000)) ** (-1.0 / dist.alpha)
        assert got.tobytes() == want.tobytes()

    def test_gamma_rate_convention(self):
        # rate, not scale: Gamma(2, 4) has mean 1/2
        x = Gamma(2.0, 4.0).sample(200_000, np.random.default_rng(2))
        assert np.mean(x) == pytest.approx(0.5, rel=0.02)


# ---------------------------------------------------------------------------
# Densities and CDFs

class TestDensities:
    SCIPY = {
        "lognormal:2:1": stats.lognorm(s=1.0, scale=math.exp(2.0)),
        "gamma:100:1": stats.gamma(a=100.0, scale=1.0),
        "uniform:1:2": stats.uniform(loc=1.0, scale=1.0),
        "pareto:10:1": stats.pareto(b=10.0, scale=1.0),
    }

    @pytest.mark.parametrize("dist", ALL, ids=_ids(ALL))
    def test_pdf_cdf_match_reference(self, dist):
        ref = self.SCIPY[dist.spec]
        xs = np.linspace(dist.quantile(0.01), dist.quantile(0.99), 41)
        np.testing.assert_allclose(dist.pdf(xs), ref.pdf(xs), rtol=1e-10)
        np.testing.assert_allclose(dist.cdf(xs), ref.cdf(xs), rtol=1e-10)

    @pytest.mark.parametrize("dist", ALL, ids=_ids(ALL))
    def test_pdf_integrates_to_one(self, dist):
        lo, hi = dist.quantile(1e-12), dist.quantile(1.0 - 1e-12)
        total, _ = integrate.quad(dist.pdf, lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("dist", ALL, ids=_ids(ALL))
    def test_cdf_zero_left_of_support(self, dist):
        assert dist.cdf(dist.support.lo - 0.5) == 0.0
        assert dist.pdf(dist.support.lo - 0.5) == 0.0

    def test_scalar_and_array_agree(self):
        d = LogNormal(2.0, 1.0)
        assert isinstance(d.pdf(3.0), float)
        assert d.pdf(np.array([3.0]))[0] == d.pdf(3.0)
        assert isinstance(d.cdf(3.0), float)

    @pytest.mark.parametrize("d", [Gamma(100.0, 1.0), Gamma(2.0, 3.0), Gamma(0.5, 1.0)],
                             ids=lambda d: d.spec)
    def test_gamma_scalar_density_matches_the_array_path(self, d):
        # a scalar goes through the array path: a float with the same bits
        mode = max(d.shape - 1.0, 0.5) / d.rate  # an inner point where the mode is 0
        for x in (0.0, -1.0, mode, d.quantile(1e-15), d.isf(1e-15)):
            scalar, array = d.pdf(x), d.pdf(np.array([x]))[0]
            assert isinstance(scalar, float)
            assert scalar == array
        assert d.pdf(0.0) == d.pdf(-1.0) == 0.0

    def test_gamma_scalar_density_overflows_to_inf(self):
        # x**(shape - 1) beyond the float range near 0, as np.exp would round it
        assert Gamma(0.01, 1.0).pdf(5e-324) == math.inf


class TestQuantiles:
    @pytest.mark.parametrize("dist", ALL, ids=_ids(ALL))
    @given(u=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_quantile_inverts_cdf(self, dist, u):
        assert dist.cdf(dist.quantile(u)) == pytest.approx(u, abs=1e-9)

    @pytest.mark.parametrize("dist", ALL, ids=_ids(ALL))
    @given(u=st.floats(min_value=1e-6, max_value=0.5))
    def test_isf_is_upper_quantile(self, dist, u):
        assert dist.isf(u) == pytest.approx(dist.quantile(1.0 - u), rel=1e-9)

    def test_isf_reaches_deep_tail(self):
        # 1 - u rounds to 1.0 here; the survival form must still resolve
        d = Pareto(10.0, 1.0)
        x = d.isf(1e-40)
        assert x == pytest.approx(1e4, rel=1e-12)

    def test_pareto_median(self):
        assert Pareto(10.0, 1.0).quantile(0.5) == pytest.approx(2 ** 0.1, rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, math.nan])
    def test_u_must_be_interior(self, bad):
        with pytest.raises(InvalidParameterError):
            Uniform(1.0, 2.0).quantile(bad)

    @pytest.mark.parametrize("dist", ALL + [Pareto(3.5, 1.5)], ids=_ids(ALL + [Pareto(3.5, 1.5)]))
    def test_scalar_node_matches_the_array_path(self, dist):
        # a float goes through the array path as a 0-d array; numpy's power
        # on one element may differ from its vectorized loop by an ulp or
        # two (Pareto), every other formula not
        us = np.concatenate([np.linspace(0.001, 0.999, 999), np.logspace(-300, -1, 600)])
        ulps = 2 if isinstance(dist, Pareto) else 0
        for f in (dist.quantile, dist.isf):
            for u, array in zip(us, f(us)):
                scalar = f(float(u))
                assert type(scalar) is float
                assert abs(scalar - array) <= ulps * np.spacing(array)

    @pytest.mark.parametrize("dist", ALL, ids=_ids(ALL))
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.0, math.nan])
    def test_scalar_node_rejects_what_the_array_rejects(self, dist, bad):
        for f in (dist.quantile, dist.isf):
            for u in (bad, np.array(bad), np.array([0.5, bad])):
                with pytest.raises(InvalidParameterError, match="strictly in"):
                    f(u)

    @pytest.mark.parametrize("f, u", [("isf", 1e-300), ("quantile", 1.0 - 1e-16)])
    def test_scalar_node_overflow_is_inf(self, f, u):
        # u**-1000 is beyond the float range: inf, without a RuntimeWarning
        dist = Pareto(1e-3)
        with np.errstate(over="ignore"):
            array = getattr(dist, f)(np.array([u]))[0]
        assert getattr(dist, f)(u) == array == math.inf


# ---------------------------------------------------------------------------
# Moment formulas

class TestMoments:
    def test_raw_moment_examples(self):
        assert Pareto(10.0, 1.0).power_moment(1.0) == pytest.approx(10.0 / 9.0, rel=1e-14)
        assert Gamma(100.0, 1.0).power_moment(1.0) == pytest.approx(100.0)
        assert Uniform(1.0, 2.0).power_moment(1.0) == pytest.approx(1.5)
        assert LogNormal(2.0, 1.0).power_moment(2.0) == pytest.approx(math.exp(6.0), rel=1e-12)

    def test_pareto_tail_index_cuts_off_moments(self):
        d = Pareto(10.0, 1.0)
        assert math.isfinite(d.power_moment(9.0))
        assert d.power_moment(10.0) == math.inf
        assert d.power_moment(11.0) == math.inf

    def test_power_moment_fractional(self):
        # E[X^0.5] of Uniform(1,2) = (2^1.5 - 1)/1.5
        got = Uniform(1.0, 2.0).power_moment(0.5)
        assert got == pytest.approx((2.0 ** 1.5 - 1.0) / 1.5, rel=1e-14)

    def test_power_moment_minus_one_special_case(self):
        assert Uniform(1.0, 2.0).power_moment(-1.0) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_uniform_power_moment_across_zero(self):
        d = Uniform(-1.0, 2.0)
        assert d.power_moment(-1.0) == math.inf
        with pytest.raises(DomainError):
            d.power_moment(0.5)
        assert d.power_moment(2.0) == pytest.approx(1.0, rel=1e-14)  # (8 + 1) / 9

    def test_gamma_negative_power_boundary(self):
        d = Gamma(2.0, 1.0)
        assert d.power_moment(-1.0) == pytest.approx(1.0, rel=1e-12)  # 1/(a-1)
        assert d.power_moment(-2.0) == math.inf
        assert d.power_moment(-2.5) == math.inf

    def test_mgf_three_valued(self):
        assert LogNormal(2.0, 1.0).mgf(1.0) == math.inf
        assert LogNormal(2.0, 1.0).mgf(-1.0) is None  # finite but no closed form
        assert Gamma(2.0, 3.0).mgf(1.0) == pytest.approx((1 - 1 / 3) ** -2, rel=1e-12)
        assert Gamma(2.0, 3.0).mgf(3.0) == math.inf
        assert Pareto(10.0, 1.0).mgf(1.0) == math.inf
        u = Uniform(1.0, 2.0).mgf(1.0)
        assert u == pytest.approx(math.e * (math.e - 1.0), rel=1e-12)

    def test_uniform_mgf_beyond_the_float_range_is_numeric_error(self):
        # (e**1600 - 1) / 1600 does not fit a float; inf would read as divergent
        with pytest.raises(NumericError):
            Uniform(0.0, 400.0).mgf(4.0)

    @pytest.mark.parametrize("lo, hi, t", [(-800.0, -750.0, 1.0), (750.0, 800.0, -1.0),
                                           (-760.0, -740.0, 1.0)])
    def test_uniform_mgf_below_the_normal_range_is_numeric_error(self, lo, hi, t):
        # about e**-750 / 50: a 0 would read as exact, a subnormal has lost digits
        with pytest.raises(NumericError, match="underflows"):
            Uniform(lo, hi).mgf(t)

    @pytest.mark.parametrize("dist, t", [(LogNormal(700.0, 100.0), 1.0), (Gamma(2.0, 1e-300), 2.0),
                                         (Pareto(10.0, 1e200), 2.0)],
                             ids=["lognormal:700:100", "gamma:2:1e-300", "pareto:10:1e200"])
    def test_power_moment_beyond_the_float_range_is_numeric_error(self, dist, t):
        # finite, so not inf (divergent), but no float either
        with pytest.raises(NumericError, match="overflows"):
            dist.power_moment(t)

    @pytest.mark.parametrize("lo, hi, t, want", [
        (1.0, 1e200, 1.0, 5e199),            # hi**2 overflows
        (0.0, 1.5e154, 2.0, 7.5e307),        # hi**2 overflows, hi**2 / 3 does not
        (-1.5e154, 0.0, 2.0, 7.5e307),
        # lo**-1.07 overflows: about lo**-1.07 / (1.07 hi)
        (1e-290, 1e10, -2.07, math.exp(-1.07 * math.log(1e-290) - math.log(1.07e10))),
    ])
    def test_uniform_power_moment_where_the_end_power_overflows(self, lo, hi, t, want):
        # (hi**(t+1) - lo**(t+1)) / ((t+1) (hi - lo)) raised a bare OverflowError
        assert Uniform(lo, hi).power_moment(t) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("lo, hi, t", [(1.0, 1e200, 2.0), (1e-300, 1e-100, -2.0)])
    def test_uniform_power_moment_beyond_the_float_range_is_numeric_error(self, lo, hi, t):
        with pytest.raises(NumericError, match="overflows"):
            Uniform(lo, hi).power_moment(t)

    def test_uniform_power_moment_on_a_narrow_support(self):
        # hi**3.5 - lo**3.5 cancels: the plain form is off by about 1.5e-11;
        # the series of ((1 + d)**3.5 - 1) / (3.5 d) is not
        d = 1.000001 - 1.0
        want = 1.0 + 1.25 * d + 0.625 * d * d + 0.078125 * d ** 3
        assert Uniform(1.0, 1.000001).power_moment(2.5) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("dist, t", [(LogNormal(700.0, 1.0), -2.0), (Gamma(2.0, 1e300), 2.0),
                                         (Pareto(10.0, 1e-200), 2.0), (Uniform(1e200, 2e200), -2.0)],
                             ids=["lognormal:700:1", "gamma:2:1e300", "pareto:10:1e-200",
                                  "uniform:1e200:2e200"])
    def test_power_moment_below_the_normal_range_is_numeric_error(self, dist, t):
        # exp(-1398) and the like rounded to a silent 0
        with pytest.raises(NumericError, match="underflows"):
            dist.power_moment(t)

    def test_gamma_integer_power_moments_are_exact_products(self):
        # Gamma(k + t) / Gamma(k) / rate**t at integer t, no lgamma difference
        d = Gamma(1000.0, 1.0)
        assert [d.power_moment(t) for t in (1.0, 2.0, 3.0, 4.0)] == [
            1000.0, 1000.0 * 1001.0, 1000.0 * 1001.0 * 1002.0, 1000.0 * 1001.0 * 1002.0 * 1003.0]
        assert Gamma(4.0, 2.0).power_moment(-3.0) == 8.0 / 6.0  # rate**3 / (3 2 1)
        assert Gamma(2.5, 1.0).power_moment(0.5) == pytest.approx(
            math.gamma(3.0) / math.gamma(2.5), rel=1e-14)

    def test_gamma_log_moments_at_a_tiny_shape_are_numeric_error(self):
        # digamma(1e-320) is -inf: the moments were (-inf, inf, nan, nan)
        with pytest.raises(NumericError, match="overflows"):
            Gamma(1e-320, 1.0).log_moments()

    def test_uniform_mgf_on_a_narrow_support(self):
        # e**(t hi) - e**(t lo) cancels to about 1e-4 relative here
        assert Uniform(1.0, 1.0 + 1e-12).mgf(1.0) == pytest.approx(math.e, rel=1e-11)

    def test_log_moment_oracles(self):
        # mean/var/skew/excess kurtosis of ln X, closed forms
        m, v, s, k = LogNormal(2.0, 1.0).log_moments()
        assert (m, v, s, k) == (2.0, 1.0, 0.0, 0.0)

        m, v, s, k = Gamma(1.0, 1.0).log_moments()
        assert m == pytest.approx(-0.5772156649015329, rel=1e-12)
        assert v == pytest.approx(1.6449340668482266, rel=1e-12)
        assert s == pytest.approx(-1.1395470994046482, rel=1e-12)
        assert k == pytest.approx(2.4, rel=1e-12)

        m, v, s, k = Gamma(100.0, 1.0).log_moments()
        assert m == pytest.approx(4.600161852738088, rel=1e-12)
        assert v == pytest.approx(0.010050166663333573, rel=1e-12)
        assert s == pytest.approx(-0.10024967574642173, rel=1e-9)
        assert k == pytest.approx(0.020099825809986434, rel=1e-9)

        m, v, s, k = Pareto(10.0, 1.0).log_moments()
        assert m == pytest.approx(0.1, rel=1e-14)      # ln xm + 1/alpha
        assert v == pytest.approx(0.01, rel=1e-14)     # 1/alpha^2
        assert (s, k) == (2.0, 6.0)                    # exponential shape

        m, v, s, k = Uniform(1.0, 2.0).log_moments()
        assert m == pytest.approx(0.3862943611198906, rel=1e-12)
        assert v == pytest.approx(0.039093972163596974, rel=1e-10)
        assert s == pytest.approx(-0.23960558361969486, rel=1e-8)
        assert k == pytest.approx(-1.1205390568976394, rel=1e-8)

    def test_gamma_rate_shifts_log_mean(self):
        # ln X for Gamma(a, b) is ln X_{b=1} - ln b
        base = Gamma(3.0, 1.0).log_moments()
        scaled = Gamma(3.0, 2.0).log_moments()
        assert scaled[0] == pytest.approx(base[0] - math.log(2.0), rel=1e-12)
        assert scaled[1:] == pytest.approx(base[1:], rel=1e-12)

    def test_lognormal_power_moment(self):
        d = LogNormal(2.0, 1.0)
        for t in (-1.5, 0.5, 3.0):
            assert d.power_moment(t) == pytest.approx(
                math.exp(2.0 * t + 0.5 * t * t), rel=1e-13)


# ---------------------------------------------------------------------------
# Special functions of the Gamma moments

class TestPolygamma:
    # the shapes of Gamma.log_moments, and digamma's root at about 1.4616
    XS = np.concatenate([np.geomspace(1e-3, 1e6, 2001), np.linspace(1.40, 1.52, 241)]).tolist()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_orders_one_to_three_match_scipy(self, n):
        from scipy.special import polygamma

        errs = [abs(_polygamma(n, x) / float(polygamma(n, x)) - 1.0) for x in self.XS]
        assert max(errs) <= 1e-15

    def test_digamma_matches_scipy(self):
        from scipy.special import digamma

        errs = [abs(_polygamma(0, x) - float(digamma(x))) / max(1.0, abs(float(digamma(x))))
                for x in self.XS]
        assert max(errs) <= 1e-15

    def test_gamma_log_moments_match_scipy(self):
        from scipy.special import digamma, polygamma

        for shape in (0.5, 1.0, 100.0, 1e5):
            v = float(polygamma(1, shape))
            want = (float(digamma(shape)) - math.log(2.0), v,
                    float(polygamma(2, shape)) / v / math.sqrt(v), float(polygamma(3, shape)) / v / v)
            assert Gamma(shape, 2.0).log_moments() == pytest.approx(want, rel=1e-14)
