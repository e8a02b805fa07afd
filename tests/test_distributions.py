"""Scenario distributions: sampling, densities, quantiles, moment formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, stats

from regmeans import (
    Gamma,
    InvalidParameterError,
    LogNormal,
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
