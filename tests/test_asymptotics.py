"""Generalized expectations, limiting variances, and the Edgeworth expansion."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from regmeans import (
    ConfigurationError,
    DegenerateSlopeError,
    DivergenceError,
    Gamma,
    GMoments,
    InvalidParameterError,
    LogNormal,
    Pareto,
    Uniform,
    asymptotic_variance,
    edgeworth_cdf,
    edgeworth_corrections,
    expect,
    g_moments,
    hermite,
    kolmogorov_expectation,
    parse_generator,
    phi_cdf,
    phi_pdf,
)
from regmeans import asymptotics

LN = LogNormal(2.0, 1.0)
GAM = Gamma(100.0, 1.0)
UNI = Uniform(1.0, 2.0)
PAR = Pareto(10.0, 1.0)


# ---------------------------------------------------------------------------
# expect / kolmogorov_expectation

class TestExpect:
    def test_plain_mean(self):
        assert expect(UNI, lambda x: x) == pytest.approx(1.5, abs=1e-10)

    def test_log_integrand(self):
        assert expect(LN, math.log) == pytest.approx(2.0, abs=1e-9)

    def test_divergent_integrand_flagged(self):
        with pytest.raises(DivergenceError):
            expect(PAR, lambda x: x ** 12)  # tail index 10

    @pytest.mark.parametrize("t", [2, 4, 6, 8, 9.5])
    def test_pareto_power_moments_near_the_tail_index(self, t):
        # E[X**t] = alpha/(alpha - t); (1-u)**(-t/alpha) in quantile space is
        # an endpoint singularity that plain QAGS gave up on at t = 8
        assert expect(PAR, lambda x: x ** t) == pytest.approx(10.0 / (10.0 - t), rel=1e-12)


class TestKolmogorovExpectation:
    def test_identity_uniform(self):
        g = parse_generator("identity")
        assert kolmogorov_expectation(g, UNI) == pytest.approx(1.5, rel=1e-14)

    def test_log_lognormal_is_geometric_center(self):
        g = parse_generator("log")
        assert kolmogorov_expectation(g, LN) == pytest.approx(math.exp(2.0), rel=1e-14)

    def test_identity_pareto(self):
        g = parse_generator("identity")
        assert kolmogorov_expectation(g, PAR) == pytest.approx(10.0 / 9.0, rel=1e-14)

    @pytest.mark.parametrize("fn", [kolmogorov_expectation, asymptotic_variance])
    def test_monte_carlo_is_for_g_moments_only(self, fn):
        with pytest.raises(InvalidParameterError):
            fn(parse_generator("log"), GAM, method="monte_carlo")

    def test_power_two_closed_forms(self):
        g = parse_generator("power:2.0")
        assert kolmogorov_expectation(g, LN) == pytest.approx(math.exp(3.0), rel=1e-13)
        assert kolmogorov_expectation(g, GAM) == pytest.approx(math.sqrt(10100.0), rel=1e-13)
        assert kolmogorov_expectation(g, UNI) == pytest.approx(math.sqrt(7.0 / 3.0), rel=1e-13)
        assert kolmogorov_expectation(g, PAR) == pytest.approx(math.sqrt(1.25), rel=1e-13)

    def test_exp_uniform(self):
        g = parse_generator("exp")
        want = math.log((math.e ** 2 - math.e) / 1.0)
        assert kolmogorov_expectation(g, UNI) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("dist", [LN, GAM, PAR], ids=lambda d: d.spec)
    def test_exp_heavy_tails_diverge(self, dist):
        with pytest.raises(DivergenceError):
            kolmogorov_expectation(parse_generator("exp"), dist)

    def test_quadrature_agrees_with_closed_form(self):
        g = parse_generator("log")
        closed = kolmogorov_expectation(g, LN, method="closed_form")
        quad = kolmogorov_expectation(g, LN, method="quadrature")
        assert quad == pytest.approx(closed, rel=1e-9)

    def test_internality(self):
        # E_g always lies inside the support
        for spec in ("identity", "log", "reciprocal", "power:2.0"):
            e = kolmogorov_expectation(parse_generator(spec), UNI)
            assert 1.0 < e < 2.0

    def test_generator_ordering_on_lognormal(self):
        # harmonic <= geometric <= arithmetic, strict for non-degenerate X
        har = kolmogorov_expectation(parse_generator("reciprocal"), LN)
        geo = kolmogorov_expectation(parse_generator("log"), LN)
        ari = kolmogorov_expectation(parse_generator("identity"), LN)
        assert har < geo < ari

    def test_bad_method_name(self):
        with pytest.raises(InvalidParameterError):
            kolmogorov_expectation(parse_generator("log"), LN, method="exact")


# ---------------------------------------------------------------------------
# g_moments and asymptotic variance

class TestGMoments:
    def test_identity_uniform_exact(self):
        mom = g_moments(parse_generator("identity"), UNI)
        assert mom.mean_g == pytest.approx(1.5, rel=1e-14)
        assert mom.var_g == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert mom.skew_g == pytest.approx(0.0, abs=1e-12)
        assert mom.exkurt_g == pytest.approx(-1.2, rel=1e-10)
        assert mom.method == "closed_form"

    def test_log_lognormal_is_exactly_normal(self):
        mom = g_moments(parse_generator("log"), LN)
        assert (mom.mean_g, mom.var_g) == (2.0, 1.0)
        assert mom.skew_g == 0.0 and mom.exkurt_g == 0.0

    def test_identity_lognormal_shape(self):
        mom = g_moments(parse_generator("identity"), LN)
        assert mom.skew_g == pytest.approx(6.184877138632554, rel=1e-10)
        assert mom.exkurt_g == pytest.approx(110.9363921763115, rel=1e-10)

    def test_identity_pareto_shape(self):
        mom = g_moments(parse_generator("identity"), PAR)
        assert mom.skew_g == pytest.approx(2.8110568859997356, rel=1e-10)
        assert mom.exkurt_g == pytest.approx(14.82857142857143, rel=1e-10)

    def test_quadrature_matches_closed_form(self):
        g = parse_generator("reciprocal")
        closed = g_moments(g, GAM, method="closed_form")
        quad = g_moments(g, GAM, method="quadrature")
        assert quad.mean_g == pytest.approx(closed.mean_g, rel=1e-9)
        assert quad.var_g == pytest.approx(closed.var_g, rel=1e-7)
        assert quad.skew_g == pytest.approx(closed.skew_g, rel=1e-5)

    def test_quadrature_reaches_the_fourth_pareto_moment(self):
        # E[(X**2)**4] = E[X**8] sits two orders below the tail index 10
        g = parse_generator("power:2.0")
        closed = g_moments(g, PAR, method="closed_form")
        quad = g_moments(g, PAR, method="quadrature")
        assert quad.mean_g == pytest.approx(closed.mean_g, rel=1e-12)
        assert quad.var_g == pytest.approx(closed.var_g, rel=1e-10)
        assert quad.skew_g == pytest.approx(closed.skew_g, rel=1e-10)
        assert quad.exkurt_g == pytest.approx(closed.exkurt_g, rel=1e-10)

    def test_monte_carlo_close_enough(self):
        mom = g_moments(parse_generator("identity"), UNI, method="monte_carlo")
        assert mom.method == "monte_carlo"
        assert mom.mean_g == pytest.approx(1.5, rel=5e-3)
        assert mom.var_g == pytest.approx(1.0 / 12.0, rel=2e-2)

    def test_monte_carlo_is_seeded(self):
        a = g_moments(parse_generator("log"), GAM, method="monte_carlo", mc_samples=10_000)
        b = g_moments(parse_generator("log"), GAM, method="monte_carlo", mc_samples=10_000)
        assert a == b

    def test_divergence_names_the_order(self):
        # E[X^4] infinite when tail index is 3.5
        with pytest.raises(DivergenceError, match="4"):
            g_moments(parse_generator("identity"), Pareto(3.5, 1.0))

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            GMoments(0.0, -1.0, 0.0, 0.0, "closed_form")
        with pytest.raises(InvalidParameterError):
            GMoments(0.0, 1.0, 0.0, 0.0, "guesswork")


class TestAsymptoticVariance:
    # var(g(X)) / g'(E_g)^2, closed forms frozen ahead of the build
    ORACLE = {
        ("lognormal:2:1", "identity"): 255.0156343901585,
        ("lognormal:2:1", "log"): 54.598150033144236,
        ("lognormal:2:1", "reciprocal"): 34.51261310995658,
        ("gamma:100:1", "identity"): 100.0,
        ("gamma:100:1", "log"): 99.50000001127827,
        ("gamma:100:1", "reciprocal"): 100.01020408218376,
        ("uniform:1:2", "identity"): 1.0 / 12.0,
        ("uniform:1:2", "log"): 0.08465270072967485,
        ("uniform:1:2", "reciprocal"): 0.08467943654055345,
        ("pareto:10:1", "identity"): 0.015432098765432099,
        ("pareto:10:1", "log"): 0.0122140275816017,
        ("pareto:10:1", "reciprocal"): 0.010083333333333517,
    }
    DISTS = {d.spec: d for d in (LN, GAM, UNI, PAR)}

    @pytest.mark.parametrize("key", sorted(ORACLE), ids=lambda k: f"{k[0]}-{k[1]}")
    def test_matches_frozen_oracle(self, key):
        dist_spec, gen_spec = key
        spec = asymptotic_variance(parse_generator(gen_spec), self.DISTS[dist_spec])
        assert spec.asym_var == pytest.approx(self.ORACLE[key], rel=1e-9)

    def test_log_lognormal_is_e4(self):
        spec = asymptotic_variance(parse_generator("log"), LN)
        assert spec.asym_var == pytest.approx(math.exp(4.0), rel=1e-12)
        assert spec.eg == pytest.approx(math.exp(2.0), rel=1e-13)
        assert spec.gprime_at_eg == pytest.approx(math.exp(-2.0), rel=1e-13)

    def test_identity_reduces_to_plain_variance(self):
        spec = asymptotic_variance(parse_generator("identity"), GAM)
        assert spec.asym_var == pytest.approx(100.0, rel=1e-9)
        assert spec.gprime_at_eg == 1.0

    def test_quadrature_integrates_each_moment_once(self, monkeypatch):
        # E[g] and E[g**2]; E[g] is not integrated a second time for E_g
        calls = []
        real = asymptotics.expect

        def counting(dist, fn):
            calls.append(fn)
            return real(dist, fn)

        monkeypatch.setattr(asymptotics, "expect", counting)
        asymptotic_variance(parse_generator("log"), GAM, method="quadrature")
        assert len(calls) == 2


# ---------------------------------------------------------------------------
# Normal CDF helpers and Hermite polynomials

class TestNormalHelpers:
    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_phi_cdf_matches_reference(self, x):
        assert phi_cdf(x) == pytest.approx(stats.norm.cdf(x), abs=1e-14)

    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_phi_pdf_matches_reference(self, x):
        assert phi_pdf(x) == pytest.approx(stats.norm.pdf(x), abs=1e-14)

    def test_hermite_values(self):
        assert hermite(1, 0.0) == -1.0          # x^2 - 1
        assert hermite(2, 2.0) == 2.0           # x^3 - 3x
        assert hermite(3, 2.0) == -18.0         # x^5 - 10x^3 + 15x

    def test_hermite_vectorized(self):
        xs = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(hermite(1, xs), xs ** 2 - 1.0)

    def test_hermite_order_validated(self):
        for k in (0, 4, -1):
            with pytest.raises(InvalidParameterError):
                hermite(k, 1.0)


# ---------------------------------------------------------------------------
# Edgeworth expansion

def _mom(skew=0.0, exkurt=0.0):
    return GMoments(0.0, 1.0, skew, exkurt, "closed_form")


class TestEdgeworth:
    def test_hand_computed_value(self):
        # x=0: only the skew term survives, p1(0) = -1
        got = edgeworth_cdf(0.0, 100, _mom(skew=0.6))
        want = 0.5 + phi_pdf(0.0) * 0.6 / 60.0
        assert got == pytest.approx(want, rel=1e-14)

    def test_corrections_vanish_for_normal_moments(self):
        c1, c2, c3 = edgeworth_corrections(1.3, 25, _mom())
        assert (c1, c2, c3) == (0.0, 0.0, 0.0)
        xs = np.linspace(-4, 4, 33)
        np.testing.assert_array_equal(edgeworth_cdf(xs, 25, _mom()), phi_cdf(xs))

    def test_term_decay_in_n(self):
        # x = 0.8 keeps all three polynomial factors away from zero
        mom = _mom(skew=1.5, exkurt=2.0)
        c_small = edgeworth_corrections(0.8, 10, mom)
        c_large = edgeworth_corrections(0.8, 1000, mom)
        assert abs(c_large[0]) < abs(c_small[0])
        # skew term decays like 1/sqrt(n)
        assert c_small[0] / c_large[0] == pytest.approx(math.sqrt(100.0), rel=1e-12)
        # kurtosis and skew^2 terms decay like 1/n
        assert c_small[1] / c_large[1] == pytest.approx(100.0, rel=1e-12)
        assert c_small[2] / c_large[2] == pytest.approx(100.0, rel=1e-12)

    def test_third_order_variants(self):
        skew, kurt = 1.2, 0.7
        base = edgeworth_corrections(0.8, 50, _mom(skew, kurt), "skew_sq")
        alt = edgeworth_corrections(0.8, 50, _mom(skew, kurt), "kurt_sq")
        assert base[:2] == alt[:2]
        assert base[2] / alt[2] == pytest.approx((skew / kurt) ** 2, rel=1e-12)

    def test_third_order_name_validated(self):
        with pytest.raises(InvalidParameterError):
            edgeworth_corrections(0.0, 10, _mom(), "cubed")

    def test_rejects_undefined_shape(self):
        bad = GMoments(0.0, 1.0, math.nan, math.nan, "closed_form")
        with pytest.raises(ConfigurationError):
            edgeworth_cdf(0.0, 10, bad)

    def test_rejects_bad_n(self):
        with pytest.raises(InvalidParameterError):
            edgeworth_cdf(0.0, 0, _mom())

    def test_monotone_for_moderate_shapes_at_large_n(self):
        # the signed expansion can dip for extreme shapes at small n;
        # for these cells it is a genuine CDF on [-4, 4]
        xs = np.linspace(-4.0, 4.0, 801)
        for dist_spec, gen_spec, n in [
            ("gamma:100:1", "identity", 100),
            ("uniform:1:2", "log", 100),
            ("lognormal:2:1", "identity", 150),
            ("lognormal:2:1", "reciprocal", 150),
        ]:
            mom = g_moments(parse_generator(gen_spec),
                            TestAsymptoticVariance.DISTS[dist_spec])
            f = edgeworth_cdf(xs, n, mom)
            assert np.all(np.diff(f) >= -1e-12), (dist_spec, gen_spec)

    def test_edgeworth_beats_phi_on_exponential_tail(self):
        # standardized mean of Gamma(1,1): gap to the true CDF shrinks with
        # the correction; checked against the exact Gamma(n, n) law
        n = 20
        mom = g_moments(parse_generator("identity"), Gamma(1.0, 1.0))
        exact = stats.gamma(a=n, scale=1.0 / n)
        xs = np.linspace(-2.5, 2.5, 201)
        truth = exact.cdf(1.0 + xs / math.sqrt(n))
        gap_phi = np.max(np.abs(phi_cdf(xs) - truth))
        gap_edge = np.max(np.abs(edgeworth_cdf(xs, n, mom) - truth))
        assert gap_edge < gap_phi
