"""Monte Carlo scenario harness, KS statistic, and empirical CDFs."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from regmeans import (
    ConfigurationError,
    DivergenceError,
    Gamma,
    InvalidParameterError,
    LogNormal,
    ScenarioConfig,
    Uniform,
    compare_edgeworth,
    empirical_cdf,
    g_moments,
    ks_statistic,
    parse_distribution,
    parse_generator,
    phi_cdf,
    run_scenario,
)
from regmeans import simulation


def _cfg(dist="gamma:100:1", gen="log", n=200, replicates=300, seed=11):
    return ScenarioConfig(
        dist=parse_distribution(dist),
        generator=parse_generator(gen),
        n=n,
        replicates=replicates,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# KS statistic

class TestKsStatistic:
    def test_single_point_at_median(self):
        assert ks_statistic([0.0], phi_cdf) == pytest.approx(0.5, rel=1e-14)

    def test_exact_quantile_grid(self):
        # values at quantiles (i - 0.5)/N leave a gap of exactly 0.5/N
        N = 40
        u = (np.arange(1, N + 1) - 0.5) / N
        values = stats.norm.ppf(u)
        assert ks_statistic(values, phi_cdf) == pytest.approx(0.5 / N, rel=1e-10)

    @given(st.integers(min_value=1, max_value=400), st.integers(0, 2 ** 31))
    def test_matches_scipy_kstest(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        ours = ks_statistic(x, phi_cdf)
        ref = stats.kstest(x, "norm").statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_order_does_not_matter(self):
        x = np.array([2.0, -1.0, 0.3, 0.3, -0.7])
        assert ks_statistic(x, phi_cdf) == ks_statistic(np.sort(x), phi_cdf)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ks_statistic([], phi_cdf)

    @pytest.mark.parametrize("cdf", [lambda v: float(phi_cdf(v[0])),
                                     lambda v: phi_cdf(v)[:-1]],
                             ids=["scalar", "short"])
    def test_cdf_must_keep_the_shape(self, cdf):
        with pytest.raises(ConfigurationError):
            ks_statistic(np.linspace(-1, 1, 9), cdf)

    def test_scalar_only_cdf_is_a_configuration_error(self):
        def cdf(t):
            return 0.5 * (1 + math.erf(t / math.sqrt(2)))

        with pytest.raises(ConfigurationError, match="vectorized"):
            ks_statistic(np.linspace(-1, 1, 9), cdf)


class TestEmpiricalCdf:
    def test_step_values(self):
        F = empirical_cdf([1.0, 2.0, 3.0])
        assert F.at(0.5) == 0.0
        assert F.at(1.0) == pytest.approx(1 / 3)
        assert F.at(2.0) == pytest.approx(2 / 3)
        assert F.at(2.5) == pytest.approx(2 / 3)
        assert F.at(3.0) == 1.0
        assert F.at(99.0) == 1.0

    def test_vectorized_evaluation(self):
        F = empirical_cdf([1.0, 2.0, 3.0])
        np.testing.assert_allclose(F.at(np.array([0.0, 2.0, 9.0])),
                                   [0.0, 2 / 3, 1.0])

    def test_unsorted_input(self):
        F = empirical_cdf([3.0, 1.0, 2.0])
        assert F.at(1.5) == pytest.approx(1 / 3)


# ---------------------------------------------------------------------------
# Scenario runs

class TestRunScenario:
    def test_report_shape(self):
        cfg = _cfg(replicates=64)
        rep = run_scenario(cfg)
        assert rep.statistics.shape == (64,)
        assert rep.scaled_errors.shape == (64,)
        assert 0.0 < rep.ks_vs_normal < 1.0
        assert rep.empirical_var > 0.0
        assert rep.metadata["config"]["dist"] == "gamma:100:1"
        assert rep.metadata["runtime_ms"] >= 0.0

    def test_statistics_are_scaled_errors_over_sigma(self):
        rep = run_scenario(_cfg(replicates=32))
        sigma = math.sqrt(rep.asymptotic.asym_var)
        np.testing.assert_allclose(rep.statistics, rep.scaled_errors / sigma,
                                   rtol=1e-12)

    def test_empirical_var_definition(self):
        rep = run_scenario(_cfg(replicates=50))
        assert rep.empirical_var == pytest.approx(
            float(np.var(rep.scaled_errors, ddof=1)), rel=1e-12)

    def test_single_replicate_variance_is_zero(self):
        rep = run_scenario(_cfg(replicates=1))
        assert rep.empirical_var == 0.0

    def test_same_seed_bit_identical(self):
        a = run_scenario(_cfg())
        b = run_scenario(_cfg())
        np.testing.assert_array_equal(a.statistics, b.statistics)

    @pytest.mark.parametrize("threads", [2, 4, 8])
    def test_threads_do_not_change_results(self, threads):
        # three full replicate blocks and a last block of one row
        replicates = 3 * (simulation._BLOCK_ELEMENTS // 200) + 1
        base = run_scenario(_cfg(replicates=replicates), threads=1)
        multi = run_scenario(_cfg(replicates=replicates), threads=threads)
        np.testing.assert_array_equal(base.statistics, multi.statistics)

    def test_one_draw_per_block(self):
        calls = []

        class CountingGamma(Gamma):
            def sample(self, n, rng):
                calls.append(n)
                return super().sample(n, rng)

        n = 20
        rows = simulation._BLOCK_ELEMENTS // n
        cfg = ScenarioConfig(dist=CountingGamma(100.0, 1.0),
                             generator=parse_generator("log"),
                             n=n, replicates=2 * rows + 5, seed=4)
        run_scenario(cfg)
        assert calls == [rows * n, rows * n, 5 * n]

    def test_different_seeds_differ(self):
        a = run_scenario(_cfg(seed=1))
        b = run_scenario(_cfg(seed=2))
        assert not np.array_equal(a.statistics, b.statistics)

    def test_divergent_cell_fails_fast(self):
        cfg = ScenarioConfig(
            dist=LogNormal(2.0, 1.0),
            generator=parse_generator("exp"),
            n=1000,
            replicates=10 ** 9,  # must never be sampled
            seed=0,
        )
        with pytest.raises(DivergenceError):
            run_scenario(cfg)

    def test_support_outside_domain_rejected(self):
        cfg = ScenarioConfig(
            dist=Uniform(-1.0, 1.0),
            generator=parse_generator("log"),
            n=10,
            replicates=10,
            seed=0,
        )
        with pytest.raises(ConfigurationError):
            run_scenario(cfg)

    def test_uniform_with_real_line_generator_allowed(self):
        cfg = ScenarioConfig(
            dist=Uniform(-1.0, 1.0),
            generator=parse_generator("identity"),
            n=50,
            replicates=40,
            seed=3,
        )
        rep = run_scenario(cfg)
        assert rep.asymptotic.eg == pytest.approx(0.0, abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            _cfg(n=1)
        with pytest.raises(InvalidParameterError):
            _cfg(replicates=0)

    def test_ks_small_for_tame_cell(self):
        # CLT kicks in quickly for Gamma(100,1) under log
        rep = run_scenario(_cfg(n=400, replicates=400, seed=5))
        assert rep.ks_vs_normal < 0.08

    def test_edgeworth_gap_reported(self):
        rep = run_scenario(_cfg(replicates=200))
        assert math.isfinite(rep.edgeworth_sup_gap)
        assert 0.0 <= rep.edgeworth_sup_gap <= 1.0


# ---------------------------------------------------------------------------
# Edgeworth comparison table

class TestCompareEdgeworth:
    def test_correction_helps_skewed_small_n(self):
        n = 5
        cfg = ScenarioConfig(
            dist=Gamma(1.0, 1.0),
            generator=parse_generator("identity"),
            n=n,
            replicates=4000,
            seed=9,
        )
        rep = run_scenario(cfg)
        mom = g_moments(cfg.generator, cfg.dist)
        comp = compare_edgeworth(rep, mom, n)
        assert comp.sup_gap_edgeworth < comp.sup_gap_phi

    def test_table_is_consistent(self):
        cfg = _cfg(replicates=500)
        rep = run_scenario(cfg)
        mom = g_moments(cfg.generator, cfg.dist)
        comp = compare_edgeworth(rep, mom, cfg.n, steps=41)
        assert comp.xs.shape == comp.empirical.shape == comp.phi.shape == comp.edgeworth.shape
        assert comp.sup_gap_phi == pytest.approx(
            float(np.max(np.abs(comp.empirical - comp.phi))), rel=1e-12)
