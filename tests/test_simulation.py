"""Monte Carlo scenario harness, KS statistic, and empirical CDFs."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from regmeans import (
    ConfigurationError,
    DivergenceError,
    DomainError,
    Gamma,
    InvalidParameterError,
    LogNormal,
    NumericError,
    ScenarioConfig,
    Uniform,
    compare_edgeworth,
    edgeworth_cdf,
    empirical_cdf,
    g_moments,
    ks_statistic,
    parse_distribution,
    parse_generator,
    phi_cdf,
    run_scenario,
)
from regmeans import simulation
from regmeans.asymptotics import asymptotic_variance
from regmeans.means import row_means


def test_no_allocator_tuning_in_the_library():
    # the Monte Carlo path keeps its page faults down by reusing its own
    # buffers; a library must not retune its host's allocator (mallopt
    # through ctypes) to do it
    for path in sorted(Path(simulation.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not any(n.split(".")[0] == "ctypes" for n in names), (
                f"{path.name}:{node.lineno} imports ctypes")
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                assert name != "mallopt", f"{path.name}:{node.lineno} calls mallopt"


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

    @pytest.mark.parametrize("values", [[0.0, math.nan], [math.nan], [math.nan, -1.0, 2.0]])
    def test_nan_value_is_domain_error(self, values):
        # the sup over a NaN CDF value was NaN
        with pytest.raises(DomainError):
            ks_statistic(values, phi_cdf)

    def test_infinite_values_are_cdf_limits(self):
        assert ks_statistic([-math.inf, math.inf], phi_cdf) == 0.5

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

    @pytest.mark.parametrize("cdf", [lambda t: t * np.nan,
                                     lambda t: np.where(t == 0.5, np.nan, 0.5)],
                             ids=["all", "one"])
    def test_nan_from_the_cdf_is_a_configuration_error(self, cdf):
        # the sup was a silent NaN
        with pytest.raises(ConfigurationError, match="NaN"):
            ks_statistic([0.0, 0.5, 1.0], cdf)

    def test_equals_the_two_sided_formula_bit_for_bit(self):
        x = np.random.default_rng(3).normal(size=999)
        f = phi_cdf(np.sort(x))
        n = x.size
        want = max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(0, n) / n))
        assert ks_statistic(x, phi_cdf) == want


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

    def test_only_empirical_cdf_builds_it(self):
        # the class trusts its values to be sorted: built directly from
        # [3, 1, 2] it answered 2/3 at 1.5, where the CDF is 1/3
        import regmeans

        for module in (regmeans, simulation):
            assert not hasattr(module, "EmpiricalCdf")
            assert "EmpiricalCdf" not in module.__all__
        assert empirical_cdf(np.array([3.0, 1.0, 2.0])).at(1.5) == 1 / 3

    @pytest.mark.parametrize("values", [[1.0, math.nan], [math.nan], [math.nan, -1.0, 2.0]])
    def test_nan_value_is_domain_error(self, values):
        # the NaN was sorted last and counted: at(1.0) was 0.5 for [1, nan]
        with pytest.raises(DomainError):
            empirical_cdf(values)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            empirical_cdf([])

    @pytest.mark.parametrize("x", [math.nan, [0.5, math.nan], np.array([math.nan])])
    def test_nan_point_is_domain_error(self, x):
        # at(nan) was a silent 1.0: searchsorted puts NaN after every value
        with pytest.raises(DomainError):
            empirical_cdf([1.0, 2.0]).at(x)

    @pytest.mark.parametrize("x", ["a", "1.5", None, ["a", "b"]])
    def test_point_that_is_not_a_number_rejected(self, x):
        with pytest.raises(InvalidParameterError):
            empirical_cdf([1.0, 2.0]).at(x)

    def test_integer_and_infinite_points(self):
        F = empirical_cdf([1.0, 2.0])
        assert F.at(1) == 0.5
        assert F.at(np.int64(2)) == 1.0
        np.testing.assert_array_equal(F.at([-math.inf, math.inf]), [0.0, 1.0])


# ---------------------------------------------------------------------------
# Scenario runs

def _per_block_statistics(cfg):
    """cfg's standardized statistics with each block drawn from its own
    stream and its row means taken alone, as row_means checks them."""
    rows = max(1, simulation._BLOCK_ELEMENTS // cfg.n)
    starts = range(0, cfg.replicates, rows)
    streams = np.random.SeedSequence(cfg.seed).spawn(len(starts))
    means = np.concatenate([
        row_means(cfg.generator,
                  cfg.dist.sample(min(rows, cfg.replicates - lo) * cfg.n,
                                  np.random.default_rng(stream)).reshape(-1, cfg.n))
        for lo, stream in zip(starts, streams)])
    spec = asymptotic_variance(cfg.generator, cfg.dist)
    return (means - spec.eg) * math.sqrt(cfg.n) / math.sqrt(spec.asym_var)


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
            def sample(self, n, rng, *, out=None):
                calls.append(n)
                return super().sample(n, rng, out=out)

        n = 20
        rows = simulation._BLOCK_ELEMENTS // n
        cfg = ScenarioConfig(dist=CountingGamma(100.0, 1.0),
                             generator=parse_generator("log"),
                             n=n, replicates=2 * rows + 5, seed=4)
        run_scenario(cfg)
        assert calls == [rows * n, rows * n, 5 * n]

    def test_figure_cell_draws_flat_int_sizes(self):
        # the block count and size for a Figure 1 cell; an int size is what
        # a tracer that reads draws with int() needs
        calls = []

        class CountingUniform(Uniform):
            def sample(self, n, rng, *, out=None):
                calls.append(n)
                return super().sample(n, rng, out=out)

        cfg = ScenarioConfig(dist=CountingUniform(1.0, 2.0),
                             generator=parse_generator("identity"),
                             n=1000, replicates=1000, seed=4)
        run_scenario(cfg)
        assert len(calls) == 32
        assert all(type(size) is int for size in calls)
        assert sum(calls) == 1000 * 1000

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blocks_are_drawn_into_one_buffer_per_worker(self, threads):
        # each draw's out is a view of the array that owns its memory; the
        # owners are held here, so a freed buffer's address cannot be reused
        # by a fresh one and pass for it
        owners, offsets = [], []

        class CountingUniform(Uniform):
            def sample(self, n, rng, *, out=None):
                owner = out if out.base is None else out.base
                owners.append(owner)
                offsets.append(out.__array_interface__["data"][0]
                               - owner.__array_interface__["data"][0])
                return super().sample(n, rng, out=out)

        kept = ScenarioConfig(dist=CountingUniform(1.0, 2.0),
                              generator=parse_generator("identity"),
                              n=1000, replicates=8 * 32 + 5, seed=4)
        report = run_scenario(kept, threads=threads)
        block = 32 * 1000 * 8  # bytes of one block of 32 rows
        assert len(owners) == 9 and len({id(b) for b in owners}) <= threads
        # two blocks per buffer, each task's blocks in consecutive rows (in
        # any order across threads): five tasks, the last of one block
        assert all(b.nbytes == 2 * block for b in owners)
        assert sorted(offsets) == [0] * 5 + [block] * 4
        # a block leaves nothing behind for the next: the bits of fresh arrays
        fresh = run_scenario(ScenarioConfig(Uniform(1.0, 2.0), kept.generator, 1000,
                                            kept.replicates, 4))
        assert report.statistics.tobytes() == fresh.statistics.tobytes()

    # (n, replicates): four blocks, the last of one row; three blocks, so a
    # last task of one block, the last block partial; n > 2**15, one row per
    # block and five blocks
    @pytest.mark.parametrize("n, replicates", [(200, 3 * 163 + 1), (200, 2 * 163 + 7),
                                               (2 ** 15 + 3, 5)])
    @pytest.mark.parametrize("dist, gen", [("gamma:100:1", "log"), ("pareto:3", "power:1e-6")])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_tasks_keep_the_bits_of_one_reduction_per_block(self, n, replicates, dist, gen,
                                                            threads):
        cfg = _cfg(dist, gen, n=n, replicates=replicates, seed=5)
        got = run_scenario(cfg, threads=threads).statistics
        assert got.tobytes() == _per_block_statistics(cfg).tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_a_group_keeps_the_bits_of_one_reduction_per_block(self, threads):
        cfgs = [_cfg("uniform:1:2", gen, n=200, replicates=2 * 163 + 7, seed=6)
                for gen in ("identity", "log", "reciprocal")]
        for cfg, report in zip(cfgs, simulation._run_group(cfgs, threads)):
            assert report.statistics.tobytes() == _per_block_statistics(cfg).tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_value_outside_the_domain_in_the_second_block_of_a_task(self, threads):
        # block 1 is the second block of the first task; block 3, the second
        # of the next, offends too, but the error is the first block's
        class Leaky(Uniform):
            def sample(self, n, rng, *, out=None):
                x = super().sample(n, rng, out=out)
                k = rng.bit_generator.seed_seq.spawn_key[0]
                if k in (1, 3):
                    x[7] = (0.0, -0.5)[k == 3]
                return x

        cfg = ScenarioConfig(Leaky(1.0, 2.0), parse_generator("log"), n=200,
                             replicates=4 * 163, seed=0)
        with pytest.raises(DomainError) as caught:
            run_scenario(cfg, threads=threads)
        assert str(caught.value) == "value 0.0 outside domain (0.0, inf) of generator 'log'"
        # in a group, the first generator that the first offending block fails
        cfgs = [dataclasses.replace(cfg, generator=parse_generator(gen))
                for gen in ("identity", "reciprocal", "log")]
        with pytest.raises(DomainError, match=r"^value 0\.0 .* of generator 'reciprocal'$"):
            simulation._run_group(cfgs, threads)

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

    def test_limiting_variance_below_the_normal_range_is_numeric_error(self):
        # it raised DivergenceError "degenerate (zero) asymptotic variance"
        cfg = ScenarioConfig(LogNormal(-700.0, 1.0), parse_generator("log"), n=5,
                             replicates=10, seed=0)
        with pytest.raises(NumericError, match="limiting variance underflows"):
            run_scenario(cfg)

    def test_support_outside_domain_rejected(self):
        cfg = ScenarioConfig(
            dist=Uniform(-1.0, 1.0),
            generator=parse_generator("log"),
            n=10,
            replicates=10,
            seed=0,
        )
        with pytest.raises(DomainError, match="^support of 'uniform:-1:1' is not inside the "
                                              "domain of generator 'log'$"):
            run_scenario(cfg)

    def test_a_sampled_end_of_the_domain_is_rejected(self):
        # the moments take uniform:0:1 under log (its support is in the
        # domain's closure); its sampler can return 0, where log is -inf
        cfg = ScenarioConfig(Uniform(0.0, 1.0), parse_generator("log"), n=10, replicates=10,
                             seed=0)
        with pytest.raises(DomainError, match="is not inside the domain of generator 'log'"):
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

    @pytest.mark.parametrize("field,value", [("n", 2.5), ("n", 20.0), ("replicates", 10.0),
                                             ("seed", 1.5), ("seed", "7"), ("seed", -1)])
    def test_config_takes_integers_and_a_non_negative_seed(self, field, value):
        # n = 2.5 raised a bare TypeError in run_scenario, seed = -1 a bare
        # ValueError from SeedSequence
        with pytest.raises(InvalidParameterError, match=field):
            _cfg(**{field: value})

    @pytest.mark.parametrize("field,value", [("dist", "gamma:2:1"), ("dist", None),
                                             ("generator", "log"), ("generator", None)])
    def test_config_takes_a_distribution_and_a_generator(self, field, value):
        # a spec string got as far as run_scenario, then raised a bare
        # AttributeError ('str' object has no attribute 'support')
        with pytest.raises(InvalidParameterError, match=field):
            ScenarioConfig(**{"dist": Gamma(2.0, 1.0), "generator": parse_generator("log"),
                              "n": 5, "replicates": 10, "seed": 1, field: value})

    def test_config_keeps_numpy_integers_as_ints(self):
        cfg = _cfg(n=np.int64(20), replicates=np.int32(10), seed=np.uint8(3))
        assert cfg.echo() == {"dist": "gamma:100:1", "generator": "log", "n": 20,
                              "replicates": 10, "seed": 3}
        assert all(type(v) is int for v in (cfg.n, cfg.replicates, cfg.seed))

    @pytest.mark.parametrize("threads", [0, -1])
    def test_thread_count_below_one_rejected(self, threads):
        with pytest.raises(InvalidParameterError, match="threads"):
            run_scenario(_cfg(replicates=10), threads=threads)

    def test_ks_small_for_tame_cell(self):
        # CLT kicks in quickly for Gamma(100,1) under log
        rep = run_scenario(_cfg(n=400, replicates=400, seed=5))
        assert rep.ks_vs_normal < 0.08

    def test_edgeworth_gap_reported(self):
        rep = run_scenario(_cfg(replicates=200))
        assert math.isfinite(rep.edgeworth_sup_gap)
        assert 0.0 <= rep.edgeworth_sup_gap <= 1.0

    # the four mc_small_n scenarios of perfbench, and a skewed g(X) at n = 2
    @pytest.mark.parametrize("dist, gen, n", [
        ("gamma:1:1", "identity", 5), ("gamma:1:1", "identity", 20),
        ("lognormal:0:1", "log", 5), ("lognormal:0:1", "log", 20),
        ("gamma:5:1", "reciprocal", 2)])
    def test_gaps_equal_ks_statistic_bit_for_bit(self, dist, gen, n):
        # one sort and one Phi serve both gaps: the same bits as two
        # separate ks_statistic calls
        cfg = _cfg(dist, gen, n=n, replicates=20_000, seed=17)
        rep = run_scenario(cfg)
        mom = g_moments(cfg.generator, cfg.dist)
        assert rep.ks_vs_normal == ks_statistic(rep.statistics, phi_cdf)
        assert rep.edgeworth_sup_gap == ks_statistic(
            rep.statistics, lambda t: edgeworth_cdf(t, n, mom))
        if n == 2:
            assert mom.skew_g != 0.0


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

    def test_grid_size_must_be_an_integer(self):
        cfg = _cfg(replicates=50)
        rep = run_scenario(cfg)
        mom = g_moments(cfg.generator, cfg.dist)
        with pytest.raises(InvalidParameterError, match="integer"):
            compare_edgeworth(rep, mom, cfg.n, steps=2.5)

    @pytest.mark.parametrize("grid", [None, (-3.0, 3.0), "-3,3"])
    def test_grid_must_be_an_interval(self, grid):
        # grid=None raised a bare AttributeError ('NoneType' has no 'grid')
        cfg = _cfg(replicates=50)
        rep = run_scenario(cfg)
        mom = g_moments(cfg.generator, cfg.dist)
        with pytest.raises(InvalidParameterError, match="grid"):
            compare_edgeworth(rep, mom, cfg.n, grid=grid)

    def test_edgeworth_column_is_edgeworth_cdf(self):
        cfg = _cfg(replicates=500)
        rep = run_scenario(cfg)
        mom = g_moments(cfg.generator, cfg.dist)
        comp = compare_edgeworth(rep, mom, cfg.n, steps=41)
        np.testing.assert_array_equal(comp.edgeworth, edgeworth_cdf(comp.xs, cfg.n, mom))
        np.testing.assert_array_equal(comp.phi, phi_cdf(comp.xs))

    def test_table_is_consistent(self):
        cfg = _cfg(replicates=500)
        rep = run_scenario(cfg)
        mom = g_moments(cfg.generator, cfg.dist)
        comp = compare_edgeworth(rep, mom, cfg.n, steps=41)
        assert comp.xs.shape == comp.empirical.shape == comp.phi.shape == comp.edgeworth.shape
        assert comp.sup_gap_phi == pytest.approx(
            float(np.max(np.abs(comp.empirical - comp.phi))), rel=1e-12)
