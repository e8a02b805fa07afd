"""Quasi-arithmetic means, stable variants, and the four axioms."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from regmeans import (
    ConfigurationError,
    DomainError,
    Generator,
    Interval,
    NumericError,
    RegularMeanError,
    check_axioms,
    exp_mean_stable,
    make_builtin,
    mean,
    parse_generator,
    power_mean,
)
from regmeans.means import row_means

positive_samples = st.lists(
    st.floats(min_value=0.05, max_value=20.0), min_size=1, max_size=12)


class TestMean:
    def test_geometric_via_log(self):
        assert mean(parse_generator("log"), (2.0, 8.0)) == pytest.approx(4.0, rel=1e-14)

    def test_harmonic_via_reciprocal(self):
        assert mean(parse_generator("reciprocal"), (2.0, 6.0)) == pytest.approx(3.0, rel=1e-14)

    def test_identity_is_arithmetic(self):
        assert mean(parse_generator("identity"), (1.0, 2.0, 6.0)) == pytest.approx(3.0)

    def test_single_value_returned_exactly(self):
        x = 1.2345678901234567
        assert mean(parse_generator("log"), (x,)) == x

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            mean(parse_generator("log"), (1.0, 0.0))
        with pytest.raises(DomainError):
            mean(parse_generator("reciprocal"), (2.0, -1.0))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            mean(parse_generator("identity"), ())

    def test_overflow_points_to_stable_variant(self):
        with pytest.raises(NumericError, match="stable"):
            mean(parse_generator("exp"), (1000.0, 1000.0))

    def test_sum_overflow_is_numeric_error(self):
        # every term is finite; only the sum overflows (fsum raises there)
        with pytest.raises(NumericError):
            mean(parse_generator("identity"), (1e308, 1e308))

    @pytest.mark.parametrize("p", [1e-320, 1e-18, 1e-9])
    def test_tiny_power_generator_is_an_error_not_an_answer(self, p):
        # x**p cannot resolve the sample, so a mean through it would answer
        # 1.0 (outside [2, 8]) or miss by about eps/p
        with pytest.raises(RegularMeanError):
            mean(parse_generator(f"power:{p!r}"), (2.0, 8.0))

    @given(positive_samples)
    def test_internality(self, xs):
        # min <= M_g(x) <= max for every generator
        for spec in ("identity", "log", "reciprocal", "power:2.0"):
            m = mean(parse_generator(spec), xs)
            assert min(xs) - 1e-9 <= m <= max(xs) + 1e-9

    @given(positive_samples, st.randoms(use_true_random=False))
    def test_permutation_invariance_is_exact(self, xs, rnd):
        # fsum accumulation makes reordering a no-op, not merely close
        g = parse_generator("log")
        shuffled = list(xs)
        rnd.shuffle(shuffled)
        assert mean(g, shuffled) == mean(g, xs)

    @given(st.floats(min_value=0.1, max_value=10.0), st.integers(2, 8))
    def test_idempotence(self, c, n):
        for spec in ("identity", "log", "reciprocal"):
            assert mean(parse_generator(spec), [c] * n) == pytest.approx(c, rel=1e-12)


class TestPowerMean:
    def test_quadratic(self):
        assert power_mean(2.0, (3.0, 4.0)) == pytest.approx(math.sqrt(12.5), rel=1e-14)

    def test_zero_exponent_is_geometric(self):
        assert power_mean(0.0, (2.0, 8.0)) == pytest.approx(4.0, rel=1e-14)

    def test_negative_exponent_is_harmonic_at_minus_one(self):
        assert power_mean(-1.0, (2.0, 6.0)) == pytest.approx(3.0, rel=1e-12)

    def test_positive_data_required(self):
        with pytest.raises(DomainError):
            power_mean(2.0, (1.0, -2.0))

    def test_huge_values_survive(self):
        # direct x**p would overflow; the log-sum-exp route must not
        big = (1e200, 1e200)
        assert power_mean(3.0, big) == pytest.approx(1e200, rel=1e-10)

    def test_matches_generator_route(self):
        xs = (0.5, 1.5, 2.5)
        direct = power_mean(2.0, xs)
        via_gen = mean(parse_generator("power:2.0"), xs)
        assert direct == pytest.approx(via_gen, rel=1e-12)

    @pytest.mark.parametrize("p", [5e-324, -5e-324, 1e-320, 1e-300])
    def test_tiny_exponent_is_the_geometric_limit(self, p):
        assert power_mean(p, (2.0, 8.0)) == pytest.approx(4.0, rel=1e-15)

    @given(positive_samples,
           st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=0.05, max_value=3.0))
    @example(xs=[2.0, 8.0], p=5e-324, dp=0.05)
    def test_monotone_in_exponent(self, xs, p, dp):
        # classical power-mean inequality
        assert power_mean(p, xs) <= power_mean(p + dp, xs) * (1 + 1e-9)


class TestExpMeanStable:
    def test_log_domain_example(self):
        got = exp_mean_stable((0.0, math.log(3.0)))
        assert got == pytest.approx(math.log(2.0), rel=1e-14)

    def test_extreme_inputs(self):
        assert exp_mean_stable((1000.0, 1000.0)) == pytest.approx(1000.0, rel=1e-14)
        assert exp_mean_stable((-1000.0, -1000.0)) == pytest.approx(-1000.0, rel=1e-14)

    @given(st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=9),
           st.floats(min_value=-800.0, max_value=800.0))
    def test_shift_equivariance(self, xs, c):
        # M_exp(x + c) = M_exp(x) + c, even when exp(x+c) would overflow
        base = exp_mean_stable(xs)
        shifted = exp_mean_stable([v + c for v in xs])
        assert shifted - c == pytest.approx(base, abs=1e-9)

    def test_agrees_with_naive_when_safe(self):
        xs = (0.1, 0.7, 1.4)
        naive = math.log(sum(math.exp(v) for v in xs) / 3.0)
        assert exp_mean_stable(xs) == pytest.approx(naive, rel=1e-14)


class TestCheckAxioms:
    @pytest.mark.parametrize("n", [2, 5])
    def test_builtins_pass_quickly(self, builtin_generator, n):
        report = check_axioms(builtin_generator, n=n, trials=100, rng_seed=3)
        assert report.all_passed, report.as_dict()

    def test_partial_block_replacement(self):
        report = check_axioms(parse_generator("log"), n=6, n0=3, trials=200)
        assert report.a4_replacement.passed

    def test_report_dict_schema(self):
        report = check_axioms(parse_generator("identity"), n=3, trials=50)
        d = report.as_dict()
        assert set(d) == {"a1_monotone", "a2_symmetric", "a3_idempotent",
                          "a4_replacement", "trials", "tolerance", "all_passed"}
        assert d["a2_symmetric"]["worst_violation"] <= d["tolerance"]

    def test_non_monotone_map_fails_A1(self):
        # x^2 on [-2, 2] is not strictly monotone; the checker must notice
        parabola = Generator(
            name="parabola",
            domain=Interval(-math.inf, math.inf),
            forward=lambda x: np.asarray(x) ** 2,
            inverse=lambda y: np.sqrt(np.abs(y)),
            derivative=lambda x: 2.0 * np.asarray(x),
            monotone_direction="increasing",
        )
        report = check_axioms(parabola, n=4, trials=200, rng_seed=1,
                              box=Interval(-2.0, 2.0))
        assert not report.a1_monotone.passed

    def test_bad_parameters_rejected(self):
        g = parse_generator("identity")
        with pytest.raises(ConfigurationError):
            check_axioms(g, n=0)
        with pytest.raises(ConfigurationError):
            check_axioms(g, n=3, n0=5)
        with pytest.raises(ConfigurationError):
            check_axioms(g, n=3, trials=0)

    def test_box_must_fit_domain(self):
        with pytest.raises(DomainError):
            check_axioms(parse_generator("log"), n=3, box=Interval(-1.0, 1.0))

    def test_seeded_runs_repeat(self):
        g = parse_generator("power:2.0")
        a = check_axioms(g, n=4, trials=64, rng_seed=11)
        b = check_axioms(g, n=4, trials=64, rng_seed=11)
        assert a == b


class TestRowMeans:
    def test_agrees_with_scalar_mean_row_by_row(self, builtin_generator):
        rng = np.random.default_rng(7)
        rows = rng.uniform(0.2, 3.0, size=(200, 9))
        got = row_means(builtin_generator, rows)
        want = [mean(builtin_generator, r) for r in rows]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_smallest_power_exponent_agrees_with_power_mean(self):
        rows = np.random.default_rng(8).lognormal(0.0, 1.0, size=(50, 6))
        got = row_means(parse_generator("power:1e-6"), rows)
        want = [power_mean(1e-6, r) for r in rows]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("spec, bad", [("log", 0.0), ("reciprocal", -1.0),
                                           ("log", math.nan), ("identity", math.inf)])
    def test_domain_error_where_mean_raises(self, spec, bad):
        g = parse_generator(spec)
        rows = np.full((3, 4), 1.5)
        rows[2, 1] = bad
        with pytest.raises(DomainError):
            mean(g, rows[2])
        with pytest.raises(DomainError):
            row_means(g, rows)

    @pytest.mark.parametrize("spec, big", [("exp", 1000.0), ("identity", 1e308)])
    def test_numeric_error_where_mean_raises(self, spec, big):
        g = parse_generator(spec)
        rows = np.full((3, 2), 1.5)
        rows[1] = big
        with pytest.raises(NumericError):
            mean(g, rows[1])
        with pytest.raises(NumericError):
            row_means(g, rows)
