"""Growth of wealth, geometric average returns, and the mean-variance proxy."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from regmeans import (
    ConfigurationError,
    DomainError,
    InvalidParameterError,
    NumericError,
    ReturnSeries,
    geometric_average_return,
    markowitz_approximation,
    mean,
    parse_generator,
    wealth_path,
)

returns_lists = st.lists(
    st.floats(min_value=-0.6, max_value=1.5), min_size=1, max_size=30)


class TestReturnSeries:
    def test_defaults(self):
        s = ReturnSeries((0.05, -0.02))
        assert s.w0 == 1.0
        assert s.returns == (0.05, -0.02)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ReturnSeries(())

    def test_total_loss_rejected(self):
        with pytest.raises(DomainError):
            ReturnSeries((0.05, -1.0))
        with pytest.raises(DomainError):
            ReturnSeries((-1.5,))

    def test_initial_wealth_positive(self):
        with pytest.raises(InvalidParameterError):
            ReturnSeries((0.1,), w0=0.0)
        with pytest.raises(InvalidParameterError):
            ReturnSeries((0.1,), w0=-3.0)

    @pytest.mark.parametrize("returns", [5, None, ("a",), (0.1, None)])
    def test_returns_must_be_numbers(self, returns):
        # 5 raised a bare TypeError (not iterable), ("a",) a bare ValueError
        with pytest.raises(ConfigurationError, match="returns must be numbers"):
            ReturnSeries(returns)

    @pytest.mark.parametrize("w0", ["1", None, [1.0]])
    def test_initial_wealth_must_be_a_number(self, w0):
        # "1" raised a bare TypeError from the comparison with 0.0
        with pytest.raises(InvalidParameterError, match="initial wealth"):
            ReturnSeries((0.1,), w0=w0)

    @pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
    def test_non_finite_return_rejected(self, r):
        with pytest.raises(DomainError):
            ReturnSeries((0.1, r))
        with pytest.raises(DomainError):
            geometric_average_return([r])

    @pytest.mark.parametrize("w0", [math.inf, math.nan])
    def test_non_finite_initial_wealth_rejected(self, w0):
        with pytest.raises(InvalidParameterError):
            ReturnSeries((0.1,), w0=w0)

    @pytest.mark.parametrize("w0", [10**400, -10**400], ids=["above", "below"])
    def test_initial_wealth_beyond_the_float_range_rejected(self, w0):
        # 10**400 was accepted, and wealth_path raised a bare OverflowError
        with pytest.raises(InvalidParameterError,
                           match="initial wealth must be positive and finite"):
            wealth_path(ReturnSeries((0.1,), w0=w0))

    def test_initial_wealth_is_kept_as_a_float(self):
        s = ReturnSeries((0.1,), w0=3)
        assert type(s.w0) is float and s.w0 == 3.0
        assert wealth_path(s) == 3.0 * 1.1

    def test_plain_sequences_accepted_by_functions(self):
        assert wealth_path([0.1, -0.1]) == pytest.approx(0.99, rel=1e-14)


class TestWealthAndGeometricAverage:
    def test_worked_example(self):
        s = ReturnSeries((0.1, -0.1))
        assert wealth_path(s) == pytest.approx(0.99, rel=1e-14)
        assert geometric_average_return(s) == pytest.approx(math.sqrt(0.99), rel=1e-14)

    def test_wealth_scales_linearly_in_w0(self):
        r = (0.03, 0.07, -0.04)
        assert wealth_path(ReturnSeries(r, w0=250.0)) == pytest.approx(
            250.0 * wealth_path(ReturnSeries(r)), rel=1e-14)

    @given(returns_lists, st.floats(min_value=0.01, max_value=1e4))
    def test_wealth_identity(self, r, w0):
        # w_T = w0 * (geometric gross mean)^T, the identity that makes the
        # geometric average the right summary of compounding
        s = ReturnSeries(tuple(r), w0=w0)
        geo = geometric_average_return(s)
        assert wealth_path(s) == pytest.approx(w0 * geo ** len(r), rel=1e-12)

    @given(returns_lists)
    def test_geometric_average_is_log_generated_mean(self, r):
        gross = [1.0 + v for v in r]
        via_mean = mean(parse_generator("log"), gross)
        assert geometric_average_return(ReturnSeries(tuple(r))) == pytest.approx(
            via_mean, rel=1e-12)

    def test_overflowing_wealth_is_numeric_error(self):
        with pytest.raises(NumericError):
            wealth_path([1e308] * 800)
        with pytest.raises(NumericError):
            wealth_path(ReturnSeries((1e300,), w0=1e10))

    @pytest.mark.parametrize("returns,w0,want", [
        ((-0.999999,) * 60, 1e300, 1.0000000017e-60),   # the product underflowed: 0.0
        ((1e6,) * 60, 1e-300, 1.00006e60),              # it overflowed: NumericError
        ((-0.999999,) * 60 + (1e6,) * 60, 1.0, 1.0000600035),  # it stayed at 0.0
    ])
    def test_a_wealth_a_float_holds_survives_its_partial_products(self, returns, w0, want):
        got = wealth_path(ReturnSeries(returns, w0=w0))
        exact = math.exp(math.fsum(map(math.log1p, returns)) + math.log(w0))
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert got == pytest.approx(want, rel=1e-8, abs=0.0)

    def test_underflowing_wealth_is_numeric_error(self):
        # it answered 0.0
        with pytest.raises(NumericError, match="underflows the normal float range"):
            wealth_path(ReturnSeries((-0.999999,) * 60, w0=1e-10))

    def test_zero_returns(self):
        s = ReturnSeries((0.0, 0.0, 0.0))
        assert wealth_path(s) == 1.0
        assert geometric_average_return(s) == 1.0

    def test_extreme_compounding_avoids_overflow(self):
        # 400 periods of 50% growth: product overflows naive float chains late,
        # log1p accumulation does not care
        s = ReturnSeries((0.5,) * 400)
        assert geometric_average_return(s) == pytest.approx(1.5, rel=1e-12)


class TestMarkowitzApproximation:
    def test_worked_example(self):
        s = ReturnSeries((0.1, -0.1))
        # rbar = 0, s2 = 0.01 -> exp(-0.005)
        assert markowitz_approximation(s) == pytest.approx(math.exp(-0.005), rel=1e-14)

    def test_gap_to_geometric_average_is_cubic(self):
        s = ReturnSeries((0.1, -0.1))
        gap = markowitz_approximation(s) - geometric_average_return(s)
        assert abs(gap) == pytest.approx(2.5e-05, rel=2e-2)

    def test_ddof_choices(self):
        s = ReturnSeries((0.04, -0.02, 0.01))
        pop = markowitz_approximation(s, ddof=0)
        smp = markowitz_approximation(s, ddof=1)
        assert pop != smp
        with pytest.raises(InvalidParameterError):
            markowitz_approximation(s, ddof=2)

    def test_single_period_has_no_variance(self):
        s = ReturnSeries((0.03,))
        want = math.exp(0.03 - 0.5 * 0.03 ** 2)
        assert markowitz_approximation(s) == pytest.approx(want, rel=1e-14)
        assert markowitz_approximation(s, ddof=1) == pytest.approx(want, rel=1e-14)

    @given(st.lists(st.floats(min_value=-0.05, max_value=0.05), min_size=1, max_size=25))
    def test_cubic_error_bound_for_small_returns(self, r):
        s = ReturnSeries(tuple(r))
        gap = abs(markowitz_approximation(s) - geometric_average_return(s))
        worst = max(abs(v) for v in r)
        assert gap <= 10.0 * worst ** 3 + 1e-15

    def test_overflowing_deviation_is_numeric_error(self):
        # (r - rbar) ** 2 overflows on a finite deviation
        with pytest.raises(NumericError):
            markowitz_approximation([1e308, -0.5])

    def test_overflowing_mean_square_is_numeric_error(self):
        # rbar * rbar overflows, which would make the approximation exp(-inf) = 0
        with pytest.raises(NumericError):
            markowitz_approximation([1e200, 1e200])

    def test_constant_returns_nearly_exact(self):
        s = ReturnSeries((0.02,) * 12)
        # no variance: approximation reduces to exp(r - r^2/2) ~ 1 + r
        assert markowitz_approximation(s) == pytest.approx(1.02, abs=3e-6)
        assert geometric_average_return(s) == pytest.approx(1.02, rel=1e-14)
