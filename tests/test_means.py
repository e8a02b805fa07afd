"""Quasi-arithmetic means, stable variants, and the four axioms."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from regmeans import (
    ConfigurationError,
    DomainError,
    Generator,
    Interval,
    InvalidParameterError,
    NumericError,
    RegularMeanError,
    check_axioms,
    exp_mean_stable,
    make_builtin,
    mean,
    parse_generator,
    power_mean,
)
from regmeans import means
from regmeans.means import _FSUM_BELOW, _exact_sum, row_means

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

    @pytest.mark.parametrize("x", [[1.0, [2.0, 3.0]], [[1.0, 2.0], [3.0, 4.0]],
                                   ["one", "two"]], ids=["ragged", "2-D", "non-numeric"])
    def test_a_sample_that_is_not_a_flat_list_of_numbers_rejected(self, x):
        with pytest.raises(ConfigurationError):
            mean(parse_generator("identity"), x)

    @pytest.mark.parametrize("spec, x", [("exp", 1000.0), ("exp", -1000.0),
                                         ("power:2", 1e-200), ("power:3", 1e200)])
    def test_exp_and_power_are_anchored(self, spec, x):
        # exp(x) and x**p overflow or underflow here; the mean of the sample
        # shifted or scaled to its maximum does not
        g = parse_generator(spec)
        assert mean(g, (x, x)) == x
        assert row_means(g, np.full((2, 2), x)).tolist() == [x, x]

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

    @pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
    def test_exponent_must_be_finite(self, p):
        with pytest.raises(InvalidParameterError):
            power_mean(p, (2.0, 8.0))

    def test_positive_data_required(self):
        with pytest.raises(DomainError):
            power_mean(2.0, (1.0, -2.0))

    def test_huge_values_survive(self):
        # direct x**p would overflow; the mean of x / max(x) does not
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


def _internal(m, xs):
    """min(xs) <= m <= max(xs), exactly: the means clip their result into
    the sample's range."""
    return min(xs) <= m <= max(xs)


@pytest.mark.parametrize("call, x", [
    (lambda xs: mean(parse_generator("log"), xs), 1e-300),
    (lambda xs: power_mean(1e-20, xs), 1e-300),
    (lambda xs: power_mean(0.0, xs), 1e300),
], ids=["log", "power_mean-tiny-exponent", "power_mean-geometric"])
def test_a_mean_ending_in_exp_stays_internal(call, x):
    # exp(log x) is |log x| ulp off x, about 143 ulp at 1e-300 and 1e300
    assert call([x, x]) == x


_SPANNING = [5e-324] * 7 + [1.7e308]  # x**p relative to the max underflows


def _contract_inputs(test):
    """Every mean entry point on any floats (NaN, infinities, subnormals,
    +-1e300) as the sample, and any float as power_mean's exponent."""
    test = given(xs=st.lists(st.floats(), max_size=8), p=st.floats())(test)
    for xs, p in [([1.0, math.nan], 2.0), ([1.0, math.inf], -1.0), ([1e-200, 1e-200], 5e-324),
                  ([-1000.0, -1000.0], -5e-324), ([5e-324, 1e300], 2.0), (_SPANNING, 2e-3),
                  ([-1000.0, 0.0], 1.0)]:
        test = example(xs=xs, p=p)(test)
    return pytest.mark.parametrize("entry", ["identity", "log", "reciprocal", "power:2", "exp",
                                             "power_mean", "exp_mean_stable"])(test)


def _assert_contract(entry, xs, p):
    try:
        if entry == "power_mean":
            m = power_mean(p, xs)
        elif entry == "exp_mean_stable":
            m = exp_mean_stable(xs)
        else:
            m = mean(parse_generator(entry), xs)
    except RegularMeanError:
        return
    assert all(map(math.isfinite, xs)) and math.isfinite(m)
    assert _internal(m, xs)


@_contract_inputs
def test_a_finite_internal_mean_or_a_library_error(entry, xs, p):
    """The contract of every mean entry point: a finite value in
    [min x, max x] up to rounding, or a RegularMeanError.  RuntimeWarnings
    are errors in this suite."""
    _assert_contract(entry, xs, p)


@_contract_inputs
def test_the_contract_holds_when_every_float_error_raises(entry, xs, p):
    # a caller's errstate must not turn a step the means handle themselves
    # (underflow, overflow caught by the finiteness checks) into a
    # FloatingPointError
    with np.errstate(all="raise"):
        _assert_contract(entry, xs, p)


_POWER_1E6 = parse_generator("power:1e-6")


# the true mean of [5e-324] * 9 + [1.7e308] at p = 1e-6 is 7.7409328375004389e-261:
# mean shares power_mean's expm1/log1p path (1.9e-13 off), and row_means takes
# it row by row (the same value; anchored, as before, it was 2.3e-11 off)
@pytest.mark.parametrize("call, want", [
    (lambda: mean(_POWER_1E6, [5e-324] * 9 + [1.7e308]), 7.74093283750189e-261),
    (lambda: power_mean(2e-3, [5e-324] * 9 + [1.7e308]), 9.631856135956368e-106),
    (lambda: row_means(_POWER_1E6, np.array([[5e-324] * 9 + [1.7e308]] * 2)), 7.74093283750189e-261),
    (lambda: mean(_POWER_1E6, [5e-324] * 99 + [1.0]), None),     # a subnormal mean
    (lambda: power_mean(-2e-3, [5e-324] * 99 + [1.0]), None),
    (lambda: row_means(parse_generator("exp"), np.array([[-1000.0, 0.0]])), None),
    (lambda: row_means(parse_generator("identity"), np.array([[5e-324, 0.0]])), None),
], ids=["mean", "power_mean", "row_means-power", "mean-subnormal", "power_mean-subnormal",
        "row_means-exp", "row_means-subnormal-average"])
def test_underflow_is_the_same_answer_when_float_errors_raise(call, want):
    default = np.asarray(call())
    with np.errstate(all="raise"):
        strict = np.asarray(call())
    assert strict.tolist() == default.tolist()
    if want is not None:
        assert np.all(default == want)


def _array_tail(c, log_c, r):
    """The last step of a power mean on 0-d arrays, both branches computed:
    the form the single-sample path had before it ran on floats."""
    c, log_c, r = np.float64(c), np.float64(log_c), np.asarray(r)
    return float(np.where(np.abs(r) < 700.0, c * np.exp(np.minimum(r, 700.0)), np.exp(log_c + r)))


def _anchored_power_mean(p, x, branches):
    """M_p(x) anchored at its max (min for p < 0), every log taken afresh
    and the tail on 0-d arrays; records in branches whether |r| < 700."""
    arr = np.asarray(x, dtype=float)
    c = arr.max() if p > 0 else arr.min()
    log_c = np.log(c)
    r = means._kernel(arr, lambda t: np.exp(p * (np.log(t) - log_c)), lambda y: np.log(y) / p)
    branches.add(abs(r) < 700.0)
    return min(max(_array_tail(c, log_c, r), float(arr.min())), float(arr.max()))


def _recomputed_power_mean(p, x, branches):
    """power_mean(p, x) with its branch picked from the logs of every value,
    not from the logs of the min and max."""
    logs = np.log(np.asarray(x, dtype=float))
    top = abs(p) * float(np.max(np.abs(logs)))
    if top < 0.1:
        fwd, inv = ((lambda t: t), np.exp) if top < means._EPS else (
            (lambda t: np.expm1(p * t)), (lambda y: np.exp(np.log1p(y) / p)))
        return min(max(means._kernel(logs, fwd, inv), min(x)), max(x))
    return _anchored_power_mean(p, x, branches)


def test_the_float_tail_keeps_the_bits_of_the_array_tail():
    rng = np.random.default_rng(20)
    samples = [rng.lognormal(0.0, 2.0, n) for n in (2, 7, 57, 500)]
    # spanning the float range, so that |r| >= 700 for small p
    samples += [np.exp(rng.uniform(-744.0, 709.0, n)) for n in (2, 9, 120, 800)]
    samples += [np.exp(rng.uniform(-30.0, 30.0, 40)), np.array(_SPANNING),
                np.array([5e-324] + [1.7e308] * 7)]
    branches = {"p > 0": set(), "p < 0": set()}  # |r| < 700 seen, per sign of p
    for x in samples:
        for p in (1e-3, 0.5, 2.0, 7.0):
            # mean(power:p) takes power_mean's path, near p = 0 included
            want = _recomputed_power_mean(p, x, branches["p > 0"])
            assert mean(parse_generator(f"power:{p}"), x).hex() == want.hex()
            assert power_mean(p, x).hex() == want.hex()
        for p in (-1e-3, -1.0, -3.0):
            want = _recomputed_power_mean(p, x, branches["p < 0"])
            assert power_mean(p, x).hex() == want.hex()
    assert branches == {"p > 0": {True, False}, "p < 0": {True, False}}


def _power_mean_reference(p, x):
    """((1/n) sum x**p)**(1/p) at 50 digits, rounded to a float."""
    with decimal.localcontext(decimal.Context(prec=50)):
        q = decimal.Decimal(p)
        total = sum(decimal.Decimal(float(v)) ** q for v in x)
        return float((total / len(x)) ** (1 / q))


def test_mean_and_power_mean_share_one_path():
    # mean(power:1e-6) was anchored without the expm1/log1p branch: up to
    # 1.5e-10 off on these samples, where power_mean is 4.4e-16 off
    rng = np.random.default_rng(7)
    samples = [rng.uniform(1.0, 10.0, rng.integers(2, 50)) for _ in range(60)]
    for p in (1e-6, 1e-3, 0.5, 2.0):
        g = make_builtin("power", p)
        for x in samples:
            got = mean(g, x)
            assert got.hex() == power_mean(p, x).hex()
            if p == 1e-6:
                want = _power_mean_reference(p, x)
                assert abs(got - want) <= 1e-14 * want


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

    @pytest.mark.parametrize("tol", [math.nan, -1e-9, math.inf, "1e-9", None])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        # a NaN tol failed every tolerance check and reported it, not raised;
        # "1e-9" and None raised a bare TypeError from the comparison with 0.0
        with pytest.raises(InvalidParameterError, match="^tol "):
            check_axioms(parse_generator("log"), n=3, tol=tol)

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

    def test_each_row_takes_its_own_power_branch(self):
        # |p log x| below eps (the geometric mean), below 0.1 (expm1/log1p)
        # and above (anchored at the max), in one matrix
        g = parse_generator("power:0.05")
        rows = np.array([[1.0, 1.0 + 4e-15, 1.0], [1.0, 2.0, 3.0], [1.0, 10.0, 100.0]])
        got = row_means(g, rows)
        for row, m in zip(rows, got):
            assert row_means(g, row[None, :])[0] == m
            assert m == pytest.approx(mean(g, row), rel=1e-15)

    def test_power_axioms_keep_their_numbers(self):
        # p = 2 on the default box [0.5, 2] is anchored in every row, as before
        report = check_axioms(parse_generator("power:2.0"), n=5, trials=1000)
        assert [c.worst_violation for c in (report.a1_monotone, report.a2_symmetric,
                                            report.a3_idempotent, report.a4_replacement)] == [
            -1.0541335905278615e-05, 2.220446049250313e-16, 0.0, 0.0]

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

    @pytest.mark.parametrize("spec, extreme", [("reciprocal", 1e-310), ("identity", 1e308),
                                               ("reciprocal", 1.7976931348623157e308)])
    def test_numeric_error_where_mean_raises(self, spec, extreme):
        # the last case overflows in the inverse only: 1 / (1 / x) with
        # 1 / x subnormal
        g = parse_generator(spec)
        rows = np.full((3, 2), 1.5)
        rows[1] = extreme
        with pytest.raises(NumericError):
            mean(g, rows[1])
        with pytest.raises(NumericError):
            row_means(g, rows)


def _sum_outcome(total):
    """A sum's outcome: its bits (the sign of zero included), or its error."""
    try:
        return total().hex()
    except (OverflowError, ValueError) as exc:
        return repr(exc)


_MAX = 1.7976931348623157e308


class TestExactSum:
    @given(base=st.lists(st.floats(allow_nan=False), min_size=1, max_size=40),
           n=st.integers(0, 3 * _FSUM_BELOW))
    @example(base=[5e-324, -1e-320, 2.2250738585072014e-308, -3e-310], n=2 * _FSUM_BELOW)
    @example(base=[_MAX, -_MAX, 1e308, -5e307, _MAX], n=2 * _FSUM_BELOW)
    @example(base=[1e308, 1e308, -1e308], n=3)
    @example(base=[1e308, 1e308, -1e308], n=3 * _FSUM_BELOW)
    @example(base=[1e16, 1.0, -1e16], n=3 * _FSUM_BELOW)
    @example(base=[1e16, 1.0, -1e16, -1.0, 3e-17], n=3 * _FSUM_BELOW - 1)
    @example(base=[(-1.0) ** k * 1.2345 * 10.0 ** e for k, e in enumerate(range(-300, 301, 15))],
             n=3 * _FSUM_BELOW)
    @example(base=[-0.0], n=_FSUM_BELOW)
    @example(base=[math.inf, -math.inf, 1.0], n=_FSUM_BELOW)
    def test_equals_fsum_bit_for_bit(self, base, n):
        # the same bits or the same error as math.fsum, below the size
        # threshold (fsum itself) and above it (the extraction passes)
        v = np.resize(np.array(base, dtype=float), n)
        assert _sum_outcome(lambda: _exact_sum(v)) == _sum_outcome(lambda: math.fsum(v.tolist()))

    def test_passes_leave_the_input_alone(self):
        v = np.random.default_rng(3).normal(0.0, 1.0, 4 * _FSUM_BELOW)
        before = v.copy()
        _exact_sum(v)
        assert np.array_equal(v, before)


@pytest.mark.parametrize("spec", ["identity", "log", "reciprocal", "power:0.5", "power:2", "exp"])
def test_large_mean_is_bit_identical_to_the_fsum_mean(spec, monkeypatch):
    g = parse_generator(spec)
    rng = np.random.default_rng(11)
    x = rng.lognormal(0.0, 0.75, 10**4) if g.domain.lo == 0.0 else rng.normal(0.0, 2.0, 10**4)
    got = mean(g, x)
    monkeypatch.setattr(means, "_exact_sum", lambda v: math.fsum(v.tolist()))
    assert got.hex() == mean(g, x).hex()
