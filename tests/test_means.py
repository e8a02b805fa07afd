"""Quasi-arithmetic means, stable variants, and the four axioms."""

import decimal
import hashlib
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
    ScenarioConfig,
    check_axioms,
    exp_mean_stable,
    make_builtin,
    mean,
    parse_distribution,
    parse_generator,
    power_mean,
    run_scenario,
)
from regmeans import means
from regmeans.means import _FSUM_BELOW, AxiomCheck, AxiomReport, _exact_sum, row_means

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
    +-1e300) as the sample, up to 8 of them or 9 to 200 (both sides of the
    domain check's list path), and any float as power_mean's exponent."""
    xs = st.one_of(st.lists(st.floats(), max_size=8), st.lists(st.floats(), min_size=9,
                                                                max_size=200))
    test = given(xs=xs, p=st.floats())(test)
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
    # either side of each bound past which a mean of a built-in generator
    # holds np.errstate(all="ignore"), and none inside: identity never
    (lambda: mean(parse_generator("identity"), [5e-324, 1e308, -1e308]), None),
    # log, reciprocal: the ends [1e-300, 1e300] of the float range
    (lambda: mean(parse_generator("log"), [1e-300, 1.0]), None),
    (lambda: mean(parse_generator("log"), [5e-324, 1e-300]), None),  # a subnormal mean
    (lambda: mean(parse_generator("reciprocal"), [1e300, 1.0]), None),
    (lambda: mean(parse_generator("reciprocal"), [1e308, 1.0]), None),  # 1 / x is subnormal
    (lambda: mean(parse_generator("reciprocal"), [1e-310, 1.0]), NumericError),  # 1 / x overflows
    # exp: the span max x - min x, 700
    (lambda: exp_mean_stable([-699.0, 0.0]), None),
    (lambda: exp_mean_stable([-709.0, 0.0]), None),
    (lambda: mean(parse_generator("exp"), [-1e308, 1e308]), None),  # x - max x overflows
    # power: the ends, and the span |p| log(max x / min x), 700
    (lambda: power_mean(2.0, [1e-150, 1.0]), None),
    (lambda: power_mean(2.0, [1e-160, 1.0]), None),
    (lambda: power_mean(-2.0, [1.0, 1e160]), None),
    (lambda: mean(parse_generator("power:2"), [1e-160, 1.0]), None),
    (lambda: power_mean(1e-20, [5e-324, 1e-310]), None),  # a subnormal geometric mean
    # no span, but numpy's log of this x is an ulp below math.log's, and
    # 1e300 times that ulp leaves the float range
    (lambda: power_mean(1e300, [2.21972857392358] * 2), NumericError),
], ids=["mean", "power_mean", "row_means-power", "mean-subnormal", "power_mean-subnormal",
        "row_means-exp", "row_means-subnormal-average", "identity-ends", "log-inside",
        "log-subnormal-mean", "reciprocal-inside", "reciprocal-subnormal", "reciprocal-overflow",
        "exp-span-699", "exp-span-709", "exp-span-overflow", "power-span-691",
        "power-span-737", "power-negative-span-737", "mean-power-span-737",
        "power-subnormal-end", "power-huge-exponent"])
def test_underflow_is_the_same_answer_when_float_errors_raise(call, want):
    default = _outcome(call)
    with np.errstate(all="raise"):
        strict = _outcome(call)
    assert strict == default
    if isinstance(want, type):  # the same error on both sides
        assert default[0] is want
    else:
        assert not isinstance(default, tuple)
        if want is not None:
            assert np.all(np.asarray(default) == want)


def _outcome(call):
    """call()'s values as a list, or its RegularMeanError as (class, text)."""
    try:
        return np.asarray(call()).tolist()
    except RegularMeanError as exc:
        return type(exc), str(exc)


def _array_tail(c, log_c, r):
    """The last step of a power mean on 0-d arrays, both branches computed:
    the form the single-sample path had before it ran on floats."""
    c, log_c, r = np.float64(c), np.float64(log_c), np.asarray(r)
    return float(np.where(np.abs(r) < 700.0, c * np.exp(np.minimum(r, 700.0)), np.exp(log_c + r)))


def _reference_kernel(x, forward, inverse):
    """inverse(fsum(forward(x)) / n), the inverse on a one-value array and
    float errors ignored: the mean kernel as it was before it ran on
    floats."""
    with np.errstate(all="ignore"):
        total = math.fsum(forward(x).tolist())
        return inverse(np.array([total / x.size])).item()


def _anchored_power_mean(p, x, branches):
    """M_p(x) anchored at its max (min for p < 0), every log taken afresh
    and the tail on 0-d arrays; records in branches whether |r| < 700."""
    arr = np.asarray(x, dtype=float)
    c = arr.max() if p > 0 else arr.min()
    log_c = np.log(c)
    r = _reference_kernel(arr, lambda t: np.exp(p * (np.log(t) - log_c)), lambda y: np.log(y) / p)
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
        return min(max(_reference_kernel(logs, fwd, inv), min(x)), max(x))
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


def _six_call_check_axioms(g, n, n0=None, trials=1000, tol=1e-9, rng_seed=0, box=None):
    """check_axioms with one row_means call per sample: X, X bumped in one
    coordinate, X permuted within rows, the constant rows, the leading
    block of X and X with that block replaced by its mean."""
    n0 = n if n0 is None else n0
    box = means._default_box(g) if box is None else box
    rng = np.random.default_rng(rng_seed)
    X = rng.uniform(box.lo, box.hi, size=(trials, n))
    base = row_means(g, X)
    cols = rng.integers(0, n, size=trials)
    bumped = X.copy()
    bumped[np.arange(trials), cols] += 1e-4 * box.width
    bumped_means = row_means(g, bumped)
    a1 = AxiomCheck(bool(np.all(bumped_means > base)), float(np.max(base - bumped_means)))
    permuted = rng.permuted(X, axis=1)
    a2 = float(np.max(np.abs(row_means(g, permuted) - base)))
    consts = rng.uniform(box.lo, box.hi, size=trials)
    a3 = float(np.max(np.abs(row_means(g, np.broadcast_to(consts[:, None], (trials, n)))
                              - consts)))
    replaced = X.copy()
    replaced[:, :n0] = row_means(g, X[:, :n0])[:, None]
    a4 = float(np.max(np.abs(row_means(g, replaced) - base)))
    return AxiomReport(a1, *(AxiomCheck(w <= tol, w) for w in (a2, a3, a4)),
                       trials=trials, tolerance=tol)


# (n, n0): n0 of None, 1 and n - 1 at n of 1, 2, 5 and 10
_AXIOM_SIZES = [(n, n0) for n in (1, 2, 5, 10) for n0 in dict.fromkeys((None, 1, n - 1))
                if n0 != 0]


@pytest.mark.parametrize("spec", ["identity", "log", "reciprocal", "power:2.0", "exp",
                                  "power:0.01"])
@pytest.mark.parametrize("n, n0", _AXIOM_SIZES)
@pytest.mark.parametrize("box", [None, Interval(0.9, 1.1)], ids=["default-box", "near-1"])
def test_check_axioms_equals_its_six_call_form(spec, n, n0, box):
    # the A1-A3 samples share one row_means call, and at n0 = n the block
    # mean is the base mean; each row's mean depends on that row alone.
    # power:2.0's constant rows near 1 (on both boxes) take _power_rows'
    # near-zero branch in a matrix whose other rows take the far one
    g = parse_generator(spec)
    for seed in (0, 5):
        got = check_axioms(g, n, n0=n0, trials=300, rng_seed=seed, box=box)
        assert got == _six_call_check_axioms(g, n, n0=n0, trials=300, rng_seed=seed, box=box)


def test_power_rows_near_one_take_both_branches():
    # the case the test above relies on: |2 log x| below 0.1 on some
    # constant rows of the default box [0.5, 2] and above it on the others
    consts = np.random.default_rng(0).uniform(0.5, 2.0, size=1000)
    near = 2.0 * np.abs(np.log(consts)) < 0.1
    assert 0 < np.count_nonzero(near) < consts.size


_SPECIAL = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.5, -2.5])


@pytest.mark.parametrize("shape", [(640, 5), (64, 2), (33, 1), (32, 1), (5, 1), (1, 1),
                                   (3, 7), (4, 200)])
def test_row_extremes_are_those_of_the_last_axis(shape):
    # tall matrices are folded column by column, the others reduced along
    # their rows; a zero's sign may differ, which no mean's anchor keeps
    rows = np.random.default_rng(sum(shape)).choice(_SPECIAL, size=shape)
    for ufunc, want in ((np.maximum, rows.max(axis=-1)), (np.minimum, rows.min(axis=-1))):
        np.testing.assert_array_equal(means._row_extreme(ufunc, rows), want)


# summands whose sums keep a zero's sign, overflow, cancel to NaN or stay
# subnormal
_SUMMANDS = np.array([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, 1e308, -1e308, math.nan,
                      5e-324, -5e-324, 2.5e-310, 0.1])


@pytest.mark.parametrize("cols", range(1, 9))  # 1 to 7 folded, 8 reduced pairwise
@pytest.mark.parametrize("rows_per_col", [1, means._FOLD_RATIO - 1, means._FOLD_RATIO, 100])
def test_row_sums_keep_the_bits_of_the_last_axis(cols, rows_per_col):
    # below 8 columns a tall matrix is summed column by column in numpy's
    # own order, onto +0.0; NaN counts as NaN, whatever its payload
    rng = np.random.default_rng(1000 * cols + rows_per_col)
    shape = (rows_per_col * cols, cols)
    signs = rng.choice([-1.0, 1.0], size=shape)
    for rows in (rng.choice(_SUMMANDS, size=shape), rng.lognormal(0.0, 3.0, size=shape) * signs,
                 np.full(shape, -0.0)):
        with np.errstate(all="ignore"):
            got, want = means._row_sum(rows), np.add.reduce(rows, axis=1)
        same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
        assert same.all(), rows[~same]


@pytest.mark.parametrize("dist, spec, digest", [
    ("lognormal:0:0.25", "log", "9f8691ff852d3a39429c2c649c11cac8c450a467c6cd8401f86266cf5e722e85"),
    ("gamma:2:1", "power:2.0", "3e36bb1cb43cc257b4969c31b6eca838eeb3e90eaf3a4492c574f5ceb21be22e"),
    ("uniform:1:2", "exp", "f928f945bc93a420c92440126de55c219d31823df2a6bd2cb58483788d615593"),
    ("pareto:10:1", "reciprocal",
     "ba051eb621680a19f5687812db02b16580865845a0996f8f404afefd66c53238"),
])
def test_short_row_sums_keep_the_monte_carlo_bits(dist, spec, digest, monkeypatch):
    # n = 5: every block is tall, so its row sums are folded by columns;
    # the statistics are those of numpy's reduction along the rows, and the
    # digest that of the statistics before the fold
    cfg = ScenarioConfig(parse_distribution(dist), parse_generator(spec), 5, 3000, 17)
    got = run_scenario(cfg, threads=1).statistics
    assert hashlib.sha256(got.tobytes()).hexdigest() == digest
    shapes = []

    def reduced(rows):
        shapes.append(rows.shape)
        return np.add.reduce(rows, axis=1)

    monkeypatch.setattr(means, "_row_sum", reduced)
    assert run_scenario(cfg, threads=1).statistics.tobytes() == got.tobytes()
    assert any(c == 5 and r >= means._FOLD_RATIO * c for r, c in shapes)


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
