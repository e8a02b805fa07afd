"""Generalized expectations, limiting variances, and the Edgeworth expansion."""

import ast
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from regmeans import (
    ConfigurationError,
    ConvergenceError,
    DegenerateSlopeError,
    DivergenceError,
    DomainError,
    Gamma,
    Generator,
    GMoments,
    Interval,
    InvalidParameterError,
    LogNormal,
    NumericError,
    Pareto,
    RegularMeanError,
    Uniform,
    affine_transform,
    asymptotic_variance,
    edgeworth_cdf,
    edgeworth_corrections,
    expect,
    g_moments,
    kolmogorov_expectation,
    parse_distribution,
    parse_generator,
    phi_cdf,
    phi_pdf,
)
from regmeans import asymptotics, distributions

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
        assert expect(LN, np.log) == pytest.approx(2.0, abs=1e-9)

    def test_scalar_only_integrand_is_configuration_error(self):
        # the rule calls fn on arrays of nodes
        with pytest.raises(ConfigurationError, match="vectorized"):
            expect(LN, math.log)
        with pytest.raises(ConfigurationError, match="vectorized"):
            expect(LN, lambda x: 1.0)

    def test_divergent_integrand_flagged(self):
        with pytest.raises(DivergenceError):
            expect(PAR, lambda x: x ** 12)  # tail index 10

    @pytest.mark.parametrize("t", [2, 4, 6, 8, 9.5])
    def test_pareto_power_moments_near_the_tail_index(self, t):
        # E[X**t] = alpha/(alpha - t); (1-u)**(-t/alpha) in quantile space is
        # an endpoint singularity that plain QAGS gave up on at t = 8
        assert expect(PAR, lambda x: x ** t) == pytest.approx(10.0 / (10.0 - t), rel=1e-12)

    @pytest.mark.parametrize("t", [9.6, 9.9, 9.95])
    def test_tail_the_nodes_do_not_reach_is_convergence_error(self, t):
        # integrable, but (1-u)**(-t/10) still matters beyond the rule's
        # last nodes (u near 1e-300): cut off there, 9.7 lost 7.5e-10
        with pytest.raises(ConvergenceError):
            expect(PAR, lambda x: x ** t)

    def test_quadrature_evaluates_g_once_per_step(self):
        # one call on the tail screen's four probes, then one per step of
        # the rule on the nodes it adds: every moment comes from the same
        # values, and no node is evaluated twice
        log, sizes = parse_generator("log"), []

        def forward(x):
            sizes.append(np.size(x))
            return log.forward(x)

        g_moments(dataclasses.replace(log, forward=forward), GAM, method="quadrature")
        screen, *steps = sizes
        assert screen == 4
        assert 2 <= len(steps) <= 1 + asymptotics._HALVINGS
        h = asymptotics._STEP / 2 ** (len(steps) - 1)
        assert sum(steps) == 2 * int(asymptotics._T_END / h) + 1

    def test_log_gamma_below_shape_one_matches_the_closed_form(self):
        # nodes whose quantile rounds to 0 carry no mass; log(0) made it inf
        g, dist = parse_generator("log"), Gamma(0.5, 2.0)
        closed = g_moments(g, dist, method="closed_form")
        quad = g_moments(g, dist, method="quadrature")
        for field in ("mean_g", "var_g", "skew_g", "exkurt_g"):
            assert getattr(quad, field) == pytest.approx(getattr(closed, field), rel=1e-12)

    @pytest.mark.parametrize("fn", [kolmogorov_expectation, asymptotic_variance, g_moments])
    def test_kinked_generator_is_convergence_error(self, fn):
        # slope 1 below 1.5 and 2 above: the rule converges only for a
        # smooth integrand, and a kink must not come back as a value
        g = Generator("kink", Interval(-math.inf, math.inf),
                      lambda x: np.where(x < 1.5, x, 2.0 * x - 1.5),
                      lambda y: np.where(y < 1.5, y, 0.5 * (y + 1.5)),
                      lambda x: np.where(x < 1.5, 1.0, 2.0))
        with pytest.raises(ConvergenceError):
            fn(g, UNI)


# The quadrature's outcomes before its rule's tables became constants of the
# module and its steps filled buffers, per (g, dist): kolmogorov_expectation,
# asymptotic_variance's (eg, gprime_at_eg, asym_var) and g_moments' four
# moments, that is orders 1, 2 and 4.  Every bit is kept.
_QUADRATURE_BITS = {
    ("log", "lognormal:2:1"): (
        7.38905609893065, (7.38905609893065, 0.1353352832366127, 54.59815003314424),
        (2.0, 1.0000000000000002, 4.704920281198222e-17, -4.440892098500626e-16)),
    ("log", "gamma:100:1"): (
        99.50041875394851, (99.50041875394851, 0.010050208959148895, 99.50000001127827),
        (4.600161852738088, 0.010050166663333575, -0.1002496757464435, 0.020099825809987593)),
    ("log", "uniform:1:2"): (
        1.4715177646857693, (1.4715177646857693, 0.6795704571147613, 0.08465270072967478),
        (0.38629436111989063, 0.039093972163597154, -0.23960558361969028,
         -1.1205390568988955)),
    ("log", "pareto:10:1"): (
        1.1051709180756477, (1.1051709180756477, 0.9048374180359595, 0.012214027581601705),
        (0.09999999999999999, 0.010000000000000004, 1.9999999999999996, 5.999999999999995)),
    ("power:2.0", "lognormal:2:1"): (
        20.08553692318767, (20.08553692318767, 40.17107384637534, 5405.759250328496),
        (403.4287934927352, 8723355.729088873, 414.35934330014703, 9220556.977306986)),
    ("power:2.0", "gamma:100:1"): (
        100.4987562112089, (100.4987562112089, 200.9975124224178, 101.5),
        (10100.0, 4100600.0, 0.5032187084534229, 0.42686834967561005)),
    ("power:2.0", "uniform:1:2"): (
        1.5275252316519465, (1.5275252316519465, 3.055050463303893, 0.08095238095238096),
        (2.333333333333333, 0.7555555555555555, 0.22880047986623342, -1.1574394463667812)),
    ("power:2.0", "pareto:10:1"): (
        1.118033988749895, (1.118033988749895, 2.23606797749979, 0.020833333333333332),
        (1.25, 0.10416666666666669, 4.6475800154488995, 70.80000000000001)),
}


def _quadrature_outcomes(g, dist) -> tuple:
    spec = asymptotic_variance(g, dist, method="quadrature")
    mom = g_moments(g, dist, method="quadrature")
    return (kolmogorov_expectation(g, dist, method="quadrature"),
            (spec.eg, spec.gprime_at_eg, spec.asym_var),
            (mom.mean_g, mom.var_g, mom.skew_g, mom.exkurt_g))


@pytest.mark.parametrize("key", sorted(_QUADRATURE_BITS), ids="-".join)
def test_the_quadrature_keeps_its_bits(key):
    g, dist = parse_generator(key[0]), parse_distribution(key[1])
    assert _quadrature_outcomes(g, dist) == _QUADRATURE_BITS[key]


@pytest.mark.parametrize("dist, want", [
    # every node's quantile is d itself or 1 - d, inside the support
    ("uniform:0:1", (-1.0, 1.0, -2.0, 6.0)),
    # quantiles of the lowest nodes round to 0, where log is -inf: void nodes
    ("gamma:0.5:2", (-2.656657206581372, 4.934802200544671, -1.5351415907229082,
                     4.000000000000014)),
])
def test_the_quadrature_of_log_at_the_support_end_keeps_its_bits(dist, want):
    law = parse_distribution(dist)
    assert (law._quantile(np.array([1e-300]))[0] == law.support.lo) == (law.kind == "gamma")
    mom = g_moments(parse_generator("log"), law, method="quadrature")
    assert (mom.mean_g, mom.var_g, mom.skew_g, mom.exkurt_g) == want


# A support that leaves the closure of g's domain: the quadrature answered
# reciprocal x uniform:-2:-1 with -1.4427 and power:2 x uniform:-2:-1 with
# 1.5275 (so did the closed form), and the other pairs raised DomainError,
# DivergenceError or ConvergenceError by method
_OUTSIDE = [("reciprocal", "uniform:-2:-1"), ("power:2", "uniform:-2:-1"),
            ("power:2", "uniform:-1:1"), ("log", "uniform:-2:-1"),
            ("power:0.5", "uniform:-1:1"), ("reciprocal", "uniform:-1:1")]


@pytest.mark.parametrize("g, dist", _OUTSIDE, ids="-".join)
@pytest.mark.parametrize("fn", [kolmogorov_expectation, asymptotic_variance, g_moments])
@pytest.mark.parametrize("method", ["closed_form", "quadrature"])
def test_a_support_outside_the_domain_is_domain_error(g, dist, fn, method):
    with pytest.raises(DomainError) as info:
        fn(parse_generator(g), parse_distribution(dist), method=method)
    assert str(info.value) == (f"support of {dist!r} is not inside the domain of "
                               f"generator {g!r}")


@pytest.mark.parametrize("fn", [kolmogorov_expectation, asymptotic_variance, g_moments])
def test_a_custom_generator_meets_the_same_rule(fn):
    g = dataclasses.replace(parse_generator("log"))
    with pytest.raises(DomainError, match="is not inside the domain of generator 'log'"):
        fn(g, Uniform(-1.0, 1.0))


@pytest.mark.parametrize("fn", [asymptotic_variance, g_moments])
def test_a_quadrature_that_halves_seven_times_is_convergence_error(fn):
    identity, sizes = parse_generator("identity"), []

    def forward(x):
        sizes.append(np.size(x))
        return identity.forward(x)

    with pytest.raises(ConvergenceError) as info:
        fn(dataclasses.replace(identity, forward=forward), Gamma(1e8, 1.0), method="quadrature")
    assert str(info.value) == "quadrature did not converge in 7 halvings of the step"
    assert len(sizes) == 2 + asymptotics._HALVINGS  # the tail screen, then each step


@pytest.mark.parametrize("fn", [kolmogorov_expectation, asymptotic_variance, g_moments])
def test_the_tail_screen_keeps_its_words(fn):
    with pytest.raises(DivergenceError) as info:
        fn(parse_generator("exp"), LN, method="quadrature")
    assert str(info.value) == "E[g(X)**1] diverges for g='exp', dist='lognormal:2:1'"


def _fresh_process(code: str) -> list:
    """The lines that code prints in a fresh interpreter importing regmeans
    from this checkout."""
    src = str(Path(asymptotics.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    return out.stdout.splitlines()


def test_means_and_quadrature_load_no_scipy():
    # a process that only takes means loads no scipy module, and quadrature
    # needs no scipy.integrate: its rule is in asymptotics
    code = ("import sys, regmeans; regmeans.mean(regmeans.parse_generator('log'), [1.0, 2.0]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "regmeans.g_moments(regmeans.parse_generator('log'), "
            "regmeans.parse_distribution('gamma:2:1'), method='quadrature'); "
            "print('scipy.integrate' in sys.modules)")
    assert _fresh_process(code) == ["[]", "False"]


def test_monte_carlo_loads_no_scipy_special(tmp_path):
    # Figure 1, a run, its moments and its Edgeworth table need only phi_cdf
    # and the closed-form Gamma moments, none of them from scipy.special,
    # which costs about 0.2 s and 17 MB at import
    code = "\n".join([
        "import sys, regmeans as rm",
        f"rm.reproduce_figure1({str(tmp_path)!r}, seed=1, n=20, replicates=40)",
        "for d, g in (('gamma:1:1', 'identity'), ('gamma:100:1', 'log')):",
        "    cfg = rm.ScenarioConfig(rm.parse_distribution(d), rm.parse_generator(g), 5, 2000, 1)",
        "    mom = rm.g_moments(cfg.generator, cfg.dist)",
        "    rm.compare_edgeworth(rm.run_scenario(cfg), mom, cfg.n)",
        "print('scipy.special' in sys.modules)",
    ])
    assert _fresh_process(code) == ["False"]


def _run_at_import(node):
    """The nodes under node that run when its module is imported: all but
    the bodies of functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _run_at_import(child)


def _rules_on_range(node) -> bool:
    """node catches OverflowError or compares with sys.float_info.min."""
    if isinstance(node, ast.ExceptHandler) and node.type is not None:
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        return any(ast.unparse(c) == "OverflowError" for c in caught)
    return isinstance(node, ast.Compare) and any(
        ast.unparse(side) == "sys.float_info.min" for side in [node.left, *node.comparators])


def test_the_range_rule_is_made_only_in_its_helper():
    # copies of the rule in each closed form and moment drifted apart
    rulings = []
    for path in (Path(distributions.__file__), Path(asymptotics.__file__)):
        tree = ast.parse(path.read_text())
        helper = {id(n) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "_in_range" for n in ast.walk(f)}
        for node in filter(_rules_on_range, ast.walk(tree)):
            assert id(node) in helper, f"{path.name}:{node.lineno} rules on a float's range"
            rulings.append(node)
    assert len(rulings) == 2  # the helper's own catch and comparison


def test_scipy_is_imported_only_inside_functions():
    # a scipy import that runs with the module loads it for every user
    for path in sorted(Path(asymptotics.__file__).parent.glob("*.py")):
        for node in _run_at_import(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not any(n.split(".")[0] == "scipy" for n in names), (
                f"{path.name}:{node.lineno} imports scipy at import time")


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

    def test_custom_generator_goes_to_quadrature(self):
        # an affine transform of log defines the geometric mean, but as a
        # custom generator it has no closed form of its own
        g, log = affine_transform(parse_generator("log"), 2.0, 1.0), parse_generator("log")
        dist = Gamma(2.0, 1.0)
        want = kolmogorov_expectation(log, dist, method="closed_form")
        assert kolmogorov_expectation(g, dist) == pytest.approx(want, rel=0.0, abs=1e-8)
        with pytest.raises(ConfigurationError, match="custom"):
            kolmogorov_expectation(g, dist, method="closed_form")

    @pytest.mark.parametrize("fn", [kolmogorov_expectation, asymptotic_variance, g_moments])
    def test_monte_carlo_is_not_a_method(self, fn):
        # the moments are closed forms or quadrature; sampling them is gone
        with pytest.raises(InvalidParameterError, match="method"):
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

    def test_exp_uniform_beyond_exp_overflow(self):
        # e**710 overflows a float, E[e**X] = (e**710 - 1) / 710 does not
        got = kolmogorov_expectation(parse_generator("exp"), Uniform(0.0, 710.0))
        assert got == pytest.approx(710.0 - math.log(710.0), rel=1e-13)

    @pytest.mark.parametrize("fn, dist", [
        # E[exp(2X)] = (e**800 - 1) / 800 is finite but no float: not divergent
        pytest.param(g_moments, Uniform(0.0, 400.0), id="g_moments"),
        pytest.param(asymptotic_variance, Uniform(0.0, 400.0), id="asymptotic_variance"),
        # E[exp(X)] = 1001**1000: Gamma.mgf raised a bare OverflowError
        *(pytest.param(fn, Gamma(1000.0, 1.001), id=f"{fn.__name__}-gamma:1000:1.001")
          for fn in (kolmogorov_expectation, asymptotic_variance, g_moments)),
    ])
    def test_exp_moment_beyond_the_float_range_is_numeric_error(self, fn, dist):
        with pytest.raises(NumericError, match="overflows") as info:
            fn(parse_generator("exp"), dist)
        assert not isinstance(info.value, DivergenceError)

    @pytest.mark.parametrize("fn", [g_moments, asymptotic_variance])
    @pytest.mark.parametrize("dist", [Gamma(2.0, 1e-300), LogNormal(700.0, 1.0)],
                             ids=lambda d: d.spec)
    def test_power_moment_beyond_the_float_range_is_numeric_error(self, fn, dist):
        # E[X] fits a float, E[X**2] does not
        with pytest.raises(NumericError, match="overflows") as info:
            fn(parse_generator("identity"), dist)
        assert not isinstance(info.value, DivergenceError)

    def test_identity_uniform_where_hi_squared_overflows(self):
        # hi ** 2 raised a bare OverflowError though E[X] = 5e199 fits
        got = kolmogorov_expectation(parse_generator("identity"), Uniform(1.0, 1e200))
        assert got == pytest.approx(5e199, rel=1e-12)

    def test_log_of_a_gamma_with_a_tiny_shape_is_numeric_error(self):
        # the log moments were -inf and NaN, and exp(-inf) = 0 left log's domain
        with pytest.raises(NumericError):
            kolmogorov_expectation(parse_generator("log"), Gamma(1e-320, 1.0))

    @pytest.mark.parametrize("g, dist, want, rel", [
        pytest.param("identity", "lognormal:700:1", 1.6721859620674984e304, 0.0,  # exp(700.5)
                     id="identity-lognormal:700:1"),
        # the variance of ln X cancels to 0 here, and an order-1 request
        # never asks for it; the mean of ln X loses about 1e-9 to cancellation
        pytest.param("log", "uniform:1e6:1000001", 1000000.5, 2e-9, id="log-uniform:1e6:1000001"),
        pytest.param("log", "pareto:1e200:1", 1.0, 0.0, id="log-pareto:1e200:1"),
    ])
    def test_representable_mean_below_an_overflowing_second_moment(self, g, dist, want, rel):
        got = kolmogorov_expectation(parse_generator(g), parse_distribution(dist))
        assert got == pytest.approx(want, rel=rel, abs=0.0)

    @pytest.mark.parametrize("spec", ["log", "power:0.5"])
    @pytest.mark.parametrize("dist", ["uniform:0:1", "uniform:0:2.5"])
    @pytest.mark.parametrize("fn", [kolmogorov_expectation, asymptotic_variance, g_moments])
    def test_uniform_from_zero_has_closed_forms(self, fn, dist, spec):
        # ln x and x**-0.5 are integrable at 0: both closed forms raised
        # DomainError there
        g, law = parse_generator(spec), parse_distribution(dist)
        closed = fn(g, law, method="closed_form")
        quad = fn(g, law, method="quadrature")
        if not isinstance(closed, float):  # every float of the result, not its method
            closed, quad = ([v for v in dataclasses.astuple(r) if isinstance(v, float)]
                            for r in (closed, quad))
        assert closed == pytest.approx(quad, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("spec, want", [("log", math.exp(-1.0)), ("power:0.5", 4.0 / 9.0)])
    def test_uniform_from_zero_expectation(self, spec, want):
        got = kolmogorov_expectation(parse_generator(spec), Uniform(0.0, 1.0), method="closed_form")
        assert got == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("fn", [kolmogorov_expectation, g_moments])
    def test_log_of_a_uniform_reaching_zero_is_domain_error(self, fn):
        with pytest.raises(DomainError, match="is not inside the domain of generator 'log'"):
            fn(parse_generator("log"), Uniform(-2.0, 3.0), method="closed_form")

    @pytest.mark.parametrize("fn, lo, hi", [
        (kolmogorov_expectation, -800.0, -750.0),  # E[e**X] underflows to 0
        (asymptotic_variance, -760.0, -740.0),     # subnormal E[e**X], g'(E_g)**2 is 0
        (g_moments, -800.0, -750.0),
    ])
    def test_exp_moment_below_the_normal_range_is_numeric_error(self, fn, lo, hi):
        with pytest.raises(NumericError, match="underflows"):
            fn(parse_generator("exp"), Uniform(lo, hi))

    @pytest.mark.parametrize("fn, lo, hi", [
        (kolmogorov_expectation, -760.0, -740.0),  # quadrature's E[e**X] is subnormal
        (asymptotic_variance, -760.0, -740.0),
        (g_moments, -800.0, -750.0),               # quadrature integrates e**x to 0
    ])
    def test_quadrature_exp_moment_below_the_normal_range_is_numeric_error(self, fn, lo, hi):
        with pytest.raises(NumericError, match="underflows"):
            fn(parse_generator("exp"), Uniform(lo, hi), method="quadrature")

    def test_gamma_moments_at_a_large_shape(self):
        # exact products of raw moments: the lgamma differences left the
        # variance, skewness and excess kurtosis 1.1e-9, 2.0e-7 and 1.3e-4 off
        mom = g_moments(parse_generator("identity"), Gamma(1000.0, 1.0))
        assert mom.var_g == 1000.0
        assert mom.skew_g == pytest.approx(2.0 / math.sqrt(1000.0), rel=1e-15)
        assert mom.exkurt_g == pytest.approx(0.006, rel=4e-14)

    @pytest.mark.parametrize("spec", ["identity", "reciprocal", "power:2"])
    def test_gamma_integer_moments_need_no_lgamma(self, spec, monkeypatch):
        def refuse(x):
            raise AssertionError(f"lgamma({x})")

        monkeypatch.setattr(math, "lgamma", refuse)
        g_moments(parse_generator(spec), Gamma(10.0, 2.0))
        asymptotic_variance(parse_generator(spec), Gamma(10.0, 2.0))

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

    def test_variance_whose_square_underflows(self):
        # var_g = 1e-200 is normal, var_g**2 is 0: a bare ZeroDivisionError
        mom = g_moments(parse_generator("reciprocal"), Uniform(1.0, 1e200))
        assert mom.var_g == pytest.approx(1e-200, rel=1e-12)
        assert mom.skew_g == pytest.approx(5e99, rel=1e-9)
        assert mom.exkurt_g == pytest.approx(1e200 / 3.0, rel=1e-9)

    def test_raw_moment_below_the_normal_range_is_numeric_error(self):
        # E[X**-2] = exp(-1398) rounded to 0: var_g = 0 and NaN shape, silently
        with pytest.raises(NumericError, match="underflows"):
            g_moments(parse_generator("reciprocal"), LogNormal(700.0, 1.0))

    @pytest.mark.parametrize("fn, g, dist, order, method", [
        # about 1e-608: var_g was 0.0, NaN shape
        pytest.param(g_moments, "identity", "lognormal:-700:1", 2, "quadrature",
                     id="g_moments-lognormal:-700:1-2"),
        pytest.param(asymptotic_variance, "identity", "lognormal:-700:1", 2, "quadrature",
                     id="asymptotic_variance-lognormal:-700:1-2"),
        # about 1e-344: exkurt_g was -3.0
        pytest.param(g_moments, "identity", "lognormal:-200:1", 4, "quadrature",
                     id="g_moments-lognormal:-200:1-4"),
        # closed forms whose variance cancels or underflows to 0: var_g was
        # 0.0 with NaN shape (skewness 2 and excess kurtosis 6 for log x
        # pareto); quadrature does not converge on the first two supports
        *(pytest.param(g_moments, g, dist, 2, method, id=f"{g}-{dist}-{method}")
          for g, dist, methods in [("identity", "gamma:1e20:1", ["closed_form"]),
                                   ("identity", "uniform:1e8:100000001", ["closed_form"]),
                                   ("exp", "gamma:2:1e300", ["closed_form", "quadrature"]),
                                   ("log", "pareto:1e200:1", ["closed_form", "quadrature"])]
          for method in methods),
    ])
    def test_quadrature_central_moment_below_the_normal_range_is_numeric_error(
            self, fn, g, dist, order, method):
        # the closed forms' raw moments rule it too ("E[X**2] underflows")
        with pytest.raises(NumericError, match=f"order {order} .* underflows"):
            fn(parse_generator(g), parse_distribution(dist), method=method)

    def test_log_pareto_variance_beyond_the_float_range(self):
        # alpha ** -2 raised a bare OverflowError
        with pytest.raises(NumericError):
            g_moments(parse_generator("log"), Pareto(1e-300))

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

    @pytest.mark.parametrize("spec", ["identity", "log", "reciprocal"])
    def test_quadrature_matches_closed_form_on_pareto(self, spec):
        # quantile-space quadrature on float nodes: 3.5e-12 at worst here;
        # power:2.0 is test_quadrature_reaches_the_fourth_pareto_moment
        g = parse_generator(spec)
        closed = g_moments(g, PAR, method="closed_form")
        quad = g_moments(g, PAR, method="quadrature")
        for field in ("mean_g", "var_g", "skew_g", "exkurt_g"):
            assert getattr(quad, field) == pytest.approx(getattr(closed, field), rel=1e-10)

    def test_divergence_names_the_order(self):
        # E[X^4] infinite when tail index is 3.5
        with pytest.raises(DivergenceError, match="4"):
            g_moments(parse_generator("identity"), Pareto(3.5, 1.0))

    @pytest.mark.parametrize("g, dist", [
        ("log", "lognormal:2:1"), ("log", "lognormal:0:1"), ("log", "gamma:0.001:1"),
        *((g, "lognormal:-700:1") for g in ("identity", "log", "reciprocal", "power:2.0", "exp"))])
    def test_quadrature_is_the_same_whatever_the_errstate(self, g, dist):
        # underflow in the integrands and the tail screen raised a bare
        # FloatingPointError under a caller's np.errstate(all="raise"), and
        # log x gamma:0.001:1 leaked a RuntimeWarning under the default
        def outcome():
            try:
                m = g_moments(parse_generator(g), parse_distribution(dist), method="quadrature")
            except RegularMeanError as e:  # the outcome is the library error's type
                return type(e)
            return repr((m.mean_g, m.var_g, m.skew_g, m.exkurt_g))

        default = outcome()
        with np.errstate(all="raise"):
            assert outcome() == default
        # the error each case raises, if any: the tail screen's divergence, or
        # central moments of lognormal:-700:1 that underflow (var_g was 0.0)
        errors = {("log", "gamma:0.001:1"): DivergenceError,
                  ("reciprocal", "lognormal:-700:1"): DivergenceError,
                  ("identity", "lognormal:-700:1"): NumericError,
                  ("power:2.0", "lognormal:-700:1"): NumericError,
                  ("exp", "lognormal:-700:1"): NumericError}
        assert default is errors[g, dist] if (g, dist) in errors else isinstance(default, str)

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

    @pytest.mark.parametrize("dist", ["uniform:1:1e200", "lognormal:700:1"])
    def test_limiting_variance_beyond_the_float_range_is_numeric_error(self, dist):
        # g'(E_g) = 1/E_g is about 1e-200 and e**-700: its square underflowed
        # to 0 and var / 0 raised a bare ZeroDivisionError
        with pytest.raises(NumericError, match="overflows"):
            asymptotic_variance(parse_generator("log"), parse_distribution(dist))

    @pytest.mark.parametrize("fn, g, dist, words", [
        # E_g = E[X**0.5]**2 and exp(E[ln X]) round to 0, where g' raised a
        # bare ZeroDivisionError (0.0 ** -0.5, 1 / 0.0)
        (asymptotic_variance, "power:0.5", "gamma:1e-300:1", "E_g underflows"),
        (asymptotic_variance, "log", "gamma:1e-10:1", "E_g underflows"),
        # E_g = exp(1000) was inf with a RuntimeWarning (FloatingPointError
        # under np.seterr(all="raise")), then g'(E_g) = 0 a DegenerateSlopeError
        (kolmogorov_expectation, "log", "pareto:0.001:1", "E_g overflows"),
        (asymptotic_variance, "log", "pareto:0.001:1", "E_g overflows"),
    ])
    @pytest.mark.parametrize("errors", ["warn", "raise"])
    def test_eg_beyond_the_float_range_is_numeric_error(self, fn, g, dist, words, errors):
        with np.errstate(all=errors), pytest.raises(NumericError, match=words) as info:
            fn(parse_generator(g), parse_distribution(dist), method="closed_form")
        assert not isinstance(info.value, DegenerateSlopeError)

    def test_eg_that_rounds_to_zero_is_a_value(self):
        # exp(E[ln X]) with E[ln X] about -1e10 is 0 correctly rounded; only
        # the slope there is lost
        assert kolmogorov_expectation(parse_generator("log"), Gamma(1e-10, 1.0)) == 0.0

    def test_python_float_errors_of_g_are_library_errors(self):
        # g and g' run on numpy floats: a division by zero is inf, not a
        # bare ZeroDivisionError
        identity = parse_generator("identity")
        flat = dataclasses.replace(identity, derivative=lambda x: 1.0 / (x - x))
        with pytest.raises(DegenerateSlopeError, match="inf"):
            asymptotic_variance(flat, UNI)
        lost = dataclasses.replace(identity, inverse=lambda y: 1.0 / (y - y))
        with pytest.raises(NumericError, match="E_g overflows"):
            kolmogorov_expectation(lost, UNI)

    @pytest.mark.parametrize("method", ["closed_form", "quadrature"])
    def test_limiting_variance_below_the_normal_range_is_numeric_error(self, method):
        # g'(E_g) = 1/E_g is about 1e304, so var / g'**2 is about 1e-608: it
        # was asym_var = 0.0, which run_scenario took for a degenerate variance
        with pytest.raises(NumericError, match="limiting variance underflows"):
            asymptotic_variance(parse_generator("log"), LogNormal(-700.0, 1.0), method=method)

# ---------------------------------------------------------------------------
# Normal CDF helpers

class TestNormalHelpers:
    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_phi_cdf_matches_reference(self, x):
        assert phi_cdf(x) == pytest.approx(stats.norm.cdf(x), abs=1e-14)

    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_phi_pdf_matches_reference(self, x):
        assert phi_pdf(x) == pytest.approx(stats.norm.pdf(x), abs=1e-14)

    def test_phi_cdf_nan_is_domain_error(self):
        big = np.linspace(-5.0, 5.0, 4001)
        big[1234] = math.nan
        for x in (math.nan, [0.0, math.nan], np.array([[math.nan]]), big):
            with pytest.raises(DomainError):
                phi_cdf(x)
        assert phi_cdf(np.array([])).size == 0

    def test_phi_cdf_is_within_4_ulp_of_the_c_library(self):
        # the numpy port of fdlibm's erfc against the C library's (math.erfc)
        # on [-40, 40], both tails included; scipy's erfc is up to about 500
        # ulp off the C library's above 6
        xs = np.linspace(-40.0, 40.0, 200_001)
        want = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in xs.tolist()])
        ulps = np.abs(phi_cdf(xs).view(np.int64) - want.view(np.int64))
        assert ulps.max() <= 4

    def test_erfc_is_within_4_ulp_at_the_region_ends(self):
        ends = [0.25, *asymptotics._ERFC_CUTS, 6.0, 2.0 ** -57, 5e-324, 0.0]
        a = np.array(ends + [-e for e in ends])
        a = np.sort(np.concatenate([a, np.nextafter(a, -np.inf), np.nextafter(a, np.inf)]))
        want = np.array([math.erfc(v) for v in a.tolist()])
        got = a.copy()
        with np.errstate(all="ignore"):
            asymptotics._erfc(got)
        assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 4

    def test_phi_cdf_at_the_infinities(self):
        xs = np.linspace(-3.0, 3.0, 121)
        xs[0], xs[-1] = -math.inf, math.inf
        got = phi_cdf(xs)
        assert (got[0], got[-1]) == (0.0, 1.0)
        assert (phi_cdf(-math.inf), phi_cdf(math.inf)) == (0.0, 1.0)

    def test_phi_cdf_is_the_same_whatever_the_errstate(self):
        # the far lower tail and subnormal x underflow; they are values
        xs = np.concatenate([np.linspace(-40.0, 40.0, 1999), [5e-324, -5e-324]])
        plain = phi_cdf(xs)
        with np.errstate(all="raise"):
            strict = phi_cdf(xs)
        np.testing.assert_array_equal(plain.view(np.int64), strict.view(np.int64))

    def test_phi_cdf_bits_do_not_depend_on_the_order_or_the_company(self):
        # sorted values are cut into slices, others sorted first; a value
        # alone leaves the other regions empty
        ends = np.array([0.25, *asymptotics._ERFC_CUTS]) * -math.sqrt(2.0)
        xs = np.sort(np.concatenate([np.linspace(-9.0, 9.0, 5001), ends, -ends,
                                     np.nextafter(ends, 0.0), np.nextafter(-ends, 0.0)]))
        want = phi_cdf(xs)
        perm = np.random.default_rng(0).permutation(xs.size)
        np.testing.assert_array_equal(phi_cdf(xs[::-1]), want[::-1])
        np.testing.assert_array_equal(phi_cdf(xs[perm]), want[perm])
        np.testing.assert_array_equal(phi_cdf(xs[:5013].reshape(3, -1).T),
                                      want[:5013].reshape(3, -1).T)
        np.testing.assert_array_equal([phi_cdf(x) for x in xs[::7]], want[::7])
        np.testing.assert_array_equal([phi_cdf(x) for x in xs[-18:]], want[-18:])



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

    def test_limits_at_infinity(self):
        # phi(x) * p(x) was 0 * inf = NaN at +-inf and where p overflows
        mom = _mom(skew=-0.8, exkurt=1.2)
        for lo, hi in ((-math.inf, math.inf), (-1e100, 1e100)):
            assert edgeworth_cdf(hi, 20, mom) == 1.0
            assert edgeworth_cdf(lo, 20, mom) == 0.0
            xs = np.array([lo, -1.0, 0.5, hi])
            got = edgeworth_cdf(xs, 20, mom)
            assert got[0] == 0.0 and got[-1] == 1.0
            assert got[1:3].tolist() == [edgeworth_cdf(x, 20, mom) for x in xs[1:3]]
            for x in (lo, hi):
                assert edgeworth_corrections(x, 20, mom) == (0.0, 0.0, 0.0)
            for term in edgeworth_corrections(xs, 20, mom):
                assert term[0] == 0.0 and term[-1] == 0.0

    def test_cdf_is_phi_minus_the_summed_corrections_bit_for_bit(self):
        mom = _mom(skew=1.7, exkurt=-0.9)
        xs = np.concatenate([np.linspace(-9.0, 9.0, 2001), [-math.inf, math.inf, -1e100, 1e100,
                                                            -1e10, 1e10, 0.0, -0.0]])
        c1, c2, c3 = edgeworth_corrections(xs, 3, mom)
        got = edgeworth_cdf(xs, 3, mom)
        np.testing.assert_array_equal(got, phi_cdf(xs) - (c1 + c2 + c3))
        # the plain formula, term by term, in its order of operations
        w, x = phi_pdf(xs), np.clip(xs, -1e10, 1e10)
        c = mom.skew_g * mom.skew_g
        plain = (w * mom.skew_g * (x * x - 1.0) / (6.0 * math.sqrt(3)),
                 w * mom.exkurt_g * (x * (x * x - 3.0)) / (24.0 * 3),
                 w * c * (x * (x * x * (x * x - 10.0) + 15.0)) / (72.0 * 3))
        for term, want in zip((c1, c2, c3), plain):
            np.testing.assert_array_equal(term, want)
        for i in range(0, xs.size, 97):
            assert edgeworth_cdf(xs[i], 3, mom) == got[i]
            assert edgeworth_corrections(float(xs[i]), 3, mom) == (
                c1[i], c2[i], c3[i])

    def test_empty_array_gives_empty_arrays(self):
        # both raised ValueError: zero-size array to reduction operation minimum
        mom = _mom(skew=-0.8, exkurt=1.2)
        for x in ([], np.array([]), np.empty((0, 3))):
            assert edgeworth_cdf(x, 20, mom).shape == np.shape(x)
            terms = edgeworth_corrections(x, 20, mom)
            assert len(terms) == 3 and all(t.shape == np.shape(x) for t in terms)

    @pytest.mark.parametrize("x", [math.nan, [0.5, math.nan], np.array([math.nan, math.inf])])
    def test_nan_is_domain_error(self, x):
        # both returned NaN, with no warning even under -W error
        mom = _mom(skew=-0.8, exkurt=1.2)
        with pytest.raises(DomainError):
            edgeworth_cdf(x, 20, mom)
        with pytest.raises(DomainError):
            edgeworth_corrections(x, 20, mom)

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
