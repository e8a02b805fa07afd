"""One check per input of a mean.

A generator's callables are checked by generators._vectorized wherever they
are called on caller data, always on float arrays: a scalar-only callable,
or one that returns another shape, is ConfigurationError naming the
generator and the callable.  The Monte Carlo values are checked by the
generator's domain (Interval.require_interior), a box's ends by each
generator's domain (generators._require_box) and its width by
Interval.is_finite.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import regmeans
from regmeans import (ConfigurationError, DomainError, Generator, Interval,
                      InvalidParameterError, ScenarioConfig, asymptotic_variance,
                      blend_distances, check_axioms, compare_edgeworth, g_moments,
                      kolmogorov_expectation, make_builtin, mean, min_slope,
                      parse_distribution, run_scenario, theorem4_bound, verify_stability)
from regmeans.cli import main
from regmeans.means import row_means

LOG = make_builtin("log")
IDENTITY = make_builtin("identity")
POSITIVE = Interval(0.0, math.inf)
B = Interval(1.0, 2.0)
UNIFORM = parse_distribution("uniform:1:2")


def _custom(name, forward=np.log, inverse=np.exp, derivative=lambda x: 1.0 / x):
    return Generator(name, POSITIVE, forward, inverse, derivative, "increasing")


# math.log and math.exp take one number: the mean's first call on an array fails
SCALAR_ONLY = _custom("c", math.log, math.exp)
CONSTANT = _custom("k", forward=lambda x: 0.5)
SCALAR_INVERSE = _custom("m", inverse=math.exp)

# a generator of each built-in kind but power, hand-built on math: trust in
# its callables is decided by their identity, never by its kind
REAL_LINE = Interval(-math.inf, math.inf)
MATH_KINDS = {
    "identity": (REAL_LINE, lambda x: math.ldexp(x, 0), lambda y: math.ldexp(y, 0)),
    "log": (POSITIVE, math.log, math.exp),
    "reciprocal": (POSITIVE, lambda x: math.pow(x, -1.0), lambda y: math.pow(y, -1.0)),
    "exp": (REAL_LINE, math.exp, math.log),
}
BUILTIN_FORWARD = {kind: make_builtin(kind).forward for kind in MATH_KINDS}
ROWS = np.array([[1.0, 2.0], [3.0, 4.0]])

PUBLIC = {
    "mean": lambda g: mean(g, [1.0, 2.0]),
    "check_axioms": lambda g: check_axioms(g, 3),
    "verify_stability": lambda g: verify_stability(g, LOG, B, 2),
    "blend_distances": lambda g: blend_distances(g, LOG, B, 2, [0.5]),
    "theorem4_bound": lambda g: theorem4_bound(g, LOG, B),
}


class TestGeneratorCallables:
    @pytest.mark.parametrize("call", PUBLIC.values(), ids=PUBLIC)
    def test_a_scalar_only_forward(self, call):
        with pytest.raises(ConfigurationError, match="forward of generator 'c' must be vectorized"):
            call(SCALAR_ONLY)

    @pytest.mark.parametrize("call", PUBLIC.values(), ids=PUBLIC)
    def test_a_constant_forward(self, call):
        with pytest.raises(ConfigurationError, match=r"forward of generator 'k' mapped \d+ values"):
            call(CONSTANT)

    # mean and E_g invert one value, which they passed as a numpy float that
    # math.exp takes: mean answered 1.414... where the row paths raised
    @pytest.mark.parametrize("call", [
        *map(PUBLIC.get, ("mean", "check_axioms", "verify_stability", "blend_distances")),
        lambda g: kolmogorov_expectation(g, UNIFORM),
        lambda g: asymptotic_variance(g, UNIFORM),
    ], ids=["mean", "check_axioms", "verify_stability", "blend_distances",
            "kolmogorov_expectation", "asymptotic_variance"])
    def test_a_scalar_only_inverse(self, call):
        with pytest.raises(ConfigurationError, match="inverse of generator 'm' must be vectorized"):
            call(SCALAR_INVERSE)

    @pytest.mark.parametrize("call", [
        lambda g: min_slope(g, B),
        lambda g: verify_stability(LOG, g, B, 2),
        lambda g: asymptotic_variance(g, UNIFORM),
    ], ids=["min_slope", "verify_stability", "asymptotic_variance"])
    def test_a_scalar_derivative(self, call):
        # a constant g' of 2.0 was taken for the slope of every point, and
        # for g'(E_g)
        with pytest.raises(ConfigurationError, match="derivative of generator 'd' mapped"):
            call(_custom("d", derivative=lambda x: 2.0))

    @pytest.mark.parametrize("kind", MATH_KINDS)
    @pytest.mark.parametrize("call", [lambda g: mean(g, [1.0, 2.0]), lambda g: row_means(g, ROWS)],
                             ids=["mean", "row_means"])
    def test_a_built_in_kind_on_scalar_only_callables(self, call, kind):
        # the exp kind's mean is anchored: its forward sees x - max x
        domain, forward, inverse = MATH_KINDS[kind]
        g = Generator(kind, domain, forward, inverse, lambda x: x, "increasing", kind=kind)
        with pytest.raises(ConfigurationError, match=f"forward of generator '{kind}' must be "
                                                     "vectorized"):
            call(g)

    @pytest.mark.parametrize("kind", MATH_KINDS)
    @pytest.mark.parametrize("call", [lambda g: mean(g, [1.0, 2.0]), lambda g: row_means(g, ROWS)],
                             ids=["mean", "row_means"])
    def test_a_built_in_forward_with_a_scalar_only_inverse(self, call, kind):
        # the library's own forward is called directly; the inverse is still
        # checked, on a one-value array
        domain, _, inverse = MATH_KINDS[kind]
        g = Generator(kind, domain, BUILTIN_FORWARD[kind], inverse, lambda x: x, "increasing",
                      kind=kind)
        with pytest.raises(ConfigurationError, match=f"inverse of generator '{kind}' must be "
                                                     "vectorized"):
            call(g)

    def test_the_callables_see_only_float_arrays(self):
        seen = []

        def record(fn):
            def on(x):
                seen.append(type(x) is np.ndarray and x.dtype == np.float64 and x.ndim >= 1)
                return fn(x)
            return on

        # power:2, whose g'/h' against exp turns once on the box: the
        # certificate also reads r at the box end and the turn (_partner)
        g = Generator("s", POSITIVE, record(np.square), record(np.sqrt),
                      record(lambda x: 2.0 * x), "increasing")
        box = Interval(0.5, 3.0)
        mean(g, [1.0, 2.0, 3.0])
        check_axioms(g, 3, trials=10)
        verify_stability(g, make_builtin("exp"), box, 3)
        min_slope(g, box)
        asymptotic_variance(g, UNIFORM)
        assert len(seen) > 20 and all(seen)

    def test_a_derivative_that_returns_a_list_at_e_g(self):
        g = _custom("l", derivative=lambda x: [1.0 / x])
        with pytest.raises(ConfigurationError, match="derivative of generator 'l' mapped"):
            asymptotic_variance(g, parse_distribution("gamma:2:1"))

    def test_an_inverse_that_returns_a_list_at_e_g(self):
        g = _custom("l", inverse=lambda y: [np.exp(y)])
        with pytest.raises(ConfigurationError, match="inverse of generator 'l' mapped"):
            asymptotic_variance(g, parse_distribution("gamma:2:1"))

    def test_a_decreasing_generator_is_named_in_increasing_form(self):
        g = Generator("c", POSITIVE, lambda x: -math.log(x), lambda y: math.exp(-y),
                      lambda x: -1.0 / x, "decreasing")
        with pytest.raises(ConfigurationError, match=r"forward of generator '-1\*c\+0'"):
            verify_stability(g, LOG, B, 2)


class TestMonteCarloValues:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_an_underflowing_draw_is_the_first_offender(self, threads):
        # Gamma(0.005) draws underflow to 0, outside log's domain
        cfg = ScenarioConfig(parse_distribution("gamma:0.005:1"), LOG, 5, 1000, 0)
        with pytest.raises(DomainError) as err:
            run_scenario(cfg, threads=threads)
        assert str(err.value) == "value 0.0 outside domain (0.0, inf) of generator 'log'"


WIDE = Interval(-1e308, 1e308)  # finite ends, an infinite width
CERTIFICATES = {
    "verify_stability": lambda box: verify_stability(IDENTITY, IDENTITY, box, 2),
    "blend_distances": lambda box: blend_distances(IDENTITY, IDENTITY, box, 2, [0.5]),
    "theorem4_bound": lambda box: theorem4_bound(IDENTITY, IDENTITY, box),
    "min_slope": lambda box: min_slope(IDENTITY, box),
}


class TestBoxes:
    def test_a_wide_interval_is_not_finite(self):
        assert not WIDE.is_finite
        assert not Interval(0.0, math.inf).is_finite
        assert Interval(-1e307, 1e307).is_finite

    @pytest.mark.parametrize("box", [WIDE, Interval(0.0, math.inf)])
    def test_a_grid_needs_a_finite_interval(self, box):
        with pytest.raises(InvalidParameterError, match="of infinite width"):
            box.grid(5)

    def test_check_axioms(self):
        with pytest.raises(InvalidParameterError, match="has an infinite width"):
            check_axioms(IDENTITY, 3, box=WIDE)

    @pytest.mark.parametrize("call", CERTIFICATES.values(), ids=CERTIFICATES)
    def test_the_certificates(self, call):
        with pytest.raises(InvalidParameterError, match="of infinite width"):
            call(WIDE)

    def test_an_infinite_end_stays_a_domain_error(self):
        with pytest.raises(DomainError):
            check_axioms(IDENTITY, 3, box=Interval(0.0, math.inf))

    @pytest.mark.parametrize("call", [lambda box: check_axioms(IDENTITY, 3, box=box),
                                      *CERTIFICATES.values()],
                             ids=["check_axioms", *CERTIFICATES])
    def test_a_box_end_outside_the_domain(self, call):
        # one check of the ends (generators._require_box): min_slope gridded
        # the box first, and raised InvalidParameterError on this one
        with pytest.raises(DomainError, match=r"value -inf outside domain \(-inf, inf\) of "
                                              r"generator 'identity'"):
            call(Interval(-math.inf, 1.0))

    def test_a_box_end_names_the_generator_as_passed(self):
        # the certificates named a decreasing one in its increasing form
        with pytest.raises(DomainError, match=r"of generator 'reciprocal'$"):
            theorem4_bound(make_builtin("reciprocal"), LOG, Interval(-1.0, 2.0))

    def test_compare_edgeworth_grid(self):
        dist = parse_distribution("gamma:2:1")
        report = run_scenario(ScenarioConfig(dist, LOG, 10, 50, 0))
        with pytest.raises(InvalidParameterError, match="of infinite width"):
            compare_edgeworth(report, g_moments(LOG, dist), 10, grid=WIDE)

    def test_cli_stability_box(self, capsys):
        assert main(["stability", "--g", "identity", "--h", "exp", "--box=-1e308:1e308"]) == 2
        err = capsys.readouterr().err
        assert "infinite width" in err and "Warning" not in err


SOURCE = Path(regmeans.__file__).parent


def _asarray_of_calls(tree) -> list[str]:
    """The np.asarray calls of tree whose first argument is a call, outside
    generators._vectorized, as source text."""
    skip = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "_vectorized"
            for node in ast.walk(fn)}
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in skip
            and isinstance(node.func, ast.Attribute) and node.func.attr == "asarray"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
            and node.args and isinstance(node.args[0], ast.Call)]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_callables_are_converted_by_vectorized_only(path):
    assert _asarray_of_calls(ast.parse(path.read_text())) == []


def test_the_guard_finds_each_form():
    source = ("np.asarray(g.forward(x), dtype=float); np.asarray(fn(x)); np.asarray(x);"
              "np.broadcast_to(np.asarray(g.derivative(x), dtype=float), x.shape)\n"
              "def _vectorized(fn, x, what):\n    return np.asarray(fn(x), dtype=float)\n")
    assert len(_asarray_of_calls(ast.parse(source))) == 3
