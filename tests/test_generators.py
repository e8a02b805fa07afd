"""Generator parsing, slope estimates, and transforms."""

import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from regmeans import (
    DegenerateSlopeError,
    DomainError,
    Generator,
    Interval,
    InvalidParameterError,
    NumericError,
    affine_transform,
    kolmogorov_expectation,
    make_builtin,
    mean,
    min_slope,
    parse_distribution,
    parse_generator,
    verify_stability,
)
from regmeans.generators import _parse_builtin
from regmeans.means import row_means

SPECS = ("identity", "log", "reciprocal", "power:2.0", "power:0.5", "exp")


# ---------------------------------------------------------------------------
# Interval

class TestInterval:
    def test_orientation_required(self):
        with pytest.raises(InvalidParameterError):
            Interval(2.0, 1.0)
        with pytest.raises(InvalidParameterError):
            Interval(1.0, 1.0)

    @pytest.mark.parametrize("lo,hi,name", [("0", "1", "lo"), (None, 1.0, "lo"),
                                             (0.0, "1", "hi")])
    def test_endpoints_must_be_real_numbers(self, lo, hi, name):
        # ("0", "1") was an interval of strings, the others a bare TypeError
        with pytest.raises(InvalidParameterError, match=rf"^{name} must be a real number"):
            Interval(lo, hi)

    def test_contains_vs_interior(self):
        # the endpoints belong to the interval but not to its interior
        box = Interval(0.0, 1.0)
        for end in (0.0, 1.0):
            with pytest.raises(DomainError):
                box.require_interior(end, "the box")
        box.require_interior(0.5, "the box")  # no raise

    def test_grid_hits_endpoints(self):
        g = Interval(1.0, 2.0).grid(11)
        assert g[0] == 1.0 and g[-1] == 2.0 and len(g) == 11
        assert np.all(np.diff(g) > 0)

    @pytest.mark.parametrize("points", [2.5, 11.0, "11", None])
    def test_grid_size_must_be_an_integer(self, points):
        # np.linspace raised a bare TypeError
        with pytest.raises(InvalidParameterError, match="integer"):
            Interval(1.0, 2.0).grid(points)

    def test_grid_takes_numpy_integers(self):
        np.testing.assert_array_equal(Interval(1.0, 2.0).grid(np.int64(11)),
                                      Interval(1.0, 2.0).grid(11))

    def test_encloses(self):
        # a box is inside a domain when both its ends are
        Interval(0.0, math.inf).require_interior([1.0, 2.0], "the half-line")  # no raise
        with pytest.raises(DomainError, match="0.5"):
            Interval(1.0, 2.0).require_interior([0.5, 1.5], "the box")

    def test_width(self):
        assert Interval(1.0, 3.0).width == 2.0
        assert not Interval(0.0, math.inf).is_finite


# ---------------------------------------------------------------------------
# Builtin construction and parsing

class TestBuiltins:
    @pytest.mark.parametrize("spec,x,expected", [
        ("identity", 3.0, 3.0),
        ("log", math.e, 1.0),
        ("reciprocal", 4.0, 0.25),
        ("power:2.0", 3.0, 9.0),
        ("exp", 0.0, 1.0),
    ])
    def test_forward_values(self, spec, x, expected):
        g = parse_generator(spec)
        assert g.forward(x) == pytest.approx(expected, rel=1e-15)

    def test_round_trip(self, builtin_generator):
        g = builtin_generator
        xs = np.linspace(0.5, 2.0, 7)
        back = g.inverse(g.forward(xs))
        np.testing.assert_allclose(back, xs, rtol=1e-12)

    def test_only_reciprocal_decreases(self, all_builtins):
        directions = {g.name: bool(g.forward(2.0) > g.forward(1.0)) for g in all_builtins}
        assert directions == {
            "identity": True, "log": True, "reciprocal": False,
            "power:2": True, "exp": True,
        }

    def test_power_requires_positive_exponent(self):
        for bad in (0.0, -1.0):
            with pytest.raises(InvalidParameterError):
                make_builtin("power", bad)
        with pytest.raises(InvalidParameterError):
            parse_generator("power:0")

    def test_power_requires_exponent_argument(self):
        with pytest.raises(InvalidParameterError):
            make_builtin("power")
        with pytest.raises(InvalidParameterError):
            parse_generator("power")

    def test_non_power_kinds_reject_parameter(self):
        with pytest.raises(InvalidParameterError):
            make_builtin("log", 2.0)
        with pytest.raises(InvalidParameterError):
            parse_generator("identity:3")

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            parse_generator("sinh")
        # make_builtin raised the ConfigurationError above the other two's class
        with pytest.raises(InvalidParameterError, match="unknown generator kind 'sinh'"):
            make_builtin("sinh")

    _LOG = ("log", Interval(0.0, math.inf), np.log, np.exp, lambda x: 1.0 / x)

    @pytest.mark.parametrize("extra", [dict(), dict(kind="log"), dict(param=2.0),
                                       dict(monotone_direction="increasing")],
                             ids=["sixth", "kind", "param", "monotone_direction"])
    def test_the_constructor_takes_five_values(self, extra):
        # a direction, kind or param was a constructor input, and a kind
        # or param the library trusted over the callables
        args = self._LOG + (("increasing",) if not extra else ())
        with pytest.raises(TypeError):
            Generator(*args, **extra)

    def test_a_constructed_generator_is_custom(self):
        g = Generator(*self._LOG)
        assert (g.kind, g.param) == ("custom", None)
        with pytest.raises(AttributeError):
            g.kind = "log"

    def test_only_make_builtin_sets_kind_and_param(self):
        g = parse_generator("power:2")
        assert (g.kind, g.param) == ("power", 2.0)
        assert (make_builtin("log").kind, make_builtin("log").param) == ("log", None)
        copy = dataclasses.replace(g)
        assert (copy.kind, copy.param) == ("custom", None)
        assert copy.forward is g.forward

    @pytest.mark.parametrize("spec", [None, 2.0, b"log"])
    def test_spec_must_be_a_string(self, spec):
        # None raised a bare AttributeError (no .strip)
        with pytest.raises(InvalidParameterError, match="string"):
            parse_generator(spec)

    @pytest.mark.parametrize("p", ["a", "2", [2.0]])
    def test_power_exponent_must_be_a_number(self, p):
        # "a" raised a bare TypeError from the comparison with 1e-6
        with pytest.raises(InvalidParameterError, match="power generator"):
            make_builtin("power", p)

    @given(st.floats(min_value=1e-6, allow_infinity=False))
    def test_power_name_parses_back_to_the_same_exponent(self, p):
        assert parse_generator(make_builtin("power", p).name).param == p

    @pytest.mark.parametrize("p,name", [(2.0, "power:2"), (0.5, "power:0.5"),
                                        (2.1234567, "power:2.1234567"), (1e-6, "power:1e-06")])
    def test_power_name_keeps_every_digit(self, p, name):
        # 2.1234567 was named power:2.12346
        assert make_builtin("power", p).name == name

    def test_domains(self):
        assert parse_generator("log").domain.lo == 0.0
        assert parse_generator("exp").domain.lo == -math.inf
        assert parse_generator("identity").domain.lo == -math.inf
        assert parse_generator("power:1.5").domain == Interval(0.0, math.inf)

    def test_require_in_domain_names_offender(self):
        g = parse_generator("log")
        with pytest.raises(DomainError, match="-3.* of generator 'log'"):
            mean(g, [1.0, -3.0, 2.0])
        g.domain.require_interior(np.array([1.0, 2.0]), "log")  # no raise

    @given(st.floats(min_value=0.1, max_value=4.0),
           st.floats(min_value=0.1, max_value=10.0))
    def test_power_round_trip_property(self, p, x):
        g = make_builtin("power", p)
        assert g.inverse(g.forward(x)) == pytest.approx(x, rel=1e-9)


class TestRegistry:
    def test_builtin_spec_parses_to_the_same_generator(self):
        assert parse_generator("power:0.5") is parse_generator(" power:0.5 ")
        assert parse_generator("log") is parse_generator("log")

    @pytest.mark.parametrize("spec", ["power:abc", "power:1e-9", "power", "log:2"])
    def test_a_raising_spec_caches_nothing(self, spec):
        cached = _parse_builtin.cache_info().currsize
        for _ in range(2):
            with pytest.raises(InvalidParameterError):
                parse_generator(spec)
        assert _parse_builtin.cache_info().currsize == cached


# ---------------------------------------------------------------------------
# Slope estimates

class TestSlopes:
    def test_log_slopes_on_unit_octave(self):
        B = Interval(1.0, 2.0)
        g = parse_generator("log")
        assert min_slope(g, B) == pytest.approx(0.5, rel=1e-9)

    def test_exp_min_slope(self):
        assert min_slope(parse_generator("exp"), Interval(0.0, 1.0)) == pytest.approx(1.0, rel=1e-9)

    def test_reciprocal_uses_absolute_slope(self):
        B = Interval(1.0, 2.0)
        g = parse_generator("reciprocal")
        assert min_slope(g, B) == pytest.approx(0.25, rel=1e-6)

    def test_degenerate_slope_detected(self):
        flat = Generator(
            name="flatcube",
            domain=Interval(-math.inf, math.inf),
            forward=lambda x: x ** 3,
            inverse=lambda y: np.cbrt(y),
            derivative=lambda x: 3.0 * x ** 2,  # vanishes at 0
        )
        with pytest.raises(DegenerateSlopeError):
            min_slope(flat, Interval(-1.0, 1.0))

    def test_overflowing_slope_is_numeric_error(self):
        # exp' = exp overflows on the whole box
        with pytest.raises(NumericError):
            min_slope(parse_generator("exp"), Interval(800.0, 900.0))

    @pytest.mark.parametrize("errors", ["default", "raise"])
    def test_underflowing_slope_is_degenerate_whatever_the_errstate(self, errors):
        # exp' = exp underflows to 0 at the low end; a caller raising on
        # float errors gets the library's answer, not a FloatingPointError
        with np.errstate(all="raise") if errors == "raise" else contextlib.nullcontext():
            with pytest.raises(DegenerateSlopeError):
                min_slope(parse_generator("exp"), Interval(-800.0, 1.0))


# ---------------------------------------------------------------------------
# Transforms

class TestAffineTransform:
    def test_zero_scale_rejected(self):
        with pytest.raises(InvalidParameterError):
            affine_transform(parse_generator("log"), 0.0, 1.0)

    @pytest.mark.parametrize("a,b", [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
                                     (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_scale_or_shift_rejected(self, a, b):
        # a NaN scale made a "decreasing" generator whose means were not finite
        with pytest.raises(InvalidParameterError):
            affine_transform(parse_generator("log"), a, b)

    @given(st.sampled_from(SPECS), st.sampled_from((-1.0, 1.0)),
           st.floats(min_value=1e-3, max_value=5.0), st.floats(min_value=-5.0, max_value=5.0))
    def test_affine_image_induces_same_mean(self, spec, sign, scale, b):
        # a*g + b generates the identical quasi-arithmetic mean, for either
        # sign of a: the direction of g is not a property of the mean
        g = parse_generator(spec)
        t = affine_transform(g, sign * scale, b)
        rows = np.array([[0.5, 1.5, 4.0], [1.0, 2.0, 3.0]])
        assert mean(t, rows[0]) == pytest.approx(mean(g, rows[0]), rel=1e-9)
        np.testing.assert_allclose(row_means(t, rows), row_means(g, rows), rtol=1e-9)

    @given(st.sampled_from(SPECS), st.sampled_from(SPECS), st.sampled_from((-1.0, 1.0)),
           st.floats(min_value=1e-3, max_value=5.0), st.floats(min_value=-5.0, max_value=5.0))
    def test_affine_image_has_the_same_mean_distance(self, g_spec, h_spec, sign, scale, b):
        # the certificates read the direction of a*h + b off the box; a*h + b
        # rounds at about eps |b|, which the inverse magnifies by up to
        # 1 / (|a| min |h'|), 5e3 * 4 here
        g, h, box = parse_generator(g_spec), parse_generator(h_spec), Interval(1.0, 2.0)
        want = verify_stability(g, h, box, n=2).sup_mean_distance
        got = verify_stability(g, affine_transform(h, sign * scale, b), box, n=2)
        assert got.sup_mean_distance == pytest.approx(want, rel=1e-9, abs=1e-10)


class TestReplacedCallables:
    """dataclasses.replace of a built-in is a custom generator: a built-in
    kind, which picks closed forms and anchored means, was kept beside the
    new callables."""

    def test_a_replaced_log_takes_the_quadrature(self):
        g = dataclasses.replace(parse_generator("log"), forward=np.sqrt, inverse=np.square,
                                derivative=lambda x: 0.5 / np.sqrt(x))
        assert g.kind == "custom" and g.param is None
        # the log kind's closed form answered 0.0
        dist = parse_distribution("lognormal:0:1")
        assert kolmogorov_expectation(g, dist) == 1.284025416687742
        assert kolmogorov_expectation(g, dist, method="quadrature") == 1.284025416687742

    @pytest.mark.parametrize("spec", ["power:2", "exp"])
    def test_a_replaced_forward_defines_the_mean(self, spec):
        # the power kind squared, the exp kind anchored at exp: 2.6457... and
        # 1.7319...
        g = dataclasses.replace(parse_generator(spec), forward=lambda x: x ** 3,
                                inverse=np.cbrt, derivative=lambda x: 3.0 * x * x)
        assert g.kind == "custom"
        assert mean(g, [1.0, 2.0, 4.0]) == 2.8977919511464485


class TestNumericDerivative:
    @pytest.mark.parametrize("spec,x", [
        ("identity", 0.7), ("log", 1.3), ("reciprocal", 2.0),
        ("power:2.0", 1.7), ("exp", -0.4),
    ])
    def test_matches_analytic(self, spec, x):
        g = parse_generator(spec)
        h = float(np.finfo(float).eps) ** (1.0 / 3.0) * max(1.0, abs(x))
        approx = (g.forward(x + h) - g.forward(x - h)) / (2.0 * h)
        assert approx == pytest.approx(g.derivative(x), rel=1e-6)
