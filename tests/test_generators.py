"""Generator parsing, slope estimates, and transforms."""

import contextlib
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
    make_builtin,
    mean,
    min_slope,
    normalize_increasing,
    parse_generator,
)
from regmeans.generators import _parse_builtin


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
        directions = {g.name: g.increasing for g in all_builtins}
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

    _LOG = ("log", Interval(0.0, math.inf), np.log, np.exp, lambda x: 1.0 / x)

    @pytest.mark.parametrize("kind,param,direction,match", [
        ("power", None, "increasing", "power generator requires"),   # a bare TypeError in mean
        ("power", "2", "increasing", "power generator requires"),
        ("power", 1e-9, "increasing", "power generator requires"),
        ("power", math.inf, "increasing", "power generator requires"),
        ("power", -1.0, "increasing", "power generator requires"),
        ("log", 2.0, "increasing", "takes no parameter"),
        ("custom", 2.0, "increasing", "takes no parameter"),
        ("sinh", None, "increasing", "unknown generator kind"),
        ("log", None, "down", "monotone_direction"),              # was read as decreasing
        ("log", None, None, "monotone_direction"),
    ])
    def test_generator_checks_its_own_fields(self, kind, param, direction, match):
        with pytest.raises(InvalidParameterError, match=match):
            Generator(*self._LOG, direction, kind=kind, param=param)

    @pytest.mark.parametrize("kind,param,direction", [
        ("custom", None, "decreasing"), ("log", None, "increasing"), ("power", 1e-6, "increasing"),
        ("power", 3, "increasing")])
    def test_generator_fields_in_range_pass(self, kind, param, direction):
        assert Generator(*self._LOG, direction, kind=kind, param=param).param == param

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
            monotone_direction="increasing",
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

class TestNormalizeIncreasing:
    def test_increasing_passes_through(self):
        g = parse_generator("log")
        assert normalize_increasing(g) is g

    def test_reciprocal_flipped(self):
        g = normalize_increasing(parse_generator("reciprocal"))
        assert g.increasing
        assert g.forward(2.0) == pytest.approx(-0.5)
        assert g.inverse(-0.5) == pytest.approx(2.0)
        assert g.derivative(2.0) == pytest.approx(0.25)

    def test_mean_is_preserved(self):
        raw = parse_generator("reciprocal")
        flipped = normalize_increasing(raw)
        data = (2.0, 6.0, 3.0)
        assert mean(flipped, data) == pytest.approx(mean(raw, data), rel=1e-12)


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

    @given(st.floats(min_value=-5.0, max_value=5.0).filter(lambda a: abs(a) > 1e-3),
           st.floats(min_value=-5.0, max_value=5.0))
    def test_affine_image_induces_same_mean(self, a, b):
        # a*g + b generates the identical quasi-arithmetic mean
        g = parse_generator("log")
        data = (0.5, 1.5, 4.0)
        assert mean(affine_transform(g, a, b), data) == pytest.approx(
            mean(g, data), rel=1e-9)

    def test_negative_scale_flips_direction(self):
        t = affine_transform(parse_generator("log"), -2.0, 0.0)
        assert not t.increasing


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
