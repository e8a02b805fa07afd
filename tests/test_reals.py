"""The real-number contract, as tests/test_counts.py is the count contract.

REALS holds one row per real scalar parameter that a comparison would
otherwise meet first: each row is sent a string, None and a list, and must
raise InvalidParameterError naming the parameter, not a bare TypeError.

BOXES holds one row per parameter that takes an Interval: a tuple or a
list of ends, or a string, must raise InvalidParameterError naming the
parameter, not a bare AttributeError.  OBJECTS does the same for the other
parameters that take one of the library's objects, or a path.

POINTS holds one row per function that takes a number or an array of
points: a value that is not a real number is InvalidParameterError, a NaN is
DomainError, and a real value passes, whichever of them is asked.  ARRAYS
holds the other entry points that take an array of values, through the same
check (generators._real_array).
"""

import functools
import math

import numpy as np
import pytest

import regmeans as rm
from regmeans import DomainError, InvalidParameterError


@functools.cache
def _log():
    return rm.parse_generator("log")


@functools.cache
def _mom():
    return rm.g_moments(_log(), rm.parse_distribution("gamma:2:1"))


# (owner, parameter, call): call(value) passes value as that parameter
REALS = [
    ("power_mean", "p", lambda p: rm.power_mean(p, [1.0, 2.0])),
    ("affine_transform", "a", lambda a: rm.affine_transform(_log(), a, 0.0)),
    ("affine_transform", "b", lambda b: rm.affine_transform(_log(), 2.0, b)),
    ("check_axioms", "tol", lambda tol: rm.check_axioms(_log(), n=3, trials=10, tol=tol)),
    ("verify_stability", "tolerance_factor",
     lambda f: rm.verify_stability(_log(), rm.parse_generator("identity"),
                                   rm.Interval(1.0, 2.0), n=2, tolerance_factor=f)),
]


@pytest.mark.parametrize("owner,name,call", [pytest.param(*row, id=f"{row[0]}-{row[1]}")
                                             for row in REALS])
@pytest.mark.parametrize("value", ["2", None, [2.0]], ids=repr)
def test_bad_real_is_rejected(owner, name, call, value):
    with pytest.raises(InvalidParameterError, match=rf"^{name} must be a real number"):
        call(value)


@pytest.mark.parametrize("owner,name,call", [pytest.param(*row, id=f"{row[0]}-{row[1]}")
                                             for row in REALS])
@pytest.mark.parametrize("value", [0.5, np.float64(0.5), np.float32(0.25)], ids=repr)
def test_real_passes(owner, name, call, value):
    call(value)


@functools.cache
def _report():
    return rm.run_scenario(rm.ScenarioConfig(rm.parse_distribution("gamma:2:1"), _log(), n=5,
                                             replicates=50, seed=1))


@functools.cache
def _identity():
    return rm.parse_generator("identity")


# (owner, parameter, call): call(box) passes box as that parameter
BOXES = [
    ("check_axioms", "box", lambda box: rm.check_axioms(_log(), n=2, trials=10, box=box)),
    ("verify_stability", "A_box", lambda box: rm.verify_stability(_log(), _identity(), box, n=2)),
    ("blend_distances", "A_box",
     lambda box: rm.blend_distances(_log(), _identity(), box, n=2, ts=[0.5])),
    ("theorem4_bound", "B", lambda box: rm.theorem4_bound(_log(), _identity(), box)),
    ("min_slope", "B", lambda box: rm.min_slope(_log(), box)),
    ("compare_edgeworth", "grid",
     lambda box: rm.compare_edgeworth(_report(), _mom(), 5, grid=box)),
    ("Generator", "domain",
     lambda box: rm.Generator("c", box, np.log, np.exp, np.reciprocal)),
]


@pytest.mark.parametrize("owner,name,call", [pytest.param(*row, id=f"{row[0]}-{row[1]}")
                                             for row in BOXES])
@pytest.mark.parametrize("box", [(1.0, 2.0), [1.0, 2.0], "1:2"], ids=repr)
def test_box_that_is_not_an_interval_is_rejected(owner, name, call, box):
    # each but compare_edgeworth raised a bare AttributeError (no .lo); None
    # is check_axioms' default box.  Generator took any domain, and its
    # first mean raised the bare AttributeError
    with pytest.raises(InvalidParameterError, match=rf"^{name} must be an Interval"):
        call(box)


_B = rm.Interval(1.0, 2.0)


@functools.cache
def _gamma():
    return rm.parse_distribution("gamma:2:1")


# (owner, parameter, call): call(value) passes value as that parameter, one
# that takes an object of the library's own (or a path)
OBJECTS = [
    ("run_scenario", "cfg", lambda cfg: rm.run_scenario(cfg)),
    ("compare_edgeworth", "report", lambda report: rm.compare_edgeworth(report, _mom(), 5)),
    ("compare_edgeworth", "mom", lambda mom: rm.compare_edgeworth(_report(), mom, 5)),
    ("reproduce_figure1", "out_dir",
     lambda out: rm.reproduce_figure1(out, n=20, replicates=10)),
    ("reproduce_figure2", "out_dir",
     lambda out: rm.reproduce_figure2(out, n=20, replicates=10)),
    ("mean", "g", lambda g: rm.mean(g, [1.0, 2.0])),
    ("check_axioms", "g", lambda g: rm.check_axioms(g, n=2, trials=10)),
    ("verify_stability", "g", lambda g: rm.verify_stability(g, _identity(), _B, n=2)),
    ("verify_stability", "h", lambda h: rm.verify_stability(_log(), h, _B, n=2)),
    ("blend_distances", "g", lambda g: rm.blend_distances(g, _identity(), _B, n=2, ts=[0.5])),
    ("blend_distances", "h", lambda h: rm.blend_distances(_log(), h, _B, n=2, ts=[0.5])),
    ("theorem4_bound", "g", lambda g: rm.theorem4_bound(g, _identity(), _B)),
    ("theorem4_bound", "h", lambda h: rm.theorem4_bound(_log(), h, _B)),
    ("affine_transform", "g", lambda g: rm.affine_transform(g, 2.0, 0.0)),
    ("g_moments", "g", lambda g: rm.g_moments(g, _gamma())),
    ("kolmogorov_expectation", "g", lambda g: rm.kolmogorov_expectation(g, _gamma())),
    ("asymptotic_variance", "g", lambda g: rm.asymptotic_variance(g, _gamma())),
    ("g_moments", "dist", lambda dist: rm.g_moments(_log(), dist)),
    ("kolmogorov_expectation", "dist", lambda dist: rm.kolmogorov_expectation(_log(), dist)),
    ("asymptotic_variance", "dist", lambda dist: rm.asymptotic_variance(_log(), dist)),
    ("expect", "dist", lambda dist: rm.expect(dist, np.log)),
    ("sample", "rng", lambda rng: rm.Uniform(1.0, 2.0).sample(3, rng)),
    ("edgeworth_cdf", "mom", lambda mom: rm.edgeworth_cdf(0.5, 5, mom)),
    ("edgeworth_corrections", "mom", lambda mom: rm.edgeworth_corrections(0.5, 5, mom)),
]


@pytest.mark.parametrize("owner,name,call", [pytest.param(*row, id=f"{row[0]}-{row[1]}")
                                             for row in OBJECTS])
@pytest.mark.parametrize("value", [None, 3, ["gamma:2:1"]], ids=repr)
def test_object_of_the_wrong_type_is_rejected(owner, name, call, value):
    # the first three raised a bare AttributeError, reproduce_figure1 and 2
    # a bare TypeError from Path, and each g, h, dist and mom, and a
    # sampler's rng, a bare AttributeError
    with pytest.raises(InvalidParameterError, match=rf"^{name} must be a"):
        call(value)


@pytest.mark.parametrize("call", [rm.geometric_average_return, rm.wealth_path,
                                  rm.markowitz_approximation], ids=lambda f: f.__name__)
@pytest.mark.parametrize("series", [None, 3, 2.5], ids=repr)
def test_series_that_is_not_iterable_is_rejected(call, series):
    # geometric_average_return(None) raised a bare TypeError from tuple()
    with pytest.raises(InvalidParameterError,
                       match="^series must be a ReturnSeries or an iterable of returns"):
        call(series)


# (owner, call): call(x) evaluates owner at the points x
POINTS = [
    ("phi_cdf", rm.phi_cdf),
    ("phi_pdf", rm.phi_pdf),
    ("edgeworth_corrections", lambda x: rm.edgeworth_corrections(x, 5, _mom())),
    ("edgeworth_cdf", lambda x: rm.edgeworth_cdf(x, 5, _mom())),
    ("empirical_cdf.at", lambda x: rm.empirical_cdf([1.0, 2.0]).at(x)),
]


def _points(values):
    return [pytest.param(call, x, id=f"{owner}-{x!r}") for owner, call in POINTS
            for x in values]


# phi_cdf("1.5") answered 0.933 and phi_pdf(None) a NaN; a ragged list was
# numpy's bare ValueError
@pytest.mark.parametrize("call,x", _points(["1.5", None, ["a", "b"], [1.0, None], b"1", 1j,
                                             [[0.5, 0.6], [0.7]]]))
def test_points_that_are_not_real_numbers_are_rejected(call, x):
    with pytest.raises(InvalidParameterError, match="needs real numbers"):
        call(x)


# phi_pdf(nan) answered a NaN
@pytest.mark.parametrize("call,x", _points([math.nan, [0.0, math.nan], np.array([[math.nan]])]))
def test_nan_point_is_domain_error(call, x):
    with pytest.raises(DomainError, match="got a NaN value"):
        call(x)


@pytest.mark.parametrize("call,x", _points([0.5, 1, True, [0.0, 1.0], np.float32(0.5),
                                             np.array([[-math.inf, math.inf]])]))
def test_real_points_pass(call, x):
    out = call(x)
    for part in out if isinstance(out, tuple) else (out,):
        assert np.shape(part) == np.shape(x)
        assert not np.isnan(part).any()


# (owner, call): call(x) passes x as the array of values
ARRAYS = [
    ("empirical_cdf", rm.empirical_cdf),
    ("ks_statistic", lambda x: rm.ks_statistic(x, rm.phi_cdf)),
    ("mean", lambda x: rm.mean(_log(), x)),
]


# empirical_cdf(["a"]) raised numpy's bare ValueError, ks_statistic([1j],
# ...) a bare TypeError, and mean(identity, "12") answered 12.0
@pytest.mark.parametrize("call", [pytest.param(call, id=owner) for owner, call in ARRAYS])
@pytest.mark.parametrize("x", ["a", "0.5", ["0.5", "0.6"], 0.5 + 0j, [1j], None,
                               [[0.5, 0.6], [0.7]]], ids=repr)
def test_values_that_are_not_real_numbers_are_rejected(call, x):
    with pytest.raises(InvalidParameterError, match="needs real numbers"):
        call(x)


# empirical_cdf(None) said "got a NaN value"
@pytest.mark.parametrize("call", [pytest.param(call, id=owner) for owner, call in ARRAYS])
@pytest.mark.parametrize("x", [math.nan, [0.5, math.nan]], ids=repr)
def test_nan_value_is_domain_error(call, x):
    with pytest.raises(DomainError):
        call(x)
