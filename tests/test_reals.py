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
]


@pytest.mark.parametrize("owner,name,call", [pytest.param(*row, id=f"{row[0]}-{row[1]}")
                                             for row in BOXES])
@pytest.mark.parametrize("box", [(1.0, 2.0), [1.0, 2.0], "1:2"], ids=repr)
def test_box_that_is_not_an_interval_is_rejected(owner, name, call, box):
    # each but compare_edgeworth raised a bare AttributeError (no .lo); None
    # is check_axioms' default box
    with pytest.raises(InvalidParameterError, match=rf"^{name} must be an Interval"):
        call(box)


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
]


@pytest.mark.parametrize("owner,name,call", [pytest.param(*row, id=f"{row[0]}-{row[1]}")
                                             for row in OBJECTS])
@pytest.mark.parametrize("value", [None, 3, ["gamma:2:1"]], ids=repr)
def test_object_of_the_wrong_type_is_rejected(owner, name, call, value):
    # the first three raised a bare AttributeError, reproduce_figure1 and 2
    # a bare TypeError from Path
    with pytest.raises(InvalidParameterError, match=rf"^{name} must be a"):
        call(value)


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
    ("quantile", lambda x: rm.Uniform(1.0, 2.0).quantile(x)),
    ("isf", lambda x: rm.Uniform(1.0, 2.0).isf(x)),
    ("mean", lambda x: rm.mean(_log(), x)),
]


# empirical_cdf(["a"]) and quantile("a") raised numpy's bare ValueError,
# ks_statistic([1j], ...) and quantile(0.5+0j) a bare TypeError, and
# mean(identity, "12") answered 12.0
@pytest.mark.parametrize("call", [pytest.param(call, id=owner) for owner, call in ARRAYS])
@pytest.mark.parametrize("x", ["a", "0.5", ["0.5", "0.6"], 0.5 + 0j, [1j], None,
                               [[0.5, 0.6], [0.7]]], ids=repr)
def test_values_that_are_not_real_numbers_are_rejected(call, x):
    with pytest.raises(InvalidParameterError, match="needs real numbers"):
        call(x)


# empirical_cdf(None) said "got a NaN value"; quantile and isf take a NaN as
# outside (0, 1), InvalidParameterError (tests/test_distributions.py)
@pytest.mark.parametrize("call", [pytest.param(call, id=owner) for owner, call in ARRAYS
                                  if owner not in ("quantile", "isf")])
@pytest.mark.parametrize("x", [math.nan, [0.5, math.nan]], ids=repr)
def test_nan_value_is_domain_error(call, x):
    with pytest.raises(DomainError):
        call(x)
