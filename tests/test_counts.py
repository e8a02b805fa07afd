"""The count contract: every integer parameter of the public API is an
integer of at least some least value, and anything else is
InvalidParameterError naming the parameter.

COUNTS holds one row per such parameter.  test_bad_count_is_rejected sends
each row 2.5, "2", None (unless None is the default) and least - 1, and
test_every_int_parameter_has_a_row walks regmeans.__all__, and the public
methods of its classes, and fails on a parameter annotated int that has no
row, so a new count cannot skip the check.
"""

import functools
import inspect

import numpy as np
import pytest

import regmeans as rm
from regmeans import InvalidParameterError, Interval
from regmeans.generators import require_count

B = Interval(1.0, 2.0)


@functools.cache
def _fixtures():
    log, identity = rm.parse_generator("log"), rm.parse_generator("identity")
    dist = rm.parse_distribution("uniform:1:2")
    cfg = rm.ScenarioConfig(dist, identity, n=5, replicates=50, seed=0)
    return log, identity, dist, cfg, rm.g_moments(log, dist), rm.run_scenario(cfg)


def _scenario(**counts):
    _, identity, dist, *_ = _fixtures()
    return rm.ScenarioConfig(**{"dist": dist, "generator": identity, "n": 5,
                                "replicates": 10, "seed": 0, **counts})


def _figure(reproduce):
    def call(out, **counts):
        return reproduce(out, **{"n": 20, "replicates": 10, "threads": 1, **counts})
    return call


def _axioms(out, **counts):
    return rm.check_axioms(_fixtures()[0], **{"n": 3, "trials": 10, **counts})


def _stability(fn, **fixed):
    def call(out, **counts):
        log, identity, *_ = _fixtures()
        return fn(log, identity, B, **{"n": 2, **fixed, **counts})
    return call


def _edgeworth(fn):
    def call(out, n):
        return fn(0.5, n, _fixtures()[4])
    return call


def _compare(out, **counts):
    *_, mom, report = _fixtures()
    return rm.compare_edgeworth(report, mom, **{"n": 5, **counts})


SAMPLERS = (rm.LogNormal(0.0, 1.0), rm.Gamma(2.0, 1.0), rm.Uniform(1.0, 2.0), rm.Pareto(3.0))

# (owner, parameter, least, call): call(out, **{parameter: value}), with out
# a directory that must not exist after a rejected count.  ddof is a member
# of a small set, checked as such; it raised InvalidParameterError on every
# bad value before require_count existed.
COUNTS = [
    ("ScenarioConfig", "n", 2, lambda out, **c: _scenario(**c)),
    ("ScenarioConfig", "replicates", 1, lambda out, **c: _scenario(**c)),
    ("ScenarioConfig", "seed", 0, lambda out, **c: _scenario(**c)),
    ("run_scenario", "threads", 1, lambda out, **c: rm.run_scenario(_fixtures()[3], **c)),
    *[(fig.__name__, name, least, _figure(fig))
      for fig in (rm.reproduce_figure1, rm.reproduce_figure2)
      for name, least in (("seed", 0), ("n", 2), ("replicates", 1), ("threads", 1))],
    ("check_axioms", "n", 1, _axioms),
    ("check_axioms", "n0", 1, _axioms),
    ("check_axioms", "trials", 1, _axioms),
    ("check_axioms", "rng_seed", 0, _axioms),
    ("verify_stability", "n", 1, _stability(rm.verify_stability)),
    ("verify_stability", "grid_per_dim", 2, _stability(rm.verify_stability)),
    ("blend_distances", "n", 1, _stability(rm.blend_distances, ts=[0.5])),
    ("blend_distances", "grid_per_dim", 2, _stability(rm.blend_distances, ts=[0.5])),
    ("min_slope", "grid_points", 2,
     lambda out, grid_points: rm.min_slope(_fixtures()[0], B, grid_points)),
    ("edgeworth_cdf", "n", 1, _edgeworth(rm.edgeworth_cdf)),
    ("edgeworth_corrections", "n", 1, _edgeworth(rm.edgeworth_corrections)),
    ("compare_edgeworth", "n", 1, _compare),
    ("compare_edgeworth", "steps", 2, _compare),
    ("Interval.grid", "points", 2, lambda out, points: B.grid(points)),
    *[(f"{type(dist).__name__}.sample", "n", 1,
       lambda out, n, dist=dist: dist.sample(n, np.random.default_rng(0)))
      for dist in SAMPLERS],
    ("markowitz_approximation", "ddof", 0,
     lambda out, ddof: rm.markowitz_approximation([0.01, 0.02], ddof)),
]

# int fields of the reports the library itself fills in, not inputs
RESULTS = {("AxiomReport", "trials"), ("StabilityReport", "n")}


def _owner(path: str):
    return functools.reduce(getattr, path.split("."), rm)


def _is_int(annotation) -> bool:
    text = annotation if isinstance(annotation, str) else inspect.formatannotation(annotation)
    return "int" in text.split(" | ")


def _bad_values():
    """(owner, name, call, value) for each row and bad value; None is no bad
    value where it is the parameter's default (n0 of check_axioms)."""
    for owner, name, least, call in COUNTS:
        optional = inspect.signature(_owner(owner)).parameters[name].default is None
        for value in (2.5, "2", None, least - 1):
            if not (value is None and optional):
                yield pytest.param(owner, name, call, value, id=f"{owner}-{name}-{value!r}")


@pytest.mark.parametrize("owner,name,call,value", _bad_values())
def test_bad_count_is_rejected(tmp_path, owner, name, call, value):
    out = tmp_path / "out"
    with pytest.raises(InvalidParameterError, match=rf"\b{name}\b"):
        call(out, **{name: value})
    assert not out.exists()


def _unaligned(n):
    return np.frombuffer(bytearray(8 * n + 1), dtype=float, offset=1)


def _read_only(n):
    a = np.empty(n)
    a.flags.writeable = False
    return a


# a sampler's out for n = 4 draws that is not a writable, aligned,
# C-contiguous float64 array of shape (4,): numpy's samplers raise a bare
# ValueError or TypeError for most, and fill a longer or 2-D one whole
BAD_OUTS = {
    "list": lambda n: [0.0] * n,
    "longer": lambda n: np.empty(n + 1),
    "2-D": lambda n: np.empty((n, 1)),
    "float32": lambda n: np.empty(n, dtype=np.float32),
    "int64": lambda n: np.empty(n, dtype=np.int64),
    "big-endian": lambda n: np.empty(n, dtype=">f8"),
    "strided": lambda n: np.empty(2 * n)[::2],
    "read-only": _read_only,
    "unaligned": _unaligned,
}


@pytest.mark.parametrize("dist", SAMPLERS, ids=lambda d: type(d).__name__)
@pytest.mark.parametrize("kind", BAD_OUTS)
def test_bad_sample_out_is_rejected(dist, kind):
    with pytest.raises(InvalidParameterError, match=r"^out must be"):
        dist.sample(4, np.random.default_rng(0), out=BAD_OUTS[kind](4))


@pytest.mark.parametrize("dist", SAMPLERS, ids=lambda d: type(d).__name__)
def test_sample_checks_n_before_out(dist):
    with pytest.raises(InvalidParameterError, match=r"^n must be"):
        dist.sample(2.5, np.random.default_rng(0), out=np.empty(2))


def _public_callables():
    """(path, callable) for each public function and class of regmeans,
    and each public method a public class defines itself."""
    for public in rm.__all__:
        obj = getattr(rm, public)
        if not callable(obj) or (inspect.isclass(obj) and issubclass(obj, Exception)):
            continue
        yield public, obj
        if inspect.isclass(obj):
            for name, member in vars(obj).items():
                if inspect.isfunction(member) and not name.startswith("_"):
                    yield f"{public}.{name}", member


def test_every_int_parameter_has_a_row():
    rows = {(owner, name) for owner, name, *_ in COUNTS}
    found = set()
    for path, obj in _public_callables():
        found |= {(path, p.name) for p in inspect.signature(obj).parameters.values()
                  if _is_int(p.annotation)}
    assert found - RESULTS - rows == set()
    # and every row names a real parameter, so a rename cannot orphan it
    for owner, name in rows:
        assert name in inspect.signature(_owner(owner)).parameters, (owner, name)


class TestRequireCount:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_integers_come_back_as_int(self, value):
        count = require_count(value, "k", 1)
        assert count == 3 and type(count) is int

    def test_least_itself_passes(self):
        assert require_count(0, "seed", 0) == 0

    @pytest.mark.parametrize("value", [3.0, np.float64(3.0), "3", None, 0, -1])
    def test_others_name_the_parameter(self, value):
        with pytest.raises(InvalidParameterError, match=r"^widgets must be an integer >= 1"):
            require_count(value, "widgets", 1)
