"""A pinned bit corpus for the stability certificates.

Every field of verify_stability's report, the blend distances at TS and
theorem4_bound, on every ordered pair of GENERATORS over BOXES at each of
SIZES, plus one pair whose rows take several blocks and the partner family,
and the EDGES, written as float.hex() (or as the error's class and message),
is hashed into one sha256.  A change to the certificates that is meant to
keep every bit keeps this digest; one that moves a single bit or a single
error message of the corpus changes it.  To find the entry that moved, diff
corpus_lines() of two trees.
"""

import hashlib
import itertools

from regmeans import (Interval, RegularMeanError, blend_distances, parse_generator,
                      theorem4_bound, verify_stability)

GENERATORS = ("identity", "log", "reciprocal", "power:2", "exp", "power:0.5", "power:3")
BOXES = (Interval(1.0, 2.0), Interval(0.5, 3.0), Interval(0.1, 5.0), Interval(1.5, 4.0))
SIZES = (2, 3, 5)
TS = (0.0, 0.25, 0.5, 0.75, 1.0)
# power:2 vs exp on [0.5, 3] at n = 30: four blocks of triples, and g'/h'
# turns once there, so the rows of the partner family too
MULTI_BLOCK = ("power:2", "exp", Interval(0.5, 3.0), 30)
# boxes so narrow that the axis step is subnormal, and two cases that raise
EDGES = (("identity", "exp", Interval(0.0, 5e-320), 3),
         ("exp", "identity", Interval(0.0, 1e-310), 3),
         ("log", "identity", Interval(-1.0, 2.0), 3),
         ("exp", "identity", Interval(700.0, 800.0), 3))
DIGEST = "c4793849603dc420e222a03abc01c67da1c9b0de5d23f8377dffaf0310ca2dab"


def _hex(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return "[" + " ".join(_hex(v) for v in value) + "]"
    return repr(value)


def _entry(call) -> str:
    try:
        got = call()
    except RegularMeanError as exc:
        return f"{type(exc).__name__}: {exc}"
    if hasattr(got, "as_dict"):
        return " ".join(f"{k}={_hex(v)}" for k, v in got.as_dict().items())
    return _hex(got)


def _cases():
    for g, h in itertools.permutations(GENERATORS, 2):
        for box in BOXES:
            for n in SIZES:
                yield g, h, box, n
    yield MULTI_BLOCK
    yield from EDGES


def corpus_lines() -> list[str]:
    """Three lines per (g, h, box, n): the report, the blend distances and
    the bound, each with its name and its result."""
    lines = []
    for g, h, box, n in _cases():
        gen_g, gen_h = parse_generator(g), parse_generator(h)
        case = f"{g} {h} [{box.lo!r}, {box.hi!r}] n={n}"
        lines.append(f"verify {case}: {_entry(lambda: verify_stability(gen_g, gen_h, box, n))}")
        lines.append(f"blend {case}: "
                     f"{_entry(lambda: blend_distances(gen_g, gen_h, box, n, TS))}")
        lines.append(f"bound {case}: {_entry(lambda: theorem4_bound(gen_g, gen_h, box))}")
    return lines


def test_the_certificates_keep_their_bits():
    text = "\n".join(corpus_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
