"""A pinned bit corpus for the means.

Every result of mean, power_mean, exp_mean_stable and row_means on a seeded
corpus, written as float.hex() (or as the error's class and message), is
hashed into one sha256.  A change to the mean paths that is meant to keep
every bit keeps this digest; one that moves a single bit or a single error
message of the corpus changes it.  To find the entry that moved, diff
corpus_lines() of two trees.
"""

import hashlib
import math

import numpy as np

from regmeans import RegularMeanError, exp_mean_stable, make_builtin, mean, power_mean
from regmeans.means import row_means

GENERATORS = [make_builtin(kind) for kind in ("identity", "log", "reciprocal", "exp")] + [
    make_builtin("power", p) for p in (0.5, 2.0, 1e-6)]
EXPONENTS = (-2.0, -1e-3, 0.0, 1e-20, 0.5, 2.0)
SIZES = (1, 2, 5, 8, 20, 63, 64, 65, 100, 399, 400, 401, 1000, 10_000)
SHAPES = ((50, 1), (200, 2), (3, 5), (300, 5), (40, 8), (64, 20), (2, 401), (1, 1000))
DIGEST = "b032a4bfbed70525dcca8865b18c757abfd4b906849d591d8d5bb68d3213ae6d"


def _draws(rng: np.random.Generator, shape) -> dict[str, np.ndarray]:
    """Lognormal, signed normal and subnormal-to-1e308 values of a shape."""
    return {"lognormal": rng.lognormal(0.0, 2.0, shape),
            "normal": rng.normal(0.0, 3.0, shape),
            "spanning": np.exp(rng.uniform(-744.0, 709.0, shape))}


def _samples() -> list[tuple[str, list]]:
    rng = np.random.default_rng(36)
    out = [(f"{kind}-{n}", x.tolist()) for n in SIZES for kind, x in _draws(rng, n).items()]
    nan_tail = rng.lognormal(0.0, 1.0, 100).tolist() + [math.nan]
    out += [("zeros+-", [0.0, -0.0]), ("zeros-+", [-0.0, 0.0]), ("zero", [1.0, 0.0]),
            ("negative", [2.0, -1.0, 3.0]), ("nan-first", [math.nan, 1.0]),
            ("nan-mid", [1.0, math.nan, 2.0]), ("nan-tail", nan_tail),
            ("inf", [1.0, math.inf]), ("-inf", [-math.inf, 1.0]), ("huge", [1e308, 1e308]),
            ("subnormal", [5e-324, 5e-324, 1e-310])]
    return out


def _entry(call) -> str:
    try:
        got = call()
    except RegularMeanError as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(got, np.ndarray):
        return " ".join(v.hex() for v in got.tolist())
    return got.hex()


def corpus_lines() -> list[str]:
    """One line per (entry point, sample): its name and its result."""
    lines = []
    for name, x in _samples():
        for g in GENERATORS:
            lines.append(f"mean {g.name} {name}: {_entry(lambda: mean(g, x))}")
        for p in EXPONENTS:
            lines.append(f"power_mean {p!r} {name}: {_entry(lambda: power_mean(p, x))}")
        lines.append(f"exp_mean_stable {name}: {_entry(lambda: exp_mean_stable(x))}")
    rng = np.random.default_rng(37)
    for shape in SHAPES:
        for kind, rows in _draws(rng, shape).items():
            for g in GENERATORS:
                lines.append(f"row_means {g.name} {kind}-{shape}: "
                             f"{_entry(lambda: row_means(g, rows))}")
    return lines


def test_the_means_keep_their_bits():
    text = "\n".join(corpus_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
