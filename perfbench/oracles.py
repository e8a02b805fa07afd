"""Correctness oracles.  None of them calls regmeans: a fast wrong answer
must show up as a failure, not agree with itself."""

from __future__ import annotations

import hashlib
import math

import numpy as np

MEAN_RTOL = 1e-12
# |M - E| of the analytic cross-checks, relative
CROSS_RTOL = 1e-8
# skewness and excess kurtosis come from raw moments by cancellation; the
# quadrature path is accurate to ~1e-8 absolute there, not relative
SHAPE_ATOL = 1e-7

_TRANSFORMS = {
    "identity": (lambda x: x, lambda y: y),
    "log": (np.log, math.exp),
    "reciprocal": (lambda x: 1.0 / x, lambda y: 1.0 / y),
    "power:0.5": (np.sqrt, lambda y: y * y),
    "power:2": (np.square, math.sqrt),
    "exp": (np.exp, math.log),
}


def reference_mean(spec: str, fn: str, x: np.ndarray) -> float:
    """Transform with numpy, sum with math.fsum, invert."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if fn == "mean":
        forward, inverse = _TRANSFORMS[spec]
        return float(inverse(math.fsum(forward(x)) / n))
    if fn == "power_mean":
        p = float(spec.split(":")[1])
        return float((math.fsum(x ** p) / n) ** (1.0 / p))
    if fn == "exp_mean_stable":
        top = float(np.max(x))
        return top + math.log(math.fsum(np.exp(x - top)) / n)
    raise ValueError(f"unknown request function {fn!r}")


def mean_is_correct(spec: str, fn: str, x: np.ndarray, value: float) -> bool:
    """Agreement with the reference to MEAN_RTOL (relative to the larger of
    the result and the data scale) and internality min(x) <= M <= max(x)
    up to the final rounding."""
    if not isinstance(value, float) or not math.isfinite(value):
        return False
    scale = float(np.max(np.abs(x)))
    ref = reference_mean(spec, fn, x)
    if not math.isclose(value, ref, rel_tol=MEAN_RTOL, abs_tol=MEAN_RTOL * scale):
        return False
    slack = 8.0 * np.finfo(float).eps * scale
    return float(np.min(x)) - slack <= value <= float(np.max(x)) + slack


def grid_bands(replicates: int) -> tuple[float, float]:
    """(KS limit, var-ratio half width) for one Figure 1 cell.

    KS < 0.1 and var ratio in [0.7, 1.3] at 1000 replicates -- more than
    twice the 99% sampling bands -- widened as 1/sqrt(replicates) below."""
    widen = math.sqrt(max(1.0, 1000.0 / replicates))
    return 0.1 * widen, 0.3 * widen


def cell_is_correct(row: dict, replicates: int) -> bool:
    ks_limit, var_half_width = grid_bands(replicates)
    return (float(row["ks"]) < ks_limit
            and abs(float(row["var_ratio"]) - 1.0) <= var_half_width)


def edgeworth_is_correct(sup_gap_phi: float, sup_gap_edgeworth: float,
                         skew: float, exkurt: float) -> bool:
    """The Edgeworth CDF fits the simulated statistics better than Phi.  When
    skewness and excess kurtosis of g(X) are both zero the expansion is Phi
    itself, and the two gaps must be equal."""
    if skew == 0.0 and exkurt == 0.0:
        return sup_gap_edgeworth == sup_gap_phi
    return sup_gap_edgeworth < sup_gap_phi


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def identical(outputs: list) -> bool:
    """Every pass produced the same output (a digest or file bytes)."""
    return all(o == outputs[0] for o in outputs)


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def nondecreasing(values, tol: float = 1e-12) -> bool:
    return all(y >= x - tol for x, y in zip(values, values[1:]))
