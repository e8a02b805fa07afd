"""Continuity of the quasi-arithmetic mean in its generator.

For increasing generators g, h on a compact interval B with min slope m > 0,
the means satisfy

    sup |M_g(x) - M_h(x)|  <=  (L + 1/m) * sup |g - h|

with L a Lipschitz constant of g_inv (estimated as 1/min_slope(g)).  This
module measures both sides on exhaustive grids.  Because the mean is
symmetric, an n-dimensional grid is enumerated as multisets (sorted tuples),
which cuts the n=3 case from 201^3 points to C(203, 3).

Decreasing generators are negated to increasing form first; the mean is
invariant under g -> -g, so nothing changes numerically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, asdict
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, InvalidParameterError
from .generators import Generator, Interval, min_slope, normalize_increasing
from .means import row_means

__all__ = [
    "StabilityReport",
    "theorem4_bound",
    "verify_stability",
    "blend_distances",
]


@dataclass(frozen=True)
class StabilityReport:
    """Measured sup-norm distance of two means against the Lipschitz bound.

    All sup-norms are grid estimates (see grid_points), not certified
    suprema; `satisfied` compares with a relative slack of tolerance_factor.
    """

    g_name: str
    h_name: str
    sup_mean_distance: float
    generator_distance: float
    bound_constant: float
    bound: float
    satisfied: bool
    box: tuple
    n: int
    grid_points: int
    tolerance_factor: float

    def as_dict(self) -> dict:
        d = asdict(self)
        d["box"] = list(self.box)
        return d


def _bound_parts(g: Generator, h: Generator, B: Interval,
                 grid: int) -> tuple[float, float]:
    """(L + 1/m, sup|g-h|) for increasing-normalized g, h on B."""
    gn, hn = normalize_increasing(g), normalize_increasing(h)
    L = 1.0 / min_slope(gn, B, grid)
    m = min(min_slope(gn, B, grid), min_slope(hn, B, grid))
    xs = B.grid(grid)
    dist = float(np.max(np.abs(np.asarray(gn.forward(xs), dtype=float)
                               - np.asarray(hn.forward(xs), dtype=float))))
    return L + 1.0 / m, dist


def theorem4_bound(g: Generator, h: Generator, B: Interval, grid: int = 201) -> float:
    """(L + 1/m) * sup|g - h| on B, all three factors estimated on the grid.

    L is specific to g (Lipschitz constant of its inverse); swapping g and h
    changes L but not m, so the bound is deliberately asymmetric.
    """
    constant, dist = _bound_parts(g, h, B, grid)
    return constant * dist


@lru_cache(maxsize=8)
def _multiset_indices(grid: int, n: int) -> np.ndarray:
    # sorted index tuples i1 <= ... <= in; one representative per orbit of
    # the (symmetric) mean
    idx = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations_with_replacement(range(grid), n)),
        dtype=np.int32, count=-1).reshape(-1, n)
    idx.setflags(write=False)
    return idx


def _grid_points(box: Interval, n: int, grid_per_dim: int, seed: int,
                 samples: int) -> np.ndarray:
    """Evaluation points in box^n: exhaustive multisets for n <= 3, random
    sampling beyond."""
    axis = box.grid(grid_per_dim)
    if n <= 3:
        return axis[_multiset_indices(grid_per_dim, n)]
    rng = np.random.default_rng(seed)
    return rng.uniform(box.lo, box.hi, size=(samples, n))


def verify_stability(g: Generator, h: Generator, A_box: Interval, n: int,
                     grid_per_dim: int = 201, tolerance_factor: float = 1e-6,
                     seed: int = 0, samples: int = 100_000) -> StabilityReport:
    """Estimate sup |M_g - M_h| over A_box**n and compare with the bound.

    The generator-side interval is A_box as well: by internality the mean of
    points in the box never leaves it, so slopes and sup|g-h| on A_box are
    exactly what the bound needs.
    """
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    gn, hn = normalize_increasing(g), normalize_increasing(h)
    for gen in (gn, hn):
        if not gen.domain.encloses(A_box):
            raise DomainError(f"box {A_box} not inside domain of generator {gen.name!r}")
    rows = _grid_points(A_box, n, grid_per_dim, seed, samples)
    mg = row_means(gn, rows)
    mh = row_means(hn, rows)
    sup_dist = float(np.max(np.abs(mg - mh)))
    constant, gen_dist = _bound_parts(gn, hn, A_box, grid_per_dim)
    bound = constant * gen_dist
    return StabilityReport(
        g_name=g.name,
        h_name=h.name,
        sup_mean_distance=sup_dist,
        generator_distance=gen_dist,
        bound_constant=constant,
        bound=bound,
        satisfied=sup_dist <= bound * (1.0 + tolerance_factor),
        box=(A_box.lo, A_box.hi),
        n=n,
        grid_points=grid_per_dim,
        tolerance_factor=tolerance_factor,
    )


def _invert_blend(gn: Generator, hn: Generator, t: float, y: np.ndarray,
                  z0: np.ndarray, box: Interval) -> np.ndarray:
    """Solve (1-t) g(z) + t h(z) = y elementwise on the box.

    Clamped Newton from z0; stragglers fall back to bisection.  The blend of
    two increasing generators is increasing, so both methods are safe.
    """
    gf, hf, gd, hd = gn.forward, hn.forward, gn.derivative, hn.derivative

    def f(z):
        return (1.0 - t) * gf(z) + t * hf(z) - y

    scale = np.maximum(1.0, np.abs(y))
    z = np.clip(z0, box.lo, box.hi)
    for _ in range(30):
        resid = f(z)
        if np.all(np.abs(resid) <= 1e-13 * scale):
            return z
        d = (1.0 - t) * gd(z) + t * hd(z)
        z = np.clip(z - resid / d, box.lo, box.hi)
    bad = np.abs(f(z)) > 1e-13 * scale
    if np.any(bad):
        lo = np.full(int(np.sum(bad)), box.lo)
        hi = np.full(lo.size, box.hi)
        yb = y[bad]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            below = (1.0 - t) * gf(mid) + t * hf(mid) < yb
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        z = z.copy()
        z[bad] = 0.5 * (lo + hi)
        if np.any(np.abs(f(z)) > 1e-9 * scale):
            raise ConvergenceError("blend inversion failed to converge")
    return z


def blend_distances(g: Generator, h: Generator, A_box: Interval, n: int,
                    ts, grid_per_dim: int = 201, seed: int = 0,
                    samples: int = 100_000) -> list[float]:
    """sup |M_g - M_{h_t}| for the interpolated generators h_t = g + t(h-g).

    Continuity of the mean in its generator shows up as these distances
    shrinking to 0 as t -> 0; they are non-decreasing in t on a fixed grid.
    """
    ts = [float(t) for t in ts]
    if any(not 0.0 <= t <= 1.0 for t in ts):
        raise InvalidParameterError(f"blend parameters must lie in [0, 1], got {ts}")
    gn, hn = normalize_increasing(g), normalize_increasing(h)
    for gen in (gn, hn):
        if not gen.domain.encloses(A_box):
            raise DomainError(f"box {A_box} not inside domain of generator {gen.name!r}")
    rows = _grid_points(A_box, n, grid_per_dim, seed, samples)
    gvals = np.asarray(gn.forward(rows), dtype=float)
    hvals = np.asarray(hn.forward(rows), dtype=float)
    sg, sh = np.mean(gvals, axis=1), np.mean(hvals, axis=1)
    mg = np.asarray(gn.inverse(sg), dtype=float)
    mh = np.asarray(hn.inverse(sh), dtype=float)
    out = []
    for t in ts:
        t = float(t)
        if t == 0.0:
            out.append(0.0)
            continue
        if t == 1.0:
            out.append(float(np.max(np.abs(mg - mh))))
            continue
        y = (1.0 - t) * sg + t * sh
        z0 = (1.0 - t) * mg + t * mh
        mt = _invert_blend(gn, hn, t, y, z0, A_box)
        out.append(float(np.max(np.abs(mg - mt))))
    return out
