"""Continuity of the quasi-arithmetic mean in its generator.

For increasing generators g, h on a compact interval B with min slope m > 0,
the means satisfy

    sup |M_g(x) - M_h(x)|  <=  (L + 1/m) * sup |g - h|

with L a Lipschitz constant of g_inv (estimated as 1/min_slope(g)).  This
module measures both sides on exhaustive grids.  Because the mean is
symmetric, an n-dimensional grid is enumerated as multisets (sorted tuples),
which cuts the n=3 case from 201^3 points to C(203, 3).

Both certificates stream the grid through one private generator,
``_pair_blocks``, which yields (mean g, mean h, M_g, M_h) for fixed blocks of
evaluation rows and lets each certificate keep a running sup, so memory stays
bounded by the block size, not the grid.  For n <= 3, g and h are evaluated
once on the axis and each block's sums are gathered from index columns, which
gives the same bits as transforming every row; beyond n = 3, seeded random
rows are drawn and transformed block by block.  The blended means of
``blend_distances`` invert (1-t) g + t h, which is increasing on the box:
a table of its inverse at equally spaced blend values, built once per t from
a fine axis, gives each row a first guess, and Newton polishes only the rows
it leaves above tolerance.

Decreasing generators are negated to increasing form first; the mean is
invariant under g -> -g, so nothing changes numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, InvalidParameterError, NumericError
from .generators import Generator, Interval, min_slope, normalize_increasing
from .means import means_from_sums

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
    """(L + 1/m, sup|g-h|) for increasing-normalized g, h on B.  Raises
    NumericError when g or h overflows on the grid."""
    xs = B.grid(grid)
    gn, hn = _normalized_pair(g, h, B)
    gx, hx = _forward(gn, xs), _forward(hn, xs)
    if not (np.all(np.isfinite(gx)) and np.all(np.isfinite(hx))):
        raise NumericError(f"{gn.name!r} or {hn.name!r} is not finite on {B}")
    g_slope = min_slope(gn, B, grid)
    L = 1.0 / g_slope
    m = min(g_slope, min_slope(hn, B, grid))
    return L + 1.0 / m, float(np.max(np.abs(gx - hx)))


def theorem4_bound(g: Generator, h: Generator, B: Interval, grid: int = 201) -> float:
    """(L + 1/m) * sup|g - h| on B, all three factors estimated on the grid.

    L is specific to g (Lipschitz constant of its inverse); swapping g and h
    changes L but not m, so the bound is deliberately asymmetric.
    """
    constant, dist = _bound_parts(g, h, B, grid)
    return constant * dist


# Evaluation rows per block, and points of the blend inverse's table.
_BLOCK_ROWS = 2 ** 15
_BLEND_TABLE_POINTS = 4097


@lru_cache(maxsize=8)
def _multiset_indices(grid: int, n: int) -> np.ndarray:
    """Sorted index tuples i1 <= ... <= in over range(grid), one
    representative per orbit of the (symmetric) mean, in lexicographic order,
    as an (n, C(grid + n - 1, n)) int32 array: one row per coordinate."""
    idx = np.arange(grid, dtype=np.int32)[None, :]
    for _ in range(n - 1):
        # each lead a, followed by every shorter tuple whose first index is
        # >= a: a suffix of the sorted table
        starts = np.searchsorted(idx[0], np.arange(grid))
        counts = idx.shape[1] - starts
        ends = np.cumsum(counts)
        out = np.empty((idx.shape[0] + 1, ends[-1]), dtype=np.int32)
        out[0] = np.repeat(np.arange(grid, dtype=np.int32), counts)
        for start, end, count in zip(starts, ends, counts):
            out[1:, end - count:end] = idx[:, start:]
        idx = out
    idx.setflags(write=False)
    return idx


def _forward(gen: Generator, x: np.ndarray) -> np.ndarray:
    # overflow to inf is caught by the callers' finiteness checks
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return np.asarray(gen.forward(x), dtype=float)


def _pair_blocks(gn: Generator, hn: Generator, box: Interval, n: int,
                 grid_per_dim: int, seed: int, samples: int):
    """Yield (mean g, mean h, M_g, M_h) over box**n, one block of rows at a
    time: exhaustive multisets of the grid_per_dim axis for n <= 3, seeded
    uniform samples beyond.

    Rows lie in the box, which the callers have checked sits inside both
    domains, so no per-row domain check runs.  Raises NumericError when a
    block's g- or h-sum is not finite.
    """
    if n <= 3:
        axis = box.grid(grid_per_dim)
        gx, hx = _forward(gn, axis), _forward(hn, axis)
        idx = _multiset_indices(grid_per_dim, n)
        # gathering through intp indices is about twice as fast as int32
        blocks = ((gx[cols], hx[cols]) for cols in
                  (idx[:, lo:lo + _BLOCK_ROWS].astype(np.intp)
                   for lo in range(0, idx.shape[1], _BLOCK_ROWS)))
    else:
        if samples < 1:
            raise InvalidParameterError(f"samples must be >= 1, got {samples}")
        rng = np.random.default_rng(seed)
        rows = (rng.uniform(box.lo, box.hi, size=(min(_BLOCK_ROWS, samples - lo), n)).T
                for lo in range(0, samples, _BLOCK_ROWS))
        blocks = ((_forward(gn, x), _forward(hn, x)) for x in rows)
    for gvals, hvals in blocks:
        # each row summed in order, as means.row_means sums it
        with np.errstate(over="ignore", invalid="ignore"):
            gsum, hsum = np.sum(gvals, axis=0), np.sum(hvals, axis=0)
        sg, mg = means_from_sums(gn.inverse, gsum, n)
        sh, mh = means_from_sums(hn.inverse, hsum, n)
        yield sg, sh, mg, mh


def _normalized_pair(g: Generator, h: Generator, box: Interval) -> tuple[Generator, Generator]:
    gn, hn = normalize_increasing(g), normalize_increasing(h)
    for gen in (gn, hn):
        gen.domain.require_interior([box.lo, box.hi], f"generator {gen.name!r}")
    return gn, hn


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
    gn, hn = _normalized_pair(g, h, A_box)
    sup_dist = 0.0
    for _, _, mg, mh in _pair_blocks(gn, hn, A_box, n, grid_per_dim, seed, samples):
        sup_dist = np.maximum(sup_dist, np.max(np.abs(mg - mh)))
    sup_dist = float(sup_dist)
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


def _blend_inverse_table(gn: Generator, hn: Generator, t: float,
                         box: Interval) -> tuple[float, float, np.ndarray, np.ndarray]:
    """z at equally spaced values y of the blend (1-t) g + t h on the box, as
    (y0, 1/dy, z, dz): linear interpolation in it is one multiply and two
    lookups per row, however the rows are ordered."""
    zs = box.grid(_BLEND_TABLE_POINTS)
    blend = (1.0 - t) * _forward(gn, zs) + t * _forward(hn, zs)
    if not (np.all(np.isfinite(blend)) and blend[-1] > blend[0]):
        raise NumericError(
            f"blend of {gn.name!r} and {hn.name!r} is not finite and increasing on {box}")
    ys = np.linspace(blend[0], blend[-1], _BLEND_TABLE_POINTS)
    zt = np.interp(ys, blend, zs)
    return float(blend[0]), (zt.size - 1) / (blend[-1] - blend[0]), zt, np.diff(zt)


def _invert_blend(gn: Generator, hn: Generator, t: float, y: np.ndarray,
                  table: tuple, box: Interval) -> np.ndarray:
    """Solve (1-t) g(z) + t h(z) = y elementwise on the box.

    The blend of two increasing generators is increasing, so its tabulated
    inverse gives a close first guess; clamped Newton then polishes only the
    rows above tolerance, and stragglers fall back to bisection.
    """
    gf, hf, gd, hd = gn.forward, hn.forward, gn.derivative, hn.derivative

    def f(z, y):
        return (1.0 - t) * gf(z) + t * hf(z) - y

    def polish(z, resid):
        return np.clip(z - resid / ((1.0 - t) * gd(z) + t * hd(z)), box.lo, box.hi)

    y0, per_y, zt, dz = table
    pos = np.clip((y - y0) * per_y, 0.0, dz.size)
    cell = np.minimum(pos.astype(np.intp), dz.size - 1)
    z = zt[cell] + (pos - cell) * dz[cell]
    tol = 1e-13 * np.maximum(1.0, np.abs(y))
    resid = f(z, y)
    # the table leaves nearly every row above tolerance, so the first of the
    # 30 Newton steps runs on whole arrays and later ones only on the rows
    # still above it
    z = np.where(np.abs(resid) <= tol, z, polish(z, resid))
    resid = f(z, y)
    # a NaN residual counts as above tolerance and ends in the bisection
    rows = np.flatnonzero(~(np.abs(resid) <= tol))
    resid = resid[rows]
    for _ in range(29):
        if not rows.size:
            return z
        zr = polish(z[rows], resid)
        z[rows] = zr
        resid = f(zr, y[rows])
        far = ~(np.abs(resid) <= tol[rows])
        rows, resid = rows[far], resid[far]
    if rows.size:
        lo = np.full(rows.size, box.lo)
        hi = np.full(rows.size, box.hi)
        yb = y[rows]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            below = (1.0 - t) * gf(mid) + t * hf(mid) < yb
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        z[rows] = 0.5 * (lo + hi)
        if np.any(np.abs(f(z[rows], yb)) > 1e-9 * np.maximum(1.0, np.abs(yb))):
            raise ConvergenceError("blend inversion failed to converge")
    return z


def blend_distances(g: Generator, h: Generator, A_box: Interval, n: int,
                    ts, grid_per_dim: int = 201, seed: int = 0,
                    samples: int = 100_000) -> list[float]:
    """sup |M_g - M_{h_t}| for the interpolated generators h_t = g + t(h-g).

    Continuity of the mean in its generator shows up as these distances
    shrinking to 0 as t -> 0; they are non-decreasing in t on a fixed grid.
    Raises NumericError when g or h overflows on the box.
    """
    ts = [float(t) for t in ts]
    if any(not 0.0 <= t <= 1.0 for t in ts):
        raise InvalidParameterError(f"blend parameters must lie in [0, 1], got {ts}")
    gn, hn = _normalized_pair(g, h, A_box)
    tables = {t: _blend_inverse_table(gn, hn, t, A_box) for t in ts if 0.0 < t < 1.0}
    sups = np.zeros(len(ts))
    for sg, sh, mg, mh in _pair_blocks(gn, hn, A_box, n, grid_per_dim, seed, samples):
        for i, t in enumerate(ts):
            if t == 0.0:
                continue
            if t == 1.0:
                mt = mh
            else:
                mt = _invert_blend(gn, hn, t, (1.0 - t) * sg + t * sh, tables[t], A_box)
            sups[i] = np.maximum(sups[i], np.max(np.abs(mg - mt)))
    return [float(d) for d in sups]
