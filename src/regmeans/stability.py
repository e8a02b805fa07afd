"""Continuity of the quasi-arithmetic mean in its generator.

For increasing generators g, h on a compact interval B = [a, b] with min
slope m > 0, the means satisfy

    sup |M_g(x) - M_h(x)|  <=  (L + 1/m) * sup |g - h|

with L a Lipschitz constant of g_inv (estimated as 1/min_slope(g)).  The
right side is measured on a grid of B.  The left side, and the distances
sup |M_g - M_t| to the means of the blends k_t = (1-t) g + t h, are found
on one of two paths, chosen by the pair alone.

The reduced path runs when r = g'/h' is strictly monotone on B.  Since
dM_g/dx_i = g'(x_i) / (n g'(M_g)), every coordinate of a maximiser of
+-(M_g - M_h) strictly inside B solves r(x_i) = g'(M_g) / h'(M_h) (the
Karush-Kuhn-Tucker conditions for a box), and that equation has one root z.
So the sup is taken over rows of k_a copies of a, k_b copies of b and
k_z >= 1 copies of one z; a row of a and b alone is the z = a or z = b end
of one of them.  Each of the n(n+1)/2 count triples is maximised over z on
a grid and then on finer grids about its best point, and the triples are
streamed in blocks of at most _BLOCK_ROWS rows.  r monotone makes h'/g'
monotone too, and with it g'/k_t' = 1/((1-t) + t h'/g'), so the blends
reduce the same way.

Elsewhere (r not strictly monotone on the axis: say power:2 against exp on
a box holding x = 1, or affinely related generators, where r is constant)
the grid path runs: every sorted tuple i1 <= ... <= in of a grid_per_dim
axis for n <= 3, which cuts the n=3 case from 201^3 points to C(203, 3),
and seeded random rows beyond.  It streams the rows through one private
generator, ``_pair_blocks``, which yields (mean g, mean h, M_g, M_h) for
blocks of rows and lets each certificate keep a running sup, so memory
stays bounded by the block size, not the grid.  For n <= 3, g and h are
evaluated once on the axis, and a row adds g at its lead to a suffix of the
axis (n = 2) or of the sorted-pair triangle (n = 3), left to right: the bits
of transforming every row.  The tests keep this path as the reference.

The blended means invert (1-t) g + t h, increasing on the box: a table of
its inverse at equally spaced blend values, built once per t from a fine
axis, gives each row a first guess, and Newton polishes only the rows it
leaves above tolerance.  On the grid path most rows need no blended mean at
all.  With y = (1-t) mean g + t mean h, k_t(M_g) - y = t (h(M_g) - mean h)
and k_t(M_h) - y = (1-t) (g(M_h) - mean g) have opposite signs, so M_t lies
between M_g and M_h and |M_g - M_t| <= |M_g - M_h|, the t = 1 column.  A row
whose gap cannot reach the running sup is dropped; so is one whose distance
to the table's guess cannot, since the root and the guess share a table cell
widened by one axis step.  Both tests carry a slack for Newton's tolerance
and rounding, and only monotonicity is used, so the sups are those of
inverting every row, bit for bit.

Decreasing generators are negated to increasing form first; the mean is
invariant under g -> -g, so nothing changes numerically.  Generators that
are not monotone on the box are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

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

    generator_distance and the bound's slopes are estimates on a grid of
    grid_points.  sup_mean_distance is the maximum of the reduced problem
    where g'/h' is strictly monotone on the box, located to about 4e-9 of
    the box in z (see the module docstring); elsewhere it is an estimate on
    the grid of grid_points per axis (n <= 3) or on seeded random rows.
    Neither is a certified upper bound.  `satisfied` compares with a
    relative slack of tolerance_factor.
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


def _bound_parts(gn: Generator, hn: Generator, B: Interval,
                 grid: int) -> tuple[float, float]:
    """(L + 1/m, sup|g-h|) for g, h in increasing form (see _normalized_pair)
    on B.  Raises NumericError when g or h overflows on the grid."""
    xs = B.grid(grid)
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
    constant, dist = _bound_parts(*_normalized_pair(g, h, B), B, grid)
    return constant * dist


# Evaluation rows per block, and points of the blend inverse's table.
_BLOCK_ROWS = 2 ** 15
_BLEND_TABLE_POINTS = 4097
# The reduced path's z-grid, then _ZOOM_ROUNDS grids of _ZOOM_POINTS across
# the two cells beside the best point: each round shrinks the cell 16-fold,
# to about 4e-9 of the box after five.
_Z_POINTS = 257
_ZOOM_POINTS = 33
_ZOOM_ROUNDS = 5


def _forward(gen: Generator, x: np.ndarray) -> np.ndarray:
    # overflow to inf is caught by the callers' finiteness checks
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return np.asarray(gen.forward(x), dtype=float)


def _tuple_sums(gx: np.ndarray, hx: np.ndarray, n: int):
    """Yield (g sums, h sums), from g and h on the axis, over its sorted
    n-tuples i1 <= ... <= in (n <= 3) in lexicographic order, by blocks.

    The rows with lead a add g[a] to the sorted (n-1)-tuples from a on: a
    suffix of the axis, or of the triangle of sorted pairs b <= c that
    np.triu_indices lists.  Each row is summed left to right.  A block holds
    whole leads: at least _BLOCK_ROWS rows and at most one lead more.
    """
    if n == 1:
        yield gx, hx
        return
    tails = [np.arange(gx.size)] if n == 2 else np.triu_indices(gx.size)
    gt, ht = [gx[i] for i in tails], [hx[i] for i in tails]
    leads, rows = [], 0
    for lead, start in enumerate(np.searchsorted(tails[0], np.arange(gx.size))):
        leads.append((lead, start))
        rows += tails[0].size - start
        if rows >= _BLOCK_ROWS or lead == gx.size - 1:
            with np.errstate(over="ignore", invalid="ignore"):
                sums = tuple(np.concatenate([sum((t[s:] for t in vt), vx[a]) for a, s in leads])
                             for vx, vt in ((gx, gt), (hx, ht)))
            yield sums
            leads, rows = [], 0


def _row_sums(gn: Generator, hn: Generator, x: np.ndarray) -> tuple:
    # each row of the (n, rows) block x summed in order, as means.row_means sums it
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sum(_forward(gn, x), axis=0), np.sum(_forward(hn, x), axis=0)


def _pair_blocks(gn: Generator, hn: Generator, box: Interval, n: int,
                 grid_per_dim: int, seed: int, samples: int):
    """Yield (mean g, mean h, M_g, M_h) over box**n, one block of rows at a
    time: every sorted n-tuple of the grid_per_dim axis for n <= 3 (see
    _tuple_sums), seeded uniform samples beyond.

    Rows lie in the box, which the callers have checked sits inside both
    domains, so no per-row domain check runs.  Raises NumericError when a
    block's g- or h-sum is not finite.
    """
    if n <= 3:
        axis = box.grid(grid_per_dim)
        blocks = _tuple_sums(_forward(gn, axis), _forward(hn, axis), n)
    else:
        rng = np.random.default_rng(seed)
        blocks = (_row_sums(gn, hn, rng.uniform(box.lo, box.hi,
                                                size=(min(_BLOCK_ROWS, samples - lo), n)).T)
                  for lo in range(0, samples, _BLOCK_ROWS))
    for gsum, hsum in blocks:
        sg, mg = means_from_sums(gn.inverse, gsum, n)
        sh, mh = means_from_sums(hn.inverse, hsum, n)
        yield sg, sh, mg, mh


def _normalized_pair(g: Generator, h: Generator, box: Interval) -> tuple[Generator, Generator]:
    """g and h in increasing form.  Raises NumericError when either decreases
    on the blend table's axis: every bracket here rests on monotonicity."""
    gn, hn = normalize_increasing(g), normalize_increasing(h)
    for gen in (gn, hn):
        gen.domain.require_interior([box.lo, box.hi], f"generator {gen.name!r}")
    axis = box.grid(_BLEND_TABLE_POINTS)
    for gen in (gn, hn):
        # inf - inf is NaN, which passes: overflow is the callers' check
        with np.errstate(invalid="ignore"):
            decreases = np.any(np.diff(_forward(gen, axis)) < 0)
        if decreases:
            raise NumericError(f"generator {gen.name!r} is not increasing on {box}")
    return gn, hn


def verify_stability(g: Generator, h: Generator, A_box: Interval, n: int,
                     grid_per_dim: int = 201, tolerance_factor: float = 1e-6,
                     seed: int = 0, samples: int = 100_000) -> StabilityReport:
    """Find sup |M_g - M_h| over A_box**n and compare with the bound.

    Where g'/h' is strictly monotone on A_box the sup is the maximum of the
    reduced problem, for every n; elsewhere it is taken over every sorted
    tuple of the grid_per_dim axis (n <= 3) or over `samples` rows drawn with
    `seed` (see the module docstring).  grid_per_dim also sets the bound's
    grid.  The generator-side interval is A_box as well: by internality the
    mean of points in the box never leaves it, so slopes and sup|g-h| on
    A_box are exactly what the bound needs.
    """
    _check_sizes(n, grid_per_dim, samples)
    gn, hn = _normalized_pair(g, h, A_box)
    (sup_dist,) = _sups(gn, hn, A_box, n, [1.0], grid_per_dim, seed, samples)
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


def _check_sizes(n: int, grid_per_dim: int, samples: int) -> None:
    # checked whichever path the pair takes, so a bad size never passes
    # for one pair and fails for another
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if grid_per_dim < 2:
        raise InvalidParameterError(f"grid_per_dim must be >= 2, got {grid_per_dim}")
    if n > 3 and samples < 1:
        raise InvalidParameterError(f"samples must be >= 1, got {samples}")


def _ratio_monotone(gn: Generator, hn: Generator, box: Interval) -> bool:
    """Whether r = g'/h' is strictly monotone on the blend table's axis:
    every step of r finite and of one strict sign."""
    axis = box.grid(_BLEND_TABLE_POINTS)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = (np.asarray(gn.derivative(axis), dtype=float)
             / np.asarray(hn.derivative(axis), dtype=float))
        steps = np.diff(np.broadcast_to(r, axis.shape))
    return bool(np.all(np.isfinite(steps)) and (np.all(steps > 0.0) or np.all(steps < 0.0)))


def _sups(gn: Generator, hn: Generator, box: Interval, n: int, ts: list,
          grid_per_dim: int, seed: int, samples: int) -> list[float]:
    """sup |M_g - M_t| over box**n for each t of ts (M_1 is M_h): on the
    reduced path where g'/h' is strictly monotone on the box, else on the
    grid path."""
    if _ratio_monotone(gn, hn, box):
        return _reduced_sups(gn, hn, box, n, ts)
    return _grid_sups(gn, hn, box, n, ts, grid_per_dim, seed, samples)


def _counts(n: int, lo: int, hi: int) -> tuple:
    """(k_a, k_b, k_z) of the count triples lo..hi-1, as columns.

    Triple i has m = k_a + k_b with m (m+1) / 2 <= i < (m+1) (m+2) / 2 and
    k_a = i - m (m+1) / 2, so m runs over 0..n-1 and k_z = n - m >= 1.
    """
    i = np.arange(lo, hi)
    m = ((np.sqrt(8.0 * i + 1.0) - 1.0) // 2.0).astype(np.int64)
    # the float root may round either way
    m += (m + 1) * (m + 2) // 2 <= i
    m -= m * (m + 1) // 2 > i
    ka = i - m * (m + 1) // 2
    return ka[:, None], (m - ka)[:, None], (n - m)[:, None]


def _reduced_sups(gn: Generator, hn: Generator, box: Interval, n: int,
                  ts: list) -> list[float]:
    """sup |M_g - M_t| over box**n for each t of ts when g'/h' is strictly
    monotone on the box: the maximum over rows of k_a copies of a, k_b of b
    and k_z >= 1 of one z (see the module docstring).

    Each triple's rows sum g as k_a g(a) + k_b g(b) + k_z g(z).  Its z runs
    over _Z_POINTS, then over finer grids about the best z, separately for
    each t; the rows of all t go through g and its inverse together.
    """
    active = [t for t in ts if t > 0.0]
    tables = {t: _blend_inverse_table(gn, hn, t, box)[0] for t in active if t < 1.0}
    ends = np.array([box.lo, box.hi])
    (ga, gb), (ha, hb) = _forward(gn, ends), _forward(hn, ends)

    def distances(k, z):
        # |M_g - M_t| of shape (len(active), triples, points); z of leading
        # size 1 gives all t the same rows
        ka, kb, kz = k
        with np.errstate(over="ignore", invalid="ignore"):
            gsum = ka * ga + kb * gb + kz * _forward(gn, z)
            hsum = ka * ha + kb * hb + kz * _forward(hn, z)
        sg, mg = (v.reshape(gsum.shape) for v in means_from_sums(gn.inverse, gsum.ravel(), n))
        sh, mh = (v.reshape(gsum.shape) for v in means_from_sums(hn.inverse, hsum.ravel(), n))
        out = np.empty((len(active),) + gsum.shape[1:])
        for j, t in enumerate(active):
            i = j if gsum.shape[0] > 1 else 0
            mt = mh[i] if t == 1.0 else _invert_blend(
                gn, hn, t, ((1.0 - t) * sg[i] + t * sh[i]).ravel(), tables[t], box
            ).reshape(mg[i].shape)
            out[j] = np.abs(mg[i] - mt)
        return out

    sups = np.zeros(len(active))
    triples = n * (n + 1) // 2
    per_block = max(1, _BLOCK_ROWS // max(_Z_POINTS, len(active) * _ZOOM_POINTS))
    zoom = np.linspace(-1.0, 1.0, _ZOOM_POINTS)
    for lo in range(0, triples, per_block):
        k = _counts(n, lo, min(triples, lo + per_block))
        z = box.grid(_Z_POINTS)[None, None, :]
        step = box.width / (_Z_POINTS - 1)
        for _ in range(_ZOOM_ROUNDS):
            d = distances(k, z)
            sups = np.maximum(sups, np.max(d, axis=(1, 2)))
            best = np.take_along_axis(np.broadcast_to(z, d.shape),
                                      np.argmax(d, axis=2)[..., None], axis=2)
            z = np.clip(best + step * zoom, box.lo, box.hi)
            step /= (_ZOOM_POINTS - 1) // 2
        sups = np.maximum(sups, np.max(distances(k, z), axis=(1, 2)))
    by_t = dict(zip(active, sups.tolist()))
    return [by_t.get(t, 0.0) for t in ts]


def _blend_inverse_table(gn: Generator, hn: Generator, t: float,
                         box: Interval) -> tuple[tuple, float, float]:
    """The inverse table of the blend (1-t) g + t h on the box and the two
    slacks _blend_sup prunes with.

    The table holds z at equally spaced values y of the blend, as
    (y0, 1/dy, z, dz): linear interpolation in it is one multiply and two
    lookups per row, however the rows are ordered.  The first slack bounds
    how far a computed distance |M_g - M_t| may exceed the exact one:
    Newton's tolerance, with room for rounding, over the blend's smallest
    secant slope on the axis, plus 16 ulp of the box for M_g's own rounding.
    The second adds how far the root may lie from the table's guess: one
    table cell and one axis step.
    """
    zs = box.grid(_BLEND_TABLE_POINTS)
    blend = (1.0 - t) * _forward(gn, zs) + t * _forward(hn, zs)
    if not (np.all(np.isfinite(blend)) and blend[-1] > blend[0]):
        raise NumericError(
            f"blend of {gn.name!r} and {hn.name!r} is not finite and increasing on {box}")
    ys = np.linspace(blend[0], blend[-1], _BLEND_TABLE_POINTS)
    zt = np.interp(ys, blend, zs)
    dz = np.diff(zt)
    step = np.diff(zs)
    slope = float(np.min(np.diff(blend) / step))
    slack = (4e-13 * max(1.0, float(np.max(np.abs(blend)))) / slope if slope > 0.0
             else np.inf) + 16.0 * float(np.spacing(max(abs(box.lo), abs(box.hi))))
    table = (float(blend[0]), (zt.size - 1) / (blend[-1] - blend[0]), zt, dz)
    return table, slack, slack + float(np.max(dz)) + float(np.max(step))


def _table_guess(table: tuple, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first guess of the blend's inverse, y outside the table) at each y."""
    y0, per_y, zt, dz = table
    pos = (y - y0) * per_y
    outside = (pos < 0.0) | (pos > dz.size)
    pos = np.clip(pos, 0.0, dz.size)
    cell = np.minimum(pos.astype(np.intp), dz.size - 1)
    return zt[cell] + (pos - cell) * dz[cell], outside


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

    z = _table_guess(table, y)[0]
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


def _blend_sup(gn: Generator, hn: Generator, t: float, bracket: tuple,
               box: Interval, sup: float, sg: np.ndarray, sh: np.ndarray,
               mg: np.ndarray, gap: np.ndarray) -> float:
    """The larger of sup and max |M_g - M_t| over one block of rows, with
    gap = |M_g - M_h| per row; only rows that can exceed sup are inverted.

    M_t lies between M_g and M_h, so gap bounds each row's distance.  The
    widest row's exact distance raises sup first; then rows whose gap, and
    after that whose distance to the table's guess, cannot reach it (both
    widened by the slacks of _blend_inverse_table) are dropped.
    """
    table, slack, guess_slack = bracket
    top = int(np.argmax(gap))
    if gap[top] + slack < sup:
        return sup
    y = (1.0 - t) * sg[top:top + 1] + t * sh[top:top + 1]
    sup = max(sup, float(abs(mg[top] - _invert_blend(gn, hn, t, y, table, box)[0])))
    rows = np.flatnonzero(gap + slack >= sup)
    y = (1.0 - t) * sg[rows] + t * sh[rows]
    # the first guess of _invert_blend; a y outside the table has no bracket
    z, outside = _table_guess(table, y)
    keep = outside | (np.abs(mg[rows] - z) + guess_slack >= sup)
    rows, y = rows[keep], y[keep]
    if not rows.size:
        return sup
    mt = _invert_blend(gn, hn, t, y, table, box)
    return max(sup, float(np.max(np.abs(mg[rows] - mt))))


def _grid_sups(gn: Generator, hn: Generator, box: Interval, n: int, ts: list,
               grid_per_dim: int, seed: int, samples: int) -> list[float]:
    """sup |M_g - M_t| for each t of ts over the rows of _pair_blocks: the
    path for pairs whose g'/h' is not strictly monotone on the box, and the
    tests' reference.  Only the rows whose bracket can reach the running sup
    are inverted (see the module docstring); the answers are those of
    inverting every row."""
    brackets = {t: _blend_inverse_table(gn, hn, t, box) for t in ts if 0.0 < t < 1.0}
    sups = [0.0] * len(ts)
    for sg, sh, mg, mh in _pair_blocks(gn, hn, box, n, grid_per_dim, seed, samples):
        gap = np.abs(mg - mh)
        for i, t in enumerate(ts):
            if t == 1.0:
                sups[i] = max(sups[i], float(np.max(gap)))
            elif t > 0.0:
                sups[i] = _blend_sup(gn, hn, t, brackets[t], box, sups[i], sg, sh, mg, gap)
    return sups


def blend_distances(g: Generator, h: Generator, A_box: Interval, n: int,
                    ts, grid_per_dim: int = 201, seed: int = 0,
                    samples: int = 100_000) -> list[float]:
    """sup |M_g - M_{h_t}| for the interpolated generators h_t = g + t(h-g).

    Continuity of the mean in its generator shows up as these distances
    shrinking to 0 as t -> 0; they are non-decreasing in t (up to rounding).
    Where g'/h' is strictly monotone on A_box each is the maximum of the
    reduced problem, for every n; elsewhere it is taken over every sorted
    tuple of the grid_per_dim axis (n <= 3) or over `samples` rows drawn
    with `seed` (see the module docstring).  Raises NumericError when g or h
    overflows or decreases on the box, and ConvergenceError when the
    inversion of a row that can set the sup fails.
    """
    _check_sizes(n, grid_per_dim, samples)
    ts = [float(t) for t in ts]
    if any(not 0.0 <= t <= 1.0 for t in ts):
        raise InvalidParameterError(f"blend parameters must lie in [0, 1], got {ts}")
    gn, hn = _normalized_pair(g, h, A_box)
    return _sups(gn, hn, A_box, n, ts, grid_per_dim, seed, samples)
