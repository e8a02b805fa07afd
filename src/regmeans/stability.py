"""Continuity of the quasi-arithmetic mean in its generator.

For generators g, h, increasing on a compact interval B = [a, b] with min
slope m > 0, the means satisfy

    sup |M_g(x) - M_h(x)|  <=  (L + 1/m) * sup |g - h|

with L a Lipschitz constant of g_inv, 1/min |g'|.  Each certificate reads g,
h, g' and h' once on an axis of _AXIS_POINTS points of B, the right side
there.  The left side, and the distances sup |M_g - M_t| to the means of the
blends k_t = (1-t) g + t h, are the maxima of a reduced problem.

Since dM_g/dx_i = g'(x_i) / (n g'(M_g)), every coordinate of a maximiser of
+-(M_g - M_h) strictly inside B solves r(x_i) = g'(M_g) / h'(M_h), with
r = g'/h' (the Karush-Kuhn-Tucker conditions for a box).  Each monotone
piece of r holds at most one root.  The pieces are counted on the axis, a
step of r within rounding of zero counting as neither sign:

- At most one piece (r monotone, or constant, where M_g = M_h up to
  rounding): the sup is taken over rows of k_a copies of a, k_b copies of b
  and k_z >= 1 copies of one z.  A row of a and b alone is the z = a or
  z = b end of one of them.
- Two pieces (r turns once): at a local maximum the Hessian on the interior
  coordinates is D + kappa w w^T, with D_i a positive multiple of +-r'(x_i)
  and w_i equal for coordinates at one root.  Two coordinates at one root
  where D_i > 0 would rise along e_i - e_j, so at most one coordinate sits
  on that piece.  The rows above gain those of n - 1 coordinates so
  arranged and one y on the other piece with r(y) = r(z), found by
  bisection: z stays the only free value.
- More pieces are rejected: generators whose g'/h' turns more than once on
  the box are not supported.

r monotone on a piece makes h'/g' monotone there too, and with it
g'/k_t' = 1/((1-t) + t h'/g'), so the blends share the pieces of r and
reduce the same way, with the same partner y.  Each family of count
triples is maximised over z in three evaluations of its rows: on a grid,
on a narrow stencil about the peak of the quartic through the best grid z
and two neighbours each side, and at the peak of the quartic through the
stencil.  The triples are streamed in blocks of at most _BLOCK_ROWS rows.

The blended means invert k_t = (1-t) g + t h, increasing on the box.  M_t
lies between M_g and M_h, so each row starts at (1-t) M_g + t M_h, and the
rows of every interior t go through one clamped Newton iteration together.

A generator whose values fall across the axis is negated to increasing
form first, -1*g+0 of affine_transform; the mean is invariant under
g -> -g, so nothing changes numerically, and no generator declares its
direction.  Generators that are not monotone on the box are rejected.
Overflow and underflow surface through finiteness checks, not float
errors: each public function runs under one np.errstate(all="ignore"), and
the helpers below assume it.

The arrays here are small (an axis of 4097 points, blocks of at most
2**15 values), and numpy's Python wrappers cost more than their
arithmetic.  So the helpers call the ufuncs and their reductions
(np.logical_and.reduce, np.minimum(np.maximum(...)), slice differences,
indexing) and not np.all, np.any, np.clip, np.diff or np.moveaxis, with
the same bits.  With the row path of means, this cut numpy's Python-level
calls over a pass of the benchmark's certify workload from 22 552 to
10 595, and its latency from a median of 102.7 to 84.0 ms (five
alternating pairs of runs on a 2-vCPU host).

The rows take few numpy calls too, with the same bits.  A row's sum is
(k_a g(a) + k_b g(b)) + k_z g(z) in Python's order, so each block forms
the bracket once for its three evaluations, and g and h are read on the
grid of z once for every block.  Rows of t = 1 alone (all of
verify_stability's) take no blend.  The distinct interior t are the
leading slice of every evaluation, and their (1-t, t) columns broadcast
through Newton against rows of shape (t, triples, z).  This took the
certify workload's latency from a median of 74.3 to 70.8 ms (twelve
alternating pairs of runs on a 2-vCPU host, faster in eleven).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, asdict

import numpy as np

from .errors import (ConfigurationError, ConvergenceError, DegenerateSlopeError,
                     InvalidParameterError, NumericError)
from .generators import (Generator, Interval, _least_slope, _require_box, _require_instance,
                         _require_real, _vectorized, affine_transform, require_count)
from .means import means_from_sums

__all__ = ["StabilityReport", "theorem4_bound", "verify_stability", "blend_distances"]


@dataclass(frozen=True)
class StabilityReport:
    """Measured sup-norm distance of two means against the Lipschitz bound.

    generator_distance and the bound's slopes are read on the certificate's
    axis.  sup_mean_distance is the maximum of the reduced problem, its free
    value refined from a grid by two quartic peaks (see the module
    docstring): at a smooth interior maximiser it is off by rounding only.
    It is attained by a row of the box, not a certified upper bound.
    `satisfied` compares with a relative slack of tolerance_factor.
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
    tolerance_factor: float

    def as_dict(self) -> dict:
        d = asdict(self)
        d["box"] = list(self.box)
        return d


_EPS = float(np.finfo(float).eps)
# Evaluation rows per block, and points of the axis the pair is read on.
_BLOCK_ROWS = 2 ** 15
_AXIS_POINTS = 4097
# The grid of the free value, then five z _STENCIL grid steps apart about
# the peak of the quartic through its best five: at a smooth interior
# maximiser the stencil's own quartic peaks close enough that the sup moves
# by rounding only.  A partner y is located to 2**-53 of the box.
_Z_POINTS = 257
_STENCIL = 2.0 ** -4
_PARTNER_HALVINGS = 53
# From five values one unit apart to the slope of the quartic through them
# at u: its coefficients of 1, u, u**2 and u**3, times 12.
_SLOPE = np.array([[1.0, -8.0, 0.0, 8.0, -1.0], [-1.0, 16.0, -30.0, 16.0, -1.0],
                   [-3.0, 6.0, 0.0, -6.0, 3.0], [2.0, -8.0, 12.0, -8.0, 2.0]]).T
# g and h in increasing form, the axis, and g, h, g' and h' read on it
_Pair = namedtuple("_Pair", "gn hn axis g h dg dh")


def _normalized_pair(g: Generator, h: Generator, box: Interval, box_name: str) -> _Pair:
    """g and h in increasing form, read once on the _AXIS_POINTS axis of the
    box: each whose values fall from the first point to the last is
    negated, its values taken as -1.0 * v + 0.0, the arithmetic of the
    negated forward.  Raises NumericError when either is not monotone on
    the axis: the blend inversion rests on monotonicity.  g or h that is not
    a Generator is InvalidParameterError, a box (named box_name) that is not
    an Interval or has an infinite width too, a box end outside either
    domain DomainError (generators._require_box), and a forward or
    derivative that does not map the axis elementwise ConfigurationError."""
    for gen, name in ((g, "g"), (h, "h")):
        _require_instance(gen, Generator, name, "a Generator")
    axis = _require_box(box, box_name, g, h).grid(_AXIS_POINTS)
    normal, values = [], []
    for gen in (g, h):
        v = _vectorized(gen.forward, axis, "forward", gen.name)
        up = gen
        if v[-1] < v[0]:
            up, v = affine_transform(gen, -1.0, 0.0), -1.0 * v + 0.0
        # equal infinities and NaN pass: overflow is the callers' check
        if np.logical_or.reduce(v[1:] < v[:-1]):
            raise NumericError(f"generator {gen.name!r} is not monotone on {box}")
        normal.append(up)
        values.append(v)
    values += [_vectorized(gen.derivative, axis, "derivative", gen.name) for gen in normal]
    return _Pair(*normal, axis, *values)


def _bound_parts(pair: _Pair, box: Interval) -> tuple[float, float]:
    """(L + 1/m, sup|g-h|) on the axis of the pair, with L = 1/min |g'| and
    m = min(min |g'|, min |h'|).  Raises NumericError when g or h overflows
    there, and as generators._least_slope."""
    if not (np.logical_and.reduce(np.isfinite(pair.g))
            and np.logical_and.reduce(np.isfinite(pair.h))):
        raise NumericError(f"{pair.gn.name!r} or {pair.hn.name!r} is not finite on {box}")
    g_slope = _least_slope(pair.dg, pair.gn.name, box)
    m = min(g_slope, _least_slope(pair.dh, pair.hn.name, box))
    return 1.0 / g_slope + 1.0 / m, float(np.maximum.reduce(np.abs(pair.g - pair.h)))


def theorem4_bound(g: Generator, h: Generator, B: Interval) -> float:
    """(L + 1/m) * sup|g - h| on B, all three read on the certificates' axis.

    L is specific to g (Lipschitz constant of its inverse); swapping g and h
    changes L but not m, so the bound is deliberately asymmetric.
    """
    with np.errstate(all="ignore"):
        constant, dist = _bound_parts(_normalized_pair(g, h, B, "B"), B)
    return constant * dist


def verify_stability(g: Generator, h: Generator, A_box: Interval, n: int,
                     grid_per_dim: int = 201,
                     tolerance_factor: float = 1e-6) -> StabilityReport:
    """Find sup |M_g - M_h| over A_box**n and compare with the bound.

    The sup is the maximum of the reduced problem (see the module
    docstring).  The generator-side interval is A_box as well: by
    internality the mean of points in the box never leaves it, so slopes
    and sup|g-h| on A_box are what the bound needs.  grid_per_dim is
    deprecated: it is checked but sets nothing, and stays while perfbench's
    certify workload passes it.  Pairs whose g'/h' turns more than once on
    A_box (possible only with custom generators) raise ConfigurationError,
    and a bad A_box, n, grid_per_dim or tolerance_factor
    InvalidParameterError.
    """
    n = require_count(n, "n", 1)
    require_count(grid_per_dim, "grid_per_dim", 2)
    if not 0.0 <= _require_real(tolerance_factor, "tolerance_factor") < np.inf:
        raise InvalidParameterError(
            f"tolerance_factor must be finite and >= 0, got {tolerance_factor}")
    with np.errstate(all="ignore"):
        pair = _normalized_pair(g, h, A_box, "A_box")
        (sup_dist,) = _reduced_sups(pair, A_box, n, [1.0])
        constant, gen_dist = _bound_parts(pair, A_box)
    bound = constant * gen_dist
    return StabilityReport(g_name=g.name, h_name=h.name, sup_mean_distance=sup_dist,
                           generator_distance=gen_dist, bound_constant=constant, bound=bound,
                           satisfied=sup_dist <= bound * (1.0 + tolerance_factor),
                           box=(A_box.lo, A_box.hi), n=n, tolerance_factor=tolerance_factor)


def _ratio(gn: Generator, hn: Generator, x: np.ndarray) -> np.ndarray:
    # r = g'/h' at the array x; a non-finite r is _ratio_pieces' check
    return (_vectorized(gn.derivative, x, "derivative", gn.name)
            / _vectorized(hn.derivative, x, "derivative", hn.name))


def _ratio_pieces(pair: _Pair, box: Interval) -> tuple[int, float]:
    """The number of monotone pieces of r = g'/h' on the axis of the pair,
    and the axis point where the first piece ends.

    A step of r within 4 eps of the larger |r| at its two ends counts as
    neither sign, so a constant r, and one that only rounds apart from a
    constant, has none.  Raises NumericError when r is not finite on the
    axis, and DegenerateSlopeError when it is 0 there: M_g then rests on the
    inverse of a g that is not strictly increasing.
    """
    gn, hn, axis = pair[:3]
    r = pair.dg / pair.dh
    if not np.logical_and.reduce(np.isfinite(r)):
        raise NumericError(f"g'/h' of {gn.name!r} and {hn.name!r} is not finite on {box}")
    if not np.logical_and.reduce(r):
        raise DegenerateSlopeError(
            f"g'/h' of {gn.name!r} and {hn.name!r} vanishes on {box}: "
            "g is flat or h infinitely steep there")
    steps = r[1:] - r[:-1]
    signs = np.sign(steps[np.abs(steps) > 4.0 * _EPS * np.maximum(np.abs(r[:-1]), np.abs(r[1:]))])
    if not signs.size:
        return 0, box.hi
    return (1 + int(np.count_nonzero(signs[1:] != signs[:-1])),
            float(axis[(signs[0] * r).argmax()]))


def _partner(gn: Generator, hn: Generator, box: Interval, turn: float,
             z: np.ndarray) -> np.ndarray:
    """Where r = g'/h' turns once at `turn`: the point of the other piece
    with r equal to r(z), or the end of that piece nearest in r, by
    _PARTNER_HALVINGS halvings of the piece."""
    left = z <= turn
    # whether r rises on the piece searched: the two pieces turn opposite ways
    at_hi, at_turn = _ratio(gn, hn, np.array([box.hi, turn])).tolist()
    up = left == (at_hi > at_turn)
    c = _ratio(gn, hn, z)
    return _bisect(lambda mid: (_ratio(gn, hn, mid) < c) == up,
                   np.where(left, turn, box.lo), np.where(left, box.hi, turn),
                   _PARTNER_HALVINGS)


def _bisect(above, lo: np.ndarray, hi: np.ndarray, halvings: int) -> np.ndarray:
    """The midpoints of the brackets [lo, hi] after `halvings` halvings, each
    keeping its upper half where above(mid) holds and its lower half elsewhere."""
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        up = above(mid)
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return 0.5 * (lo + hi)


def _peak(f: np.ndarray) -> np.ndarray:
    """Where the quartic through five values one unit apart (last axis)
    peaks, as an offset from the middle one: two Newton steps on its slope
    from the highest value, within a unit of it, and none where it does not
    bend down.  Two, since a value near a peak moves by the square of the
    offset's error."""
    s = f @ _SLOPE
    s0, s1, s2, s3 = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
    # the slope's own slope is s1 + u (2 s2 + 3 s3 u)
    s2_twice, s3_thrice = 2.0 * s2, 3.0 * s3
    u = f.argmax(axis=-1) - 2.0
    lo, hi = u - 1.0, u + 1.0
    for _ in range(2):
        bend = s1 + u * (s2_twice + s3_thrice * u)
        u = np.where(bend < 0.0, np.minimum(np.maximum(
            u - (s0 + u * (s1 + u * (s2 + s3 * u))) / bend, lo), hi), u)
    return u[..., None]


def _into(box: Interval, x: np.ndarray) -> np.ndarray:
    """x clipped into the box, NaN kept: np.clip(x, box.lo, box.hi) without
    its Python frames."""
    return np.minimum(np.maximum(x, box.lo), box.hi)


def _counts(n: int, lo: int, hi: int) -> tuple:
    """(k_a, k_b, k_z) of the count triples lo..hi-1 (lo < hi), as int64
    columns.

    Triple i has m = k_a + k_b with m (m+1) / 2 <= i < (m+1) (m+2) / 2 and
    k_a = i - m (m+1) / 2, so m runs over 0..n-1 and k_z = n - m >= 1.  The
    integer root gives m at lo, and the block is walked from there, in time
    of its own length whatever n.
    """
    m = (math.isqrt(8 * lo + 1) - 1) // 2
    ka = lo - m * (m + 1) // 2
    rows = []
    for _ in range(hi - lo):
        rows.append((ka, m - ka, n - m))
        ka += 1
        if ka > m:
            m, ka = m + 1, 0
    return tuple(np.array(rows, dtype=np.int64).T[:, :, None])


def _reduced_sups(pair: _Pair, box: Interval, n: int, ts: list) -> list[float]:
    """sup |M_g - M_t| over box**n for each t of ts (M_1 is M_h): the
    maximum over rows of k_a copies of a, k_b of b and k_z >= 1 of one z,
    and where g'/h' turns once on the box, also over rows of n - 1 such
    coordinates and the partner y of z (see the module docstring).

    Each triple's rows sum g as (k_a g(a) + k_b g(b)) + k_z g(z) [+ g(y)],
    the bracket formed once per block of triples.  A block is evaluated
    three times: on the grid of _Z_POINTS z, with g and h read on it once
    for every block, on five z about the peak of the quartic through each
    t's best five grid values, and at the peak of the quartic through those
    five.  The rows of all t go together, each distinct interior t first
    and t = 1 last, and those of the interior t, a leading slice, in one
    call of _invert_blend.  g(a), g(b), h(a) and h(b) are the ends of the
    axis.  Raises ConfigurationError when g'/h' turns more than once on the
    box.
    """
    gn, hn = pair.gn, pair.hn
    pieces, turn = _ratio_pieces(pair, box)
    if pieces > 2:
        raise ConfigurationError(
            f"g'/h' of {gn.name!r} and {hn.name!r} has {pieces} monotone pieces on {box}; "
            "the reduction serves at most 2")
    inner = sorted({t for t in ts if 0.0 < t < 1.0})
    active = inner + [1.0] * (1.0 in ts)
    k = len(inner)
    tb = np.array(inner)[:, None, None]
    weights = (1.0 - tb, tb)
    ga, gb, ha, hb = pair.g[0], pair.g[-1], pair.h[0], pair.h[-1]

    def at(z, partner):
        # g and h at z, then at the partner y of z where the rows have one
        values = tuple(_vectorized(gen.forward, z, "forward", gen.name) for gen in (gn, hn))
        return values if partner is None else values + at(partner(z), None)

    def distances(fixed, kz, values):
        # |M_g - M_t| of shape (len(active), triples, points) from the
        # bracketed sums and g and h at z [and y]; z of leading size 1 gives
        # all t the same rows
        gsum, hsum = fixed[0] + kz * values[0], fixed[1] + kz * values[1]
        if len(values) > 2:
            gsum, hsum = gsum + values[2], hsum + values[3]
        sg, mg = means_from_sums(gn.inverse, gsum, n, gn.name)
        sh, mh = means_from_sums(hn.inverse, hsum, n, hn.name)
        if not k:
            # M_1 is M_h; with no t at all, no rows
            return np.abs(mg - mh)[:len(active)]
        # each row started between M_g and M_h, where M_t lies
        w0, w1 = weights
        blended = _invert_blend(gn, hn, weights, w0 * sg[:k] + w1 * sh[:k],
                                w0 * mg[:k] + w1 * mh[:k], box)
        # t = 1 last, if in ts, where M_t is M_h
        mt = np.empty((len(active),) + blended.shape[1:])
        mt[:k], mt[k:] = blended, mh[-1:]
        return np.abs(mg - mt)

    sups = np.zeros(len(active))
    per_block = max(1, _BLOCK_ROWS // max(_Z_POINTS, 5 * len(active)))
    grid, step = box.grid(_Z_POINTS), box.width / (_Z_POINTS - 1)
    # g and h on the grid serve every block
    on_grid = at(grid[None, None, :], None)
    five = np.arange(-2, 3)
    width = _STENCIL * step
    stencil, z_lo, z_hi = width * five, box.lo + 2.0 * width, box.hi - 2.0 * width
    rows_t = np.arange(len(active))[:, None, None]
    # (coordinates the triples count, the extra coordinate y as a function of z)
    families = [(n, None)]
    # at n = 1 the family of n - 1 coordinates has no triples
    if pieces == 2 and n > 1:
        families.append((n - 1, lambda z: _partner(gn, hn, box, turn, z)))
    for m, partner in families:
        triples = m * (m + 1) // 2
        # the partner of each grid z serves every block
        grid_values = on_grid if partner is None else on_grid + at(
            partner(grid[None, None, :]), None)
        for lo in range(0, triples, per_block):
            ka, kb, kz = _counts(m, lo, min(triples, lo + per_block))
            fixed = (ka * ga + kb * gb, ka * ha + kb * hb)
            d = distances(fixed, kz, grid_values)
            # five grid z about the best of each t and triple
            i = np.minimum(np.maximum(d.argmax(axis=2), 2), _Z_POINTS - 3)[..., None]
            rows_k = np.arange(len(kz))[:, None]
            z = grid[i] + step * _peak(d[rows_t, rows_k, i + five])
            z = np.minimum(np.maximum(z, z_lo), z_hi)
            near = distances(fixed, kz, at(_into(box, z + stencil), partner))
            last = distances(fixed, kz, at(_into(box, z + width * _peak(near)), partner))
            for e in (d, near, last):
                sups = np.maximum(sups, np.maximum.reduce(e, axis=(1, 2)))
    by_t = dict(zip(active, sups.tolist()))
    return [by_t.get(t, 0.0) for t in ts]


def _invert_blend(gn: Generator, hn: Generator, weights: tuple, y: np.ndarray,
                  start: np.ndarray, box: Interval) -> np.ndarray:
    """Solve (1-t) g(z) + t h(z) = y elementwise on the box, with weights
    the pair (1-t, t) of columns that broadcast against y.

    The blend of two increasing generators is increasing, and each row
    starts at its guess in the box.  Clamped Newton steps on the whole array
    move only the rows above tolerance; after 30 steps the rows still above
    it fall back to bisection, flattened.  Float errors of rows that a step
    does not move are discarded with them, and a NaN residual counts as
    above tolerance.  Raises ConvergenceError when the bisection misses too.
    """
    # raw calls: _normalized_pair has checked these callables on the axis
    # earlier in the same certificate, and z stays in the box
    gf, hf, gd, hd = gn.forward, hn.forward, gn.derivative, hn.derivative

    def f(z, w0, w1, y):
        return w0 * gf(z) + w1 * hf(z) - y

    w0, w1 = weights
    tol = 1e-13 * np.maximum(1.0, np.abs(y))
    z = _into(box, start)
    resid = f(z, w0, w1, y)
    for _ in range(30):
        far = ~(np.abs(resid) <= tol)
        if not np.logical_or.reduce(far, axis=None):
            return z
        step = _into(box, z - resid / (w0 * gd(z) + w1 * hd(z)))
        z = np.where(far, step, z)
        resid = f(z, w0, w1, y)
    rows = ~(np.abs(resid) <= tol)
    w0, w1 = (np.broadcast_to(w, y.shape)[rows] for w in weights)
    y = y[rows]
    z[rows] = _bisect(lambda mid: w0 * gf(mid) + w1 * hf(mid) < y,
                      np.full(y.size, box.lo), np.full(y.size, box.hi), 100)
    if np.logical_or.reduce(~(np.abs(f(z[rows], w0, w1, y)) <= 1e-9 * np.maximum(1.0, np.abs(y)))):
        raise ConvergenceError("blend inversion failed to converge")
    return z


def blend_distances(g: Generator, h: Generator, A_box: Interval, n: int,
                    ts, grid_per_dim: int = 201) -> list[float]:
    """sup |M_g - M_{h_t}| for the interpolated generators h_t = g + t(h-g).

    Continuity of the mean in its generator shows up as these distances
    shrinking to 0 as t -> 0; they are non-decreasing in t (up to rounding).
    Each is the maximum of the reduced problem (see the module docstring).
    grid_per_dim is deprecated: it is checked as verify_stability checks it
    but sets nothing, and stays while perfbench's certify workload passes it.
    Raises NumericError when g or h overflows or decreases on the box, or
    g'/h' is not finite there, DegenerateSlopeError when g'/h' is 0 there
    (as where g is flat), and ConvergenceError when the inversion of a
    blended mean fails.  Pairs whose g'/h' turns more than once on the box
    (possible only with custom generators) are not supported: they raise
    ConfigurationError, and a bad A_box, n, grid_per_dim or ts (an iterable
    of numbers in [0, 1]) InvalidParameterError.
    """
    n = require_count(n, "n", 1)
    require_count(grid_per_dim, "grid_per_dim", 2)
    try:
        ts = [float(t) for t in ts]
    except (TypeError, ValueError):
        raise InvalidParameterError(f"ts must be an iterable of numbers, got {ts!r}") from None
    if any(not 0.0 <= t <= 1.0 for t in ts):
        raise InvalidParameterError(f"blend parameters must lie in [0, 1], got {ts}")
    with np.errstate(all="ignore"):
        return _reduced_sups(_normalized_pair(g, h, A_box, "A_box"), A_box, n, ts)
