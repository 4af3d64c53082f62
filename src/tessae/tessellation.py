"""Tessellations of the unit ball: CVT (Lloyd) and the 241-region E8
root-system scheme, plus uniform-ball and per-region sampling."""

import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .batch_design import sq_dists
from .discrepancy import directions

CVT = "CVT"
E8 = "E8"
# E8's Voronoi cell has volume 1, so (r/sqrt(2))^8 = vol(B^8)/241 = pi^4/(24*241)
R_STAR = float(np.sqrt(2.0) * (np.pi ** 4 / (24 * 241)) ** (1 / 8))
# regions_of, lloyd_cvt and cvt_energy take their points in row blocks of
# at most this many (row, generator) distances, 8 MB of float64
LABEL_BLOCK = 1 << 20


class DegenerateRegionError(RuntimeError):
    """Rejection sampling in a region accepted almost nothing."""


@dataclass(frozen=True)
class Tessellation:
    """A nearest-generator tessellation of the closed unit ball.

    Region i is the set of points whose nearest generator (squared
    Euclidean distance, ties to the lowest index) is generators[i].  dim is
    their width, and kind is E8 when they are e8_generators(), CVT otherwise.
    """

    generators: np.ndarray  # (m, dim)
    dim: int = field(init=False)
    kind: str = field(init=False)

    def __post_init__(self):
        g = np.asarray(self.generators, dtype=float)
        if g.ndim != 2 or 0 in g.shape:
            raise ValueError(f"generators must be (m, dim) with m, dim >= 1, got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("generators must be finite")
        if np.any(np.linalg.norm(g, axis=1) > 1.0 + 1e-12):
            raise ValueError("generators must lie in the closed unit ball")
        rows = g[np.lexsort(g.T)]  # equal rows are neighbours; -0.0 equals 0.0
        if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
            raise ValueError("generators must be pairwise distinct")
        e8 = g.shape == (241, 8) and np.array_equal(g, e8_generators())
        for name, value in (("generators", g), ("dim", g.shape[1]), ("kind", E8 if e8 else CVT)):
            object.__setattr__(self, name, value)

    @property
    def region_count(self):
        return len(self.generators)

    def to_json(self):
        return json.dumps({"dim": self.dim, "kind": self.kind,
                           "generators": self.generators.tolist()})

    @classmethod
    def from_json(cls, text):
        """The tessellation of to_json's generators; a dim or kind not theirs is refused."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("tessellation JSON is not an object")
        for key in ("dim", "generators", "kind"):
            if key not in obj:
                raise ValueError(f"tessellation JSON has no {key!r}")
        tess = cls(np.array(obj["generators"]))
        for key, value in (("dim", tess.dim), ("kind", tess.kind)):
            if type(obj[key]) is not type(value) or obj[key] != value:
                raise ValueError(f"tessellation JSON {key!r} is {obj[key]!r}, "
                                 f"but its generators give {value!r}")
        return tess


def sample_unit_ball(dim, count, seed):
    """count i.i.d. points uniform on the closed unit ball in R^dim.

    Isotropic Gaussian direction, radius U^(1/dim); exact for any dim.
    """
    for name, value in (("dim", dim), ("count", count)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    rng = np.random.default_rng(seed)
    return directions(dim, count, rng) * (rng.random(count) ** (1.0 / dim))[:, None]


def _blockwise(points, g, reduce, dtype):
    """reduce(block) for row blocks of points holding at most LABEL_BLOCK
    (row, generator) pairs, written into one preallocated array."""
    rows = max(1, LABEL_BLOCK // len(g))
    out = np.empty(len(points), dtype=dtype)
    for i in range(0, len(points), rows):
        out[i:i + rows] = reduce(points[i:i + rows])
    return out


def _nearest(points, g):
    """Index of the nearest row of g for every row of points, ties to the
    lowest index."""
    # ||p - g||^2 = ||p||^2 - 2 p.g + ||g||^2; ||p||^2 is constant per row.
    # Not sq_dists: adding the row term changes the rounding, hence ties
    gg = (g * g).sum(axis=1)

    def label(p):
        h = 2.0 * p @ g.T
        np.subtract(gg, h, out=h)
        return h.argmin(axis=1)

    return _blockwise(points, g, label, np.intp)


def _min_sq_dists(points, g):
    """Squared distance from every row of points to its nearest row of g."""
    return _blockwise(points, g, lambda p: sq_dists(p, g).min(axis=1), float)


def _group_rows(rows, labels, m):
    """The rows labelled 0, ..., m-1, one array per label, each in the rows'
    original order: one stable argsort, as AssignmentPlan.grouped."""
    return np.split(rows[np.argsort(labels, kind="stable")],
                    np.cumsum(np.bincount(labels, minlength=m))[:-1])


def regions_of(tess, points):
    """Region index for every row of points (ties to the lowest index)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != tess.dim:
        raise ValueError(f"point dim {points.shape[1]} != tessellation dim {tess.dim}")
    return _nearest(points, tess.generators)


def cvt_energy(tess, mc_samples, seed):
    """Monte Carlo clustering energy: E_y[min_i ||y - g_i||^2], y uniform
    on the unit ball (density normalized to integrate to 1)."""
    pool = sample_unit_ball(tess.dim, mc_samples, seed)
    return float(_min_sq_dists(pool, tess.generators).mean())


def lloyd_cvt(dim, m, mc_samples_per_iter=None, max_iters=100, energy_tol=1e-4, seed=0):
    """Approximate CVT of the unit ball by Lloyd iteration with Monte Carlo
    centroids.

    Each iteration draws a fresh common sample pool, assigns it to the
    nearest generator and moves every generator to its region's sample
    centroid.  A generator that captured no samples is re-seeded at a
    random pool point.  Terminates when the relative energy decrease
    falls below energy_tol or after max_iters.

    Returns (tessellation, stats) where stats records the per-iteration
    energies and the number of empty-region re-seed events.
    """
    for name, count in (("dim", dim), ("m", m), ("max_iters", max_iters)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    if mc_samples_per_iter is None:
        mc_samples_per_iter = max(200 * m * dim, 100 * m)
    if mc_samples_per_iter < 100 * m:
        raise ValueError(f"mc_samples_per_iter must be >= 100*m = {100 * m}, "
                         f"got {mc_samples_per_iter}")
    rng = np.random.default_rng(seed)
    gens = sample_unit_ball(dim, m, rng)
    # the energy sequence is monitored on one fixed pool so that iteration
    # noise stays second order; centroid pools are fresh per iteration
    eval_pool = sample_unit_ball(dim, max(mc_samples_per_iter, 10_000), rng)
    energies = []
    reseeds = 0
    for _ in range(max_iters):
        energy = float(_min_sq_dists(eval_pool, gens).mean())
        # MC noise allows small increases; a real increase is a bug
        if energies and not energy <= energies[-1] * 1.01:
            raise RuntimeError("Lloyd energy increased beyond MC tolerance")
        energies.append(energy)
        pool = sample_unit_ball(dim, mc_samples_per_iter, rng)
        groups = _group_rows(pool, _nearest(pool, gens), m)
        for i, group in enumerate(groups):  # labels are taken, so gens is overwritten in place
            if len(group):
                gens[i] = group.mean(axis=0)
            else:
                gens[i] = pool[rng.integers(len(pool))]
                reseeds += 1
        if len(energies) >= 2 and energies[-2] > 0:
            if (energies[-2] - energies[-1]) / energies[-2] < energy_tol:
                break
    # centroids of ball subsets stay strictly inside the ball
    return Tessellation(gens), {"energies": energies, "reseeds": reseeds}


@functools.cache
def e8_roots():
    """The 240 minimal vectors of the E8 lattice, squared norm 2, in
    ascending lexicographic order; cached and read-only.

    112 of type (+-1, +-1, 0^6) and 128 of type (+-1/2)^8 with an even
    number of minus signs.
    """
    roots = []
    for i, j in itertools.combinations(range(8), 2):
        for si in (-1.0, 1.0):
            for sj in (-1.0, 1.0):
                v = np.zeros(8)
                v[i] = si
                v[j] = sj
                roots.append(v)
    for signs in itertools.product((-0.5, 0.5), repeat=8):
        if sum(s < 0 for s in signs) % 2 == 0:
            roots.append(np.array(signs))
    roots.sort(key=tuple)
    roots = np.array(roots)
    roots.setflags(write=False)
    return roots


def e8_generators():
    """The 241 E8 generators: the origin, then R_STAR times each unit root
    in e8_roots() order."""
    return np.vstack([np.zeros(8), R_STAR * (e8_roots() / np.sqrt(2.0))])


@functools.cache
def e8_frames():
    """(240, 8, 8) Weyl-group elements: frames[k] @ e8_roots()[0] == e8_roots()[k].

    With a = root 0 and b = root k, frames[k] is the root reflection
    s(a - b), where s(g) = I - g g^T, for a.b = 2 or 1 (s(0) = I), and
    s(c - b) s(a - c) for a.b = 0, c the first root with a.c = c.b = 1.
    For a.b < 0 it is -(the frame of -b), as -I is in the Weyl group.
    The entries are dyadic, so products with roots are exact.  The table is
    read-only: every caller shares it.
    """
    roots = e8_roots()
    eye = np.eye(8)

    def reflect(g):
        return eye - np.outer(g, g)

    a = roots[0]
    frames = np.empty((240, 8, 8))
    for k, root in enumerate(roots):
        sign = -1.0 if a @ root < 0 else 1.0
        b = sign * root  # a.b is 2, 1 or 0
        if a @ b > 0:
            frames[k] = sign * reflect(a - b)
        else:
            c = roots[np.flatnonzero((roots @ a == 1) & (roots @ b == 1))[0]]
            frames[k] = sign * (reflect(c - b) @ reflect(a - c))
    frames.setflags(write=False)
    return frames


def e8_tessellation(seed=None):
    """241-region tessellation of the 8-ball: the origin plus the 240 E8
    root directions placed on a shell of radius R_STAR.

    The centre region is the E8 Voronoi cell scaled by R_STAR/sqrt(2), which
    holds exactly 1/241 of the ball's volume; by the symmetry of the root
    system the 240 outer regions share the rest equally.  seed is accepted
    and ignored: the construction draws nothing.
    """
    return Tessellation(e8_generators())


def _d8_nearest(x):
    """Nearest point of D8 (integer vectors, even sum) to each row of x:
    round every coordinate, and where the sum is odd re-round the coordinate
    farthest from its integer the other way."""
    f = np.round(x)
    odd = np.flatnonzero(f.sum(axis=1) % 2)
    worst = np.abs(x[odd] - f[odd]).argmax(axis=1)
    step = np.where(x[odd, worst] >= f[odd, worst], 1.0, -1.0)
    f[odd, worst] += step
    return f


def e8_nearest(x):
    """Nearest E8 lattice point (minimal norm sqrt(2)) to each row of x: the
    closer of the nearest D8 and the nearest D8 + 1/2 point."""
    a = _d8_nearest(x)
    b = _d8_nearest(x - 0.5) + 0.5
    closer_b = ((x - b) ** 2).sum(axis=1) < ((x - a) ** 2).sum(axis=1)
    return np.where(closer_b[:, None], b, a)


def sample_region(tess, region_index, count, seed):
    """count i.i.d. points uniform on one region, each checked by regions_of.

    On an E8 tessellation the centre is its Voronoi cell scaled by
    s = R_STAR/sqrt(2): x uniform on [0, 2)^8 minus its nearest E8
    point is uniform on the cell, because 2Z^8 is a sublattice of E8.  An
    outer region k takes every uniform-ball draw outside the centre: with
    Q_j = e8_frames()[j - 1], Q_k Q_j^T is in W(E8), which permutes the
    generators and fixes the ball, so it carries region j onto region k,
    preserving volume.  Either way the points are labelled again, so a point
    that rounding puts across a face is dropped.  A CVT region keeps only
    the uniform-ball draws that land in it: each round draws count*m
    points, and a round that keeps fewer than count costs a whole new round,
    so the points used per draw fall below 1/m (0.034 on the m=20 ring).
    Aborts if the observed acceptance drops below 1/(50 m) over a
    one-million-draw window.  This per-region loop serves the trainers,
    one batch per step, and the top-ups of sample_regions, which fills
    every region from one pool.
    """
    m = tess.region_count
    if not 0 <= region_index < m:
        raise ValueError(f"region_index {region_index} out of range [0, {m})")
    e8 = tess.kind == E8
    frames = e8_frames() if e8 else None
    rng = np.random.default_rng(seed)
    out = []
    accepted = 0
    window_draws = 0
    window_accepts = 0
    while accepted < count:
        chunk = count if e8 else min(count * m, 1_000_000)
        if e8 and region_index == 0:
            x = 2.0 * rng.random((chunk, 8))
            pts = (x - e8_nearest(x)) * (R_STAR / np.sqrt(2.0))
        else:
            pts = sample_unit_ball(tess.dim, chunk, rng)
            if e8:
                labels = regions_of(tess, pts)
                outer = labels > 0
                # row i: Q_k (Q_j^T x_i), j its region
                pts = (np.einsum("nij,ni->nj", frames[labels[outer] - 1], pts[outer])
                       @ frames[region_index - 1].T)
        keep = pts[regions_of(tess, pts) == region_index]
        out.append(keep)
        accepted += len(keep)
        window_draws += chunk
        window_accepts += len(keep)
        if window_draws >= 1_000_000:
            if window_accepts / window_draws < 1.0 / (50 * m):
                raise DegenerateRegionError(
                    f"region {region_index}: acceptance "
                    f"{window_accepts / window_draws:.2e} below 1/(50m)")
            window_draws = window_accepts = 0
    return np.concatenate(out)[:count]


def sample_regions(tess, count, seed):
    """count i.i.d. points uniform on every region, from one labelled pool.

    Draws 2*count*m uniform-ball points, labels them once with regions_of
    and groups them by region; region k takes its first count pool points
    in draw order.  A region the pool leaves short is topped up by
    sample_region on the same generator, after the pool and in region
    order.  Exact: the points an i.i.d. uniform sequence puts in region k
    are i.i.d. uniform on k and independent of the other regions' points,
    and the top-ups are independent of the pool.

    Returns (points, topped_up): points of shape (m, count, dim), and the
    number of them that came from sample_region.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    m = tess.region_count
    rng = np.random.default_rng(seed)
    pool = sample_unit_ball(tess.dim, 2 * count * m, rng)
    out = np.empty((m, count, tess.dim))
    topped_up = 0
    for k, group in enumerate(_group_rows(pool, regions_of(tess, pool), m)):
        have = min(len(group), count)
        out[k, :have] = group[:have]
        if have < count:
            out[k, have:] = sample_region(tess, k, count - have, rng)
            topped_up += count - have
    return out, topped_up
