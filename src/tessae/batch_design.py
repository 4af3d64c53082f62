"""Capacitated assignment of N points to m generators (capacity n = N/m):
the greedy least-cost heuristic and an exact oracle for small instances."""

import heapq
from dataclasses import dataclass

import numpy as np

OPTIMAL_MAX_POINTS = 256  # optimal_assign's limit: its cost matrix holds N^2 floats
DIST_BLOCK = 1 << 15  # sq_dists adds the norms in row blocks of at most this many entries


@dataclass(frozen=True)
class AssignmentPlan:
    assignment: np.ndarray  # (N,) region indices
    capacity: int
    cost: float  # total squared distance (sum, not mean)

    def __post_init__(self):
        object.__setattr__(self, "assignment",
                           np.asarray(self.assignment, dtype=int))

    @property
    def size(self):
        return len(self.assignment)

    def grouped(self, rows):
        """rows, one per assigned point, grouped by region: shape
        (m, capacity, ...), region k's rows in their original order."""
        return rows[np.argsort(self.assignment, kind="stable")].reshape(
            -1, self.capacity, *rows.shape[1:])


def _sq_dist_blocks(a, b):
    """The matrix of sq_dists(a, b), as yet the product a @ (2b).T (the
    bits of 2a @ b.T without an a-sized copy), and a generator that finishes
    it in place in row blocks of at most DIST_BLOCK entries, yielding each
    (first row, block) while the block is still in cache."""
    out = a @ (2.0 * b).T
    bb = (b * b).sum(axis=1)
    rows = max(1, DIST_BLOCK // max(1, len(b)))
    buf = np.empty((min(rows, len(a)), len(b)), dtype=out.dtype)

    def finish():
        for i in range(0, len(a), rows):
            ab = a[i:i + rows]
            block = out[i:i + rows]
            norms = np.add((ab * ab).sum(axis=1)[:, None], bb[None, :], out=buf[:len(block)])
            np.subtract(norms, block, out=block)
            np.maximum(block, 0.0, out=block)
            yield i, block

    return out, finish()


def sq_dists(a, b):
    """Squared Euclidean distances between the rows of a and of b, shape
    (len(a), len(b)), clamped at 0 against cancellation: (||a_i||^2 +
    ||b_j||^2) - 2 a_i.b_j, the one (len(a), len(b)) array made."""
    out, blocks = _sq_dist_blocks(a, b)
    for _ in blocks:
        pass
    return out


def distance_matrix(points, generators):
    """Squared Euclidean distances, shape (N, m); N must divide by m."""
    points = np.asarray(points, dtype=float)
    generators = np.asarray(generators, dtype=float)
    if points.shape[1] != generators.shape[1]:
        raise ValueError("dimension mismatch")
    if len(points) % len(generators) != 0:
        raise ValueError(f"{len(points)} points not divisible by {len(generators)} generators")
    return sq_dists(points, generators)


def _finalize(points, generators, assignment, capacity):
    counts = np.bincount(assignment, minlength=len(generators))
    if np.any(counts != capacity):
        raise RuntimeError("infeasible plan: capacities violated")
    diff = generators[assignment]
    np.subtract(points, diff, out=diff)
    np.square(diff, out=diff)
    cost = float(diff.sum())
    return AssignmentPlan(assignment=assignment, capacity=capacity, cost=cost)


def _instance(points, generators, capacity):
    """points and generators as float arrays, checked as an instance of
    capacity points per generator."""
    points = np.asarray(points, dtype=float)
    generators = np.asarray(generators, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be an (N, d) array, got shape {points.shape}")
    if generators.ndim != 2 or len(generators) == 0:
        raise ValueError(f"generators must be an (m, d) array with m >= 1, "
                         f"got shape {generators.shape}")
    if points.shape[1] != generators.shape[1]:
        raise ValueError(f"points have width {points.shape[1]}, "
                         f"generators width {generators.shape[1]}")
    if isinstance(capacity, bool) or not isinstance(capacity, (int, np.integer)) or capacity < 1:
        raise ValueError(f"capacity must be an int >= 1, got {capacity!r}")
    if len(points) != capacity * len(generators):
        raise ValueError(f"need N = capacity * m, got N={len(points)}, "
                         f"capacity={capacity}, m={len(generators)}")
    return points, generators


def lcm_assign(points, generators, capacity):
    """Greedy least-cost assignment: repeatedly take the globally smallest
    unmasked distance entry (ties by smaller row, then smaller column),
    assign the point, mask its row, and mask a column once it holds
    `capacity` points.

    Every row starts with its smallest entry (d, i, j); these come in
    (d, i) order from one presorted array. Columns only ever close, so when
    the smallest live entry's column is open it is the globally smallest
    unmasked entry; when it has closed, the row's entry becomes the argmin
    of its distances plus `closed` (inf on full columns), its smallest open
    (distance, column), and goes onto a heap of such advanced rows. The next
    entry is the smaller head of the two, in (d, i, j) order. The one
    (N, m) array is the distance matrix; each row block's argmins and
    finite check are taken as sq_dists finishes the block."""
    points, generators = _instance(points, generators, capacity)
    n_points, m = len(points), len(generators)
    dmat, blocks = _sq_dist_blocks(points, generators)
    cols = np.empty(n_points, dtype=np.intp)
    for i, block in blocks:
        # distances are >= 0, so the max is finite iff no entry is inf or nan
        if not np.isfinite(block.max(initial=0.0)):
            raise ValueError("lcm_assign needs finite squared distances")
        block.argmin(axis=1, out=cols[i:i + len(block)])
    mins = dmat[np.arange(n_points), cols]
    order = np.argsort(mins, kind="stable")
    fresh = list(zip(mins[order].tolist(), order.tolist(), cols[order].tolist()))
    fresh.append((np.inf, n_points, 0))  # sentinel: above every live entry
    heap = []
    assignment = [0] * n_points
    col_slots = [capacity] * m
    closed = np.zeros(m)
    row = np.empty(m)
    p = 0
    while p < n_points or heap:
        if heap and heap[0] < fresh[p]:
            _, i, j = heapq.heappop(heap)
        else:
            _, i, j = fresh[p]
            p += 1
        if col_slots[j]:
            assignment[i] = j
            col_slots[j] -= 1
            if not col_slots[j]:
                closed[j] = np.inf
            continue
        np.add(dmat[i], closed, row)  # out passed positionally: the keyword costs ~50 ns a call
        k = int(row.argmin())
        heapq.heappush(heap, (float(row[k]), i, k))
    del dmat, block  # freed before _finalize gathers its (N, d) rows
    return _finalize(points, generators, np.array(assignment, dtype=int), capacity)


def optimal_assign(points, generators, capacity):
    """Exact minimum-cost plan: duplicates each generator `capacity` times
    and solves the resulting square assignment problem. N <= OPTIMAL_MAX_POINTS."""
    points, generators = _instance(points, generators, capacity)
    n_points = len(points)
    if n_points > OPTIMAL_MAX_POINTS:
        raise ValueError(f"optimal_assign limited to N <= {OPTIMAL_MAX_POINTS}")
    from scipy.optimize import linear_sum_assignment  # local: import costs 49 MB of RSS, 0.35 s
    dmat = distance_matrix(points, generators)
    big = np.repeat(dmat, capacity, axis=1)  # column block j*capacity..(j+1)*capacity-1 = region j
    rows, cols = linear_sum_assignment(big)
    assignment = np.empty(n_points, dtype=int)
    assignment[rows] = cols // capacity
    return _finalize(points, generators, assignment, capacity)
