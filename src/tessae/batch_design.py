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


def sq_dists(a, b):
    """Squared Euclidean distances between the rows of a and of b, shape
    (len(a), len(b)), clamped at 0 against cancellation.

    Computed as (||a_i||^2 + ||b_j||^2) - 2 a_i.b_j in place in the product
    matrix, the norm sums formed in one reused block of at most DIST_BLOCK
    entries, so that the result is the only (len(a), len(b)) array."""
    out = 2.0 * a @ b.T
    aa = (a * a).sum(axis=1)
    bb = (b * b).sum(axis=1)
    rows = max(1, DIST_BLOCK // max(1, len(b)))
    buf = np.empty((min(rows, len(a)), len(b)), dtype=out.dtype)
    for i in range(0, len(a), rows):
        block = out[i:i + rows]
        norms = np.add(aa[i:i + rows, None], bb[None, :], out=buf[:len(block)])
        np.subtract(norms, block, out=block)
        np.maximum(block, 0.0, out=block)
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
    (N, m) array is the distance matrix."""
    m = len(generators)
    n_points = len(points)
    if n_points != capacity * m:
        raise ValueError(f"need N = capacity * m, got N={n_points}, "
                         f"capacity={capacity}, m={m}")
    dmat = distance_matrix(points, generators)
    # distances are >= 0, so the max is finite iff no entry is inf or nan
    if not np.isfinite(dmat.max(initial=0.0)):
        raise ValueError("lcm_assign needs finite squared distances")
    cols = dmat.argmin(axis=1)
    mins = dmat[np.arange(n_points), cols]
    order = np.argsort(mins, kind="stable")
    fresh = list(zip(mins[order].tolist(), order.tolist(), cols[order].tolist()))
    fresh.append((np.inf, n_points, 0))  # sentinel: above every live entry
    heap = []
    assignment = [0] * n_points
    col_slots = [capacity] * m
    closed = np.zeros(m)
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
        row = dmat[i] + closed
        k = int(row.argmin())
        heapq.heappush(heap, (float(row[k]), i, k))
    return _finalize(np.asarray(points, dtype=float),
                     np.asarray(generators, dtype=float),
                     np.array(assignment, dtype=int), capacity)


def optimal_assign(points, generators, capacity):
    """Exact minimum-cost plan: duplicates each generator `capacity` times
    and solves the resulting square assignment problem. N <= OPTIMAL_MAX_POINTS."""
    points = np.asarray(points, dtype=float)
    generators = np.asarray(generators, dtype=float)
    m = len(generators)
    n_points = len(points)
    if n_points != capacity * m:
        raise ValueError(f"need N = capacity * m, got N={n_points}, "
                         f"capacity={capacity}, m={m}")
    if n_points > OPTIMAL_MAX_POINTS:
        raise ValueError(f"optimal_assign limited to N <= {OPTIMAL_MAX_POINTS}")
    from scipy.optimize import linear_sum_assignment  # local: import costs 49 MB of RSS, 0.35 s
    dmat = distance_matrix(points, generators)
    big = np.repeat(dmat, capacity, axis=1)  # column block j*capacity..(j+1)*capacity-1 = region j
    rows, cols = linear_sum_assignment(big)
    assignment = np.empty(n_points, dtype=int)
    assignment[rows] = cols // capacity
    return _finalize(points, generators, assignment, capacity)
