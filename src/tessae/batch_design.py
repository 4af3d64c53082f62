"""Capacitated assignment of N points to m generators (capacity n = N/m):
the greedy least-cost heuristic and an exact oracle for small instances."""

import heapq
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

OPTIMAL_MAX_POINTS = 256  # optimal_assign's limit: its cost matrix holds N^2 floats


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
    (len(a), len(b)), clamped at 0 against cancellation."""
    d2 = ((a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
          - 2.0 * a @ b.T)
    return np.maximum(d2, 0.0)


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
    cost = float(((points - generators[assignment]) ** 2).sum())
    return AssignmentPlan(assignment=assignment, capacity=capacity, cost=cost)


def lcm_assign(points, generators, capacity):
    """Greedy least-cost assignment: repeatedly take the globally smallest
    unmasked distance entry (ties by smaller row, then smaller column),
    assign the point, mask its row, and mask a column once it holds
    `capacity` points.

    A heap holds one entry (d, i, j) per unassigned row i: the smallest
    (distance, column) of row i among the columns open when it was taken.
    Columns only ever close, so when the smallest entry's column is open
    it is the globally smallest live entry; when it has closed, the row's
    entry becomes the argmin of its distances plus `closed` (inf on full
    columns), its smallest open (distance, column)."""
    m = len(generators)
    n_points = len(points)
    if n_points != capacity * m:
        raise ValueError(f"need N = capacity * m, got N={n_points}, "
                         f"capacity={capacity}, m={m}")
    dmat = distance_matrix(points, generators)
    if not np.isfinite(dmat).all():
        raise ValueError("lcm_assign needs finite squared distances")
    heap = list(zip(dmat.min(axis=1).tolist(), range(n_points),
                    dmat.argmin(axis=1).tolist()))
    heapq.heapify(heap)
    assignment = np.full(n_points, -1, dtype=int)
    col_slots = [capacity] * m
    closed = np.zeros(m)
    while heap:
        _, i, j = heap[0]
        if col_slots[j]:
            heapq.heappop(heap)
            assignment[i] = j
            col_slots[j] -= 1
            if not col_slots[j]:
                closed[j] = np.inf
            continue
        row = dmat[i] + closed
        k = int(row.argmin())
        heapq.heapreplace(heap, (float(row[k]), i, k))
    return _finalize(np.asarray(points, dtype=float),
                     np.asarray(generators, dtype=float), assignment, capacity)


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
    dmat = distance_matrix(points, generators)
    big = np.repeat(dmat, capacity, axis=1)  # column block j*capacity..(j+1)*capacity-1 = region j
    rows, cols = linear_sum_assignment(big)
    assignment = np.empty(n_points, dtype=int)
    assignment[rows] = cols // capacity
    return _finalize(points, generators, assignment, capacity)
