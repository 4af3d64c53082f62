"""Capacitated assignment of N points to m generators (capacity n = N/m):
the greedy least-cost heuristic and an exact oracle for small instances."""

import heapq
import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment


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

    def to_json(self):
        return json.dumps({"capacity": self.capacity,
                           "assignment": self.assignment.tolist(),
                           "cost": self.cost})

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        return cls(assignment=np.array(obj["assignment"]),
                   capacity=obj["capacity"], cost=obj["cost"])


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


_CANDIDATES = 32  # per-row candidate list length; speed only, never the plan


def _row_candidates(dmat):
    """Per row, the first _CANDIDATES columns of its stable (distance,
    column) order and their distances, as (N, min(m, _CANDIDATES)) arrays.
    A row whose cut value also occurs outside the argpartition pick (which
    may have kept a larger column of equal distance) takes the prefix of
    its full sort."""
    if dmat.shape[1] <= _CANDIDATES:
        cols = np.argsort(dmat, axis=1, kind="stable")
        return cols, np.take_along_axis(dmat, cols, axis=1)
    cols = np.sort(np.argpartition(dmat, _CANDIDATES - 1, axis=1)[:, :_CANDIDATES], axis=1)
    vals = np.take_along_axis(dmat, cols, axis=1)
    by_dist = np.argsort(vals, axis=1, kind="stable")
    cols = np.take_along_axis(cols, by_dist, axis=1)
    vals = np.take_along_axis(vals, by_dist, axis=1)
    cut_tied = np.flatnonzero(np.count_nonzero(dmat <= vals[:, -1:], axis=1) > _CANDIDATES)
    cols[cut_tied] = np.argsort(dmat[cut_tied], axis=1, kind="stable")[:, :_CANDIDATES]
    vals[cut_tied] = np.take_along_axis(dmat[cut_tied], cols[cut_tied], axis=1)
    return cols, vals


def lcm_assign(points, generators, capacity):
    """Greedy least-cost assignment: repeatedly take the globally smallest
    unmasked distance entry (ties by smaller row, then smaller column),
    assign the point, mask its row, and mask a column once it holds
    `capacity` points.

    The walk is lazy.  A heap holds one entry (d, i, j) per unassigned row
    i: its first candidate column j still open when last looked at.  Column
    capacity only ever decreases, so an entry is never larger than its
    row's first live one; when the smallest entry's column is open, it is
    the globally smallest live (d, i, j), the entry the walk over the
    stable argsort of all N*m distances would take next.  When it is full,
    the row advances to its next open candidate.  A row that exhausts its
    candidate list continues in its full stable sort.  Exactness needs
    each candidate list to be a prefix of the row's (distance, column)
    order, so a row with a tie at the cut takes its list from its full
    sort (see _row_candidates)."""
    m = len(generators)
    n_points = len(points)
    if n_points != capacity * m:
        raise ValueError("need N = capacity * m")
    dmat = distance_matrix(points, generators)
    cand_cols, cand_vals = _row_candidates(dmat)
    heap = list(zip(cand_vals[:, 0].tolist(), range(n_points), cand_cols[:, 0].tolist()))
    heapq.heapify(heap)
    advanced = {}  # row -> (position, columns, distances) once it has moved on
    assignment = np.full(n_points, -1, dtype=int)
    col_slots = [capacity] * m
    while heap:
        _, i, j = heap[0]
        if col_slots[j]:
            heapq.heappop(heap)
            assignment[i] = j
            col_slots[j] -= 1
            continue
        p, row_cols, row_vals = (advanced.get(i)
                                 or (0, cand_cols[i].tolist(), cand_vals[i].tolist()))
        p += 1
        while p < len(row_cols) and not col_slots[row_cols[p]]:
            p += 1
        if p == len(row_cols):
            # candidates exhausted: the full sort starts with the same list
            order = np.argsort(dmat[i], kind="stable")
            row_cols, row_vals = order.tolist(), dmat[i, order].tolist()
            while not col_slots[row_cols[p]]:
                p += 1
        advanced[i] = (p, row_cols, row_vals)
        heapq.heapreplace(heap, (row_vals[p], i, row_cols[p]))
    return _finalize(np.asarray(points, dtype=float),
                     np.asarray(generators, dtype=float), assignment, capacity)


def optimal_assign(points, generators, capacity):
    """Exact minimum-cost plan: duplicates each generator `capacity` times
    and solves the resulting square assignment problem. N <= 256."""
    points = np.asarray(points, dtype=float)
    generators = np.asarray(generators, dtype=float)
    m = len(generators)
    n_points = len(points)
    if n_points != capacity * m:
        raise ValueError("need N = capacity * m")
    if n_points > 256:
        raise ValueError("optimal_assign limited to N <= 256")
    dmat = distance_matrix(points, generators)
    big = np.repeat(dmat, capacity, axis=1)  # column block j*capacity..(j+1)*capacity-1 = region j
    rows, cols = linear_sum_assignment(big)
    assignment = np.empty(n_points, dtype=int)
    assignment[rows] = cols // capacity
    return _finalize(points, generators, assignment, capacity)
