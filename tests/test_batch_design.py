import hashlib
import itertools
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tessae import batch_design
from tessae.batch_design import (_finalize, distance_matrix, lcm_assign,
                                 optimal_assign, sq_dists)


def global_walk_assign(points, generators, capacity):
    """The greedy plan by its definition: walk the stable argsort of all
    N*m distances (ties by row, then column) and take every entry whose
    row is free and whose column has room.  lcm_assign must equal it."""
    m = len(generators)
    n_points = len(points)
    dmat = distance_matrix(points, generators)
    order = np.argsort(dmat, axis=None, kind="stable").tolist()
    assignment = np.full(n_points, -1, dtype=int)
    row_free = [True] * n_points
    col_slots = [capacity] * m
    remaining = n_points
    for flat in order:
        i, j = divmod(flat, m)
        if row_free[i] and col_slots[j]:
            assignment[i] = j
            row_free[i] = False
            col_slots[j] -= 1
            remaining -= 1
            if remaining == 0:
                break
    return _finalize(np.asarray(points, dtype=float),
                     np.asarray(generators, dtype=float), assignment, capacity)


def brute_force_cost(points, generators, capacity):
    n = len(points)
    m = len(generators)
    d = ((points[:, None, :] - generators[None]) ** 2).sum(axis=-1)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(d[perm[j * capacity + q], j]
                   for j in range(m) for q in range(capacity))
        best = min(best, cost)
    return best


def test_distance_matrix_values():
    m = distance_matrix(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]))
    assert np.array_equal(m, [[0.0, 1.0], [1.0, 0.0]])


def test_distance_matrix_guards():
    with pytest.raises(ValueError):
        distance_matrix(np.zeros((3, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        distance_matrix(np.zeros((4, 2)), np.zeros((4, 3)))


def test_sq_dists_clamps_cancellation():
    # the expanded form cancels to small negatives on the diagonal
    a = np.random.default_rng(0).standard_normal((200, 3)) * 1e3
    d2 = sq_dists(a, a)
    assert d2.min() == 0.0
    assert d2[1, 0] == pytest.approx(((a[0] - a[1]) ** 2).sum())


@pytest.mark.parametrize("rows", [1, 7, 60])
def test_sq_dists_blocks_equal_one_shot(monkeypatch, rows):
    # 53 rows: no multiple of 7, fewer than 60; rows 0-12 repeat b at a
    # scale where the expanded form cancels below 0
    rng = np.random.default_rng(rows)
    b = rng.standard_normal((13, 4)) * 1e3
    a = np.concatenate([b, rng.standard_normal((40, 4))])
    raw = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * a @ b.T
    assert (raw < 0).any()
    monkeypatch.setattr(batch_design, "DIST_BLOCK", rows * len(b))
    got = sq_dists(a, b)
    assert got.tobytes() == np.maximum(raw, 0.0).tobytes()
    assert got.min() == 0.0


@pytest.mark.parametrize("rows", [None, 7])
@pytest.mark.parametrize("view", [False, True], ids=["contiguous", "row-view"])
@pytest.mark.parametrize("n", [255, 257, 2410])
@pytest.mark.parametrize("d", [1, 2, 8, 64])
def test_sq_dists_equals_formula(monkeypatch, d, n, view, rows):
    # the product a @ (2b).T and the per-block row norms give the bits of
    # the whole-array formula, at tail sizes and on a view one row in
    rng = np.random.default_rng(d * n)
    a = rng.standard_normal((n + 1, d))
    a = a[1:] if view else a[:n]
    b = 0.5 * rng.standard_normal((50, d))
    if rows is not None:
        monkeypatch.setattr(batch_design, "DIST_BLOCK", rows * len(b))
    raw = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * a @ b.T
    assert sq_dists(a, b).tobytes() == np.maximum(raw, 0.0).tobytes()


def test_finalize_rejects_infeasible_plan():
    # a raised error, not an assert, so that python -O keeps the check
    points = np.zeros((4, 1))
    generators = np.array([[0.0], [1.0]])
    with pytest.raises(RuntimeError, match="infeasible"):
        _finalize(points, generators, np.array([0, 0, 0, 1]), 2)


def test_lcm_spec_instance():
    z = np.array([[0.0], [0.1], [0.9], [1.0]])
    g = np.array([[0.0], [1.0]])
    plan = lcm_assign(z, g, 2)
    assert list(plan.assignment) == [0, 0, 1, 1]
    assert abs(plan.cost - 0.02) < 1e-12


def test_lcm_perfect_match():
    g = np.random.default_rng(0).standard_normal((3, 2)) * 0.3
    z = np.repeat(g, 2, axis=0)
    plan = lcm_assign(z, g, 2)
    assert plan.cost == 0.0


def test_lcm_three_point_instance():
    z = np.array([[0.0], [0.4], [1.1]])
    g = np.array([[0.0], [0.5], [1.0]])
    plan = lcm_assign(z, g, 1)
    assert list(plan.assignment) == [0, 1, 2]
    assert abs(plan.cost - 0.02) < 1e-12


def test_optimal_spec_instance():
    z = np.array([[0.0], [0.6], [1.4], [2.0]])
    g = np.array([[0.5], [1.5]])
    plan = optimal_assign(z, g, 2)
    assert list(plan.assignment) == [0, 0, 1, 1]
    assert abs(plan.cost - 0.52) < 1e-12


def test_optimal_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(30):
        z = rng.standard_normal((6, 2))
        g = rng.standard_normal((3, 2)) * 0.4
        opt = optimal_assign(z, g, 2)
        assert abs(opt.cost - brute_force_cost(z, g, 2)) < 1e-9


def test_optimal_dominates_lcm():
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = int(rng.integers(2, 9))
        cap = int(rng.integers(1, 64 // m + 1))
        n = m * cap
        z = rng.standard_normal((n, 3))
        g = rng.standard_normal((m, 3)) * 0.5
        lcm = lcm_assign(z, g, cap)
        opt = optimal_assign(z, g, cap)
        assert opt.cost <= lcm.cost + 1e-9
        assert np.all(np.bincount(lcm.assignment, minlength=m) == cap)


def test_optimal_size_limit():
    with pytest.raises(ValueError):
        optimal_assign(np.zeros((300, 1)), np.zeros((300, 1)), 1)


def test_capacity_mismatch_rejected():
    for assign in (lcm_assign, optimal_assign):
        with pytest.raises(ValueError, match="got N=4, capacity=3, m=2"):
            assign(np.zeros((4, 1)), np.zeros((2, 1)), 3)


def test_lcm_rejects_non_finite_distances():
    # 1e200 squared overflows to inf; an inf distance in an open column
    # must be an error, not an endless walk
    z = np.array([[0.0], [1e200], [1.0], [2.0]])
    g = np.array([[0.0], [1.0]])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        lcm_assign(z, g, 2)


@pytest.mark.parametrize("rows", [1, 7, 60])
def test_lcm_blocks_equal_default(monkeypatch, rows):
    # 104 rows: no multiple of 7 or 60, so the last block is short
    rng = np.random.default_rng(rows)
    z = rng.standard_normal((104, 3))
    g = 0.5 * rng.standard_normal((8, 3))
    base = lcm_assign(z, g, 13)
    monkeypatch.setattr(batch_design, "DIST_BLOCK", rows * len(g))
    plan = lcm_assign(z, g, 13)
    assert plan.assignment.tobytes() == base.assignment.tobytes()
    assert np.float64(plan.cost).tobytes() == np.float64(base.cost).tobytes()
    # the finite check reads every block, the short last one too
    z[-1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        lcm_assign(z, g, 13)


@pytest.mark.parametrize("assign", [lcm_assign, optimal_assign])
@pytest.mark.parametrize("points, generators, capacity, message", [
    (np.zeros((0, 2)), np.zeros((0, 2)), 1, "generators must be"),
    (np.zeros(4), np.zeros((2, 1)), 2, "points must be"),
    (np.zeros((0, 2)), np.zeros((3, 2)), 0, "capacity must be"),
    (np.zeros((4, 1)), np.zeros((2, 1)), 2.0, "capacity must be"),
    (np.zeros((2, 1)), np.zeros((2, 1)), True, "capacity must be"),
    (np.zeros((4, 3)), np.zeros((2, 2)), 2, "points have width 3, generators width 2"),
], ids=["no-generators", "1-d-points", "capacity-0", "float-capacity", "bool-capacity", "widths"])
def test_assign_input_checks(assign, points, generators, capacity, message):
    with pytest.raises(ValueError, match=message):
        assign(points, generators, capacity)


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((8, 2))
    g = rng.standard_normal((4, 2)) * 0.3
    perm = rng.permutation(8)
    base = lcm_assign(z, g, 2)
    shuffled = lcm_assign(z[perm], g, 2)
    assert np.array_equal(shuffled.assignment, base.assignment[perm])


@pytest.mark.parametrize("shape", [(), (3,), (2, 2)])
def test_grouped_equals_region_masks(shape):
    # region k's rows, in their original order, are those assigned to k
    rng = np.random.default_rng(7)
    points, generators = rng.standard_normal((24, 2)), rng.standard_normal((4, 2))
    plan = lcm_assign(points, generators, 6)
    rows = rng.standard_normal((24, *shape))
    grouped = plan.grouped(rows)
    assert grouped.shape == (4, 6, *shape)
    for k in range(4):
        assert np.array_equal(grouped[k], rows[plan.assignment == k])


def test_cost_self_consistency():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((12, 3))
    g = rng.standard_normal((4, 3)) * 0.5
    for plan in (lcm_assign(z, g, 3), optimal_assign(z, g, 3)):
        recomputed = ((z - g[plan.assignment]) ** 2).sum()
        assert abs(plan.cost - recomputed) <= 1e-12


@pytest.mark.parametrize("advanced_first", [True, False])
def test_lcm_tie_between_advanced_and_presorted_rows(advanced_first):
    # Row a (at 1) loses column 0 to the row at 0 and advances to column 1
    # at distance 81, which is exactly the first entry of row b (at 19), not
    # yet taken. The tie goes to the smaller row index, which takes column 1;
    # the other advances to column 2.
    a, b = (1, 2) if advanced_first else (2, 1)
    z = np.zeros((3, 1))
    z[a], z[b] = 1.0, 19.0
    g = np.array([[0.0], [10.0], [100.0]])
    plan = lcm_assign(z, g, 1)
    walk = global_walk_assign(z, g, 1)
    assert np.array_equal(plan.assignment, walk.assignment)
    assert plan.cost == walk.cost
    assert plan.assignment[0] == 0
    assert plan.assignment[1] == 1 and plan.assignment[2] == 2


def test_lcm_assign_memory_is_bounded():
    # the distance matrix is the one (N, m) array: with the norms added in
    # whole-matrix temporaries the call peaked at about 2.2 N*m*8 bytes
    rng = np.random.default_rng(8)
    z = rng.standard_normal((4000, 64))
    g = 0.1 * rng.standard_normal((400, 64))
    tracemalloc.start()
    try:
        lcm_assign(z, g, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 4000 * 400 * 8


def test_lcm_assign_holds_no_point_sized_temporary():
    # beside its (N, m) matrix the call holds only per-row lists and
    # indices, about 0.4 N*d*8 bytes at d = 64; a copy of the points, or
    # the (N, d) gather of the cost while the matrix is alive, is N*d*8
    n, m, d = 4000, 400, 64
    rng = np.random.default_rng(8)
    z = rng.standard_normal((n, d))
    g = 0.1 * rng.standard_normal((m, d))
    tracemalloc.start()
    try:
        lcm_assign(z, g, n // m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (n * m + 0.75 * n * d)


@st.composite
def tie_heavy_instances(draw):
    """Points and generators on a small integer grid, so that distances
    tie often, within a row and across rows; sometimes all generators are
    one point."""
    # small and larger m, so that rows advance past many closed columns
    m = draw(st.one_of(st.integers(1, 32), st.integers(33, 40)))
    capacity = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 3))
    span = draw(st.integers(1, 3))
    grid = st.integers(-span, span)
    points = draw(hnp.arrays(np.int64, (m * capacity, dim), elements=grid))
    if draw(st.booleans()):
        generators = np.repeat(draw(hnp.arrays(np.int64, (1, dim), elements=grid)), m, axis=0)
    else:
        generators = draw(hnp.arrays(np.int64, (m, dim), elements=grid))
    return points.astype(float), generators.astype(float), capacity


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(tie_heavy_instances())
def test_lcm_equals_global_walk(instance):
    points, generators, capacity = instance
    plan = lcm_assign(points, generators, capacity)
    walk = global_walk_assign(points, generators, capacity)
    assert np.array_equal(plan.assignment, walk.assignment)
    assert plan.cost == walk.cost
    assert np.array_equal(np.bincount(plan.assignment, minlength=len(generators)),
                          np.full(len(generators), capacity))
    # integer coordinates: every squared distance and their sum are exact
    assert plan.cost == ((points - generators[plan.assignment]) ** 2).sum()


@pytest.mark.parametrize("m, spread", [(32, 1.0), (33, 1.0), (96, 1.0), (96, 1e-4)],
                         ids=["32", "33", "96", "collapsed"])
def test_lcm_equals_global_walk_without_ties(m, spread):
    # capacity 1 makes the last rows advance past nearly every column; a
    # collapsed latent (all points within 1e-3 of the origin) makes
    # every row prefer the same columns
    rng = np.random.default_rng(m)
    for capacity in (1, 4):
        z = spread * rng.standard_normal((m * capacity, 5))
        g = 0.3 * rng.standard_normal((m, 5))
        plan = lcm_assign(z, g, capacity)
        walk = global_walk_assign(z, g, capacity)
        assert np.array_equal(plan.assignment, walk.assignment)
        assert plan.cost == walk.cost


def test_criterion_8_plan_pinned():
    # the N=20000, m=400, d=64 instance of the acceptance test
    # (tests/test_acceptance.py::test_criterion_08_assignment): replay the
    # draws of its 200 small instances, then solve the large one.  The
    # digest was generated by the global-order walk.
    rng = np.random.default_rng(800)
    for _ in range(200):
        m = int(rng.integers(2, 9))
        cap = int(rng.integers(1, 64 // m + 1))
        rng.standard_normal((m * cap, 2))
        rng.standard_normal((m, 2))
    big_z = rng.standard_normal((20_000, 64))
    big_g = rng.standard_normal((400, 64)) * 0.1
    plan = lcm_assign(big_z, big_g, 50)
    digest = hashlib.sha256(
        np.ascontiguousarray(plan.assignment, dtype="<i8").tobytes()).hexdigest()
    assert digest == "abd800138645802beeb9a3c405ebf796de30b1453faab5084ecd8a1b3f37b1ef"
    assert plan.cost == 1204620.5030014915
