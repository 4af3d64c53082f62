import itertools

import numpy as np
import pytest

from tessae.batch_design import (AssignmentPlan, _finalize, distance_matrix,
                                 lcm_assign, optimal_assign, sq_dists)


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
    with pytest.raises(ValueError):
        lcm_assign(np.zeros((4, 1)), np.zeros((2, 1)), 3)


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((8, 2))
    g = rng.standard_normal((4, 2)) * 0.3
    perm = rng.permutation(8)
    base = lcm_assign(z, g, 2)
    shuffled = lcm_assign(z[perm], g, 2)
    assert np.array_equal(shuffled.assignment, base.assignment[perm])


def test_cost_self_consistency():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((12, 3))
    g = rng.standard_normal((4, 3)) * 0.5
    for plan in (lcm_assign(z, g, 3), optimal_assign(z, g, 3)):
        recomputed = ((z - g[plan.assignment]) ** 2).sum()
        assert abs(plan.cost - recomputed) <= 1e-12


def test_plan_json_roundtrip():
    plan = lcm_assign(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]), 1)
    back = AssignmentPlan.from_json(plan.to_json())
    assert np.array_equal(back.assignment, plan.assignment)
    assert back.capacity == plan.capacity and back.cost == plan.cost
