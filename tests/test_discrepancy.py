import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tessae.discrepancy import (_gsw2_at, _gsw_features, _gsw_pivots,
                                default_pivot_radius, directions,
                                gsw2_value_and_grad, gw2, gw2_value_and_grad, max_sw2,
                                sorted_projections, sw2, sw2_gradient, sw2_projected,
                                w2_1d_sorted, wasserstein_exact)


def fd_gradient(fn, a, eps=1e-6):
    g = np.zeros_like(a)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            ap, am = a.copy(), a.copy()
            ap[i, j] += eps
            am[i, j] -= eps
            g[i, j] = (fn(ap) - fn(am)) / (2 * eps)
    return g


def test_wasserstein_exact_identical():
    a = np.random.default_rng(0).standard_normal((6, 3))
    est, sigma = wasserstein_exact(a, a)
    assert est <= 1e-12


def test_wasserstein_exact_permutation():
    est, sigma = wasserstein_exact(np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]]))
    assert est == 0.0
    assert list(sigma) == [1, 0]


def test_wasserstein_exact_1d_value():
    # optimal matching 0->1, 2->3 costs (1+1)/2; the cross matching costs 5
    est, _ = wasserstein_exact(np.array([[0.0], [2.0]]), np.array([[1.0], [3.0]]))
    assert abs(est - 1.0) < 1e-12


def test_wasserstein_exact_size_guards():
    with pytest.raises(ValueError):
        wasserstein_exact(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        wasserstein_exact(np.zeros((1025, 1)), np.zeros((1025, 1)))


PAIR_ESTIMATORS = pytest.mark.parametrize(
    "estimator", [wasserstein_exact, sw2, max_sw2, gw2_value_and_grad, gsw2_value_and_grad, gw2],
    ids=lambda f: f.__name__)


@PAIR_ESTIMATORS
def test_estimate_is_a_float(estimator):
    rng = np.random.default_rng(22)
    a, b = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
    out = estimator(a, b)
    assert type(out[0] if isinstance(out, tuple) else out) is float


@PAIR_ESTIMATORS
def test_estimator_refuses_a_dimension_mismatch(estimator):
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        estimator(np.zeros((6, 2)), np.zeros((6, 3)))


@pytest.mark.parametrize("estimator", [wasserstein_exact, sw2, sw2_gradient, max_sw2,
                                       gw2_value_and_grad, gsw2_value_and_grad, gw2,
                                       w2_1d_sorted],
                         ids=lambda f: f.__name__)
def test_estimator_refuses_an_empty_point_set(estimator):
    with pytest.raises(ValueError, match="empty point set: 0 and 0 points"):
        estimator(np.zeros((0, 2)), np.zeros((0, 2)))


def test_w2_1d_sorted_examples():
    assert w2_1d_sorted([3, 1, 2], [1, 2, 3]) == 0.0
    assert w2_1d_sorted([0, 0], [1, 1]) == 1.0
    with pytest.raises(ValueError):
        w2_1d_sorted([1, 2], [1, 2, 3])


def test_w2_1d_matches_exact_solver():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        exact = wasserstein_exact(a[:, None], b[:, None])[0]
        assert abs(w2_1d_sorted(a, b) - exact) <= 1e-12


def test_sw2_identical_zero():
    a = np.random.default_rng(2).standard_normal((10, 4))
    assert sw2(a, a, 16, seed=0)[0] == 0.0


def test_sw2_1d_shift():
    est = sw2(np.array([[0.0]]), np.array([[1.0]]), 8, seed=0)[0]
    assert abs(est - 1.0) < 1e-12


def test_sw2_2d_analytic():
    # E[cos^2 theta] = 1/2 for a unit shift along one axis
    est = sw2(np.zeros((1, 2)), np.array([[1.0, 0.0]]), 10_000, seed=3)[0]
    se = np.sqrt(0.125 / 10_000)  # Var(cos^2) = 1/8
    assert abs(est - 0.5) < 3 * se


def test_sw2_symmetric_same_seed():
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((8, 3)), rng.standard_normal((8, 3))
    assert sw2(a, b, 32, seed=5)[0] == sw2(b, a, 32, seed=5)[0]


def test_sw2_gradient_zero_at_equality():
    a = np.random.default_rng(5).standard_normal((7, 3))
    assert np.allclose(sw2_gradient(a, a, 16, seed=0), 0.0)


def test_sw2_gradient_finite_differences():
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal((8, 4)), rng.standard_normal((8, 4))
    g = sw2_gradient(a, b, 32, seed=7)
    fd = fd_gradient(lambda x: sw2(x, b, 32, seed=7)[0], a)
    assert np.abs(g - fd).max() / np.abs(fd).max() <= 1e-4


def test_sw2_gradient_translation_invariant():
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
    shift = np.array([0.3, -1.2, 4.0])
    g0 = sw2_gradient(a, b, 16, seed=1)
    g1 = sw2_gradient(a + shift, b + shift, 16, seed=1)
    assert np.allclose(g0, g1, atol=1e-12)


def test_max_sw2_identical_zero():
    a = np.random.default_rng(8).standard_normal((9, 3))
    est, _, _ = max_sw2(a, a, seed=0)
    assert est == 0.0


def test_max_sw2_finds_separating_axis():
    a = np.zeros((20, 2))
    b = np.column_stack([np.full(20, 1.5), np.zeros(20)])
    est, w, _ = max_sw2(a, b, seed=1)
    assert abs(abs(w[0]) - 1.0) < 0.05
    assert abs(est - 1.5 ** 2) < 0.1


def test_max_sw2_dominates_single_random_direction():
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((12, 3)), rng.standard_normal((12, 3)) + 0.5
    est, _, _ = max_sw2(a, b, seed=2)
    for s in range(5):
        single = sw2(a, b, 1, seed=100 + s)[0]
        assert est >= single - 1e-9


def test_maxsw2_gradient_finite_differences():
    rng = np.random.default_rng(10)
    a, b = rng.standard_normal((8, 3)), rng.standard_normal((8, 3))
    _, w, g = max_sw2(a, b, seed=3)
    fd = fd_gradient(lambda x: w2_1d_sorted(x @ w, b @ w), a)
    assert np.abs(g - fd).max() <= 1e-6


def test_gsw2_identical_zero():
    a = np.random.default_rng(11).standard_normal((10, 2))
    assert gsw2_value_and_grad(a, a, 16, seed=0)[0] == 0.0


def test_gsw2_large_pivot_approaches_sw2():
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((16, 3)), rng.standard_normal((16, 3)) * 1.2
    r0 = default_pivot_radius(a, b)
    ref = sw2(a, b, 64, seed=4)[0]
    dirs = directions(3, 64, np.random.default_rng(4))
    err_near = abs(_gsw2_at(a, b, r0 * dirs)[0] - ref)
    err_far = abs(_gsw2_at(a, b, 100 * r0 * dirs)[0] - ref)
    assert err_far < err_near
    assert err_far < 0.05 * max(ref, 1e-9)


def test_gsw2_compresses_tangential_displacement():
    # rotated copies on a circle matching the pivot radius; a uniform grid
    # would be rotation invariant as a set, so the angles are random
    angles = np.random.default_rng(21).uniform(0, 2 * np.pi, 32)
    r = 1.0
    a = r * np.column_stack([np.cos(angles), np.sin(angles)])
    rot = 0.1
    b = r * np.column_stack([np.cos(angles + rot), np.sin(angles + rot)])
    gsw = _gsw2_at(a, b, r * directions(2, 512, np.random.default_rng(5)))[0]
    lin = sw2(a, b, 512, seed=5)[0]
    assert gsw < lin


def test_gsw2_gradient_finite_differences():
    rng = np.random.default_rng(13)
    a, b = rng.standard_normal((8, 3)), rng.standard_normal((8, 3))
    pivots = _gsw_pivots(a, b, 32, seed=6)
    g = _gsw2_at(a, b, pivots)[1]
    fd = fd_gradient(lambda x: _gsw2_at(x, b, pivots)[0], a)
    assert np.abs(g - fd).max() / np.abs(fd).max() <= 1e-4


def sort_only_gsw2(a, b, num_projections, seed):
    """gsw2 from the features sorted by np.sort down their columns: the
    reference for the value read off the argsorted differences."""
    pivots = _gsw_pivots(a, b, num_projections, seed)
    fa = np.sort(_gsw_features(a, pivots), axis=0)
    fb = np.sort(_gsw_features(b, pivots), axis=0)
    return float(((fa - fb) ** 2).mean())


@pytest.mark.parametrize("ties", [False, True])
def test_gsw2_fused_value_equals_sort_only_value(ties):
    # the value from the argsorted differences is bit-equal to the value
    # from np.sort, also where features tie
    rng = np.random.default_rng(5)
    for trial in range(20):
        a = rng.standard_normal((12, 3))
        b = rng.standard_normal((12, 3))
        if ties:
            a, b = np.round(a), np.round(b)
        seed = np.random.SeedSequence(trial)
        assert gsw2_value_and_grad(a, b, 32, seed=seed)[0] == \
            sort_only_gsw2(a, b, 32, seed)


def test_gw2_identical_zero():
    a = np.random.default_rng(14).standard_normal((20, 4))
    assert gw2(a, a) <= 1e-10


def test_gw2_pure_mean_shift():
    a = np.random.default_rng(15).standard_normal((30, 3))
    v = np.array([1.0, -2.0, 0.5])
    assert abs(gw2(a, a + v) - (v ** 2).sum()) <= 1e-10


def test_gw2_symmetric():
    rng = np.random.default_rng(16)
    a, b = rng.standard_normal((25, 3)), rng.standard_normal((25, 3)) * 1.4
    assert abs(gw2(a, b) - gw2(b, a)) <= 1e-10


def test_gw2_needs_two_points():
    with pytest.raises(ValueError):
        gw2(np.zeros((1, 2)), np.zeros((5, 2)))


def make_exact_moments(mean, diag, n, rng):
    """Samples whose empirical mean/covariance equal mean and diag exactly."""
    d = len(diag)
    x = rng.standard_normal((n, d))
    x -= x.mean(axis=0)
    chol = np.linalg.cholesky(np.cov(x.T))
    x = x @ np.linalg.inv(chol).T * np.sqrt(diag)
    return x + mean


def test_gw2_diagonal_analytic():
    rng = np.random.default_rng(17)
    m1, m2 = np.array([0.1, -0.2, 0.3]), np.array([1.0, 0.0, -0.5])
    d1, d2 = np.array([1.0, 2.0, 0.5]), np.array([0.3, 1.5, 2.5])
    a = make_exact_moments(m1, d1, 200, rng)
    b = make_exact_moments(m2, d2, 200, rng)
    expected = ((m1 - m2) ** 2).sum() + ((np.sqrt(d1) - np.sqrt(d2)) ** 2).sum()
    assert abs(gw2(a, b) - expected) <= 1e-10


def test_gw2_singular_target_covariance():
    # a zero column of b makes S2 singular: the gradient takes S2 + eps*I,
    # the value the exact S2, which here has the diagonal closed form
    rng = np.random.default_rng(23)
    m1, m2 = np.array([0.1, -0.2, 0.3]), np.array([1.0, 0.0, -0.5])
    d1, d2 = np.array([1.0, 2.0, 0.5]), np.array([0.3, 0.0, 2.5])
    a = make_exact_moments(m1, d1, 50, rng)
    b = make_exact_moments(m2, d2, 50, rng)
    assert np.all(b[:, 1] == 0.0)
    value, grad = gw2_value_and_grad(a, b)
    assert np.all(np.isfinite(grad))
    assert value == gw2(a, b)
    expected = ((m1 - m2) ** 2).sum() + ((np.sqrt(d1) - np.sqrt(d2)) ** 2).sum()
    assert abs(value - expected) <= 1e-8


def test_gw2_gradient_near_stationary():
    rng = np.random.default_rng(18)
    a = rng.standard_normal((40, 3))
    b = a + 1e-7 * rng.standard_normal((40, 3))
    assert np.linalg.norm(gw2_value_and_grad(a, b)[1]) <= 1e-3


def test_gw2_gradient_finite_differences():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((16, 4))
    b = rng.standard_normal((16, 4)) * 1.3 + 0.2
    g = gw2_value_and_grad(a, b)[1]
    fd = fd_gradient(lambda x: gw2(x, b), a)
    assert np.abs(g - fd).max() / np.abs(fd).max() <= 1e-3


def test_gw2_gradient_pure_mean_shift():
    rng = np.random.default_rng(20)
    centered = rng.standard_normal((24, 3))
    centered -= centered.mean(axis=0)
    a = centered + np.array([1.0, 0.0, -0.5])
    b = centered + np.array([0.2, 0.3, 0.1])
    g = gw2_value_and_grad(a, b)[1]
    expected = (2.0 / 24) * (a.mean(0) - b.mean(0))
    assert np.allclose(g, expected[None, :], atol=1e-8)


@st.composite
def point_set_pairs(draw):
    n = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 4))
    values = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
    a = draw(hnp.arrays(np.float64, (n, dim), elements=values))
    b = draw(hnp.arrays(np.float64, (n, dim), elements=values))
    return a, b


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(point_set_pairs(), st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_sw2_nonnegative_and_symmetric(pair, num_projections, seed):
    a, b = pair
    value = sw2(a, b, num_projections, seed)[0]
    assert value >= 0.0
    assert value == sw2(b, a, num_projections, seed)[0]


@pytest.mark.parametrize("n, num_projections, dim", [(10, 64, 2), (1000, 256, 2), (2410, 256, 8)])
def test_sw2_projected_bit_equals_axis0_formula(n, num_projections, dim):
    # projections are dirs @ a.T (a @ dirs.T rounds differently in the last
    # bits at some sizes, 2410 x 8 among them), and the mean is summed in
    # (n, L) order (np.mean's pairwise sum follows memory order); at each
    # shape some of the four seeds tell the two summation orders apart
    for seed in range(4):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((n, dim)), rng.random((n, dim))
        dirs = directions(dim, num_projections, rng)
        pa, pb = (np.sort(dirs @ x.T, axis=1).T.copy() for x in (a, b))
        assert np.array_equal(sorted_projections(a, dirs), pa.T)
        assert sw2_projected(a, b, dirs) == float(((pa - pb) ** 2).mean())
        dirs = directions(dim, num_projections, np.random.default_rng(seed))
        assert sw2(a, b, num_projections, seed)[0] == sw2_projected(a, b, dirs)


def axis0_matched_diffs(pa, pb):
    """The sorted and scattered differences by take_along_axis down the
    columns of (n, L) projections: the reference for the flat-index
    gathers along the rows of their (L, n) transposes."""
    ia = np.argsort(pa, axis=0, kind="stable")
    ib = np.argsort(pb, axis=0, kind="stable")
    diff = np.take_along_axis(pa, ia, axis=0) - np.take_along_axis(pb, ib, axis=0)
    coeff = np.zeros_like(pa)
    np.put_along_axis(coeff, ia, diff, axis=0)
    return diff, coeff


def tied_pair(n, dim, ties):
    rng = np.random.default_rng(dim)
    a, b = rng.standard_normal((n, dim)), rng.standard_normal((n, dim))
    if ties:  # duplicated rows project to exactly tied values
        a[n // 2:] = a[:n // 2]
        b[::3] = b[1]
    return a, b


@pytest.mark.parametrize("dim", [1, 2, 8])
@pytest.mark.parametrize("ties", [False, True])
def test_sw2_gradient_equals_matched_diffs_formula(dim, ties):
    a, b = tied_pair(12, dim, ties)
    for seed in range(5):
        dirs = directions(dim, 64, np.random.default_rng(seed))
        diff, coeff = axis0_matched_diffs(a @ dirs.T, b @ dirs.T)
        want = (2.0 / (len(a) * 64)) * (coeff @ dirs)
        value, grad = sw2(a, b, 64, seed=seed)
        assert value == float((diff ** 2).mean())
        assert grad.tobytes() == want.tobytes()
        assert sw2_gradient(a, b, 64, seed=seed).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [12, 600])
@pytest.mark.parametrize("dim", [1, 2, 8])
@pytest.mark.parametrize("ties", [False, True])
def test_gsw2_value_and_grad_equals_matched_diffs_formula(n, dim, ties):
    # at n=600 the products round differently on a transposed coefficient view
    a, b = tied_pair(n, dim, ties)
    for seed in range(5):
        pivots = _gsw_pivots(a, b, 64, np.random.default_rng(seed))
        fa = _gsw_features(a, pivots)
        diff, coeff = axis0_matched_diffs(fa, _gsw_features(b, pivots))
        c = (2.0 / (len(a) * 64)) * coeff / fa
        grad = c.sum(axis=1)[:, None] * a - c @ pivots
        value, got = gsw2_value_and_grad(a, b, 64, seed=seed)
        assert value == float((diff ** 2).mean())
        assert got.tobytes() == grad.tobytes()
