"""Squared-W2 discrepancies between equal-size point sets: exact assignment,
1-D sorted, sliced (SW), max-sliced, circular generalized-sliced and the
Gaussian closed form (GW), with analytic gradients for the last four."""

import numpy as np

from .batch_design import sq_dists

# max_sw2's projected gradient ascent: steps and step size
ASCENT_ITERS = 10
STEP_SIZE = 0.1


class NumericalFailure(RuntimeError):
    """Non-finite value encountered inside a closed-form computation."""


def _check_pair(a, b, equal_size=True):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    if equal_size and a.shape[:-1] != b.shape[:-1]:  # a stack's (k, n) too
        raise ValueError("size mismatch: {} vs {}".format(
            *(" x ".join(map(str, x.shape[:-1])) for x in (a, b))))
    if not (a.shape[-2] and b.shape[-2]):
        raise ValueError(f"empty point set: {a.shape[-2]} and {b.shape[-2]} points")
    return a, b


def wasserstein_exact(a, b):
    """Exact squared W2 between equal-size point sets via minimum-cost
    perfect matching on the squared-distance matrix.

    Returns (value, sigma) where sigma is the optimal permutation:
    a[i] is matched with b[sigma[i]].
    """
    a, b = _check_pair(a, b)
    n = len(a)
    if n > 1024:
        raise ValueError("wasserstein_exact limited to n <= 1024")
    from scipy.optimize import linear_sum_assignment  # local: import costs 49 MB of RSS, 0.35 s
    cost = sq_dists(a, b)
    rows, cols = linear_sum_assignment(cost)
    sigma = np.empty(n, dtype=int)
    sigma[rows] = cols
    return float(cost[rows, cols].sum() / n), sigma


def w2_1d_sorted(a, b):
    """Squared W2 of two 1-D samples of equal length by sorting."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    _check_pair(a, b)  # equal lengths, neither zero
    return float(np.mean((np.sort(a) - np.sort(b)) ** 2))


def directions(dim, count, rng):
    """count random unit directions in R^dim, shape (count, dim)."""
    if count < 1:
        raise ValueError(f"num_projections must be >= 1, got {count}")
    w = rng.standard_normal((count, dim))
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return w / norms


def sorted_projections(a, dirs):
    """a projected on the rows of dirs, each row sorted: shape (len(dirs), len(a)).

    The product dirs @ a.T is formed in the layout it is sorted in, each
    sort running along the contiguous axis."""
    p = dirs @ a.T
    p.sort()
    return p


def sq_diff_mean(p, q):
    """mean((p - q) ** 2) over the last two axes of (..., L, n) sorted
    projections, bit-equal to the mean over each (n, L) transpose: the sum
    runs in memory order, so the squares are copied transposed first.  p is
    overwritten with the squares."""
    np.subtract(p, q, out=p)
    np.square(p, out=p)
    squares = p.swapaxes(-1, -2).reshape(*p.shape[:-2], -1)
    return squares.sum(axis=-1) / squares.shape[-1]


def sw2_projected(a, b, dirs):
    """Mean 1-D sorted squared W2 of a and b projected on the rows of dirs."""
    pa, pb = sorted_projections(a, dirs), sorted_projections(b, dirs)
    return float(sq_diff_mean(pa, pb))


def sw2(a, b, num_projections=1000, seed=0):
    """Sliced squared W2, the average 1-D sorted W2 over num_projections
    random directions on the unit sphere, and its gradient with respect to
    a, from one direction draw, one projection of each set and one
    matching; returns (value, gradient).

    A stack of k sets, a and b of shape (k, n, d) with a sequence of k
    seeds, gives values (k,) and gradients (k, n, d), each slice bit-equal
    to its own call: one product projects every slice, and the rows of all
    k (L, n) projections are matched together."""
    a, b = _check_pair(a, b)
    stacked = a.ndim == 3
    if not stacked:
        a, b, seed = a[None], b[None], [seed]
    if len(seed) != len(a):
        raise ValueError(f"{len(a)} point sets but {len(seed)} seeds")
    dirs = np.array([directions(a.shape[2], num_projections, np.random.default_rng(s))
                     for s in seed])
    values, coeff = _matched_diffs(dirs @ a.transpose(0, 2, 1), dirs @ b.transpose(0, 2, 1))
    # the product takes coeff C-contiguous (n, L): the transposed view would
    # round differently
    grads = (2.0 / (a.shape[1] * num_projections)) * (coeff.transpose(0, 2, 1).copy() @ dirs)
    return (values, grads) if stacked else (float(values[0]), grads[0])


def _matched_diffs(pa, pb):
    """Each row of the C-contiguous (..., L, n) projections matched by
    stable sort, which yields the same sorted values as np.sort, also where
    they tie: the sq_diff_mean of the sorted rows, and their differences
    placed back at a's columns.  Each row's argsort is offset to flat
    indices, so the gathers and the scatter run along the contiguous axis."""
    offsets = np.arange(0, pa.size, pa.shape[-1]).reshape(*pa.shape[:-1], 1)
    ia = np.argsort(pa, kind="stable")
    ia += offsets
    ib = np.argsort(pb, kind="stable")
    ib += offsets
    sa, sb = pa.take(ia), pb.take(ib)
    coeff = np.empty_like(pa)
    coeff.put(ia, sa - sb)
    return sq_diff_mean(sa, sb), coeff


def sw2_gradient(a, b, num_projections=1000, seed=0):
    """The gradient of sw2."""
    return sw2(a, b, num_projections, seed)[1]


def _matched_1d(a, b, w):
    """a and b projected on w and matched by stable sort: a's sort order,
    b's sort order and the sorted differences."""
    pa, pb = a @ w, b @ w
    ia = np.argsort(pa, kind="stable")
    ib = np.argsort(pb, kind="stable")
    return ia, ib, pa[ia] - pb[ib]


def max_sw2(a, b, seed=0):
    """Max-sliced squared W2: ASCENT_ITERS steps of projected gradient
    ascent on the sphere for the worst direction.  Returns (value, direction,
    gradient), the gradient with respect to a of the 1-D sorted W2 along
    that direction, from the matching that gave its value."""
    a, b = _check_pair(a, b)
    n, d = a.shape
    w = directions(d, 1, np.random.default_rng(seed))[0]

    def value_grad(w):
        ia, ib, diff = _matched_1d(a, b, w)
        return float((diff ** 2).mean()), (2.0 / n) * diff @ (a[ia] - b[ib]), ia, diff

    v, g, ia, diff = value_grad(w)
    best = v, w.copy(), ia, diff
    for _ in range(ASCENT_ITERS):
        w = w + STEP_SIZE * g
        norm = np.linalg.norm(w)
        if norm == 0:
            break
        w /= norm
        v, g, ia, diff = value_grad(w)
        if v > best[0]:
            best = v, w.copy(), ia, diff
    best_v, best_w, ia, diff = best
    grad = np.zeros_like(a)
    grad[ia] = (2.0 / n) * diff[:, None] * best_w[None, :]
    return best_v, best_w, grad


def default_pivot_radius(a, b):
    """Default circular-projection pivot radius: 2x the max data norm."""
    return 2.0 * max(float(np.linalg.norm(a, axis=1).max()),
                     float(np.linalg.norm(b, axis=1).max()))


def _gsw_pivots(a, b, num_projections, seed):
    # the pivots R*theta, (L, d), at the default pivot radius R
    return default_pivot_radius(a, b) * directions(a.shape[1], num_projections,
                                                   np.random.default_rng(seed))


def _gsw_features(x, pivots):
    # distance of every point to every pivot, (n, L)
    return np.sqrt(np.maximum(sq_dists(x, pivots), 1e-300))


def gsw2_value_and_grad(a, b, num_projections=1000, seed=0):
    """Generalized sliced squared W2 with circular projections, the scalar
    feature being the distance to a pivot R*theta with theta uniform on the
    sphere, and its gradient with respect to a, from one feature map and one
    sort; returns (value, gradient)."""
    a, b = _check_pair(a, b)
    return _gsw2_at(a, b, _gsw_pivots(a, b, num_projections, seed))


def _gsw2_at(a, b, pivots):
    """gsw2_value_and_grad of two checked point sets at the given (L, d) pivots."""
    fa = _gsw_features(a, pivots)
    value, coeff = _matched_diffs(fa.T.copy(), _gsw_features(b, pivots).T.copy())
    # the products take C-contiguous (n, L) coefficients, as the sums run
    # in memory order; d feature / d a_i = (a_i - pivot_l) / fa[i, l]
    c = (2.0 / (len(a) * len(pivots))) * coeff.T.copy() / fa
    grad = c.sum(axis=1)[:, None] * a - c @ pivots
    return float(value), grad


def _sym_sqrt(mat, inv=False, floor=0.0):
    vals, vecs = np.linalg.eigh(mat)
    if not np.all(np.isfinite(vals)):
        raise NumericalFailure("non-finite eigenvalue in matrix square root")
    vals = np.maximum(vals, floor)
    if inv:
        if np.any(vals <= 0):
            raise NumericalFailure("singular matrix in inverse square root")
        root = vals ** -0.5
    else:
        root = np.sqrt(np.maximum(vals, 0.0))
    return (vecs * root) @ vecs.T


def _moments(x):
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (len(x) - 1)
    return mean, cov


def gw2_value_and_grad(a, b):
    """Closed-form squared W2 between the Gaussian approximations of two
    point sets (Bures metric on covariances plus the mean shift), and its
    analytic gradient with respect to a, from one moments pass; returns
    (value, gradient).

    d tr(M^1/2) = 1/2 tr(M^-1/2 dM) gives
    dGW2/dS1 = I - S2^1/2 (S2^1/2 S1 S2^1/2)^-1/2 S2^1/2, chained through
    the empirical mean and unbiased covariance.  For the gradient only, a
    near-singular S2 is regularized by +eps*I with eps = 1e-8 tr(S2)/d.
    """
    a, b = _check_pair(a, b, equal_size=False)
    n, d = a.shape
    if n < 2 or len(b) < 2:
        raise ValueError("gw2 needs at least 2 points per set")
    m1, s1 = _moments(a)
    m2, s2 = _moments(b)
    s2_half = _sym_sqrt(s2)
    inner = s2_half @ s1 @ s2_half
    value = float(((m1 - m2) ** 2).sum() + np.trace(s1 + s2 - 2.0 * _sym_sqrt(inner)))
    if not np.isfinite(value):
        raise NumericalFailure("non-finite GW value")
    eps = 1e-8 * max(np.trace(s2), 1e-30) / d
    if np.linalg.eigvalsh(s2).min() < eps:
        s2_half = _sym_sqrt(s2 + eps * np.eye(d))
        inner = s2_half @ s1 @ s2_half
    inner_inv_half = _sym_sqrt(inner, inv=True, floor=eps ** 2)
    g_cov = np.eye(d) - s2_half @ inner_inv_half @ s2_half
    g_cov = 0.5 * (g_cov + g_cov.T)
    grad = (2.0 / n) * (m1 - m2)[None, :] + (2.0 / (n - 1)) * (a - m1) @ g_cov
    if not np.all(np.isfinite(grad)):
        raise NumericalFailure("non-finite GW gradient")
    return max(value, 0.0), grad


def gw2(a, b):
    """The value of gw2_value_and_grad."""
    return gw2_value_and_grad(a, b)[0]
