"""Desk-scale statistical harnesses: convergence-rate studies, deterministic
inequality audits, the shared-batch variance check, and the per-region
prior-matching gap study.  Each harness can write a CSV artifact."""

from dataclasses import dataclass

import numpy as np

from .autoencoder import encode
from .batch_design import OPTIMAL_MAX_POINTS, lcm_assign, optimal_assign
from .data import write_csv
from .discrepancy import (directions, sorted_projections, sq_diff_mean, sw2_projected,
                          wasserstein_exact)
from .seeding import derive_rng
from .tessellation import lloyd_cvt, sample_regions, sample_unit_ball

_DIR_CHUNK = 256  # directions per sw2_projected call in _sw2_shared_dirs
_POP_SIZE = 512  # surrogate population of variance_check


@dataclass
class RateStudyResult:
    n_grid: list
    means: list
    ses: list
    slope: float
    intercept: float

    def to_csv(self, path):
        write_csv(path, ["n", "mean", "se"],
                  [*zip(self.n_grid, self.means, self.ses),
                   ["slope", self.slope, self.intercept]])


def _sw2_shared_dirs(a, b, dirs):
    total = 0.0
    for lo in range(0, len(dirs), _DIR_CHUNK):
        d = dirs[lo:lo + _DIR_CHUNK]
        total += sw2_projected(a, b, d) * len(d)
    return total / len(dirs)


def _sw2_gaussian_ball(dim):
    """Exact sw2(N(0, I), uniform unit ball) in R^dim: every direction gives
    the 1-D W2^2 of N(0, 1) and 2 Beta(a, a) - 1, a = (dim + 1)/2, which is
    1 + 1/(dim + 2) - 4 E[Z (2 B^-1(Phi(Z)) - 1); Z > 0]."""
    from scipy import integrate, special  # local: 52 MB of RSS, 0.35 s to import (loads optimize)
    a = (dim + 1) / 2
    cross = integrate.quad(lambda z: z * np.exp(-z * z / 2)
                           * (2 * special.betaincinv(a, a, special.ndtr(z)) - 1), 0, np.inf)[0]
    return 1 + 1 / (dim + 2) - 4 * cross / np.sqrt(2 * np.pi)


def _fit_loglog(n_grid, means):
    slope, intercept = np.polyfit(np.log(np.asarray(n_grid, dtype=float)),
                                  np.log(np.asarray(means, dtype=float)), 1)
    return float(slope), float(intercept)


def rate_study_sw(dim, n_grid, trials, num_projections=1000, seed=0, out_csv=None):
    """Empirical decay rates of the sliced discrepancy.

    P is a standard Gaussian, Q is uniform on the unit ball.  Matching
    the second moments would make the two projection laws nearly
    identical and leave only the O(1/n) bias visible, so P is left
    unscaled.  Statistic 1 is |sw2(Pn,Qn) - sw2(P,Q)| with sw2(P,Q) exact;
    statistic 2 is sw2(Pn,Pn').  The trials share one direction set, which
    biases neither: each direction has the same exact 1-D distance.

    Returns (stat1_result, stat2_result).
    """
    n_grid = sorted(int(n) for n in n_grid)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if trials < 20:
        raise ValueError(f"trials must be >= 20, got {trials}")
    if not n_grid or n_grid[0] < 32 or n_grid[-1] > 8192:
        raise ValueError(f"n_grid must be nonempty and lie in [32, 8192], got {n_grid}")
    if len(set(n_grid)) < 2:
        raise ValueError(f"n_grid needs at least two distinct sizes for a slope, got {n_grid}")
    dirs = directions(dim, num_projections, derive_rng(seed, 0))
    reference = _sw2_gaussian_ball(dim)

    stats1 = np.empty((len(n_grid), trials))
    stats2 = np.empty((len(n_grid), trials))
    for gi, n in enumerate(n_grid):
        for t in range(trials):
            rng = derive_rng(seed, 2, gi, t)
            stats1[gi, t] = abs(_sw2_shared_dirs(rng.standard_normal((n, dim)),
                                                 sample_unit_ball(dim, n, rng), dirs) - reference)
            stats2[gi, t] = _sw2_shared_dirs(rng.standard_normal((n, dim)),
                                             rng.standard_normal((n, dim)), dirs)

    results = []
    for stats in (stats1, stats2):
        means = stats.mean(axis=1)
        ses = stats.std(axis=1, ddof=1) / np.sqrt(trials)
        slope, intercept = _fit_loglog(n_grid, means)
        results.append(RateStudyResult(n_grid=list(n_grid), means=means.tolist(),
                                       ses=ses.tolist(), slope=slope,
                                       intercept=intercept))
    if out_csv:
        stem = out_csv.removesuffix(".csv")
        results[0].to_csv(stem + "_qn.csv")
        results[1].to_csv(stem + "_pnpn.csv")
    return results[0], results[1]


def eq19_check(n_points, m, dim, trials, seed=0, out_csv=None):
    """Deterministic audit: the global exact squared W2 never exceeds the
    mean of the per-region exact distances built from capacity-balanced
    clusterings (the region-restricted matching is globally feasible).

    Returns {"passed", "violations", "margins"}.
    """
    if not 1 <= n_points <= OPTIMAL_MAX_POINTS or n_points % m != 0:
        raise ValueError(f"n_points must be in [1, {OPTIMAL_MAX_POINTS}] and divisible by m, "
                         f"got {n_points} and m = {m}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = n_points // m
    generators = lloyd_cvt(dim, m, seed=seed)[0].generators
    margins = []
    for t in range(trials):
        rng = derive_rng(seed, 10, t)
        prior_pts = sample_unit_ball(dim, n_points, rng)
        encoded = 0.5 / np.sqrt(dim) * rng.standard_normal((n_points, dim)) + 0.1
        lhs = wasserstein_exact(prior_pts, encoded)[0]
        enc_plan = lcm_assign(encoded, generators, n)
        # prior points cluster by nearest region, rebalanced to capacity
        # by the exact capacity-constrained assigner
        pri_plan = optimal_assign(prior_pts, generators, n)
        rhs = np.mean([wasserstein_exact(p, e)[0] for p, e in
                       zip(pri_plan.grouped(prior_pts), enc_plan.grouped(encoded))])
        margins.append(float(rhs - lhs))
    margins = np.array(margins)
    violations = int((~(margins >= -1e-9)).sum())  # a NaN margin is one too
    if out_csv:
        write_csv(out_csv, ["trial", "margin"], enumerate(margins.tolist()))
    return {"passed": violations == 0, "violations": violations,
            "margins": margins}


def theorem6_check(n_grid, dims, trials, seed=0, out_csv=None):
    """Trace bound audit: for n >= 5, exact squared W2 of two n-point sets
    never exceeds the squared mean shift plus 2(n-1)/(n-4) times the summed
    covariance traces.

    The independent coupling gives W2^2 <= ||mean a - mean b||^2
    + (n-1)/n (tr Sa + tr Sb), and (n-1)/n <= 2(n-1)/(n-4).  Without the
    shift term the bound fails on sets with a large enough mean gap."""
    if any(n < 5 for n in n_grid):
        raise ValueError("all n must be >= 5")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    violations = 0
    for n in n_grid:
        for dim in dims:
            for t in range(trials):
                rng = derive_rng(seed, 20, n, dim, t)
                kind = t % 3
                if kind == 0:
                    a = rng.standard_normal((n, dim))
                    b = rng.standard_normal((n, dim)) * rng.uniform(0.2, 2.0) + rng.uniform(-1, 1)
                elif kind == 1:
                    a = sample_unit_ball(dim, n, rng)
                    b = sample_unit_ball(dim, n, rng) * 0.5
                else:
                    a = rng.standard_normal((n, dim)) * rng.uniform(0.1, 3.0, size=dim)
                    b = sample_unit_ball(dim, n, rng)
                w = wasserstein_exact(a, b)[0]
                shift = a.mean(axis=0) - b.mean(axis=0)
                bound = shift @ shift + (2.0 * (n - 1) / (n - 4)) * (
                    np.trace(np.cov(a.T).reshape(dim, dim))
                    + np.trace(np.cov(b.T).reshape(dim, dim)))
                ok = w <= bound + 1e-9
                violations += not ok
                rows.append([n, dim, t, w, bound, int(ok)])
    if out_csv:
        write_csv(out_csv, ["n", "dim", "trial", "w2", "bound", "ok"], rows)
    return {"passed": violations == 0, "violations": violations,
            "instances": len(rows)}


def variance_check(dim, n, trials, step_scale=0.1, seed=0, out_csv=None):
    """Shared vs independent batches for estimating a gradient variation.

    Surrogate family: quadratic per-point losses f_j(t) = (x_j.t)^2/2
    - x_j.t over a fixed finite population.  For parameter points t_prev
    and t_now = t_prev + step, the error of estimating
    grad f(t_now) - grad f(t_prev) from size-n batches is compared when
    the two batches coincide versus when they are independent.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    if not 1 <= n <= _POP_SIZE:
        raise ValueError(f"n must be in [1, {_POP_SIZE}], got {n}")
    rng = derive_rng(seed, 30)
    pop = rng.standard_normal((_POP_SIZE, dim))

    def grad(theta, idx):
        x = pop[idx]
        return ((x @ theta)[:, None] * x).mean(axis=0) - x.mean(axis=0)

    full = np.arange(_POP_SIZE)
    shared_err = np.empty(trials)
    indep_err = np.empty(trials)
    for t in range(trials):
        trng = derive_rng(seed, 31, t)
        theta_prev = trng.standard_normal(dim)
        direction = trng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        theta_now = theta_prev + step_scale * direction
        truth = grad(theta_now, full) - grad(theta_prev, full)
        s_shared = trng.choice(_POP_SIZE, size=n, replace=False)
        s_a = trng.choice(_POP_SIZE, size=n, replace=False)
        s_b = trng.choice(_POP_SIZE, size=n, replace=False)
        shared_err[t] = np.linalg.norm(
            (grad(theta_now, s_shared) - grad(theta_prev, s_shared)) - truth)
        indep_err[t] = np.linalg.norm(
            (grad(theta_now, s_a) - grad(theta_prev, s_b)) - truth)
    if out_csv:
        write_csv(out_csv, ["trial", "shared", "independent"],
                  zip(range(trials), shared_err, indep_err))
    return {"mean_shared": float(shared_err.mean()),
            "mean_independent": float(indep_err.mean()),
            "shared": shared_err, "independent": indep_err}


def gap_study(params, tess, dataset, n, trials=4, num_projections=256,
              seed=0, out_csv=None):
    """Per-region and global sliced discrepancies between encoded data and
    region-restricted prior samples, with same-prior baselines at both
    scales.  Returns {"regions": [...], "global", "global_baseline",
    "mean_gap", "topped_up"}.

    Each trial fills every region from one labelled prior pool,
    sample_regions(tess, 2n, ...): a region's first n points are its prior
    sample, its next n the baseline's.  "topped_up" counts the prior points,
    over all trials, that came from sample_region because the pool left
    their region short.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for part, have, side, want in (
            ("dataset width", dataset.shape[1], "encoder input width", params.layer_sizes[0]),
            ("tessellation dim", tess.dim, "encoder latent dim", params.latent_dim)):
        if have != want:
            raise ValueError(f"{part} {have} does not match {side} {want}")
    m = tess.region_count
    use = m * n
    if len(dataset) < use:
        raise ValueError(f"dataset of {len(dataset)} points is smaller than "
                         f"m*n = {m}*{n} = {use}")
    z = encode(params, dataset[:use])
    clusters = lcm_assign(z, tess.generators, n).grouped(z)
    pairs = np.empty((m + 1, 2, trials))  # [sw2, baseline] per part and trial
    topped_up = 0
    for t in range(trials):
        regional, topped = sample_regions(tess, 2 * n, derive_rng(seed, 40, t))
        topped_up += topped
        ball_rng = derive_rng(seed, 42, t)
        whole = [sample_unit_ball(tess.dim, use, ball_rng) for _ in range(2)]
        # each region, then the whole ball: points, two prior samples, directions key
        parts = [(x, p[:n], p[n:], (41, j)) for j, (x, p) in enumerate(zip(clusters, regional))]
        parts.append((z, *whole, (43,)))
        for j, (x, prior, prior_b, dirs_key) in enumerate(parts):
            # one direction set and one sort of prior serve both discrepancies
            dirs = directions(x.shape[1], num_projections, derive_rng(seed, *dirs_key, t))
            pp = sorted_projections(prior, dirs)
            pairs[j, 0, t] = sq_diff_mean(sorted_projections(x, dirs), pp)
            pairs[j, 1, t] = sq_diff_mean(sorted_projections(prior_b, dirs), pp)
    means = pairs.mean(axis=2).tolist()
    if out_csv:
        write_csv(out_csv, ["region", "sw2", "baseline"],
                  [*([j, *pair] for j, pair in enumerate(means[:-1])), ["global", *means[-1]]])
    return {"regions": [{"region": j, "sw2": sw, "baseline": bl}
                        for j, (sw, bl) in enumerate(means[:-1])],
            "global": means[-1][0], "global_baseline": means[-1][1],
            "mean_gap": float(np.mean([sw - bl for sw, bl in means[:-1]])),
            "topped_up": topped_up}
