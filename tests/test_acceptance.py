"""Acceptance gate: twelve end-to-end checks at their stated tolerances.

Each test prints one PASS line on success (run with -s or read the -v
report); failures carry the measured values in the assertion message.
"""

import time

import numpy as np

from tessae.autoencoder import init_params, loss_and_grad
from tessae.batch_design import lcm_assign, optimal_assign
from tessae.data import gen_gaussian_ring
from tessae.discrepancy import (gw2, gw2_value_and_grad, sw2, sw2_gradient,
                                w2_1d_sorted, wasserstein_exact)
from tessae.experiments import (eq19_check, gap_study, rate_study_sw,
                                theorem6_check, variance_check)
from tessae.tessellation import (Tessellation, e8_roots, e8_tessellation,
                                 lloyd_cvt, regions_of, sample_unit_ball)
from tessae.trainer import (TrainConfig, train_baseline, train_twae,
                            train_twae_regularized)


def report(line):
    print(f"PASS {line}")


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 33))
        a = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
        b = rng.standard_normal(n) + rng.uniform(-2, 2)
        exact = wasserstein_exact(a[:, None], b[:, None])[0]
        worst = max(worst, abs(w2_1d_sorted(a, b) - exact))
    assert worst <= 1e-12, f"max |sorted - exact| = {worst:.3e}"
    report(f"criterion 1: sorted 1-D W2 == exact solver on 200 instances "
           f"(max diff {worst:.2e})")


def test_criterion_02_region_inequality():
    total = 0
    for m in (2, 4, 8):
        for dim in (2, 8):
            res = eq19_check(128, m, dim, trials=100, seed=200 + m)
            total += res["violations"]
            assert res["violations"] == 0, f"m={m} dim={dim}: {res['violations']}"
    report("criterion 2: global W2 <= mean per-region W2, 600 instances, "
           "0 violations")


def test_criterion_03_trace_bound():
    res = theorem6_check([5, 10, 50], [2, 8], trials=84, seed=300)
    assert res["instances"] >= 500
    assert res["violations"] == 0, f"{res['violations']} violations"
    report(f"criterion 3: trace bound holds on {res['instances']} instances")


def test_criterion_04_convergence_rates():
    r1, r2 = rate_study_sw(64, [64, 128, 256, 512, 1024, 2048, 4096],
                           trials=20, seed=400)
    assert -0.7 <= r1.slope <= -0.3, f"stat1 slope {r1.slope:.3f}"
    assert -1.25 <= r2.slope <= -0.75, f"stat2 slope {r2.slope:.3f}"
    report(f"criterion 4: rate slopes {r1.slope:.3f} in [-0.7,-0.3] and "
           f"{r2.slope:.3f} in [-1.25,-0.75]")


def test_criterion_05_shared_batch_variance():
    wins = 0
    for rep in range(20):
        res = variance_check(8, 32, trials=100, seed=rep)
        wins += res["mean_shared"] < res["mean_independent"]
    assert wins >= 19, f"shared batch won only {wins}/20 repetitions"
    report(f"criterion 5: shared-batch error below independent in {wins}/20 "
           "repetitions")


def test_criterion_06_cvt():
    _, stats = lloyd_cvt(2, 16, seed=600)
    e = stats["energies"]
    assert all(e[i + 1] <= e[i] * 1.01 for i in range(len(e) - 1)), \
        "energy increased beyond 1% MC tolerance"
    tess, _ = lloyd_cvt(1, 2, mc_samples_per_iter=20_000, seed=600)
    gens = np.sort(tess.generators.ravel())
    assert np.allclose(gens, [-0.5, 0.5], atol=0.02), f"generators {gens}"
    report(f"criterion 6: Lloyd energy monotone over {len(e)} iterations; "
           f"1-D generators {gens.round(4)}")


def test_criterion_07_e8():
    roots = e8_roots()
    integer = np.all(roots == np.round(roots), axis=1)
    assert roots.shape == (240, 8)
    assert integer.sum() == 112 and (~integer).sum() == 128
    assert np.allclose((roots ** 2).sum(axis=1), 2.0)
    tess = e8_tessellation()
    audit = sample_unit_ball(8, 1_000_000, seed=123)
    fracs = np.bincount(regions_of(tess, audit), minlength=241) / 1_000_000
    rel = np.abs(fracs - 1 / 241) * 241
    assert rel.max() <= 0.05, f"max volume-fraction deviation {rel.max():.4f}"
    report(f"criterion 7: 240 roots (112/128), all 241 volume fractions "
           f"within 5% of 1/241 (max dev {rel.max():.3f})")


def test_criterion_08_assignment():
    rng = np.random.default_rng(800)
    for _ in range(200):
        m = int(rng.integers(2, 9))
        cap = int(rng.integers(1, 64 // m + 1))
        z = rng.standard_normal((m * cap, 2))
        g = rng.standard_normal((m, 2)) * 0.5
        lcm = lcm_assign(z, g, cap)
        opt = optimal_assign(z, g, cap)
        assert np.all(np.bincount(lcm.assignment, minlength=m) == cap)
        assert opt.cost <= lcm.cost + 1e-9
    big_z = rng.standard_normal((20_000, 64))
    big_g = rng.standard_normal((400, 64)) * 0.1
    t0 = time.perf_counter()
    plan = lcm_assign(big_z, big_g, 50)
    elapsed = time.perf_counter() - t0
    assert np.all(np.bincount(plan.assignment, minlength=400) == 50)
    report(f"criterion 8: greedy plans feasible, optimal dominates on 200 "
           f"instances; N=20000 m=400 d=64 in {elapsed:.2f}s")


def fd_gradient(fn, a, eps=1e-6):
    g = np.zeros_like(a)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            ap, am = a.copy(), a.copy()
            ap[i, j] += eps
            am[i, j] -= eps
            g[i, j] = (fn(ap) - fn(am)) / (2 * eps)
    return g


def test_criterion_09_gradients():
    worst_sw = worst_gw = 0.0
    for s in range(20):
        rng = np.random.default_rng(900 + s)
        a = rng.standard_normal((8, 4))
        b = rng.standard_normal((8, 4)) * rng.uniform(0.5, 1.5)
        g = sw2_gradient(a, b, 32, seed=s)
        fd = fd_gradient(lambda x: sw2(x, b, 32, seed=s)[0], a)
        worst_sw = max(worst_sw, np.abs(g - fd).max() / np.abs(fd).max())
        a16 = rng.standard_normal((16, 4))
        b16 = rng.standard_normal((16, 4)) * 1.3 + 0.2
        g = gw2_value_and_grad(a16, b16)[1]
        fd = fd_gradient(lambda x: gw2(x, b16), a16)
        worst_gw = max(worst_gw, np.abs(g - fd).max() / np.abs(fd).max())
    assert worst_sw <= 1e-4, f"sw2 gradient rel err {worst_sw:.2e}"
    assert worst_gw <= 1e-3, f"gw2 gradient rel err {worst_gw:.2e}"

    # seeds chosen away from ReLU/sort kinks where finite differences break
    params = init_params([2, 4], 2, seed=905)
    rng = np.random.default_rng(906)
    x = rng.standard_normal((8, 2))
    prior = rng.standard_normal((8, 2)) * 0.3

    def loss(p):
        r, l, _ = loss_and_grad(p, x, prior, 1.0, "SW", {"num_projections": 32},
                                seed=np.random.SeedSequence(907))
        return r + l

    _, _, grad = loss_and_grad(params, x, prior, 1.0, "SW",
                               {"num_projections": 32},
                               seed=np.random.SeedSequence(907))
    worst_net = 0.0
    eps = 1e-6
    for i in range(params.flat.size):
        pp, pm = params.copy(), params.copy()
        pp.flat[i] += eps
        pm.flat[i] -= eps
        fd = (loss(pp) - loss(pm)) / (2 * eps)
        worst_net = max(worst_net, abs(grad[i] - fd) / max(1.0, abs(fd)))
    assert worst_net <= 1e-3, f"network gradient rel err {worst_net:.2e}"
    report(f"criterion 9: gradient rel errs sw2 {worst_sw:.1e}, "
           f"gw2 {worst_gw:.1e}, full net {worst_net:.1e}")


def test_criterion_10_gw_closed_form():
    rng = np.random.default_rng(1000)
    # samples with exactly prescribed mean and diagonal covariance
    def make(mean, diag, n):
        d = len(diag)
        x = rng.standard_normal((n, d))
        x -= x.mean(axis=0)
        chol = np.linalg.cholesky(np.cov(x.T))
        return x @ np.linalg.inv(chol).T * np.sqrt(diag) + mean

    m1, m2 = np.array([0.1, -0.2, 0.3]), np.array([1.0, 0.0, -0.5])
    d1, d2 = np.array([1.0, 2.0, 0.5]), np.array([0.3, 1.5, 2.5])
    a, b = make(m1, d1, 200), make(m2, d2, 200)
    expected = ((m1 - m2) ** 2).sum() + ((np.sqrt(d1) - np.sqrt(d2)) ** 2).sum()
    diag_err = abs(gw2(a, b) - expected)
    zero = gw2(a, a)
    assert diag_err <= 1e-10, f"diagonal analytic error {diag_err:.2e}"
    assert zero <= 1e-10, f"identical-set value {zero:.2e}"
    report(f"criterion 10: GW diagonal analytic err {diag_err:.1e}, "
           f"identical-set value {zero:.1e}")


def test_criterion_11_end_to_end_trend():
    t0 = time.perf_counter()
    twae_wins = reg_wins = 0
    for seed in range(10):
        ds = gen_gaussian_ring(8, 2.0, 0.2, 2000, seed=seed + 1000)
        cfg = TrainConfig(m=20, chunk_size=200, epochs=30, latent_dim=2,
                          layer_sizes=[2, 64, 64], lam=4.0, alpha=0.2,
                          estimator_config={"num_projections": 64}, seed=seed,
                          learning_rate=1e-3)
        tess, _ = lloyd_cvt(2, 20, seed=seed)
        gaps = {}
        for name, trainer in (("twae", train_twae),
                              ("reg", train_twae_regularized),
                              ("base", train_baseline)):
            params, _ = trainer(cfg, ds, tess=tess)
            gaps[name] = gap_study(params, tess, ds, n=50, trials=8,
                                   num_projections=256, seed=seed)["mean_gap"]
        twae_wins += gaps["twae"] < gaps["base"]
        reg_wins += gaps["reg"] < gaps["twae"]
    elapsed = time.perf_counter() - t0
    assert twae_wins >= 7, f"tessellated beat baseline only {twae_wins}/10"
    assert reg_wins >= 6, f"regularized beat plain only {reg_wins}/10"
    assert elapsed < 30 * 60
    report(f"criterion 11: tessellated < baseline gap {twae_wins}/10, "
           f"regularized < plain {reg_wins}/10 ({elapsed / 60:.1f} min)")


def test_criterion_12_single_region_degeneration():
    ds = gen_gaussian_ring(8, 2.0, 0.2, 200, seed=0)
    cfg = TrainConfig(m=1, chunk_size=40, epochs=1, latent_dim=2,
                      layer_sizes=[2, 16], lam=1.0,
                      estimator_config={"num_projections": 32}, seed=0)
    tess = Tessellation(np.zeros((1, 2)))
    p_t, log_t = train_twae(cfg, ds, tess=tess)
    p_b, log_b = train_baseline(cfg, ds, tess=tess)
    assert len(log_t.records) == 5
    same = all(np.array_equal(wa, wb) and np.array_equal(ba, bb)
               for sa, sb in ((p_t.encoder, p_b.encoder),
                              (p_t.decoder, p_b.decoder))
               for (wa, ba), (wb, bb) in zip(sa, sb))
    assert same, "parameter trajectories diverged"
    assert [(r["recon"], r["latent"]) for r in log_t.records] == \
           [(r["recon"], r["latent"]) for r in log_b.records]
    report("criterion 12: m=1 tessellated trajectory bit-equal to baseline "
           "over 5 steps")
