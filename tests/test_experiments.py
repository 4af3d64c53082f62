import hashlib

import numpy as np
import pytest

import tessae.experiments
import tessae.tessellation
from tessae.autoencoder import ForwardNumericalError, init_params
from tessae.data import gen_gaussian_ring, gen_uniform_ball_dataset
from tessae.experiments import (eq19_check, gap_study, rate_study_sw,
                                theorem6_check, variance_check)
from tessae.tessellation import e8_tessellation, lloyd_cvt, sample_unit_ball


def test_eq19_m1_equality():
    res = eq19_check(32, 1, 3, trials=5, seed=0)
    assert res["passed"]
    assert np.all(np.abs(res["margins"]) <= 1e-12)


def test_eq19_singleton_regions():
    res = eq19_check(8, 8, 2, trials=10, seed=1)
    assert res["passed"]
    assert np.all(res["margins"] >= -1e-9)


def test_eq19_random_instances():
    res = eq19_check(128, 4, 2, trials=20, seed=2)
    assert res["violations"] == 0


def test_eq19_nan_margin_is_a_violation(monkeypatch):
    monkeypatch.setattr(tessae.experiments, "wasserstein_exact",
                        lambda a, b: (float("nan"), np.arange(len(a))))
    res = eq19_check(8, 2, 2, trials=3, seed=0)
    assert res["violations"] == 3 and not res["passed"]


def test_eq19_preconditions():
    with pytest.raises(ValueError):
        eq19_check(300, 2, 2, trials=1)
    with pytest.raises(ValueError):
        eq19_check(10, 3, 2, trials=1)


def test_eq19_csv(tmp_path):
    path = tmp_path / "eq19.csv"
    eq19_check(16, 2, 2, trials=3, seed=0, out_csv=str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "trial,margin" and len(lines) == 4


def test_theorem6_identical_sets_trivial():
    # identical sets have W2 = 0 and a positive bound
    res = theorem6_check([5], [2], trials=5, seed=0)
    assert res["passed"]


def test_theorem6_worst_factor():
    res = theorem6_check([5, 10], [2, 8], trials=20, seed=1)
    assert res["violations"] == 0
    assert res["instances"] == 2 * 2 * 20


def test_theorem6_precondition():
    with pytest.raises(ValueError):
        theorem6_check([4], [2], trials=1)


def test_variance_check_zero_step():
    res = variance_check(4, 16, trials=100, step_scale=0.0, seed=0)
    assert res["mean_shared"] <= 1e-12
    assert res["mean_independent"] > 1e-3


def test_variance_check_small_step_limit():
    res = variance_check(4, 16, trials=100, step_scale=1e-4, seed=1)
    assert res["mean_shared"] < 0.01 * res["mean_independent"]


def test_variance_check_default():
    res = variance_check(8, 32, trials=100, seed=2)
    assert res["mean_shared"] < res["mean_independent"]


def test_variance_check_precondition():
    with pytest.raises(ValueError):
        variance_check(4, 16, trials=50)


def test_rate_study_preconditions():
    with pytest.raises(ValueError):
        rate_study_sw(4, [64, 128], trials=5)
    with pytest.raises(ValueError):
        rate_study_sw(4, [16, 64], trials=20)


def test_rate_study_slope_stability(tmp_path):
    kwargs = dict(dim=16, n_grid=[64, 128, 256, 512, 1024],
                  num_projections=200, ref_n=50_000)
    r1a, r2a = rate_study_sw(trials=20, seed=0,
                             out_csv=str(tmp_path / "rates.csv"), **kwargs)
    r1b, r2b = rate_study_sw(trials=40, seed=0, **kwargs)
    assert abs(r1a.slope - r1b.slope) < 0.1
    assert abs(r2a.slope - r2b.slope) < 0.1
    assert (tmp_path / "rates_qn.csv").exists()
    assert (tmp_path / "rates_pnpn.csv").exists()
    assert r2a.slope < -0.5  # same-distribution statistic decays fast


def test_gap_study_untrained_vs_perfect(monkeypatch):
    tess, _ = lloyd_cvt(2, 4, seed=0)
    ds = gen_gaussian_ring(8, 2.0, 0.2, 200, seed=0)
    params = init_params([2, 16], 2, seed=0)
    untrained = gap_study(params, tess, ds, n=50, trials=4,
                          num_projections=128, seed=0)
    # a perfect-prior encoder stub: encoded points are prior samples
    monkeypatch.setattr(tessae.experiments, "encode",
                        lambda p, x: sample_unit_ball(2, len(x), seed=99))
    perfect = gap_study(params, tess, ds, n=50, trials=4,
                        num_projections=128, seed=0)
    for row in untrained["regions"]:
        assert row["sw2"] > 3 * row["baseline"]
    assert perfect["mean_gap"] < untrained["mean_gap"]
    mean_sw2 = np.mean([r["sw2"] for r in perfect["regions"]])
    mean_base = np.mean([r["baseline"] for r in perfect["regions"]])
    assert mean_sw2 < 2 * mean_base


def test_gap_study_counts_top_ups(monkeypatch):
    # a ten-point pool per trial leaves 2n*m - 10 prior points to sample_region
    ball = tessae.tessellation.sample_unit_ball
    monkeypatch.setattr(tessae.tessellation, "sample_unit_ball",
                        lambda dim, count, seed: ball(dim, 10 if count == 320 else count, seed))
    tess, _ = lloyd_cvt(2, 4, seed=0)
    res = gap_study(init_params([2, 8], 2, seed=0), tess,
                    gen_gaussian_ring(8, 2.0, 0.2, 100, seed=0), n=20, trials=3,
                    num_projections=16, seed=0)
    assert res["topped_up"] == 3 * (2 * 20 * 4 - 10)


def test_gap_study_needs_enough_data():
    tess, _ = lloyd_cvt(2, 4, seed=0)
    ds = gen_gaussian_ring(8, 2.0, 0.2, 100, seed=0)
    params = init_params([2, 8], 2, seed=0)
    with pytest.raises(ValueError):
        gap_study(params, tess, ds, n=50)


def test_gap_study_non_finite_point_is_a_forward_error():
    # row m*n - 1 is the last point the study encodes
    ds = gen_gaussian_ring(8, 2.0, 0.2, 100, seed=0)
    ds[79, 0] = np.nan
    with pytest.raises(ForwardNumericalError, match="^non-finite activation in encoder layer 0$"):
        gap_study(init_params([2, 8], 2, seed=0), lloyd_cvt(2, 4, seed=0)[0], ds, n=20)


def test_gap_study_csv(tmp_path):
    tess, _ = lloyd_cvt(2, 2, seed=0)
    ds = gen_gaussian_ring(8, 2.0, 0.2, 100, seed=0)
    params = init_params([2, 8], 2, seed=0)
    path = tmp_path / "gap.csv"
    gap_study(params, tess, ds, n=20, trials=2, num_projections=32,
              seed=0, out_csv=str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "region,sw2,baseline"
    assert lines[-1].startswith("global,")


def test_rate_study_writes_next_to_out_csv(tmp_path):
    # a ".csv" earlier in the path stays as it is
    (tmp_path / "runs.csv").mkdir()
    rate_study_sw(2, [32, 64], trials=20, num_projections=8, ref_n=256,
                  out_csv=str(tmp_path / "runs.csv" / "rates.csv"))
    assert sorted(p.name for p in (tmp_path / "runs.csv").iterdir()) == \
        ["rates_pnpn.csv", "rates_qn.csv"]


# sha256 of each harness's CSV bytes on small seeded runs
CSV_SHA256 = {
    "eq19.csv": "2821eb0ef6d786a7d5d5f87dc1b128f9e5d3e3fd182bd0e0bf215f1e60df15e7",
    "gap.csv": "3c4ff11a2a191b258c980d76b653c0c9864d38a29a8b0f1ef877d1b1f77e9bf9",
    "rates_pnpn.csv": "44d04a0d3fbef813559ae40ba6389bafb7728c9e884598616d39831886fff4cd",
    "rates_qn.csv": "e6615289293e7eb21cacf4e0c813ba2c10da71fedfedf7d6b73387440c57d57a",
    "theorem6.csv": "d7cc08151a433bd347e211542ce326247ccde8c63c92c7465ce43b3fa266ca5c",
    "variance.csv": "c016c7cea1a7f6c47ebd81b7d653de77c74002bd12c5da2e59550bf616ec1195",
}


def test_csv_bytes_pinned(tmp_path):
    eq19_check(16, 2, 2, trials=3, seed=0, out_csv=str(tmp_path / "eq19.csv"))
    theorem6_check([5, 6], [2, 3], trials=3, seed=0, out_csv=str(tmp_path / "theorem6.csv"))
    variance_check(4, 16, trials=100, seed=0, out_csv=str(tmp_path / "variance.csv"))
    gap_study(init_params([2, 8], 2, seed=0), lloyd_cvt(2, 2, seed=0)[0],
              gen_gaussian_ring(8, 2.0, 0.2, 100, seed=0), n=20, trials=2,
              num_projections=32, seed=0, out_csv=str(tmp_path / "gap.csv"))
    rate_study_sw(2, [32, 64], trials=20, num_projections=8, ref_n=256,
                  out_csv=str(tmp_path / "rates.csv"))
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == CSV_SHA256


def test_gap_study_pinned():
    # 8 trials: from 8 terms on, np.mean's unrolled pairwise order gives
    # other bits than a sequential sum; 2 trials (the CSV pin) cannot tell
    res = gap_study(init_params([2, 8], 2, seed=0), lloyd_cvt(2, 4, seed=0)[0],
                    gen_gaussian_ring(8, 2.0, 0.2, 100, seed=0), n=20, trials=8,
                    num_projections=64, seed=0)
    values = [v for r in res["regions"] for v in (r["sw2"], r["baseline"])]
    values += [res["global"], res["global_baseline"], res["mean_gap"]]
    assert hashlib.sha256(np.array(values, dtype="<f8").tobytes()).hexdigest() == \
        "ddf699d31084aada5d2dc91564699e2c6f8917b71588905b0cf958115f818849"


def test_gap_study_e8_pinned():
    # the d=2 pin above in 8 latent dimensions over the 241 E8 regions
    res = gap_study(init_params([16, 32], 8, seed=0), e8_tessellation(),
                    gen_uniform_ball_dataset(16, 482, seed=0), n=2, trials=8, seed=0)
    values = [v for r in res["regions"] for v in (r["sw2"], r["baseline"])]
    values += [res["global"], res["global_baseline"], res["mean_gap"]]
    assert hashlib.sha256(np.array(values, dtype="<f8").tobytes()).hexdigest() == \
        "b246e6acaf7a01ced5418372a8c2368365bbed7ebe1af09c6b4b73702aefb54e"
