import hashlib
import warnings

import numpy as np
import pytest

from tessae.autoencoder import ForwardNumericalError, init_params
from tessae.data import gen_gaussian_ring
from tessae.tessellation import Tessellation, e8_tessellation
from tessae.trainer import (MetricsLog, TrainConfig, TrainingAborted,
                            _check_finite, build_tessellation, train_baseline,
                            train_twae, train_twae_regularized)


def params_equal(a, b):
    return all(np.array_equal(wa, wb) and np.array_equal(ba, bb)
               for sa, sb in ((a.encoder, b.encoder), (a.decoder, b.decoder))
               for (wa, ba), (wb, bb) in zip(sa, sb))


def small_config(**overrides):
    base = dict(m=4, chunk_size=40, epochs=2, latent_dim=2,
                layer_sizes=[2, 16], lam=1.0,
                estimator_config={"num_projections": 16}, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def ring():
    return gen_gaussian_ring(8, 2.0, 0.2, 200, seed=0)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(m=3)  # 40 not divisible by 3
    assert small_config().region_batch == 10


@pytest.mark.parametrize("value", [-1.0, float("nan")])
@pytest.mark.parametrize("name", ["lam", "alpha", "learning_rate"])
def test_negative_or_nan_value_rejected(name, value):
    # a negative lam ascends the latent discrepancy; zero stays legal
    with pytest.raises(ValueError, match=f"{name} must be >= 0, got {value}"):
        small_config(**{name: value})


@pytest.mark.parametrize("name", ["lam", "alpha", "learning_rate"])
def test_infinite_value_rejected(name):
    with pytest.raises(ValueError, match=f"{name} must be finite, got inf"):
        small_config(**{name: float("inf")})


def test_unknown_estimator_rejected_when_built():
    # before any tessellation is built, not at the first training step
    with pytest.raises(ValueError, match="estimator must be one of .* got 'FOO'"):
        small_config(estimator="FOO")


def test_unknown_tessellation_kind_rejected():
    # an unknown kind would otherwise train on a CVT
    with pytest.raises(ValueError, match="tessellation_kind must be CVT or E8, got 'XYZ'"):
        small_config(tessellation_kind="XYZ")


@pytest.mark.parametrize("key", ["ascent_iters", "num_projection"])
def test_estimator_config_unknown_key_rejected(key):
    # only num_projections is read; any other key would be ignored silently
    with pytest.raises(ValueError, match=f"'{key}'"):
        small_config(estimator_config={"num_projections": 16, key: 5})


def test_build_tessellation_e8_guard():
    # refused when the config is built, as an unknown estimator is
    for dims in ({}, {"latent_dim": 8, "m": 4}, {"m": 241, "chunk_size": 241}):
        with pytest.raises(ValueError, match="E8 tessellation needs latent_dim=8 and m=241"):
            small_config(tessellation_kind="E8", **dims)
    config = small_config(tessellation_kind="E8", latent_dim=8, m=241, chunk_size=241)
    assert build_tessellation(config).region_count == 241


def test_train_twae_deterministic(ring):
    cfg = small_config()
    p1, log1 = train_twae(cfg, ring)
    p2, log2 = train_twae(cfg, ring)
    assert params_equal(p1, p2)
    keys = ("epoch", "chunk", "region", "recon", "latent")
    assert [[r[k] for k in keys] for r in log1.records] == \
           [[r[k] for k in keys] for r in log2.records]


def test_log_schema_and_chunking(ring):
    cfg = small_config()
    _, log = train_twae(cfg, ring)
    n_chunks = len(ring) // cfg.chunk_size
    assert len(log.records) == cfg.epochs * n_chunks * cfg.m
    for epoch in range(cfg.epochs):
        for c in range(n_chunks):
            regions = sorted(r["region"] for r in log.records
                             if r["epoch"] == epoch and r["chunk"] == c)
            assert regions == list(range(cfg.m))


def test_metrics_csv(tmp_path, ring):
    _, log = train_twae(small_config(epochs=1), ring)
    path = tmp_path / "metrics.csv"
    log.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "epoch,chunk,region,recon,latent,lcm_ms,step_ms"
    assert len(log.epoch_means("recon")) == 1


def test_m1_twae_equals_baseline(ring):
    # five chunks of one step each: five-update trajectory equality
    cfg = small_config(m=1, chunk_size=40, epochs=1)
    tess = Tessellation(np.zeros((1, 2)))
    p_t, log_t = train_twae(cfg, ring, tess=tess)
    p_b, log_b = train_baseline(cfg, ring, tess=tess)
    assert len(log_t.records) == 5
    assert params_equal(p_t, p_b)
    assert [(r["recon"], r["latent"]) for r in log_t.records] == \
           [(r["recon"], r["latent"]) for r in log_b.records]


def test_alpha_zero_matches_plain(ring):
    cfg = small_config(alpha=0.0)
    p_plain, log_plain = train_twae(cfg, ring)
    p_reg, log_reg = train_twae_regularized(cfg, ring)
    assert params_equal(p_plain, p_reg)
    assert [r["latent"] for r in log_plain.records] == \
           [r["latent"] for r in log_reg.records]


# sha256 of the final parameters and the logged (recon, latent) series of
# each trainer x estimator on small_config.  Generated by running
# trajectory_digest at the commit before the three training loops were
# merged into one, so a refactor of the loop or the estimators that moves
# any bit fails here.  The bits depend on the numpy/BLAS build.
TRAJECTORY_DIGESTS = {
    ("train_twae", "SW"): "979af4fbf3907332c9680d024245254ee417ba4856bf767c4a42b0c72aa519fc",
    ("train_twae", "GSW"): "f60b2354a4e585fe38443554b4af67fc3c8cb6a2f8d2e0bc9ed2a0308f4d03cf",
    ("train_twae", "MAXSW"): "3ff1e1570f5c9c13efe928bd1bd6e9c201a515472d4db854ab6e10f42c4b4ed3",
    ("train_twae", "GW"): "9e9909d4ef44378c969e02a536605778fb46202a0012ba5b3390c3e288b887dd",
    ("train_twae_regularized", "SW"):
        "f9ea5fc43cdefa27d6a16fe5c6222fe867effa520fd869f33ae1320e5d23bdfd",
    ("train_twae_regularized", "GSW"):
        "d43525c71aaf9df70d2d3a85c9a41414103e137f03b794aae2bef385b11e7118",
    ("train_twae_regularized", "MAXSW"):
        "2e8c08cb5cc09219f0c6f44e2b647c9a727e4ac321612ecfbb07420f7c8362b0",
    ("train_twae_regularized", "GW"):
        "804943e0a88ae70319221dcdceee1a37e50bfc2223bd9a5fe57366c9e18dda20",
    ("train_baseline", "SW"): "044096a7989f3192fdc3c3d43871d44ea973d76b05de2b68bddb259052e8c179",
    ("train_baseline", "GSW"): "94ec6934f188d42156847844681dc92a91cf84910c639c2a0b4029e01698aa3a",
    ("train_baseline", "MAXSW"): "627e54d06e7564cffdfc7fcb373d5418a2d971fefffbc3b836f4c0878bc87987",
    ("train_baseline", "GW"): "70d37259b350156f256b5828553f0664756f0a4e2288bd37f888a2c0721b4683",
}


def trajectory_digest(params, log):
    h = hashlib.sha256()
    for stack in (params.encoder, params.decoder):
        for w, b in stack:
            h.update(np.ascontiguousarray(w, dtype="<f8").tobytes())
            h.update(np.ascontiguousarray(b, dtype="<f8").tobytes())
    h.update(np.array([(r["recon"], r["latent"]) for r in log.records],
                      dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("trainer, estimator", sorted(TRAJECTORY_DIGESTS))
def test_trajectory_pinned(ring, trainer, estimator):
    train = {"train_twae": train_twae, "train_twae_regularized": train_twae_regularized,
             "train_baseline": train_baseline}[trainer]
    params, log = train(small_config(estimator=estimator), ring)
    assert trajectory_digest(params, log) == TRAJECTORY_DIGESTS[trainer, estimator]


def test_zero_learning_rate_keeps_params(ring):
    cfg = small_config(learning_rate=0.0, alpha=0.2, epochs=1)
    init = init_params(cfg.layer_sizes, cfg.latent_dim, cfg.seed)
    p, _ = train_twae_regularized(cfg, ring)
    assert params_equal(p, init)


def test_regularized_deterministic(ring):
    cfg = small_config(alpha=0.2)
    p1, _ = train_twae_regularized(cfg, ring)
    p2, _ = train_twae_regularized(cfg, ring)
    assert params_equal(p1, p2)


def test_latent_loss_decreases(ring):
    cfg = small_config(epochs=10, learning_rate=3e-3)
    _, log = train_twae(cfg, ring)
    means = log.epoch_means("latent")
    assert means[-1] < means[0]


def test_dataset_too_small(ring):
    with pytest.raises(ValueError):
        train_twae(small_config(chunk_size=400, m=4), ring)


@pytest.mark.parametrize("trainer", [train_twae, train_twae_regularized, train_baseline])
def test_dropped_tail_warns(trainer):
    data = gen_gaussian_ring(8, 2.0, 0.2, 208, seed=0)  # 5 chunks of 40, 8 left over
    with pytest.warns(UserWarning, match="the last 8 points are never trained on") as record:
        _, log = trainer(small_config(epochs=1), data)
    assert len(record) == 1
    assert {r["chunk"] for r in log.records} == set(range(5))


def test_whole_chunks_do_not_warn(ring):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        train_twae(small_config(epochs=1), ring)


@pytest.mark.parametrize("trainer", [train_twae, train_twae_regularized, train_baseline])
def test_non_finite_point_stops_training_at_encoder_layer_0(ring, trainer):
    # the last point of the last chunk: no earlier step has a bad point
    data = ring.copy()
    data[199, 1] = np.nan
    with pytest.raises(ForwardNumericalError, match="^non-finite activation in encoder layer 0$"):
        trainer(small_config(epochs=1), data)


def test_tessellation_config_mismatch(ring):
    tess = Tessellation(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        train_twae(small_config(m=4), ring, tess=tess)


@pytest.mark.parametrize("config_kind", ["E8", "CVT"])
def test_tessellation_kind_must_match_config(config_kind):
    # 241 regions in 8 dimensions either way; only the kinds disagree.  The
    # E8 rows with 1..240 reversed are the E8 regions, but derive as CVT
    g = e8_tessellation().generators
    tess = Tessellation(np.vstack([g[:1], g[:0:-1]])) if config_kind == "E8" else e8_tessellation()
    config = small_config(tessellation_kind=config_kind, latent_dim=8, m=241, chunk_size=241)
    with pytest.raises(ValueError, match="tessellation does not match config"):
        train_twae(config, gen_gaussian_ring(8, 2.0, 0.2, 241, seed=0), tess=tess)


def test_check_finite_raises():
    with pytest.raises(TrainingAborted):
        _check_finite(float("nan"), 0.0, epoch=1, chunk=2, region=3)
    with pytest.raises(TrainingAborted):
        _check_finite(0.0, float("inf"), epoch=0, chunk=0, region=0)


def test_metrics_log_epoch_means():
    log = MetricsLog()
    log.add(0, 0, 0, 1.0, 2.0, 0.0, 0.0)
    log.add(0, 0, 1, 3.0, 4.0, 0.0, 0.0)
    log.add(1, 0, 0, 5.0, 6.0, 0.0, 0.0)
    assert log.epoch_means("recon") == [2.0, 5.0]
    assert log.epoch_means("latent") == [3.0, 6.0]
