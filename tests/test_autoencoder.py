import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tessae import discrepancy
from tessae.autoencoder import (ESTIMATORS, AdamState, AutoEncoderParams,
                                ForwardNumericalError, adam_step, decode,
                                encode, init_params, load_checkpoint,
                                loss_and_grad, loss_and_grad_many, save_checkpoint)


def params_equal(a, b):
    return all(np.array_equal(wa, wb) and np.array_equal(ba, bb)
               for sa, sb in ((a.encoder, b.encoder), (a.decoder, b.decoder))
               for (wa, ba), (wb, bb) in zip(sa, sb))


def identity_params(dim):
    p = init_params([dim], dim, seed=0)
    for w, b in (p.encoder[0], p.decoder[0]):
        w[...] = np.eye(dim)
        b[...] = 0.0
    return p


def total_loss(params, x, prior, lam, seed):
    r, l, _ = loss_and_grad(params, x, prior, lam, "SW",
                            {"num_projections": 32},
                            seed=np.random.SeedSequence(seed))
    return r + lam * l


def test_init_deterministic():
    assert params_equal(init_params([4, 8], 2, seed=3), init_params([4, 8], 2, seed=3))


def test_init_he_variance():
    p = init_params([256, 256], 8, seed=0)
    w = p.encoder[0][0]
    assert abs(w.var() - 2.0 / 256) < 0.2 * (2.0 / 256)
    assert np.all(p.encoder[0][1] == 0.0)


def test_init_guards():
    with pytest.raises(ValueError):
        init_params([], 2, seed=0)
    with pytest.raises(ValueError):
        init_params([4], 0, seed=0)


def test_zero_input_follows_bias_path():
    p = init_params([3, 5], 2, seed=1)  # zero biases
    out = decode(p, encode(p, np.zeros((4, 3))))
    assert np.array_equal(out, np.zeros((4, 3)))


def test_identity_layer_is_identity():
    p = identity_params(3)
    x = np.random.default_rng(2).standard_normal((6, 3))
    assert np.allclose(encode(p, x), x)
    assert np.allclose(decode(p, encode(p, x)), x)
    assert np.array_equal(encode(p.copy(), x), x)


def test_forward_shapes_and_order():
    p = init_params([2, 7], 3, seed=4)
    x = np.random.default_rng(4).standard_normal((5, 2))
    xhat = decode(p, encode(p, x))
    assert xhat.shape == (5, 2) and np.all(np.isfinite(xhat))
    one_by_one = np.vstack([decode(p, encode(p, row[None, :])) for row in x])
    assert np.allclose(xhat, one_by_one)


def test_forward_numerical_error():
    p = init_params([2, 4], 2, seed=0)
    with np.errstate(over="ignore"), pytest.raises(ForwardNumericalError) as err:
        encode(p, np.full((2, 2), 1e308))
    assert err.value.stack == "encoder"


def test_recon_only_gradient_matches_fd():
    p = init_params([2, 4], 2, seed=5)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((8, 2))
    prior = rng.standard_normal((8, 2)) * 0.3
    _, _, grad = loss_and_grad(p, x, prior, 0.0)
    eps = 1e-6
    for i in range(p.flat.size):
        pp, pm = p.copy(), p.copy()
        pp.flat[i] += eps
        pm.flat[i] -= eps
        fd = (total_loss(pp, x, prior, 0.0, 9)
              - total_loss(pm, x, prior, 0.0, 9)) / (2 * eps)
        assert abs(grad[i] - fd) <= 1e-4 * max(1.0, abs(fd))


def test_full_loss_gradient_matches_fd():
    # seed chosen away from ReLU/sort kinks where finite differences break
    p = init_params([2, 4], 2, seed=7)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((8, 2))
    prior = rng.standard_normal((8, 2)) * 0.3
    _, _, grad = loss_and_grad(p, x, prior, 1.0, "SW", {"num_projections": 32},
                               seed=np.random.SeedSequence(9))
    eps = 1e-6
    for i in range(p.flat.size):
        pp, pm = p.copy(), p.copy()
        pp.flat[i] += eps
        pm.flat[i] -= eps
        fd = (total_loss(pp, x, prior, 1.0, 9)
              - total_loss(pm, x, prior, 1.0, 9)) / (2 * eps)
        assert abs(grad[i] - fd) <= 1e-3 * max(1.0, abs(fd))


def test_perfect_autoencoder_zero_losses():
    p = identity_params(2)
    batch = np.random.default_rng(7).standard_normal((10, 2)) * 0.3
    recon, latent, _ = loss_and_grad(p, batch, batch, 1.0, "SW",
                                     {"num_projections": 16}, seed=0)
    assert recon <= 1e-24 and latent <= 1e-24


def test_loss_estimator_dispatch():
    p = init_params([2, 4], 2, seed=8)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((12, 2))
    prior = rng.standard_normal((12, 2)) * 0.3
    for estimator in ("SW", "GW", "MAXSW", "GSW"):
        recon, latent, grad = loss_and_grad(p, x, prior, 0.5, estimator,
                                            {"num_projections": 8}, seed=1)
        assert recon >= 0 and latent >= 0
        assert np.all(np.isfinite(grad))
    with pytest.raises(ValueError):
        loss_and_grad(p, x, prior, 0.5, "NOPE")


# sha256 of the little-endian gradient on the dispatch test's net and batch,
# generated from the nested per-layer gradient flattened in checkpoint order
GRAD_SHA256 = {
    "SW": "7d34881a7cda3930a3471c06df1edb703dfd6073a687ab094e128910a0e8541a",
    "GW": "e032490c0509a20e8bde068305c4678b7a67eefcd41b7c46f6999d2fdb92abdc",
    "MAXSW": "d8b4c8b310980e83f7aa29cba65e1f03d8168742c4f4482776670d078de04a3e",
    "GSW": "f1d9d0391dbdc23421e4ec3249d94a60c82dee7487aec72b4fe604bc4cd6253f",
}


@pytest.mark.parametrize("estimator", sorted(GRAD_SHA256))
def test_gradient_vector_pinned(estimator):
    p = init_params([2, 4], 2, seed=8)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((12, 2))
    prior = rng.standard_normal((12, 2)) * 0.3
    _, _, grad = loss_and_grad(p, x, prior, 0.5, estimator,
                               {"num_projections": 8}, seed=1)
    assert grad.shape == p.flat.shape and grad.dtype == np.float64
    assert hashlib.sha256(grad.astype("<f8").tobytes()).hexdigest() == GRAD_SHA256[estimator]


@pytest.mark.parametrize("estimator, helper, calls", [
    ("MAXSW", "_matched_1d", 11),  # ASCENT_ITERS + 1 directions, none re-matched
    ("GW", "_moments", 2),  # one per point set
    ("SW", "directions", 1),
    ("SW", "_matched_diffs", 1),
    ("GSW", "directions", 1),
])
def test_latent_estimator_is_one_evaluation(monkeypatch, estimator, helper, calls):
    original, seen = getattr(discrepancy, helper), []

    def counted(*args):
        seen.append(helper)
        return original(*args)

    monkeypatch.setattr(discrepancy, helper, counted)
    p = init_params([2, 4], 2, seed=8)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((12, 2))
    loss_and_grad(p, x, rng.standard_normal((12, 2)) * 0.3, 0.5, estimator, seed=1)
    assert len(seen) == calls


def test_adam_zero_gradient():
    p = init_params([2, 3], 2, seed=9)
    state = AdamState.init(p)
    new_p, state = adam_step(p, state, np.zeros_like(p.flat))
    assert params_equal(new_p, p)
    assert state.step == 1


def test_adam_constant_gradient_step_size():
    p = init_params([1], 1, seed=10)
    state = AdamState.init(p, lr=1e-3)
    g = np.array([2.5, 0.7, 2.5, 0.7])
    prev = p.encoder[0][0][0, 0]
    for _ in range(500):
        p, state = adam_step(p, state, g)
    step = prev - 1e-3 * 500  # update magnitude tends to lr for constant g
    assert abs(p.encoder[0][0][0, 0] - step) < 0.05


def test_overfit_tiny_batch():
    p = init_params([2, 16], 2, seed=11)
    state = AdamState.init(p, lr=1e-2)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((8, 2))
    prior = rng.standard_normal((8, 2)) * 0.3
    first = None
    for _ in range(100):
        recon, _, grads = loss_and_grad(p, x, prior, 0.0)
        if first is None:
            first = recon
        p, state = adam_step(p, state, grads)
    assert recon <= 0.5 * first


def test_checkpoint_roundtrip(tmp_path):
    p = init_params([3, 5], 2, seed=12)
    prefix = str(tmp_path / "ckpt")
    save_checkpoint(p, prefix, seed=12, step=7)
    loaded, manifest = load_checkpoint(prefix)
    assert params_equal(loaded, p)
    assert manifest == {"layer_sizes": [3, 5], "latent_dim": 2,
                        "seed": 12, "step": 7}


def test_checkpoint_write_leaves_no_temp_files(tmp_path):
    prefix = str(tmp_path / "ckpt")
    save_checkpoint(init_params([3, 5], 2, seed=12), prefix)
    save_checkpoint(init_params([3, 5], 2, seed=13), prefix)  # replaces both
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin", "ckpt.json"]
    loaded, _ = load_checkpoint(prefix)
    assert params_equal(loaded, init_params([3, 5], 2, seed=13))


def test_checkpoint_truncated_blob(tmp_path):
    p = init_params([3, 5], 2, seed=13)
    prefix = str(tmp_path / "ckpt")
    save_checkpoint(p, prefix)
    with open(prefix + ".bin", "r+b") as fh:
        fh.truncate(8 * 20)  # into the second encoder layer
    with pytest.raises(ValueError, match="blob has 20 values"):
        load_checkpoint(prefix)


@pytest.mark.parametrize("layer_sizes", [[3, 6], [3, 4], [4, 5]])
def test_checkpoint_manifest_layer_mismatch(tmp_path, layer_sizes):
    p = init_params([3, 5], 2, seed=13)
    prefix = str(tmp_path / "ckpt")
    save_checkpoint(p, prefix)
    with open(prefix + ".json") as fh:
        manifest = json.load(fh)
    manifest["layer_sizes"] = layer_sizes
    with open(prefix + ".json", "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ValueError, match="checkpoint blob"):
        load_checkpoint(prefix)


def test_checkpoint_blob_mismatch(tmp_path):
    p = init_params([3, 5], 2, seed=13)
    prefix = str(tmp_path / "ckpt")
    save_checkpoint(p, prefix)
    with open(prefix + ".bin", "ab") as fh:
        fh.write(b"\x00" * 8)
    with pytest.raises(ValueError):
        load_checkpoint(prefix)


def test_checkpoint_blob_pinned(tmp_path):
    # generated by the per-layer writer that preceded the flat vector, so
    # checkpoints written before it still load
    prefix = str(tmp_path / "ckpt")
    save_checkpoint(init_params([3, 5], 2, seed=12), prefix)
    digest = hashlib.sha256(Path(prefix + ".bin").read_bytes()).hexdigest()
    assert digest == "e3a0a705d4ee56d5df82bc68b01ab59b9a758a3d873659a0b275dcae80d46781"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=3), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_checkpoint_roundtrip_any_shape(layer_sizes, latent_dim, seed):
    p = init_params(layer_sizes, latent_dim, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        prefix = str(Path(tmp) / "ckpt")
        save_checkpoint(p, prefix)
        loaded, manifest = load_checkpoint(prefix)
    assert loaded.flat.tobytes() == p.flat.tobytes()
    assert (manifest["layer_sizes"], manifest["latent_dim"]) == (layer_sizes, latent_dim)
    for (w, b), (lw, lb) in zip(p.encoder + p.decoder, loaded.encoder + loaded.decoder):
        assert lw.shape == w.shape and lw.tobytes() == w.tobytes()
        assert lb.shape == b.shape and lb.tobytes() == b.tobytes()
        assert np.shares_memory(lw, loaded.flat) and np.shares_memory(lb, loaded.flat)


def test_views_write_through_and_copy_rebinds():
    p = init_params([3, 5], 2, seed=12)
    p.encoder[1][0][0, 0] = 7.0  # first value of the second encoder W
    assert p.flat[3 * 5 + 5] == 7.0
    p.decoder[-1][1][:] = 1.0  # the last bias ends the vector
    assert np.all(p.flat[-3:] == 1.0)
    q = p.copy()
    q.decoder[0][0][...] = 0.0
    assert np.all(p.decoder[0][0] != 0.0)
    for w, b in q.encoder + q.decoder:
        assert np.shares_memory(w, q.flat) and not np.shares_memory(w, p.flat)
        assert np.shares_memory(b, q.flat) and not np.shares_memory(b, p.flat)
    assert q.flat.tobytes() != p.flat.tobytes()


@pytest.mark.parametrize("flat", [np.zeros(64), np.zeros(66), np.zeros((65, 1))])
def test_wrong_size_vector_rejected(flat):
    assert AutoEncoderParams(np.zeros(65), 2, [3, 5]).flat.shape == (65,)
    with pytest.raises(ValueError, match="parameter vector"):
        AutoEncoderParams(flat, 2, [3, 5])


def test_adam_moments_are_flat():
    p = init_params([2, 3], 2, seed=9)
    state = AdamState.init(p)
    _, _, grads = loss_and_grad(p, np.ones((4, 2)), np.zeros((4, 2)), 0.0)
    new_p, state = adam_step(p, state, grads)
    assert state.m.shape == state.v.shape == p.flat.shape
    assert not np.shares_memory(new_p.flat, p.flat)


def test_checkpoint_manifest_without_layers_rejected(tmp_path):
    prefix = str(tmp_path / "ckpt")
    save_checkpoint(init_params([3], 2, seed=0), prefix)
    with open(prefix + ".json") as fh:
        manifest = json.load(fh)
    manifest["layer_sizes"] = []
    with open(prefix + ".json", "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ValueError, match="layer_sizes nonempty"):
        load_checkpoint(prefix)


def adam_expression_form(flat, m, v, grad, t, lr):
    """One Adam step written as whole-array expressions."""
    scale = lr * np.sqrt(1.0 - 0.999 ** t) / (1.0 - 0.9 ** t)
    m = 0.9 * m + (1 - 0.9) * grad
    v = 0.999 * v + (1 - 0.999) * grad * grad
    return flat - scale * m / (np.sqrt(v) + 1e-8), m, v


@pytest.mark.parametrize("lr", [1e-2, 0.0])
def test_adam_in_place_matches_expression_form(lr):
    p = init_params([3, 5], 2, seed=4)
    state = AdamState.init(p, lr=lr)
    flat, m, v = p.flat.copy(), np.zeros_like(p.flat), np.zeros_like(p.flat)
    rng = np.random.default_rng(4)
    for t in range(1, 51):
        grad = rng.standard_normal(p.flat.shape) * 10.0 ** rng.integers(-6, 3)
        grad[::7] = 0.0
        p, state = adam_step(p, state, grad)
        flat, m, v = adam_expression_form(flat, m, v, grad, t, lr)
        assert p.flat.tobytes() == flat.tobytes()
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()


def test_loss_and_grad_returns_a_fresh_vector():
    p = init_params([2, 4], 2, seed=8)
    rng = np.random.default_rng(8)
    x, prior = rng.standard_normal((12, 2)), rng.standard_normal((12, 2)) * 0.3
    _, _, g1 = loss_and_grad(p, x, prior, 0.5, "SW", {"num_projections": 8}, seed=1)
    _, _, g2 = loss_and_grad(p, x, prior, 0.5, "SW", {"num_projections": 8}, seed=1)
    assert g1.tobytes() == g2.tobytes()
    assert not np.shares_memory(g1, g2)
    assert not np.shares_memory(g1, p.flat) and not np.shares_memory(g2, p.flat)


@pytest.mark.parametrize("k", [3, 10])
@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_stack_equals_one_call_per_batch(estimator, k):
    # criterion-11 widths; 10 x 1000 projected values pass numpy's 8192-value
    # reduction buffer
    p = init_params([2, 64, 64], 2, seed=k)
    rng = np.random.default_rng(k)
    batches, priors = rng.standard_normal((k, 10, 2)), 0.3 * rng.standard_normal((k, 10, 2))
    seeds = rng.integers(0, 2**32, k).tolist()
    config = {"num_projections": 1000}
    recon, latent, grads = loss_and_grad_many(p, batches, priors, 0.5, estimator, config, seeds)
    assert recon.shape == latent.shape == (k,) and grads.shape == (k, p.flat.size)
    for i in range(k):
        r, l, g = loss_and_grad(p, batches[i], priors[i], 0.5, estimator, config, seed=seeds[i])
        assert np.float64(r).tobytes() == recon[i].tobytes()
        assert np.float64(l).tobytes() == latent[i].tobytes()
        assert g.tobytes() == grads[i].tobytes()


def _first_error(p, batches, priors):
    for x, prior in zip(batches, priors):
        try:
            loss_and_grad(p, x, prior, 1.0, "SW", {"num_projections": 16})
        except ForwardNumericalError as err:
            return err.stack, err.layer
    return None


@pytest.mark.parametrize("poison, expected", [
    ("nan-in-slice-2", ("encoder", 0)),
    ("-inf-hidden", ("encoder", 0)),
    ("decoder-before-encoder", ("decoder", 0)),
], ids=["nan-in-slice-2", "-inf-hidden", "decoder-before-encoder"])
def test_stack_raises_the_first_failing_batchs_error(poison, expected):
    p = init_params([2, 16], 2, seed=0)
    rng = np.random.default_rng(0)
    batches, priors = rng.standard_normal((4, 10, 2)), rng.standard_normal((4, 10, 2))
    if poison == "nan-in-slice-2":
        batches[2, 5, 1] = np.nan
    elif poison == "-inf-hidden":
        # one hidden pre-activation of slice 1 is -inf; its ReLU output, and
        # so everything after it, stays finite
        batches[1, 3] = 1e300, 0.0
        p.encoder[0][0][0, 7] = -1e10
    else:
        # slice 1 overflows in the decoder before slice 2 meets its NaN
        p.decoder[0][0][...] *= 1e10
        batches[1, 3] = 1e300, 0.0
        batches[2, 5, 1] = np.nan
    with np.errstate(all="ignore"):
        assert _first_error(p, batches, priors) == expected
        with pytest.raises(ForwardNumericalError) as err:
            loss_and_grad_many(p, batches, priors, 1.0, "SW", {"num_projections": 16},
                               [0, 1, 2, 3])
    assert (err.value.stack, err.value.layer) == expected
