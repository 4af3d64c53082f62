"""Hand-rolled fully-connected auto-encoder: forward/backward passes,
composite reconstruction + latent-discrepancy loss, and Adam."""

import functools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import discrepancy as dsc


class ForwardNumericalError(RuntimeError):
    """Non-finite activation; carries the offending layer index."""

    def __init__(self, stack, layer):
        super().__init__(f"non-finite activation in {stack} layer {layer}")
        self.stack = stack
        self.layer = layer


# what a loss raises on a non-finite value: ForwardNumericalError and
# discrepancy.NumericalFailure, FloatingPointError under np.errstate(...="raise")
# and RuntimeWarning under a warnings "error" filter
NUMERIC_FAILURES = (RuntimeError, ArithmeticError, RuntimeWarning)


@functools.lru_cache(maxsize=None)
def _layer_shapes(layer_sizes, latent_dim):
    """For the layer_sizes tuple: ((fan_in, fan_out), W offset, b offset,
    b end) of every layer in the flat order, encoder then mirrored decoder,
    and the number of values they hold."""
    if not layer_sizes or min(layer_sizes) < 1 or latent_dim < 1:
        raise ValueError(f"layer_sizes nonempty with widths >= 1 and latent_dim >= 1 required, "
                         f"got {list(layer_sizes)} and {latent_dim}")
    dims = list(layer_sizes) + [latent_dim]
    dims += dims[-2::-1]
    layout, end = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        start, end = end, end + fan_in * fan_out + fan_out
        layout.append(((fan_in, fan_out), start, end - fan_out, end))
    return tuple(layout), end


@dataclass
class AutoEncoderParams:
    """All parameters in one float64 vector: encoder W,b pairs, then
    decoder W,b pairs, W of shape (fan_in, fan_out).  encoder and decoder
    list (W, b) views into flat; write through them in place, since a list
    entry replaced by a new array is no longer part of flat."""
    flat: np.ndarray
    latent_dim: int
    layer_sizes: list
    encoder: list = field(init=False, repr=False)
    decoder: list = field(init=False, repr=False)

    def __post_init__(self):
        self.flat = np.asarray(self.flat, dtype=np.float64)
        layout, size = _layer_shapes(tuple(self.layer_sizes), self.latent_dim)
        if self.flat.shape != (size,):
            raise ValueError(f"parameter vector of shape {self.flat.shape}; "
                             f"the layers need ({size},)")
        flat = self.flat
        layers = [(flat[w:b].reshape(shape), flat[b:end]) for shape, w, b, end in layout]
        self.encoder, self.decoder = layers[:len(layers) // 2], layers[len(layers) // 2:]

    def copy(self):
        return AutoEncoderParams(self.flat.copy(), self.latent_dim, list(self.layer_sizes))


def init_params(layer_sizes, latent_dim, seed):
    """He-initialized encoder layer_sizes -> latent_dim and mirrored decoder.

    layer_sizes lists the encoder widths from the data dimension through
    the hidden layers; e.g. ([2, 4], 2) builds a 2-4-2 encoder and a
    2-4-2 decoder.  Weights ~ N(0, 2/fan_in), biases zero.
    """
    rng = np.random.default_rng(seed)
    params = AutoEncoderParams(np.zeros(_layer_shapes(tuple(layer_sizes), latent_dim)[1]),
                               latent_dim, list(layer_sizes))
    for w, _ in params.encoder + params.decoder:
        w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])
    return params


def _forward(layers, x, stack):
    """The input and every layer's output, ReLU on all but the last."""
    acts = [np.asarray(x, dtype=float)]
    last = len(layers) - 1
    for idx, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        if not np.isfinite(z).all():
            raise ForwardNumericalError(stack, idx)
        acts.append(z if idx == last else np.maximum(z, 0.0))
    return acts


def _backward(layers, acts, dout, grads):
    """dout is dL/d(output) of a (k, n, .) stack; writes each layer's
    (dW, db), summed per slice, into the (k, ., .) and (k, .) views of grads
    and returns dL/d(first layer's pre-activation).  A hidden output is
    positive exactly where its finite pre-activation is."""
    dz = dout
    for idx in range(len(layers) - 1, -1, -1):
        gw, gb = grads[idx]
        np.matmul(acts[idx].transpose(0, 2, 1), dz, out=gw)
        dz.sum(axis=1, out=gb)
        if idx:
            dz = (dz @ layers[idx][0].T) * (acts[idx] > 0)
    return dz


def encode(params, x):
    return _forward(params.encoder, x, "encoder")[-1]


def decode(params, z):
    return _forward(params.decoder, z, "decoder")[-1]


ESTIMATORS = ("SW", "GW", "MAXSW", "GSW")  # the latent discrepancies loss_and_grad knows


def _latent_values_and_grads(z, prior, estimator, num_projections, seeds):
    """Values (k,) and gradients (k, n, latent) of the stacked latent sets:
    SW in one stacked call, the others one slice at a time."""
    if estimator == "SW":
        return dsc.sw2(z, prior, num_projections, seeds)
    if estimator == "GW":
        pairs = [dsc.gw2_value_and_grad(a, b) for a, b in zip(z, prior)]
    elif estimator == "MAXSW":
        pairs = [dsc.max_sw2(a, b, seed=s)[::2]  # (value, gradient)
                 for a, b, s in zip(z, prior, seeds)]
    elif estimator == "GSW":
        pairs = [dsc.gsw2_value_and_grad(a, b, num_projections, seed=s)
                 for a, b, s in zip(z, prior, seeds)]
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return np.array([v for v, _ in pairs]), np.array([g for _, g in pairs])


def loss_and_grad_many(params, batches, priors, lam, estimator, estimator_config, seeds):
    """loss_and_grad of k batches (k, n, d) against their priors
    (k, n, latent) and estimator seeds, at the same params, in one pass:
    returns recon (k,), latent (k,) and grads (k, P), each slice bit-equal
    to its own loss_and_grad.  Where a stack fails, its slices are re-run
    one at a time, so the error raised is the first failing slice's, as k
    calls would raise it."""
    batches = np.asarray(batches, dtype=float)
    priors = np.asarray(priors, dtype=float)
    if batches.shape[:2] != priors.shape[:2]:
        raise ValueError("batch and prior batch sizes differ")
    try:
        return _stacked_loss(params, batches, priors, lam, estimator, estimator_config, seeds)
    except NUMERIC_FAILURES:
        if len(batches) == 1:
            raise
        parts = [_stacked_loss(params, batches[i:i + 1], priors[i:i + 1], lam, estimator,
                               estimator_config, seeds[i:i + 1]) for i in range(len(batches))]
        return tuple(np.concatenate(part) for part in zip(*parts))


def _stacked_loss(params, batches, priors, lam, estimator, estimator_config, seeds):
    """loss_and_grad_many of checked stacks; each reduction runs per slice,
    along one axis."""
    k, n = batches.shape[:2]
    enc_acts = _forward(params.encoder, batches, "encoder")
    z = enc_acts[-1]
    if lam != 0.0:
        num_projections = (estimator_config or {}).get("num_projections", 1000)
        latent, dz_latent = _latent_values_and_grads(z, priors, estimator,
                                                     num_projections, seeds)
    else:
        latent, dz_latent = np.zeros(k), np.zeros_like(z)
    dec_acts = _forward(params.decoder, z, "decoder")
    xhat = dec_acts[-1]
    recon = ((batches - xhat) ** 2).reshape(k, -1).sum(axis=1) / n
    dxhat = (2.0 / n) * (xhat - batches)
    # each layer's gradient goes straight into its views of one (k, P)
    # array, new per call because the regularized trainer keeps a gradient
    # across steps
    grads = np.empty((k, params.flat.size))
    layout, _ = _layer_shapes(tuple(params.layer_sizes), params.latent_dim)
    views = [(grads[:, w:b].reshape(k, *shape), grads[:, b:end]) for shape, w, b, end in layout]
    half = len(views) // 2
    dz_recon = _backward(params.decoder, dec_acts, dxhat, views[half:]) @ params.decoder[0][0].T
    _backward(params.encoder, enc_acts, dz_recon + lam * dz_latent, views[:half])
    return recon, latent, grads


def loss_and_grad(params, batch_x, prior_batch, lam, estimator="SW",
                  estimator_config=None, seed=0):
    """Composite loss on one batch, loss_and_grad_many of a stack of one.

    loss = (1/n) sum ||x - dec(enc(x))||^2
           + lam * estimator^2(enc(batch_x), prior_batch)

    Returns (recon_loss, latent_loss, grad), grad a new float64 vector laid
    out like params.flat.
    """
    recon, latent, grads = loss_and_grad_many(
        params, np.asarray(batch_x, dtype=float)[None], np.asarray(prior_batch, dtype=float)[None],
        lam, estimator, estimator_config, [seed])
    return float(recon[0]), float(latent[0]), grads[0]


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and floor


@dataclass
class AdamState:
    m: np.ndarray  # first and second moments, shaped like params.flat
    v: np.ndarray
    step: int = 0
    lr: float = 1e-3

    @classmethod
    def init(cls, params, lr=1e-3):
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), lr=lr)


def adam_step(params, state, grad):
    """One Adam update with bias correction on a gradient vector laid out
    like params.flat; returns (new params, state).  The moments are updated
    in place; the new params hold a new vector."""
    state.step += 1
    t = state.step
    scale = state.lr * np.sqrt(1.0 - _BETA2 ** t) / (1.0 - _BETA1 ** t)
    m, v = state.m, state.v
    # m = b1 m + (1 - b1) g and v = b2 v + ((1 - b2) g) g, in that rounding order
    tmp = np.multiply(1 - _BETA1, grad)
    m *= _BETA1
    m += tmp
    np.multiply(1 - _BETA2, grad, out=tmp)
    tmp *= grad
    v *= _BETA2
    v += tmp
    # flat - (scale m) / (sqrt(v) + eps)
    np.multiply(scale, m, out=tmp)
    flat = np.sqrt(v)
    flat += _EPS
    tmp /= flat
    np.subtract(params.flat, tmp, out=flat)
    return AutoEncoderParams(flat, params.latent_dim, list(params.layer_sizes)), state


def _replace_atomically(path, data, mode):
    """Write data to a temp file next to path, then rename it over path, so
    a reader sees the old file or the new one, never a partial one."""
    tmp = f"{path}.tmp"
    with open(tmp, mode) as fh:
        fh.write(data)
    os.replace(tmp, path)


def save_checkpoint(params, path_prefix, seed=0, step=0):
    """Manifest JSON plus params.flat as a little-endian float64 blob
    (encoder W,b pairs then decoder W,b pairs).  Each file is replaced
    atomically, the blob first."""
    manifest = {"layer_sizes": list(params.layer_sizes),
                "latent_dim": params.latent_dim, "seed": seed, "step": step}
    _replace_atomically(f"{path_prefix}.bin", params.flat.astype("<f8").tobytes(), "wb")
    _replace_atomically(f"{path_prefix}.json", json.dumps(manifest), "w")


def load_checkpoint(path_prefix):
    where = f"checkpoint manifest {path_prefix}.json"
    with open(f"{path_prefix}.json", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as err:  # not UTF-8 or not JSON
            raise ValueError(f"{where}: {err}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{where} is not a JSON object")
    for key in ("layer_sizes", "latent_dim"):
        if key not in manifest:
            raise ValueError(f"{where} has no {key!r}")
    layer_sizes, latent_dim = manifest["layer_sizes"], manifest["latent_dim"]
    if not (isinstance(layer_sizes, list) and all(type(k) is int and k > 0 for k in layer_sizes)):
        raise ValueError(f"{where}: 'layer_sizes' must list positive ints, got {layer_sizes!r}")
    if type(latent_dim) is not int:
        raise ValueError(f"{where}: 'latent_dim' must be an int, got {latent_dim!r}")
    blob = np.fromfile(f"{path_prefix}.bin", dtype="<f8")
    size = _layer_shapes(tuple(layer_sizes), latent_dim)[1]
    if blob.size != size:
        raise ValueError(f"{path_prefix}.bin: checkpoint blob has {blob.size} values; "
                         f"layer_sizes {layer_sizes} and latent_dim {latent_dim} need {size}")
    return AutoEncoderParams(blob, latent_dim, layer_sizes), manifest
