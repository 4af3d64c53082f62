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
    """dout is dL/d(output); writes each layer's (dW, db) into the (W, b)
    views of grads and returns dL/d(first layer's pre-activation).  A hidden
    output is positive exactly where its finite pre-activation is."""
    dz = dout
    for idx in range(len(layers) - 1, -1, -1):
        gw, gb = grads[idx]
        np.matmul(acts[idx].T, dz, out=gw)
        dz.sum(axis=0, out=gb)
        if idx:
            dz = (dz @ layers[idx][0].T) * (acts[idx] > 0)
    return dz


def encode(params, x):
    return _forward(params.encoder, x, "encoder")[-1]


def decode(params, z):
    return _forward(params.decoder, z, "decoder")[-1]


ESTIMATORS = ("SW", "GW", "MAXSW", "GSW")  # the latent discrepancies loss_and_grad knows


def _latent_value_and_grad(z, prior, estimator, num_projections, seed):
    if estimator == "SW":
        return dsc.sw2(z, prior, num_projections, seed)
    if estimator == "GW":
        return dsc.gw2_value_and_grad(z, prior)
    if estimator == "MAXSW":
        value, _, grad = dsc.max_sw2(z, prior, seed=seed)
        return value, grad
    if estimator == "GSW":
        return dsc.gsw2_value_and_grad(z, prior, num_projections, seed=seed)
    raise ValueError(f"unknown estimator {estimator!r}")


def loss_and_grad(params, batch_x, prior_batch, lam, estimator="SW",
                  estimator_config=None, seed=0):
    """Composite loss on one batch.

    loss = (1/n) sum ||x - dec(enc(x))||^2
           + lam * estimator^2(enc(batch_x), prior_batch)

    Returns (recon_loss, latent_loss, grad), grad a new float64 vector laid
    out like params.flat.
    """
    batch_x = np.asarray(batch_x, dtype=float)
    prior_batch = np.asarray(prior_batch, dtype=float)
    if len(batch_x) != len(prior_batch):
        raise ValueError("batch and prior batch sizes differ")
    n = len(batch_x)

    enc_acts = _forward(params.encoder, batch_x, "encoder")
    z = enc_acts[-1]
    if lam != 0.0:
        num_projections = (estimator_config or {}).get("num_projections", 1000)
        latent, dz_latent = _latent_value_and_grad(z, prior_batch, estimator,
                                                   num_projections, seed)
    else:
        latent, dz_latent = 0.0, np.zeros_like(z)
    dec_acts = _forward(params.decoder, z, "decoder")
    xhat = dec_acts[-1]
    recon = float(((batch_x - xhat) ** 2).sum() / n)
    dxhat = (2.0 / n) * (xhat - batch_x)
    # each layer's gradient goes straight into its views of one vector, new
    # per call because the regularized trainer keeps a gradient across steps
    grad = AutoEncoderParams(np.empty_like(params.flat), params.latent_dim, params.layer_sizes)
    dz_recon = _backward(params.decoder, dec_acts, dxhat, grad.decoder) @ params.decoder[0][0].T
    _backward(params.encoder, enc_acts, dz_recon + lam * dz_latent, grad.encoder)
    return recon, latent, grad.flat


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
