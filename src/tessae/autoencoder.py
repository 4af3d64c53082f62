"""Hand-rolled fully-connected auto-encoder: forward/backward passes,
composite reconstruction + latent-discrepancy loss, and Adam."""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import discrepancy as dsc
from .seeding import as_rng


class ForwardNumericalError(RuntimeError):
    """Non-finite activation; carries the offending layer index."""

    def __init__(self, stack, layer):
        super().__init__(f"non-finite activation in {stack} layer {layer}")
        self.stack = stack
        self.layer = layer


@dataclass
class AutoEncoderParams:
    encoder: list  # [(W, b), ...], W is (fan_in, fan_out)
    decoder: list
    latent_dim: int
    layer_sizes: list

    def copy(self):
        return AutoEncoderParams(
            encoder=[(w.copy(), b.copy()) for w, b in self.encoder],
            decoder=[(w.copy(), b.copy()) for w, b in self.decoder],
            latent_dim=self.latent_dim,
            layer_sizes=list(self.layer_sizes))


def init_params(layer_sizes, latent_dim, seed):
    """He-initialized encoder layer_sizes -> latent_dim and mirrored decoder.

    layer_sizes lists the encoder widths from the data dimension through
    the hidden layers; e.g. ([2, 4], 2) builds a 2-4-2 encoder and a
    2-4-2 decoder.  Weights ~ N(0, 2/fan_in), biases zero.
    """
    if not layer_sizes or latent_dim < 1:
        raise ValueError("layer_sizes nonempty and latent_dim >= 1 required")
    rng = as_rng(seed)
    enc_dims = list(layer_sizes) + [latent_dim]
    dec_dims = enc_dims[::-1]

    def build(dims):
        layers = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
            layers.append((w, np.zeros(fan_out)))
        return layers

    return AutoEncoderParams(encoder=build(enc_dims), decoder=build(dec_dims),
                             latent_dim=latent_dim, layer_sizes=list(layer_sizes))


def _forward(layers, x, stack):
    acts = [np.asarray(x, dtype=float)]
    pres = []
    last = len(layers) - 1
    for idx, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        if not np.all(np.isfinite(z)):
            raise ForwardNumericalError(stack, idx)
        pres.append(z)
        acts.append(z if idx == last else np.maximum(z, 0.0))
    return acts, pres


def _backward(layers, acts, pres, dout):
    """dout is dL/d(output); returns (per-layer grads, dL/d(input))."""
    grads = [None] * len(layers)
    delta = dout
    last = len(layers) - 1
    for idx in range(last, -1, -1):
        w, _ = layers[idx]
        dz = delta if idx == last else delta * (pres[idx] > 0)
        grads[idx] = (acts[idx].T @ dz, dz.sum(axis=0))
        delta = dz @ w.T
    return grads, delta


def encode(params, x):
    return _forward(params.encoder, x, "encoder")[0][-1]


def decode(params, z):
    return _forward(params.decoder, z, "decoder")[0][-1]


def _latent_value_and_grad(z, prior, estimator, cfg, seed):
    cfg = cfg or {}
    if estimator == "SW":
        # two calls, not one fused call: the traced benchmark times the
        # training-time SW work through discrepancy.sw2 and sw2_gradient
        L = cfg.get("num_projections", 1000)
        est, grad = dsc.sw2(z, prior, L, seed), dsc.sw2_gradient(z, prior, L, seed)
    elif estimator == "GW":
        est, grad = dsc.gw2(z, prior), dsc.gw2_gradient(z, prior)
    elif estimator == "MAXSW":
        est, direction = dsc.max_sw2(z, prior,
                                     cfg.get("ascent_iters", 10),
                                     cfg.get("step_size", 0.1), seed)
        grad = dsc.maxsw2_gradient(z, prior, direction)
    elif estimator == "GSW":
        est, grad = dsc.gsw2_value_and_grad(z, prior, cfg.get("num_projections", 1000),
                                            cfg.get("pivot_radius"), seed)
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return est.value, grad


def loss_and_grad(params, batch_x, prior_batch, lam, estimator="SW",
                  estimator_config=None, seed=0):
    """Composite loss on one batch.

    loss = (1/n) sum ||x - dec(enc(x))||^2
           + lam * estimator^2(enc(batch_x), prior_batch)

    Returns (recon_loss, latent_loss, grads) with grads shaped like the
    parameters ({"encoder": [...], "decoder": [...]}).
    """
    batch_x = np.asarray(batch_x, dtype=float)
    prior_batch = np.asarray(prior_batch, dtype=float)
    if len(batch_x) != len(prior_batch):
        raise ValueError("batch and prior batch sizes differ")
    n = len(batch_x)

    enc_acts, enc_pres = _forward(params.encoder, batch_x, "encoder")
    z = enc_acts[-1]
    if lam != 0.0:
        latent, dz_latent = _latent_value_and_grad(z, prior_batch, estimator,
                                                   estimator_config, seed)
    else:
        latent, dz_latent = 0.0, np.zeros_like(z)
    dec_acts, dec_pres = _forward(params.decoder, z, "decoder")
    xhat = dec_acts[-1]
    recon = float(((batch_x - xhat) ** 2).sum() / n)
    dxhat = (2.0 / n) * (xhat - batch_x)
    dec_grads, dz_recon = _backward(params.decoder, dec_acts, dec_pres, dxhat)
    enc_grads, _ = _backward(params.encoder, enc_acts, enc_pres,
                             dz_recon + lam * dz_latent)
    return recon, latent, {"encoder": enc_grads, "decoder": dec_grads}


@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        zeros = lambda layers: [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
        return cls(m={"encoder": zeros(params.encoder), "decoder": zeros(params.decoder)},
                   v={"encoder": zeros(params.encoder), "decoder": zeros(params.decoder)},
                   lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(params, state, grads):
    """One Adam update with bias correction; returns (params, state)."""
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    scale = state.lr * np.sqrt(1.0 - b2 ** t) / (1.0 - b1 ** t)
    new = {"encoder": [], "decoder": []}
    for stack in ("encoder", "decoder"):
        layers = getattr(params, stack)
        for idx, (w, b) in enumerate(layers):
            updated = []
            for arr, g, slot in ((w, grads[stack][idx][0], 0), (b, grads[stack][idx][1], 1)):
                m = state.m[stack][idx][slot]
                v = state.v[stack][idx][slot]
                m[...] = b1 * m + (1 - b1) * g
                v[...] = b2 * v + (1 - b2) * g * g
                updated.append(arr - scale * m / (np.sqrt(v) + state.eps))
            new[stack].append((updated[0], updated[1]))
    out = AutoEncoderParams(encoder=new["encoder"], decoder=new["decoder"],
                            latent_dim=params.latent_dim,
                            layer_sizes=list(params.layer_sizes))
    return out, state


def _param_arrays(params):
    for stack in (params.encoder, params.decoder):
        for w, b in stack:
            yield w
            yield b


def _replace_atomically(path, data, mode):
    """Write data to a temp file next to path, then rename it over path, so
    a reader sees the old file or the new one, never a partial one."""
    tmp = f"{path}.tmp"
    with open(tmp, mode) as fh:
        fh.write(data)
    os.replace(tmp, path)


def save_checkpoint(params, path_prefix, seed=0, step=0):
    """Manifest JSON plus a little-endian float64 blob of all arrays in
    manifest order (encoder W,b pairs then decoder W,b pairs).  Each file
    is replaced atomically, the blob first."""
    manifest = {"layer_sizes": list(params.layer_sizes),
                "latent_dim": params.latent_dim, "seed": seed, "step": step}
    blob = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes()
                    for arr in _param_arrays(params))
    _replace_atomically(f"{path_prefix}.bin", blob, "wb")
    _replace_atomically(f"{path_prefix}.json", json.dumps(manifest), "w")


def load_checkpoint(path_prefix):
    with open(f"{path_prefix}.json") as fh:
        manifest = json.load(fh)
    params = init_params(manifest["layer_sizes"], manifest["latent_dim"], seed=0)
    blob = np.fromfile(f"{path_prefix}.bin", dtype="<f8")
    offset = 0
    for stack in (params.encoder, params.decoder):
        for idx, (w, b) in enumerate(stack):
            if blob.size - offset < w.size + b.size:
                raise ValueError(f"checkpoint blob has {blob.size} values; the layer "
                                 f"of shape {w.shape} needs {offset + w.size + b.size}")
            w_new = blob[offset:offset + w.size].reshape(w.shape).copy()
            offset += w.size
            b_new = blob[offset:offset + b.size].copy()
            offset += b.size
            stack[idx] = (w_new, b_new)
    if offset != blob.size:
        raise ValueError("checkpoint blob size does not match manifest")
    return params, manifest
