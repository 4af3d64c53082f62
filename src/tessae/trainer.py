"""Training: one loop that three modes share.  Tessellated training (plain
and with the shared-batch Taylor-correction regularizer) forms its batches
by least-cost assignment to the regions; the non-tessellated baseline forms
them by shuffling."""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .autoencoder import (ESTIMATORS, NUMERIC_FAILURES, AdamState, adam_step, encode, init_params,
                          loss_and_grad, loss_and_grad_many)
from .batch_design import lcm_assign
from .data import write_csv
from .seeding import derive_rng, derive_seed
from .tessellation import CVT, E8, e8_tessellation, lloyd_cvt, sample_region, sample_unit_ball

# substream purposes
_PRIOR, _EST, _REGION_SHUFFLE, _BATCH_SHUFFLE = 0, 1, 2, 3
_SUPPORT_IDX, _SUPPORT_PRIOR, _SUPPORT_EST = 4, 5, 6


@dataclass
class TrainConfig:
    m: int
    chunk_size: int
    epochs: int
    latent_dim: int
    layer_sizes: list  # encoder widths from the data dim through the hiddens
    lam: float = 1.0
    alpha: float = 0.2
    estimator: str = "SW"
    estimator_config: dict = field(default_factory=dict)
    tessellation_kind: str = "CVT"
    seed: int = 0
    learning_rate: float = 1e-3

    def __post_init__(self):
        for name in ("m", "chunk_size", "epochs", "latent_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lam", "alpha", "learning_rate"):
            value = getattr(self, name)
            if not value >= 0:  # also rejects NaN
                raise ValueError(f"{name} must be >= 0, got {value}")
            if value == np.inf:
                raise ValueError(f"{name} must be finite, got {value}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        if self.tessellation_kind not in (CVT, E8):
            raise ValueError(f"tessellation_kind must be CVT or E8, got {self.tessellation_kind!r}")
        if self.tessellation_kind == E8 and (self.latent_dim, self.m) != (8, 241):
            raise ValueError("E8 tessellation needs latent_dim=8 and m=241")
        if self.chunk_size % self.m != 0:
            raise ValueError("chunk_size must be divisible by m")
        unknown = set(self.estimator_config) - {"num_projections"}
        if unknown:
            raise ValueError("estimator_config reads only 'num_projections', "
                             f"not {sorted(unknown, key=repr)}")
        value = self.estimator_config.get("num_projections", 1)
        if type(value) is not int or value < 1:
            raise ValueError(f"estimator_config['num_projections'] must be an int >= 1, "
                             f"got {value!r}")

    @property
    def region_batch(self):
        return self.chunk_size // self.m


@dataclass
class MetricsLog:
    records: list = field(default_factory=list)
    COLUMNS = ("epoch", "chunk", "region", "recon", "latent", "lcm_ms", "step_ms")

    def add(self, epoch, chunk, region, recon, latent, lcm_ms, step_ms):
        self.records.append(dict(zip(self.COLUMNS,
                                     (epoch, chunk, region, recon, latent, lcm_ms, step_ms))))

    def to_csv(self, path):
        write_csv(path, self.COLUMNS, [r.values() for r in self.records])

    def epoch_means(self, key):
        epochs = sorted({r["epoch"] for r in self.records})
        return [float(np.mean([r[key] for r in self.records if r["epoch"] == e]))
                for e in epochs]


class TrainingAborted(RuntimeError):
    """Non-finite loss; the message carries the training position."""


def build_tessellation(config):
    if config.tessellation_kind == E8:
        return e8_tessellation()
    tess, _ = lloyd_cvt(config.latent_dim, config.m, seed=config.seed)
    return tess


def _init(config, dataset, tess, params):
    if params is None:
        params = init_params(config.layer_sizes, config.latent_dim, config.seed)
    for part, have, want in (("layer_sizes", list(params.layer_sizes), list(config.layer_sizes)),
                             ("latent_dim", params.latent_dim, config.latent_dim)):
        if have != want:
            raise ValueError(f"params {part} {have} does not match config {part} {want}")
    if np.ndim(dataset) != 2 or dataset.shape[1] != params.layer_sizes[0]:
        raise ValueError(f"dataset shape {np.shape(dataset)} does not match config shape "
                         f"(N, {params.layer_sizes[0]})")
    if len(dataset) < config.chunk_size:
        raise ValueError(f"dataset of {len(dataset)} points is smaller than one chunk "
                         f"of {config.chunk_size}")
    tess = build_tessellation(config) if tess is None else tess
    if (tess.region_count, tess.dim, tess.kind) != (config.m, config.latent_dim,
                                                    config.tessellation_kind):
        raise ValueError("tessellation does not match config")
    adam = AdamState.init(params, lr=config.learning_rate)
    n_chunks, tail = divmod(len(dataset), config.chunk_size)
    if tail:
        warnings.warn(f"dataset of {len(dataset)} points is not a multiple of chunk_size "
                      f"{config.chunk_size}: the last {tail} points are never trained on",
                      stacklevel=4)  # the caller of the public trainer
    return tess, params, adam, n_chunks


def _check_finite(recon, latent, epoch, chunk, region):
    if not (np.isfinite(recon) and np.isfinite(latent)):
        raise TrainingAborted(
            f"non-finite loss at epoch {epoch} chunk {chunk} region {region}: "
            f"recon={recon} latent={latent}")


def _losses(config, params, batches, priors, seeds, rows, where):
    """The recon and latent loss of batch rows[0], checked finite, and the
    gradients (len(rows), P) of all rows at params, in one call.  Where a
    stack fails, rows[0] is checked first, as when each loss was its own
    call."""
    loss = config.lam, config.estimator, config.estimator_config
    if len(rows) == 1:
        (row,) = rows
        recon, latent, grad = loss_and_grad(params, batches[row], priors[row], *loss,
                                            seed=seeds[row])
        _check_finite(recon, latent, *where)
        return recon, latent, grad[None]
    try:
        recon, latent, grads = loss_and_grad_many(params, batches[rows], priors[rows], *loss,
                                                  [seeds[r] for r in rows])
    except NUMERIC_FAILURES:
        _losses(config, params, batches, priors, seeds, rows[:1], where)
        raise
    _check_finite(recon[0], latent[0], *where)
    return recon[0], latent[0], grads


def _tessellated_chunk(config, tess, params, x_chunk, key):
    """Encode the chunk, solve the capacitated least-cost assignment to the
    generators and shuffle the regions into step order: labels (m,), their
    batches (m, n, d) and priors (m, n, latent), estimator seeds, lcm_ms."""
    n = config.region_batch
    z = encode(params, x_chunk)
    t0 = time.perf_counter()
    plan = lcm_assign(z, tess.generators, n)
    lcm_ms = (time.perf_counter() - t0) * 1e3
    labels = derive_rng(*key, 0, _REGION_SHUFFLE).permutation(config.m)
    priors = np.stack([sample_region(tess, k, n, derive_rng(*key, step, _PRIOR))
                       for step, k in enumerate(labels.tolist())])
    return (labels, plan.grouped(x_chunk)[labels], priors,
            [derive_seed(*key, step, _EST) for step in range(config.m)], lcm_ms)


def _random_chunk(config, tess, params, x_chunk, key):
    """_tessellated_chunk's arrays for m random batches of the chunk,
    labelled by step, the priors drawn from the whole ball; lcm_ms is 0."""
    m, n = config.m, config.region_batch
    perm = derive_rng(*key, 0, _BATCH_SHUFFLE).permutation(config.chunk_size)
    # sorted rows: at m=1 the batch is train_twae's, bit for bit
    batches = x_chunk[np.sort(perm.reshape(m, n), axis=1)]
    priors = [sample_unit_ball(config.latent_dim, n, derive_rng(*key, s, _PRIOR)) for s in range(m)]
    seeds = [derive_seed(*key, s, _EST) for s in range(m)]
    return np.arange(m), batches, np.stack(priors), seeds, 0.0


def _support_chunk(config, x_chunk, key, steps):
    """The regularizer's whole-support batches (steps, n, d), priors
    (steps, n, latent) and seeds; reshape gives zero steps empty arrays."""
    n = config.region_batch
    idx = np.array([derive_rng(*key, s, _SUPPORT_IDX).choice(len(x_chunk), n, replace=False)
                    for s in range(steps)], dtype=np.intp).reshape(steps, n)
    priors = np.array([sample_unit_ball(config.latent_dim, n, derive_rng(*key, s, _SUPPORT_PRIOR))
                       for s in range(steps)]).reshape(steps, n, config.latent_dim)
    seeds = [derive_seed(*key, s, _SUPPORT_EST) for s in range(steps)]
    return x_chunk[np.sort(idx, axis=1)], priors, seeds


def _train(config, dataset, tess, params, form_chunk, alpha):
    """One Adam step per batch of the arrays that form_chunk(config, tess,
    params, x_chunk, (seed, epoch, chunk)) returns.  With alpha > 0 each step
    after the first adds alpha * (grad of the previous step's whole-support
    batch at the current parameters minus its gradient at the previous
    parameters); the two share the support batch, prior and projection seed."""
    tess, params, adam, n_chunks = _init(config, dataset, tess, params)
    log = MetricsLog()
    for epoch in range(config.epochs):
        for c in range(n_chunks):
            x_chunk = dataset[c * config.chunk_size:(c + 1) * config.chunk_size]
            key = (config.seed, epoch, c)
            labels, batches, priors, seeds, lcm_ms = form_chunk(config, tess, params, x_chunk, key)
            supported = config.m - 1 if alpha != 0.0 else 0  # no step uses the last's support
            s_batches, s_priors, s_seeds = _support_chunk(config, x_chunk, key, supported)
            # support batch s is row m + s
            batches = np.concatenate([batches, s_batches])
            priors = np.concatenate([priors, s_priors])
            seeds = [*seeds, *s_seeds]
            for step, label in enumerate(labels.tolist()):
                t1 = time.perf_counter()
                # the region batch, then the support batches of the previous
                # step (g_now) and of this one (the next step's g_prev)
                rows = [step] + [config.m + s for s in (step - 1, step) if 0 <= s < supported]
                recon, latent, grads = _losses(config, params, batches, priors, seeds, rows,
                                               (epoch, c, label))
                update = grads[0]
                if 0 < step <= supported:
                    update = grads[0] + alpha * grads[1] + -alpha * g_prev
                if step < supported:  # this step's support at the pre-update params
                    g_prev = grads[-1]
                params, adam = adam_step(params, adam, update)
                log.add(epoch, c, label, recon, latent, lcm_ms, (time.perf_counter() - t1) * 1e3)
    return params, log


def train_twae(config, dataset, tess=None, params=None):
    """Tessellated training: per chunk, encode all points, solve the
    capacitated least-cost assignment to the generators, then take one
    Adam step per region against prior samples drawn inside that region.
    config.alpha is ignored."""
    return _train(config, dataset, tess, params, _tessellated_chunk, alpha=0.0)


def train_twae_regularized(config, dataset, tess=None, params=None):
    """train_twae plus the non-identical-batch correction weighted by
    config.alpha (see _train)."""
    return _train(config, dataset, tess, params, _tessellated_chunk, config.alpha)


def train_baseline(config, dataset, tess=None, params=None):
    """Non-tessellated control: same loss and optimizer, random batches of
    size chunk_size/m and prior samples from the whole ball.  The
    tessellation is only validated for config parity, never used."""
    return _train(config, dataset, tess, params, _random_chunk, alpha=0.0)
