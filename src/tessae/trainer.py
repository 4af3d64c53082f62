"""Training: one loop that three modes share.  Tessellated training (plain
and with the shared-batch Taylor-correction regularizer) forms its batches
by least-cost assignment to the regions; the non-tessellated baseline forms
them by shuffling."""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .autoencoder import ESTIMATORS, AdamState, adam_step, encode, init_params, loss_and_grad
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
    if len(dataset) < config.chunk_size:
        raise ValueError(f"dataset of {len(dataset)} points is smaller than one chunk "
                         f"of {config.chunk_size}")
    tess = build_tessellation(config) if tess is None else tess
    if (tess.region_count, tess.dim, tess.kind) != (config.m, config.latent_dim,
                                                    config.tessellation_kind):
        raise ValueError("tessellation does not match config")
    if params is None:
        params = init_params(config.layer_sizes, config.latent_dim, config.seed)
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


def _loss(config, params, batch, prior, seed):
    return loss_and_grad(params, batch, prior, config.lam, config.estimator,
                         config.estimator_config, seed=seed)


def _tessellated_batches(config, tess, params, x_chunk, epoch, c):
    """Encode the chunk, solve the capacitated least-cost assignment to the
    generators, then yield (region, batch, prior, lcm_ms) per region in
    shuffled order, the prior drawn inside that region."""
    n = config.region_batch
    z = encode(params, x_chunk)
    t0 = time.perf_counter()
    plan = lcm_assign(z, tess.generators, n)
    lcm_ms = (time.perf_counter() - t0) * 1e3
    grouped = plan.grouped(x_chunk)
    order = derive_rng(config.seed, epoch, c, 0, _REGION_SHUFFLE).permutation(config.m)
    for step, k in enumerate(int(k) for k in order):
        prior = sample_region(tess, k, n, derive_rng(config.seed, epoch, c, step, _PRIOR))
        yield k, grouped[k], prior, lcm_ms


def _random_batches(config, tess, params, x_chunk, epoch, c):
    """Yield (step, batch, prior, 0.0) for m random batches of the chunk,
    the prior drawn from the whole ball."""
    n = config.region_batch
    perm = derive_rng(config.seed, epoch, c, 0, _BATCH_SHUFFLE).permutation(config.chunk_size)
    for step in range(config.m):
        # batch composition is random; index order is normalized so
        # that the m=1 case reduces bit-exactly to train_twae
        idx = np.sort(perm[step * n:(step + 1) * n])
        prior = sample_unit_ball(config.latent_dim, n,
                                 derive_rng(config.seed, epoch, c, step, _PRIOR))
        yield step, x_chunk[idx], prior, 0.0


def _train(config, dataset, tess, params, batches, alpha):
    """One Adam step per batch that batches(config, tess, params, x_chunk,
    epoch, chunk) yields for each chunk.  With alpha > 0 each step adds
    alpha * (grad of the previous step's whole-support batch at the current
    parameters minus its cached gradient at the previous parameters); the
    support batch, its prior sample and its projection seed are shared
    between the two evaluations."""
    tess, params, adam, n_chunks = _init(config, dataset, tess, params)
    n = config.region_batch
    log = MetricsLog()
    for epoch in range(config.epochs):
        for c in range(n_chunks):
            x_chunk = dataset.points[c * config.chunk_size:(c + 1) * config.chunk_size]
            cached = None  # (batch_x, prior, est_seed, gradient at previous params)
            for step, (label, batch, prior, lcm_ms) in enumerate(
                    batches(config, tess, params, x_chunk, epoch, c)):
                t1 = time.perf_counter()
                key = (config.seed, epoch, c, step)
                recon, latent, grads = _loss(config, params, batch, prior, derive_seed(*key, _EST))
                _check_finite(recon, latent, epoch, c, label)
                if alpha != 0.0:
                    if cached is not None:
                        s_batch, s_prior, s_seed, g_prev = cached
                        _, _, g_now = _loss(config, params, s_batch, s_prior, s_seed)
                        grads = grads + alpha * g_now + -alpha * g_prev
                    # cache the fresh support gradient at the pre-update params
                    s_idx = derive_rng(*key, _SUPPORT_IDX).choice(len(x_chunk), n, replace=False)
                    s_batch = x_chunk[np.sort(s_idx)]
                    s_prior = sample_unit_ball(config.latent_dim, n,
                                               derive_rng(*key, _SUPPORT_PRIOR))
                    s_seed = derive_seed(*key, _SUPPORT_EST)
                    _, _, g_support = _loss(config, params, s_batch, s_prior, s_seed)
                    cached = (s_batch, s_prior, s_seed, g_support)
                params, adam = adam_step(params, adam, grads)
                step_ms = (time.perf_counter() - t1) * 1e3
                log.add(epoch, c, label, recon, latent, lcm_ms, step_ms)
    return params, log


def train_twae(config, dataset, tess=None, params=None):
    """Tessellated training: per chunk, encode all points, solve the
    capacitated least-cost assignment to the generators, then take one
    Adam step per region against prior samples drawn inside that region.
    config.alpha is ignored."""
    return _train(config, dataset, tess, params, _tessellated_batches, alpha=0.0)


def train_twae_regularized(config, dataset, tess=None, params=None):
    """train_twae plus the non-identical-batch correction weighted by
    config.alpha (see _train)."""
    return _train(config, dataset, tess, params, _tessellated_batches, config.alpha)


def train_baseline(config, dataset, tess=None, params=None):
    """Non-tessellated control: same loss and optimizer, random batches of
    size chunk_size/m and prior samples from the whole ball.  The
    tessellation is only validated for config parity, never used."""
    return _train(config, dataset, tess, params, _random_batches, alpha=0.0)
