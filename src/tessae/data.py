"""Datasets and the CSV writer of every artifact.  A dataset is a
C-contiguous (N, d) float64 array of points: the 2-D Gaussian ring, the
uniform ball, or the images of a bit-exact IDX parser."""

import csv
import struct

import numpy as np

from .tessellation import sample_unit_ball

IDX_IMAGES_MAGIC = 0x00000803


class IdxError(ValueError):
    pass


class WrongMagicError(IdxError):
    pass


class TruncatedPayloadError(IdxError):
    pass


def gen_gaussian_ring(modes, radius, sigma, count, seed):
    """(count, 2) points of an equal-weight mixture of `modes` isotropic 2-D
    Gaussians centered on a ring of the given radius."""
    for name, value in (("radius", radius), ("sigma", sigma)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * rng.integers(modes, size=count) / modes  # each point's mode
    centers = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    return centers + sigma * rng.standard_normal((count, 2))


def gen_uniform_ball_dataset(dim, count, seed):
    return sample_unit_ball(dim, count, seed)


def load_idx(path):
    """Parse a big-endian IDX file of u8 images (magic 0x803, dims [count,
    rows, cols]): (count, rows*cols) points, each image flattened row-major
    and scaled to [0, 1]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise TruncatedPayloadError(f"{path}: truncated header")
    magic, count, rows, cols = struct.unpack(">4i", raw[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise WrongMagicError(f"{path}: magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
    expected, payload = count * rows * cols, raw[16:]
    if len(payload) < expected:
        raise TruncatedPayloadError(f"{path}: expected {expected} pixels, found {len(payload)}")
    pixels = np.frombuffer(payload[:expected], dtype=np.uint8)
    return pixels.reshape(count, rows * cols).astype(float) / 255.0


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
