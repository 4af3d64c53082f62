"""Datasets: synthetic 2-D/ball generators, a bit-exact IDX parser, and the
CSV writer of every artifact."""

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .tessellation import sample_unit_ball

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxError(ValueError):
    pass


class WrongMagicError(IdxError):
    pass


class TruncatedPayloadError(IdxError):
    pass


class CountMismatchError(IdxError):
    pass


@dataclass
class Dataset:
    points: np.ndarray  # (N, d)
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)
            if len(self.labels) != len(self.points):
                raise ValueError("label count does not match point count")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("non-finite features")

    def __len__(self):
        return len(self.points)

    @property
    def dim(self):
        return self.points.shape[1]


def gen_gaussian_ring(modes, radius, sigma, count, seed):
    """Equal-weight mixture of `modes` isotropic 2-D Gaussians centered on
    a ring of the given radius; labels carry the mode index."""
    for name, value in (("radius", radius), ("sigma", sigma)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    rng = np.random.default_rng(seed)
    labels = rng.integers(modes, size=count)
    angles = 2.0 * np.pi * labels / modes
    centers = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    points = centers + sigma * rng.standard_normal((count, 2))
    return Dataset(points=points, labels=labels)


def gen_uniform_ball_dataset(dim, count, seed):
    return Dataset(points=sample_unit_ball(dim, count, seed))


def _read_idx_header(raw, path, expected_magic, ndims):
    if len(raw) < 4 * (1 + ndims):
        raise TruncatedPayloadError(f"{path}: truncated header")
    magic = struct.unpack(">i", raw[:4])[0]
    if magic != expected_magic:
        raise WrongMagicError(f"{path}: magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    dims = struct.unpack(f">{ndims}i", raw[4:4 + 4 * ndims])
    return dims, raw[4 + 4 * ndims:]


def load_idx(path_images, path_labels=None):
    """Parse big-endian IDX files: u8 images (magic 0x803, dims
    [count, rows, cols]) flattened row-major and scaled to [0,1], plus
    optional u8 labels (magic 0x801)."""
    with open(path_images, "rb") as fh:
        raw = fh.read()
    (count, rows, cols), payload = _read_idx_header(raw, path_images,
                                                    IDX_IMAGES_MAGIC, 3)
    expected = count * rows * cols
    if len(payload) < expected:
        raise TruncatedPayloadError(
            f"{path_images}: expected {expected} pixels, found {len(payload)}")
    pixels = np.frombuffer(payload[:expected], dtype=np.uint8)
    points = pixels.reshape(count, rows * cols).astype(float) / 255.0

    labels = None
    if path_labels is not None:
        with open(path_labels, "rb") as fh:
            raw = fh.read()
        (label_count,), payload = _read_idx_header(raw, path_labels,
                                                   IDX_LABELS_MAGIC, 1)
        if label_count != count:
            raise CountMismatchError(
                f"{path_labels}: {label_count} labels for {count} images")
        if len(payload) < label_count:
            raise TruncatedPayloadError(f"{path_labels}: truncated payload")
        labels = np.frombuffer(payload[:label_count], dtype=np.uint8).astype(int)
    return Dataset(points=points, labels=labels)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
