"""IDX writers, the inverse of tessae.data.load_idx, for test fixtures."""

import struct

import numpy as np

from tessae.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC


def write_idx_images(path, images):
    """images is a (count, rows, cols) uint8 array."""
    images = np.asarray(images, dtype=np.uint8)
    count, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">4i", IDX_IMAGES_MAGIC, count, rows, cols))
        fh.write(images.tobytes())


def write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">2i", IDX_LABELS_MAGIC, len(labels)))
        fh.write(labels.tobytes())
