"""The IDX image writer, the inverse of tessae.data.load_idx, for test fixtures."""

import struct

import numpy as np

from tessae.data import IDX_IMAGES_MAGIC


def write_idx_images(path, images):
    """images is a (count, rows, cols) uint8 array."""
    images = np.asarray(images, dtype=np.uint8)
    count, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">4I", IDX_IMAGES_MAGIC, count, rows, cols))
        fh.write(images.tobytes())
