import numpy as np
import pytest

from tessae.data import (TruncatedPayloadError, WrongMagicError, gen_gaussian_ring,
                         gen_uniform_ball_dataset, load_idx)
from idx_fixtures import write_idx_images


def test_ring_single_mode_at_origin():
    ds = gen_gaussian_ring(1, 0.0, 0.5, 5000, seed=0)
    se = 0.5 / np.sqrt(5000)
    assert np.all(np.abs(ds.mean(axis=0)) < 3 * se)


def test_ring_equal_mode_weights():
    ds = gen_gaussian_ring(8, 2.0, 0.1, 8000, seed=1)
    angles = 2.0 * np.pi * np.arange(8) / 8
    centers = 2.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    # half the 1.53 between neighbouring centres is over 7 sigma, so a
    # point's nearest centre is its own mode's
    nearest = np.argmin(((ds[:, None, :] - centers) ** 2).sum(axis=2), axis=1)
    counts = np.bincount(nearest, minlength=8)
    se = np.sqrt(8000 * (1 / 8) * (7 / 8))
    assert np.all(np.abs(counts - 1000) < 3 * se)


def test_ring_deterministic():
    a = gen_gaussian_ring(4, 1.0, 0.1, 50, seed=2)
    b = gen_gaussian_ring(4, 1.0, 0.1, 50, seed=2)
    assert np.array_equal(a, b)


def test_ring_guards():
    with pytest.raises(ValueError, match="^modes must be >= 1, got 0$"):
        gen_gaussian_ring(0, 1.0, 0.1, 10, seed=0)
    with pytest.raises(ValueError, match="^sigma must be > 0, got 0.0$"):
        gen_gaussian_ring(2, 1.0, 0.0, 10, seed=0)


def test_uniform_ball_dataset_radial_mean():
    ds = gen_uniform_ball_dataset(64, 4096, seed=3)
    mean_norm = np.linalg.norm(ds, axis=1).mean()
    assert abs(mean_norm - 64 / 65) < 0.01 * (64 / 65)
    assert ds.shape == (4096, 64)


def fixture_file(tmp_path):
    img_path = tmp_path / "imgs.idx"
    write_idx_images(img_path, np.array([[[0, 255], [128, 64]],
                                         [[255, 0], [0, 255]]], dtype=np.uint8))
    return str(img_path)


def test_idx_roundtrip(tmp_path):
    ds = load_idx(fixture_file(tmp_path))
    assert ds.shape == (2, 4)
    assert np.array_equal(ds[0], [0.0, 1.0, 128 / 255, 64 / 255])
    assert np.array_equal(ds[1], [1.0, 0.0, 0.0, 1.0])


def test_loaders_return_c_contiguous_float64_2d_arrays(tmp_path):
    for ds in (gen_gaussian_ring(8, 2.0, 0.1, 50, seed=0),
               gen_uniform_ball_dataset(3, 50, seed=0),
               load_idx(fixture_file(tmp_path))):
        assert type(ds) is np.ndarray and ds.ndim == 2 and ds.dtype == np.float64
        assert ds.flags.c_contiguous


def test_idx_wrong_magic(tmp_path):
    img_path = fixture_file(tmp_path)
    raw = bytearray(open(img_path, "rb").read())
    raw[3] = 0x02  # magic 0x00000802
    bad = tmp_path / "bad.idx"
    bad.write_bytes(bytes(raw))
    with pytest.raises(WrongMagicError):
        load_idx(str(bad))


def test_idx_truncated(tmp_path):
    img_path = fixture_file(tmp_path)
    raw = open(img_path, "rb").read()
    bad = tmp_path / "trunc.idx"
    bad.write_bytes(raw[:-3])
    with pytest.raises(TruncatedPayloadError):
        load_idx(str(bad))


@pytest.mark.parametrize("radius, sigma, message", [
    (float("nan"), 0.1, "radius must be finite, got nan"),
    (1.0, float("inf"), "sigma must be finite, got inf"),
    (1.0, float("nan"), "sigma must be finite, got nan"),
])
def test_ring_rejects_non_finite_radius_or_sigma(radius, sigma, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        gen_gaussian_ring(8, radius, sigma, 10, seed=0)
