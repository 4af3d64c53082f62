import numpy as np
import pytest

from tessae.data import (CountMismatchError, Dataset, TruncatedPayloadError,
                         WrongMagicError, gen_gaussian_ring,
                         gen_uniform_ball_dataset, load_idx)
from idx_fixtures import write_idx_images, write_idx_labels


def test_ring_single_mode_at_origin():
    ds = gen_gaussian_ring(1, 0.0, 0.5, 5000, seed=0)
    se = 0.5 / np.sqrt(5000)
    assert np.all(np.abs(ds.points.mean(axis=0)) < 3 * se)
    assert np.all(ds.labels == 0)


def test_ring_equal_mode_weights():
    ds = gen_gaussian_ring(8, 2.0, 0.1, 8000, seed=1)
    counts = np.bincount(ds.labels, minlength=8)
    se = np.sqrt(8000 * (1 / 8) * (7 / 8))
    assert np.all(np.abs(counts - 1000) < 3 * se)


def test_ring_deterministic():
    a = gen_gaussian_ring(4, 1.0, 0.1, 50, seed=2)
    b = gen_gaussian_ring(4, 1.0, 0.1, 50, seed=2)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)


def test_ring_guards():
    with pytest.raises(ValueError, match="^modes must be >= 1, got 0$"):
        gen_gaussian_ring(0, 1.0, 0.1, 10, seed=0)
    with pytest.raises(ValueError, match="^sigma must be > 0, got 0.0$"):
        gen_gaussian_ring(2, 1.0, 0.0, 10, seed=0)


def test_uniform_ball_dataset_radial_mean():
    ds = gen_uniform_ball_dataset(64, 4096, seed=3)
    mean_norm = np.linalg.norm(ds.points, axis=1).mean()
    assert abs(mean_norm - 64 / 65) < 0.01 * (64 / 65)
    assert ds.points.shape == (4096, 64)
    assert ds.labels is None


def test_dataset_label_count_guard():
    with pytest.raises(ValueError):
        Dataset(points=np.zeros((3, 2)), labels=np.array([0, 1]))


def fixture_files(tmp_path, pixels=None, labels=(1, 7)):
    if pixels is None:
        pixels = np.array([[[0, 255], [128, 64]],
                           [[255, 0], [0, 255]]], dtype=np.uint8)
    img_path = tmp_path / "imgs.idx"
    lab_path = tmp_path / "labels.idx"
    write_idx_images(img_path, pixels)
    write_idx_labels(lab_path, np.array(labels, dtype=np.uint8))
    return str(img_path), str(lab_path)


def test_idx_roundtrip(tmp_path):
    img_path, lab_path = fixture_files(tmp_path)
    ds = load_idx(img_path, lab_path)
    assert ds.points.shape == (2, 4)
    assert np.array_equal(ds.points[0], [0.0, 1.0, 128 / 255, 64 / 255])
    assert np.array_equal(ds.points[1], [1.0, 0.0, 0.0, 1.0])
    assert list(ds.labels) == [1, 7]


def test_idx_wrong_magic(tmp_path):
    img_path, _ = fixture_files(tmp_path)
    raw = bytearray(open(img_path, "rb").read())
    raw[3] = 0x02  # magic 0x00000802
    bad = tmp_path / "bad.idx"
    bad.write_bytes(bytes(raw))
    with pytest.raises(WrongMagicError):
        load_idx(str(bad))


def test_idx_truncated(tmp_path):
    img_path, _ = fixture_files(tmp_path)
    raw = open(img_path, "rb").read()
    bad = tmp_path / "trunc.idx"
    bad.write_bytes(raw[:-3])
    with pytest.raises(TruncatedPayloadError):
        load_idx(str(bad))


def test_idx_label_count_mismatch(tmp_path):
    img_path, _ = fixture_files(tmp_path)
    lab_path = tmp_path / "short.idx"
    write_idx_labels(lab_path, np.array([1], dtype=np.uint8))
    with pytest.raises(CountMismatchError):
        load_idx(img_path, str(lab_path))


@pytest.mark.parametrize("radius, sigma, message", [
    (float("nan"), 0.1, "radius must be finite, got nan"),
    (1.0, float("inf"), "sigma must be finite, got inf"),
    (1.0, float("nan"), "sigma must be finite, got nan"),
])
def test_ring_rejects_non_finite_radius_or_sigma(radius, sigma, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        gen_gaussian_ring(8, radius, sigma, 10, seed=0)
