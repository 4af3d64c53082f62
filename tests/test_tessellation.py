import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from tessae import tessellation
from tessae.seeding import derive_rng
from tessae.tessellation import (R_STAR, Tessellation, cvt_energy, e8_frames,
                                 e8_generators, e8_nearest, e8_roots, e8_tessellation,
                                 lloyd_cvt, regions_of, sample_region, sample_regions,
                                 sample_unit_ball)


@pytest.fixture(scope="module")
def e8():
    return e8_tessellation()


def test_sample_unit_ball_1d_symmetry():
    x = sample_unit_ball(1, 100_000, seed=0)
    assert abs(x.mean()) < 0.02
    assert np.abs(x).max() <= 1.0


def test_sample_unit_ball_radial_law():
    # P(||x|| <= 0.5) = 0.5^8 in dim 8
    x = sample_unit_ball(8, 100_000, seed=1)
    frac = (np.linalg.norm(x, axis=1) <= 0.5).mean()
    p = 0.5 ** 8
    se = np.sqrt(p * (1 - p) / 100_000)
    assert abs(frac - p) < 3 * se


def test_sample_unit_ball_deterministic():
    a = sample_unit_ball(2, 4, seed=7)
    b = sample_unit_ball(2, 4, seed=7)
    assert np.array_equal(a, b)


def test_sample_unit_ball_bad_args():
    with pytest.raises(ValueError):
        sample_unit_ball(0, 10, seed=0)
    with pytest.raises(ValueError):
        sample_unit_ball(2, 0, seed=0)


def two_gen_1d():
    return Tessellation(np.array([[-0.5], [0.5]]))


def test_region_of_nearest():
    assert regions_of(two_gen_1d(), [[0.3], [-0.2]]).tolist() == [1, 0]


def test_region_of_tie_breaks_low():
    assert regions_of(two_gen_1d(), [[0.0]]).tolist() == [0]


def test_region_of_dim_mismatch():
    with pytest.raises(ValueError):
        regions_of(two_gen_1d(), [[0.1, 0.2]])


def test_region_of_scale_equivariance():
    rng = np.random.default_rng(3)
    gens = sample_unit_ball(3, 5, seed=3)
    tess = Tessellation(gens)
    scaled = Tessellation(0.25 * gens)
    pts = rng.standard_normal((50, 3))
    assert np.array_equal(regions_of(tess, pts), regions_of(scaled, 0.25 * pts))


def test_tessellation_invariants():
    with pytest.raises(ValueError):
        Tessellation(np.array([[1.5]]))
    with pytest.raises(ValueError):
        Tessellation(np.array([[0.5], [0.5]]))
    with pytest.raises(ValueError, match="^generators must be pairwise distinct$"):
        Tessellation(np.array([[0.0, 0.5], [0.3, 0.1], [-0.0, 0.5]]))  # -0.0 == 0.0
    for shape in ((1, 0), (0, 2), (2,)):
        with pytest.raises(ValueError, match=r"generators must be \(m, dim\) with m, dim >= 1"):
            Tessellation(np.zeros(shape))


def test_tessellation_json_roundtrip():
    tess, _ = lloyd_cvt(2, 3, seed=0)
    back = Tessellation.from_json(tess.to_json())
    assert np.array_equal(back.generators, tess.generators)
    assert back.kind == tess.kind and back.dim == tess.dim


def test_lloyd_1d_two_generators():
    tess, stats = lloyd_cvt(1, 2, mc_samples_per_iter=20_000, seed=0)
    gens = np.sort(tess.generators.ravel())
    assert np.allclose(gens, [-0.5, 0.5], atol=0.02)
    assert stats["reseeds"] >= 0


def test_lloyd_2d_single_generator():
    tess, _ = lloyd_cvt(2, 1, mc_samples_per_iter=20_000, seed=0)
    assert np.linalg.norm(tess.generators[0]) < 0.02


def test_lloyd_energy_nonincreasing():
    # the run itself asserts <= 1% MC tolerance; double-check the trace
    _, stats = lloyd_cvt(2, 16, seed=0)
    e = stats["energies"]
    assert len(e) >= 2
    assert all(e[i + 1] <= e[i] * 1.01 for i in range(len(e) - 1))


def test_lloyd_pool_size_precondition():
    with pytest.raises(ValueError):
        lloyd_cvt(2, 4, mc_samples_per_iter=100, seed=0)


def test_cvt_energy_analytic_disk():
    # E||y||^2 = 1/2 on the unit disk
    tess = Tessellation(np.zeros((1, 2)))
    e = cvt_energy(tess, 200_000, seed=0)
    assert abs(e - 0.5) < 0.01


def test_cvt_energy_analytic_interval():
    tess = Tessellation(np.zeros((1, 1)))
    e = cvt_energy(tess, 200_000, seed=0)
    assert abs(e - 1.0 / 3.0) < 0.01 / 3.0


def test_cvt_energy_minimized_at_cvt():
    e_opt = cvt_energy(two_gen_1d(), 100_000, seed=4)
    perturbed = Tessellation(np.array([[-0.3], [0.7]]))
    assert cvt_energy(perturbed, 100_000, seed=4) > e_opt


def test_e8_roots_counts_and_norms():
    roots = e8_roots()
    assert roots.shape == (240, 8)
    integer = np.all(roots == np.round(roots), axis=1)
    assert integer.sum() == 112
    assert (~integer).sum() == 128
    assert np.allclose((roots ** 2).sum(axis=1), 2.0)
    # even number of minus signs in the half-integer family
    half = roots[~integer]
    assert np.all((half < 0).sum(axis=1) % 2 == 0)


def test_e8_roots_closed_under_negation_and_products():
    roots = e8_roots()
    as_set = {tuple(r) for r in roots}
    assert all(tuple(-r) in as_set for r in roots)
    prods = np.round(roots @ roots.T).astype(int)
    assert set(np.unique(prods)) <= {-2, -1, 0, 1, 2}
    assert np.all(np.diag(prods) == 2)


def test_e8_roots_canonical_order():
    roots = e8_roots()
    keys = [tuple(r) for r in roots]
    assert keys == sorted(keys)


def test_e8_tessellation_structure(e8):
    assert e8.region_count == 241
    assert e8.kind == "E8"
    assert regions_of(e8, np.zeros((1, 8))).tolist() == [0]
    assert np.array_equal(e8.generators, e8_generators())


def test_e8_shell_radius_is_exact_and_seed_free():
    gens = e8_tessellation(seed=0).generators
    assert np.array_equal(gens, e8_tessellation(seed=3).generators)
    assert np.allclose(np.linalg.norm(gens[1:], axis=1), R_STAR, rtol=1e-15, atol=0)
    # the centre is the unit-volume E8 cell scaled by R_STAR/sqrt(2); vol(B^8) = pi^4/24
    assert (R_STAR / np.sqrt(2.0)) ** 8 / (np.pi ** 4 / 24) == pytest.approx(1 / 241, rel=1e-12)


def test_e8_tessellation_center_volume(e8):
    pool = sample_unit_ball(8, 200_000, seed=11)
    frac = (regions_of(e8, pool) == 0).mean()
    assert abs(frac - 1 / 241) < 0.05 / 241 + 3 * np.sqrt((1 / 241) / 200_000)


def test_e8_tessellation_json_roundtrip(e8):
    # older E8 files also carry a shell_radius key; the generators decide
    old = json.dumps(dict(json.loads(e8.to_json()), shell_radius=R_STAR))
    for text in (e8.to_json(), old):
        back = Tessellation.from_json(text)
        assert np.array_equal(back.generators, e8.generators)
        assert (back.dim, back.kind) == (8, "E8")


def test_e8_rejects_generators_other_than_the_root_shell(e8):
    obj = json.loads(e8.to_json())
    permuted = dict(obj, generators=[obj["generators"][0], *obj["generators"][:0:-1]])
    perturbed = json.loads(e8.to_json())
    perturbed["generators"][5][0] *= 1 + 1e-12
    half = np.vstack([np.zeros(8), 0.5 * e8_roots() / np.sqrt(2.0)])
    half_shell = dict(obj, generators=half.tolist())
    ring = {"dim": 2, "kind": "E8", "generators": [[0.0, 0.0], [0.5, 0.0]]}
    for bad in (permuted, perturbed, half_shell, ring):
        with pytest.raises(ValueError, match="'kind' is 'E8', but its generators give 'CVT'"):
            Tessellation.from_json(json.dumps(bad))


def test_dim_and_kind_follow_the_generators(e8):
    assert (e8.dim, e8.kind) == (8, "E8")
    assert (reversed_e8().dim, reversed_e8().kind) == (8, "CVT")
    assert (two_gen_1d().dim, two_gen_1d().kind) == (1, "CVT")
    with pytest.raises(TypeError):
        Tessellation(e8_generators(), kind="E8")


@pytest.mark.parametrize("key, value, message", [
    ("kind", "XYZ", "'kind' is 'XYZ', but its generators give 'CVT'"),
    ("dim", 3, "'dim' is 3, but its generators give 2"),
    ("dim", 2.0, "'dim' is 2.0, but its generators give 2"),
    ("dim", True, "'dim' is True, but its generators give 2"),
    ("dim", "2", "'dim' is '2', but its generators give 2"),
])
def test_from_json_refuses_a_dim_or_kind_its_generators_do_not_give(key, value, message):
    obj = dict(json.loads(lloyd_cvt(2, 3, seed=0)[0].to_json()), **{key: value})
    with pytest.raises(ValueError, match=message):
        Tessellation.from_json(json.dumps(obj))


def test_from_json_refuses_e8_generators_labelled_cvt(e8):
    obj = dict(json.loads(e8.to_json()), kind="CVT")
    with pytest.raises(ValueError, match="'kind' is 'CVT', but its generators give 'E8'"):
        Tessellation.from_json(json.dumps(obj))


def test_e8_frames_are_weyl_elements():
    roots = e8_roots()
    frames = e8_frames()
    assert frames.shape == (240, 8, 8) and not frames.flags.writeable
    as_sorted = sorted(map(tuple, roots))
    for k, q in enumerate(frames):
        assert np.array_equal(q.T @ q, np.eye(8))
        assert np.array_equal(q @ roots[0], roots[k])
        assert sorted(map(tuple, roots @ q.T)) == as_sorted


def test_e8_nearest_is_the_closest_lattice_point():
    x = derive_rng(0, 7).uniform(-3.0, 3.0, size=(20_000, 8))
    p = e8_nearest(x)
    # E8: all coordinates integers or all half-integers, with an even sum
    twice = 2.0 * p
    assert np.array_equal(twice, np.round(twice))
    parity = twice % 2
    assert np.all(np.all(parity == 0, axis=1) | np.all(parity == 1, axis=1))
    assert np.all(p.sum(axis=1) % 2 == 0)
    # the roots are E8's Voronoi-relevant vectors, so p is nearest iff no
    # p + root is closer: ||x - p - r||^2 < ||x - p||^2 iff (x - p).r > 1
    assert ((x - p) @ e8_roots().T).max() <= 1.0 + 1e-12


def test_e8_centre_second_moment(e8):
    # the E8 cell with unit volume has normalized second moment G = 929/12960,
    # so the centre region (scaled by s) has E||x||^2 = 8 G s^2
    pts = sample_region(e8, 0, 20_000, seed=5)
    sq = (pts ** 2).sum(axis=1)
    s = R_STAR / np.sqrt(2.0)
    assert abs(sq.mean() - 8 * 929 / 12960 * s ** 2) <= 5 * sq.std() / np.sqrt(len(sq))


def test_e8_centre_labels_few_rows(e8, monkeypatch):
    # by rejection, 4000 centre points labelled about 964,000 draws
    labelled = []
    label = tessellation.regions_of

    def counting(tess, points):
        labelled.append(len(points))
        return label(tess, points)

    monkeypatch.setattr(tessellation, "regions_of", counting)
    pts = sample_region(e8, 0, 4000, seed=1)
    assert pts.shape == (4000, 8)
    assert sum(labelled) <= 2 * 4000


def test_sample_region_predicate():
    tess, _ = lloyd_cvt(2, 4, seed=0)
    pts = sample_region(tess, 2, 300, seed=1)
    assert pts.shape == (300, 2)
    assert np.all(regions_of(tess, pts) == 2)


def test_sample_region_single_region_matches_ball():
    tess = Tessellation(np.zeros((1, 3)))
    a = sample_region(tess, 0, 500, seed=2)
    b = sample_unit_ball(3, 500, seed=2)
    assert np.array_equal(a, b)


def test_sample_region_1d_half_interval():
    pts = sample_region(two_gen_1d(), 1, 10_000, seed=3).ravel()
    assert np.all(pts > 0) and np.all(pts <= 1)
    assert abs(pts.mean() - 0.5) < 0.02


def test_sample_region_degenerate_region_aborts():
    # the middle region is 1e-7 wide: one round of 3 * 333,334 draws fills
    # the one-million-draw window with an acceptance far below 1/(50m)
    tess = Tessellation(np.array([[0.5 - 1e-7], [0.5], [0.5 + 1e-7]]))
    with pytest.raises(tessellation.DegenerateRegionError, match="region 1: acceptance"):
        sample_region(tess, 1, 333_334, seed=0)


def test_sample_region_index_range():
    with pytest.raises(ValueError):
        sample_region(two_gen_1d(), 2, 10, seed=0)


def test_sample_region_composition_covers_ball():
    tess, _ = lloyd_cvt(2, 4, seed=0)
    parts = [sample_region(tess, j, 2500, seed=10 + j) for j in range(4)]
    mean = np.concatenate(parts).mean(axis=0)
    se = np.sqrt(1.0 / 4.0 / 10_000)  # per-coordinate sd of the 2-ball
    assert np.all(np.abs(mean) < 3 * se + 0.01)


@pytest.mark.parametrize("kind", ["CVT", "E8"])
def test_sample_regions_stay_in_their_regions(e8, kind):
    tess = e8 if kind == "E8" else lloyd_cvt(2, 20, seed=1)[0]
    pts, topped_up = sample_regions(tess, 30, seed=2)
    m = tess.region_count
    assert pts.shape == (m, 30, tess.dim)
    assert np.array_equal(regions_of(tess, pts.reshape(-1, tess.dim)),
                          np.repeat(np.arange(m), 30))
    assert 0 <= topped_up < m * 30


def _projections_match(a, b, seed):
    """KS p-values of a against b on three random directions."""
    dirs = np.random.default_rng(seed).standard_normal((3, a.shape[1]))
    return [ks_2samp(a @ d, b @ d).pvalue for d in dirs]


@pytest.mark.parametrize("kind, regions, count", [("CVT", range(8), 400),
                                                  ("E8", (0, 1, 120, 240), 150)])
def test_sample_regions_match_sample_region(e8, kind, regions, count):
    # sample_region is the oracle: each region's pooled points against its own draws
    tess = e8 if kind == "E8" else lloyd_cvt(2, 8, seed=0)[0]
    pooled, _ = sample_regions(tess, count, seed=3)
    pvalues = [p for k in regions
               for p in _projections_match(pooled[k], sample_region(tess, k, count, seed=k), k)]
    assert min(pvalues) > 1e-3, pvalues


def test_sample_regions_top_up_short_regions(monkeypatch):
    # a five-point pool leaves most regions short; they are filled by
    # sample_region on the same generator, after the pool, in region order
    tess = lloyd_cvt(2, 4, seed=0)[0]
    ball = tessellation.sample_unit_ball

    def short_pool(dim, count, seed):
        return ball(dim, 5 if count == 2 * 6 * 4 else count, seed)

    monkeypatch.setattr(tessellation, "sample_unit_ball", short_pool)
    pts, topped_up = sample_regions(tess, 6, seed=4)
    rng = np.random.default_rng(4)
    pool = ball(2, 5, rng)
    labels = regions_of(tess, pool)
    expected = []
    for k in range(4):
        own = pool[labels == k][:6]
        expected.append(np.concatenate([own, sample_region(tess, k, 6 - len(own), rng)]))
    assert np.array_equal(pts, np.stack(expected))
    assert topped_up == 4 * 6 - 5
    assert np.all(regions_of(tess, pts.reshape(-1, 2)) == np.repeat(np.arange(4), 6))


def test_sample_regions_single_region_is_the_pool_head():
    tess = Tessellation(np.zeros((1, 3)))
    pts, topped_up = sample_regions(tess, 50, seed=5)
    assert np.array_equal(pts[0], sample_unit_ball(3, 100, seed=5)[:50])
    assert topped_up == 0


def test_sample_regions_count_precondition():
    with pytest.raises(ValueError, match="count must be >= 1, got 0"):
        sample_regions(two_gen_1d(), 0, seed=0)


@st.composite
def tessellations(draw):
    dim = draw(st.integers(1, 4))
    # coordinates in [-1, 1] / sqrt(dim) keep every generator in the ball
    coord = st.floats(-1, 1, allow_nan=False).map(lambda c: c / np.sqrt(dim))
    rows = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=8,
                         unique_by=lambda r: tuple(c + 0.0 for c in r)))
    return Tessellation(np.array(rows))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(tessellations())
def test_tessellation_json_roundtrip_any(tess):
    back = Tessellation.from_json(tess.to_json())
    assert back.generators.tobytes() == tess.generators.tobytes()
    assert (back.dim, back.kind) == (tess.dim, tess.kind)


def _sample_moments_agree(a, b):
    """Per-coordinate means, second moments and radial quantiles of two
    samples agree within 5 standard errors of their sizes."""
    def within(fa, fb):
        se = np.sqrt(fa.var(axis=0) / len(fa) + fb.var(axis=0) / len(fb))
        return np.abs(fa.mean(axis=0) - fb.mean(axis=0)) <= 5 * se

    def products(x):
        return (x[:, :, None] * x[:, None, :]).reshape(len(x), -1)

    assert np.all(within(a, b))
    assert np.all(within(products(a), products(b)))
    # the share of a's radii below b's q-quantile is q up to both samples' noise
    ra, rb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    for q in (0.1, 0.5, 0.9):
        share = (ra <= np.quantile(rb, q)).mean()
        assert abs(share - q) <= 5 * np.sqrt(q * (1 - q) * (1 / len(a) + 1 / len(b)))


def reversed_e8():
    """The E8 regions with rows 1..240 reversed: E8 region k is region
    (241 - k) % 241 here, and the generators are not e8_generators()."""
    g = e8_generators()
    return Tessellation(np.vstack([g[:1], g[:0:-1]]))


@pytest.mark.parametrize("k", [0, 1, 120, 240])
def test_e8_sample_region_matches_rejection(e8, k):
    # the same regions in another order derive as CVT and take the plain
    # rejection path; both are drawn in pieces so that a rejection round's
    # label matrix stays small
    oracle = reversed_e8()
    assert oracle.kind == "CVT"
    expected = np.concatenate([sample_region(oracle, (241 - k) % 241, 250, seed=100 + s)
                               for s in range(8)])
    got = np.concatenate([sample_region(e8, k, 250, seed=200 + s) for s in range(8)])
    assert np.all(regions_of(e8, got) == k)
    _sample_moments_agree(got, expected)


def test_e8_sample_region_every_region(e8):
    for k in range(241):
        pts = sample_region(e8, k, 10, seed=k)
        assert pts.shape == (10, 8)
        assert np.all(regions_of(e8, pts) == k)


def test_e8_sample_region_deterministic(e8):
    for k in (0, 1, 240):
        assert np.array_equal(sample_region(e8, k, 50, seed=3),
                              sample_region(e8, k, 50, seed=3))


def test_e8_chunk_draw_count(e8, monkeypatch):
    # one E8 training chunk at n=10: the rejection path drew ~850,000 points
    drawn = []
    ball = tessellation.sample_unit_ball

    def counting(dim, count, seed):
        pts = ball(dim, count, seed)
        drawn.append(len(pts))
        return pts

    monkeypatch.setattr(tessellation, "sample_unit_ball", counting)
    for k in range(241):
        sample_region(e8, k, 10, derive_rng(0, 0, 0, k, 0))
    assert sum(drawn) < 20_000


def hand_cvt(m, dim, seed):
    g = sample_unit_ball(dim, m, np.random.default_rng(seed)) * 0.9
    return Tessellation(g)


@pytest.mark.parametrize("m, dim", [(20, 2), (200, 2), (50, 8), (30, 16), (241, 8)])
def test_regions_of_on_blocks_equals_whole(monkeypatch, m, dim):
    tess = e8_tessellation() if m == 241 else hand_cvt(m, dim, seed=m + dim)
    pts = sample_unit_ball(dim, 5000, seed=dim)
    g = tess.generators
    whole = np.argmin((g * g).sum(axis=1)[None, :] - 2.0 * pts @ g.T, axis=1)
    for rows in (1, 7, 1000, 4999, 5000):
        monkeypatch.setattr(tessellation, "LABEL_BLOCK", rows * m)
        assert np.array_equal(regions_of(tess, pts), whole)


@pytest.mark.parametrize("block", [1, 1000, 40_000])
def test_sample_region_draws_do_not_depend_on_label_block(monkeypatch, block):
    tess = hand_cvt(200, 2, seed=0)
    expected = sample_region(tess, 7, 200, seed=5)
    monkeypatch.setattr(tessellation, "LABEL_BLOCK", block)
    assert np.array_equal(sample_region(tess, 7, 200, seed=5), expected)


def test_e8_and_ring_rounds_label_in_one_block(e8, monkeypatch):
    labelled = []
    label = tessellation.regions_of

    def counting(tess, points):
        labelled.append(len(points))
        return label(tess, points)

    monkeypatch.setattr(tessellation, "regions_of", counting)
    sample_region(e8, 0, 4000, seed=1)  # the E8 centre labels count draws per round
    assert set(labelled) == {4000}
    assert 4000 * 241 <= tessellation.LABEL_BLOCK
    labelled.clear()
    sample_region(hand_cvt(20, 2, seed=1), 3, 50, seed=1)  # a gap-study region of the ring
    assert set(labelled) == {1000}
    assert 1000 * 20 <= tessellation.LABEL_BLOCK


def test_sample_region_memory_is_bounded():
    # one round at m=200, count=200 is 40,000 draws; labelled as one
    # (40000, 200) matrix it peaked at about 120 MB
    tess = hand_cvt(200, 2, seed=0)
    tracemalloc.start()
    try:
        sample_region(tess, 7, 200, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20



@pytest.mark.parametrize("rows", [3, 1000])
def test_lloyd_on_blocks_equals_whole(monkeypatch, rows):
    tess, stats = lloyd_cvt(2, 20, max_iters=3, seed=4)
    energy = cvt_energy(tess, 5000, seed=1)
    monkeypatch.setattr(tessellation, "LABEL_BLOCK", rows * 20)
    blocked, blocked_stats = lloyd_cvt(2, 20, max_iters=3, seed=4)
    assert np.array_equal(blocked.generators, tess.generators)
    assert blocked_stats == stats
    assert cvt_energy(tess, 5000, seed=1) == energy


def test_lloyd_memory_is_bounded():
    # labelled and measured as whole (pool, m) matrices, one iteration at
    # (2, 400) peaked at about 984 MB
    tracemalloc.start()
    try:
        lloyd_cvt(2, 400, max_iters=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_regions_of_zero_rows(e8):
    # sample_region's E8 outer path labels an empty set when no draw is outer
    labels = regions_of(e8, np.empty((0, 8)))
    assert labels.shape == (0,) and labels.dtype == np.intp

def test_e8_roots_are_one_read_only_table():
    roots = e8_roots()
    assert roots is e8_roots() and not roots.flags.writeable
    with pytest.raises(ValueError):
        roots[0, 0] = 0.0
