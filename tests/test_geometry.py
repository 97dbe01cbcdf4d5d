"""Cone, mask, and heatmap contracts; the brute-force cone and head-mask
oracles are rows of ``gazecast.checks.ORACLE_CASES``, and the cone tests here
compare against the same cone oracle."""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import read_pgm
from gazecast import geometry as G
from gazecast import metrics as M
from gazecast import tensor as T
from gazecast.checks import _cone_oracle, autodiff_grads, finite_diff_grads, max_rel_err
from gazecast.errors import DomainError
from gazecast.tensor import Tensor


def test_cone_forward_and_backward_pixels():
    # odd grid so rows/cols align exactly with the eye at the center
    img = G.cone_batch(Tensor([[1.0, 0.0]]), np.array([[0.5, 0.5]]), 9, 9).data[0, 0]
    assert img[4, 5] == pytest.approx(1.0)   # directly right of the eye
    assert img[4, 3] == pytest.approx(0.0)   # directly left
    assert img[5, 5] == pytest.approx(math.sqrt(0.5), abs=1e-12)  # 45 degrees
    assert img[4, 4] == 1.0                  # eye pixel override


def test_cone_values_in_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.normal(size=2)
        gaze = Tensor(G.GazeVector2D.of(*v).xy.reshape(1, 2))
        eye = rng.uniform(0.1, 0.9, size=(1, 2))
        img = G.cone_batch(gaze, eye, 32, 32).data
        assert img.min() >= 0.0 and img.max() <= 1.0


def test_cone_matches_bruteforce_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = rng.normal(size=2)
        g /= np.linalg.norm(g)
        eye = rng.uniform(0.05, 0.95, size=2)
        img = G.cone_batch(Tensor(g.reshape(1, 2)), eye.reshape(1, 2), 64, 64).data[0, 0]
        ref = _cone_oracle(g, eye, math.pi, n=64)
        assert np.max(np.abs(img - ref)) < 1e-12


def test_cone_narrow_aperture_zeroes_outside():
    aperture = math.pi / 2
    h = w = 33
    img = G.cone_batch(Tensor([[1.0, 0.0]]), np.array([[0.5, 0.5]]), h, w, aperture).data[0, 0]
    ref = _cone_oracle(np.array([1.0, 0.0]), np.array([0.5, 0.5]), aperture, n=h)
    np.testing.assert_allclose(img, ref, atol=1e-12)
    # pixels at >45 degrees from +x are exactly zero
    assert img[0, 20] == 0.0


def test_cone_gradient_matches_fd_at_interior_pixels():
    rng = np.random.default_rng(3)
    g = rng.normal(size=2)
    g /= np.linalg.norm(g)
    gaze = Tensor(g.reshape(1, 2), requires_grad=True)
    eyes = np.array([[0.43, 0.61]])
    h = w = 16

    probe = G.cone_batch(Tensor(g.reshape(1, 2)), eyes, h, w).data[0, 0]
    sel = (probe > 1e-3) & (probe < 1.0 - 1e-9)
    r = rng.normal(size=(1, 1, h, w)) * sel

    def forward():
        return T.tsum(T.mul(G.cone_batch(gaze, eyes, h, w), Tensor(r)))

    fd = finite_diff_grads(forward, [gaze])
    ad = autodiff_grads(forward, [gaze])
    assert max_rel_err(ad[0], fd[0]) < 1e-4


def test_cone_rotational_consistency():
    # rotating g by 90 deg and the query pixel by 90 deg about the eye
    # yields the same value for exactly-mapped pixels
    h = w = 21
    eye = np.array([[0.5, 0.5]])
    g = np.array([1.0, 0.0])
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    img_a = G.cone_batch(Tensor(g.reshape(1, 2)), eye, h, w).data[0, 0]
    img_b = G.cone_batch(Tensor((rot @ g).reshape(1, 2)), eye, h, w).data[0, 0]
    # pixel (i,j) about center (10,10): 90-deg rotation maps (di,dj)->(dj,-di)
    for i in range(h):
        for j in range(w):
            di, dj = i - 10, j - 10
            assert abs(img_a[i, j] - img_b[10 + dj, 10 - di]) < 1e-9


def test_cone_rejects_zero_vector():
    with pytest.raises(DomainError):
        G.cone_batch(Tensor([[0.0, 0.0]]), np.array([[0.5, 0.5]]), 8, 8)


def test_head_mask_full_and_half():
    full = G.render_head_mask(G.HeadBox(0.0, 0.0, 1.0, 1.0), 4, 4)
    np.testing.assert_array_equal(full, np.ones((4, 4)))
    half = G.render_head_mask(G.HeadBox(0.0, 0.0, 0.5, 1.0), 4, 4)
    np.testing.assert_array_equal(half, np.array([[1, 1, 0, 0]] * 4, dtype=float))


def test_gt_heatmap_peak_and_falloff():
    img = G.make_gt_heatmap([(0.5, 0.5)], 64, 64, sigma=3.0)
    ci, cj = G.containing_pixel(0.5, 0.5, 64, 64)
    assert img[ci, cj] == 1.0
    assert img.max() == 1.0
    assert img[ci, cj + 3] == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_gt_heatmap_duplicate_points_idempotent():
    a = G.make_gt_heatmap([(0.3, 0.7)], 64, 64, 3.0)
    b = G.make_gt_heatmap([(0.3, 0.7), (0.3, 0.7)], 64, 64, 3.0)
    np.testing.assert_array_equal(a, b)


def test_gt_heatmap_flip_symmetry_odd_grid():
    img = G.make_gt_heatmap([(0.5, 0.5)], 65, 65, 3.0)
    np.testing.assert_allclose(img, np.flipud(img), atol=1e-15)
    np.testing.assert_allclose(img, np.fliplr(img), atol=1e-15)


def test_gt_heatmap_empty_points_rejected():
    with pytest.raises(DomainError):
        G.make_gt_heatmap([], 64, 64, 3.0)
    with pytest.raises(DomainError):
        G.pixel_sq_dist([], 64, 64)


def test_pixel_sq_dist_heatmap_and_mask_match_per_point_loops():
    """One distance grid serves the heatmap (the per-point maximum of
    Gaussians, bit for bit) and the AUC mask (the per-point union)."""
    rng = np.random.default_rng(8)
    for n_points in (1, 2, 5):
        points = [tuple(p) for p in rng.random((n_points, 2))]
        rows, cols = np.mgrid[0:24, 0:20]
        per_point = [(rows - i) ** 2 + (cols - j) ** 2
                     for i, j in (G.containing_pixel(x, y, 24, 20) for x, y in points)]
        np.testing.assert_array_equal(G.pixel_sq_dist(points, 24, 20), np.min(per_point, axis=0))
        np.testing.assert_array_equal(G.make_gt_heatmap(points, 24, 20, 2.5),
                                      np.max([np.exp(-d2 / 12.5) for d2 in per_point], axis=0))
        np.testing.assert_array_equal(M.binarize_gt(points, 24, 20, 4.0),
                                      np.any([d2 <= 16.0 for d2 in per_point], axis=0))


def test_geometry_outputs_content_independent():
    # same annotations, different "image": identical outputs by construction
    box = G.HeadBox(0.1, 0.1, 0.4, 0.5)
    a = G.render_head_mask(box, 32, 32)
    b = G.render_head_mask(box, 32, 32)
    np.testing.assert_array_equal(a, b)


def test_pgm_roundtrip(tmp_path):
    img = G.make_gt_heatmap([(0.25, 0.75)], 64, 64, 3.0)
    path = tmp_path / "heatmap.pgm"
    G.write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == (64, 64)
    np.testing.assert_array_equal(back, np.rint(255 * img).astype(np.uint8))
    # re-render is byte identical
    data1 = path.read_bytes()
    G.write_pgm(path, img)
    assert path.read_bytes() == data1


def test_pgm_write_that_fails_keeps_previous_file(tmp_path, monkeypatch):
    """A render interrupted after the PGM header leaves the previous image
    byte for byte and no temporary file."""
    path = tmp_path / "cone.pgm"
    G.write_pgm(path, np.full((8, 8), 0.5))
    before = path.read_bytes()
    real = G.atomic_write

    class HeaderOnly:
        def __init__(self, f):
            self.f = f

        def write(self, data):
            if self.f.tell():
                raise OSError("disk full")
            return self.f.write(data)

    @contextmanager
    def interrupted(target, mode):
        with real(target, mode) as f:
            yield HeaderOnly(f)

    monkeypatch.setattr(G, "atomic_write", interrupted)
    with pytest.raises(OSError, match="disk full"):
        G.write_pgm(path, np.zeros((8, 8)))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cone.pgm"]


def test_headbox_validation():
    with pytest.raises(DomainError):
        G.HeadBox(0.5, 0.1, 0.4, 0.9)
    with pytest.raises(DomainError):
        G.EyePoint(1.5, 0.5)
