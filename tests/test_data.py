"""Scene generator oracle consistency, dataset round-trips, and head crops."""

import numpy as np
import pytest

from conftest import without_raw
from gazecast import data as D
from gazecast.errors import DatasetError


@pytest.fixture(scope="module")
def mixed_samples():
    return D.generate_dataset(D.SceneSpec(rng_seed=71, target_rule="mixed"), 300)


def test_single_candidate_scene_targets_it():
    spec = D.SceneSpec(n_objects=1, n_people=1, rng_seed=5, target_rule="object")
    s = D.generate_scene(spec, 3)
    assert len(s.layout.objects) == 1
    assert s.gaze_points[0] == pytest.approx(tuple(s.layout.objects[0].center))


def test_generation_deterministic(mixed_samples):
    again = D.generate_scene(D.SceneSpec(rng_seed=71, target_rule="mixed"), 17)
    ref = mixed_samples[17]
    for m in ref.images:
        np.testing.assert_array_equal(again.images[m], ref.images[m])
    assert again.gaze_points == ref.gaze_points
    assert again.head_box == ref.head_box


def test_oracle_consistency_and_cone_containment(mixed_samples):
    chk = D.self_check(mixed_samples)
    assert chk["checked"] == len(mixed_samples)
    assert chk["mismatches"] == 0
    assert chk["cone_violations"] == 0
    for s in mixed_samples:
        assert s.in_frame == 1 and s.gaze_points
        gp = np.asarray(s.gaze_points[0])
        cos = np.dot(gp - s.eye.xy, s.oracle_gaze_dir.xy) / np.linalg.norm(gp - s.eye.xy)
        assert cos > 0.0


def test_eye_inside_head_box(mixed_samples):
    for s in mixed_samples:
        b = s.head_box
        assert b.x_min <= s.eye.x <= b.x_max
        assert b.y_min <= s.eye.y <= b.y_max


def test_modalities_share_resolution(mixed_samples):
    for s in mixed_samples[:20]:
        shapes = {m: img.shape for m, img in s.images.items()}
        assert len(set(shapes.values())) == 1
        assert next(iter(shapes.values())) == (3, 64, 64)


def test_depth_has_no_color_or_texture(mixed_samples):
    for s in mixed_samples[:20]:
        d = s.images["depth"]
        np.testing.assert_array_equal(d[0], d[1])
        np.testing.assert_array_equal(d[1], d[2])
        assert len(np.unique(d[0])) <= 2 + len(s.layout.objects) + len(s.layout.persons)


def test_pose_contains_no_object_pixels(mixed_samples):
    from gazecast.data import _disk

    for s in mixed_samples[:30]:
        pose = s.images["pose"]
        painted = pose.sum(axis=0) > 0.0
        for obj in s.layout.objects:
            blob = _disk(64, obj.center, obj.radius_px)
            person_parts = np.zeros_like(blob)
            for p in s.layout.persons:
                person_parts |= _disk(64, p.head_center, p.head_radius_px + 2.0)
                person_parts |= D._segment(64, p.neck, p.hip, 3.0)
                for hand in p.hands:
                    person_parts |= D._segment(64, p.neck, hand, 3.0)
            only_blob = blob & ~person_parts
            assert not painted[only_blob].any()


def test_out_of_frame_mode():
    spec = D.SceneSpec(rng_seed=13, p_out_of_frame=0.2)
    samples = D.generate_dataset(spec, 300)
    outs = [s for s in samples if s.in_frame == 0]
    frac = len(outs) / len(samples)
    assert 0.1 < frac < 0.3
    for s in outs:
        assert s.gaze_points == []
        assert D.expected_target(s.layout, s.eye.xy, s.oracle_gaze_dir.xy) is None
    assert D.self_check(samples)["mismatches"] == 0


def test_infeasible_spec_raises():
    with pytest.raises(DatasetError):
        D.SceneSpec(n_people=0)
    with pytest.raises(DatasetError):
        D.SceneSpec(target_rule="person", n_people=1)
    with pytest.raises(DatasetError):
        D.SceneSpec(resolution=16)


def test_dataset_roundtrip_bit_exact(tmp_path, mixed_samples):
    subset = mixed_samples[:100]
    D.write_dataset(subset, tmp_path)
    back = D.read_dataset(tmp_path)
    assert len(back) == 100
    for orig, got in zip(subset, back):
        assert got.sample_id == orig.sample_id
        assert got.head_box == orig.head_box
        assert got.eye == orig.eye
        assert got.gaze_points == orig.gaze_points
        assert got.in_frame == orig.in_frame
        assert got.oracle_gaze_dir == orig.oracle_gaze_dir
        for m in orig.images:
            np.testing.assert_array_equal(got.images[m], orig.images[m])


def test_empty_dataset_roundtrip(tmp_path):
    D.write_dataset([], tmp_path)
    assert D.read_dataset(tmp_path) == []


def test_tampered_magic_is_typed_error(tmp_path, mixed_samples):
    D.write_dataset(mixed_samples[:3], tmp_path)
    victim = next((tmp_path / "tensors").iterdir())
    raw = bytearray(victim.read_bytes())
    raw[:4] = b"XXXX"
    victim.write_bytes(bytes(raw))
    with pytest.raises(DatasetError, match="magic"):
        D.read_dataset(tmp_path)


def test_truncated_tensor_is_typed_error(tmp_path, mixed_samples):
    D.write_dataset(mixed_samples[:3], tmp_path)
    victim = next((tmp_path / "tensors").iterdir())
    victim.write_bytes(victim.read_bytes()[:40])
    with pytest.raises(DatasetError):
        D.read_dataset(tmp_path)


def test_count_mismatch_is_typed_error(tmp_path, mixed_samples):
    D.write_dataset(mixed_samples[:3], tmp_path)
    extra = tmp_path / "tensors" / "99999999_raw.gzt"
    extra.write_bytes((tmp_path / "tensors" / "00000000_raw.gzt").read_bytes())
    with pytest.raises(DatasetError, match="tensor files"):
        D.read_dataset(tmp_path)


def test_train_test_split_contracts(mixed_samples):
    subset = mixed_samples[:10]
    train, test = D.train_test_split(subset, 0.5, seed=3)
    assert len(train) == 5 and len(test) == 5
    ids = {s.sample_id for s in train} | {s.sample_id for s in test}
    assert ids == {s.sample_id for s in subset}
    train2, test2 = D.train_test_split(subset, 0.5, seed=3)
    assert [s.sample_id for s in train2] == [s.sample_id for s in train]
    with pytest.raises(DatasetError):
        D.train_test_split(subset, 0.01, seed=0)


def test_crop_head_shapes_and_determinism(mixed_samples):
    s = mixed_samples[0]
    a = D.crop_head(s, "raw", 64)
    b = D.crop_head(s, "raw", 64)
    assert a.shape == (3, 64, 64)
    np.testing.assert_array_equal(a, b)


def test_crop_head_full_image_box(mixed_samples):
    s = mixed_samples[1]
    import dataclasses

    from gazecast.geometry import HeadBox

    full = dataclasses.replace(s, head_box=HeadBox(0.0, 0.0, 1.0, 1.0))
    crop = D.crop_head(full, "raw", 64)
    np.testing.assert_array_equal(crop, s.images["raw"])


def test_crop_head_pose_source_has_only_skeleton(mixed_samples):
    s = mixed_samples[2]
    crop = D.crop_head(s, "pose", 64)
    pose_values = set(np.round(np.unique(s.images["pose"]), 6))
    assert set(np.round(np.unique(crop), 6)) <= pose_values


def test_raw_free_sample_serves_privacy_modalities(mixed_samples):
    s = without_raw(mixed_samples[:1])[0]
    np.testing.assert_array_equal(s.modality("depth"), mixed_samples[0].images["depth"])
    assert D.crop_head(s, "pose", 32).shape == (3, 32, 32)
    with pytest.raises(DatasetError):
        s.modality("raw")
