"""Scene generator oracle consistency, dataset round-trips, and head crops."""

import dataclasses
import os

import numpy as np
import pytest

from conftest import without_raw
from gazecast import data as D
from gazecast.errors import DatasetError


@pytest.fixture(scope="module")
def mixed_samples():
    return D.generate_dataset(D.SceneSpec(seed=71, target_rule="mixed"), 300)


def test_single_candidate_scene_targets_it():
    spec = D.SceneSpec(n_objects=1, n_people=1, seed=5, target_rule="object")
    s = D.generate_scene(spec, 3)
    assert len(s.layout.objects) == 1
    assert s.gaze_points[0] == pytest.approx(tuple(s.layout.objects[0].center))


def test_generation_deterministic(mixed_samples):
    again = D.generate_scene(D.SceneSpec(seed=71, target_rule="mixed"), 17)
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
    def frame(shape):
        return D._full_frame(64, shape)

    for s in mixed_samples[:30]:
        pose = s.images["pose"]
        painted = pose.sum(axis=0) > 0.0
        for obj in s.layout.objects:
            blob = frame(D._disk(64, obj.center, obj.radius_px))
            person_parts = np.zeros_like(blob)
            for p in s.layout.persons:
                person_parts |= frame(D._disk(64, p.head_center, p.head_radius_px + 2.0))
                person_parts |= frame(D._segment(64, p.neck, p.hip, 3.0))
                for hand in p.hands:
                    person_parts |= frame(D._segment(64, p.neck, hand, 3.0))
            only_blob = blob & ~person_parts
            assert not painted[only_blob].any()


def test_out_of_frame_mode():
    spec = D.SceneSpec(seed=13, p_out_of_frame=0.2)
    samples = D.generate_dataset(spec, 300)
    outs = [s for s in samples if s.in_frame == 0]
    frac = len(outs) / len(samples)
    assert 0.1 < frac < 0.3
    for s in outs:
        assert s.gaze_points == []
        assert D.expected_target(s.layout, s.eye.xy, s.oracle_gaze_dir.xy) is None
    assert D.self_check(samples)["mismatches"] == 0


def test_self_check_counts_a_target_behind_the_eye(mixed_samples):
    s = next(s for s in mixed_samples if s.in_frame)
    behind = s.eye.xy - 0.1 * s.oracle_gaze_dir.xy
    moved = dataclasses.replace(s, gaze_points=[(float(behind[0]), float(behind[1]))])
    assert D.self_check([s, moved]) == {"checked": 2, "mismatches": 1, "cone_violations": 1}


def test_infeasible_spec_raises():
    with pytest.raises(DatasetError):
        D.SceneSpec(n_people=0)
    with pytest.raises(DatasetError):
        D.SceneSpec(target_rule="person", n_people=1)
    with pytest.raises(DatasetError):
        D.SceneSpec(resolution=16)



@pytest.mark.parametrize("rule,far_from", [
    ("object", lambda point, others, *rest: False),
    ("person", lambda point, others, *rest: False),
    ("depth_distractor", lambda point, others, *rest: False),
    # the target fits every time, its distractor never does
    ("depth_distractor", lambda point, others, *rest: len(others) == 1),
], ids=["object", "person", "depth-distractor", "no-room-for-distractor"])
def test_scene_with_no_feasible_target_is_typed_error(monkeypatch, rule, far_from):
    monkeypatch.setattr(D, "_far_from", far_from)
    with pytest.raises(DatasetError, match=rf"no feasible target placement after "
                                           rf"{D._MAX_ATTEMPTS} attempts \(rule={rule}, sample=3\)"):
        D.generate_scene(D.SceneSpec(target_rule=rule, seed=1), 3)

@pytest.mark.parametrize("field,bound", [
    ("n_objects", D.MAX_ITEMS), ("n_people", D.MAX_ITEMS),
    ("depth_layers", D.MAX_DEPTH_LAYERS), ("resolution", D.MAX_RESOLUTION),
])
def test_scene_spec_upper_bounds_are_inclusive(field, bound):
    assert getattr(D.SceneSpec(**{field: bound}), field) == bound
    with pytest.raises(DatasetError, match=f"{field} must lie in"):
        D.SceneSpec(**{field: bound + 1})


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


def test_read_one_sample_decodes_only_it(tmp_path, mixed_samples, monkeypatch):
    D.write_dataset(mixed_samples[:5], tmp_path)
    full = D.read_dataset(tmp_path)
    decoded = []
    read_tensor = D.read_tensor

    def counting_read(path):
        decoded.append(os.path.basename(path))
        return read_tensor(path)

    monkeypatch.setattr(D, "read_tensor", counting_read)
    (got,) = D.read_dataset(tmp_path, sample_id=3)
    assert sorted(decoded) == sorted(f"00000003_{m}.gzt" for m in full[3].images)
    assert got.sample_id == 3 and got.head_box == full[3].head_box
    for m, img in full[3].images.items():
        np.testing.assert_array_equal(got.images[m], img)
    assert D.read_dataset(tmp_path, sample_id=999) == []


def test_read_one_sample_keeps_manifest_wide_checks(tmp_path, mixed_samples):
    D.write_dataset(mixed_samples[:3], tmp_path)
    (tmp_path / "tensors" / "00000002_depth.gzt").unlink()
    with pytest.raises(DatasetError, match="missing file"):
        D.read_dataset(tmp_path, sample_id=0)
    D.write_dataset(mixed_samples[:3], tmp_path)
    extra = tmp_path / "tensors" / "99999999_raw.gzt"
    extra.write_bytes((tmp_path / "tensors" / "00000000_raw.gzt").read_bytes())
    with pytest.raises(DatasetError, match="tensor files"):
        D.read_dataset(tmp_path, sample_id=0)
    extra.unlink()
    manifest = tmp_path / D.MANIFEST_NAME
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines[:2] + ['{"sample_id": 2}']) + "\n")
    with pytest.raises(DatasetError, match="manifest.jsonl:3:"):
        D.read_dataset(tmp_path, sample_id=0)


def test_deleted_tensor_file_is_same_error_without_a_stat_per_file(tmp_path, mixed_samples,
                                                                   monkeypatch):
    """Tensor files are checked against the directory listing, and a path
    outside the tensor directory is rejected before any file is touched; a
    deleted file gives the same DatasetError either way."""
    D.write_dataset(mixed_samples[:3], tmp_path)
    stats = []
    exists = os.path.exists

    def counting_exists(p):
        stats.append(os.path.basename(p))
        return exists(p)

    monkeypatch.setattr(D.os.path, "exists", counting_exists)
    assert len(D.read_dataset(tmp_path, sample_id=1)) == 1
    assert stats == [D.MANIFEST_NAME]

    (tmp_path / "tensors" / "00000002_depth.gzt").unlink()
    missing = (f"{tmp_path / D.MANIFEST_NAME}:3: manifest references missing file "
               "tensors/00000002_depth.gzt")
    for sample_id in (None, 0):
        with pytest.raises(DatasetError) as info:
            D.read_dataset(tmp_path, sample_id=sample_id)
        assert str(info.value) == missing

    manifest = tmp_path / D.MANIFEST_NAME
    manifest.write_text(manifest.read_text().replace("tensors/00000002_depth.gzt",
                                                     "elsewhere/00000002_depth.gzt"))
    stats.clear()
    with pytest.raises(DatasetError, match="elsewhere/00000002_depth.gzt is not tensors/<name>"):
        D.read_dataset(tmp_path, sample_id=0)
    assert stats == [D.MANIFEST_NAME]


def test_manifest_eye_source_key_is_ignored(tmp_path, mixed_samples):
    """Manifests written before the eye's "source" key was dropped still load."""
    D.write_dataset(mixed_samples[:3], tmp_path)
    manifest = tmp_path / D.MANIFEST_NAME
    assert '"source"' not in manifest.read_text()
    new = D.read_dataset(tmp_path)
    manifest.write_text(manifest.read_text().replace('"y": ', '"source": "annotated", "y": '))
    old = D.read_dataset(tmp_path)
    assert [s.eye for s in old] == [s.eye for s in new] == [s.eye for s in mixed_samples[:3]]


def test_empty_dataset_roundtrip(tmp_path):
    D.write_dataset([], tmp_path)
    assert D.read_dataset(tmp_path) == []


@pytest.mark.parametrize("failing", ["tensor", "manifest"])
def test_interrupted_write_keeps_previous_manifest(tmp_path, mixed_samples, monkeypatch,
                                                   failing):
    """A write that fails partway, among the tensor files or within the
    manifest itself, leaves the previous manifest byte-for-byte and no new or
    temporary manifest beside it. The manifest is written after every tensor,
    so only the ``manifest`` case needs its atomic write."""
    D.write_dataset(mixed_samples[:3], tmp_path)
    before = (tmp_path / D.MANIFEST_NAME).read_bytes()
    if failing == "tensor":
        written = []
        write_tensor = D.write_tensor

        def failing_write(path, arr):
            if len(written) == 4:
                raise OSError("disk full")
            written.append(path)
            write_tensor(path, arr)

        monkeypatch.setattr(D, "write_tensor", failing_write)
    else:
        fdopen = os.fdopen

        class HalfWritten:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, text):
                self.f.write(text[: len(text) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(os, "fdopen", lambda fd, mode: HalfWritten(fdopen(fd, mode)))
    with pytest.raises(OSError, match="disk full"):
        D.write_dataset(mixed_samples[:6], tmp_path)
    assert (tmp_path / D.MANIFEST_NAME).read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == sorted([D.MANIFEST_NAME, D.TENSOR_DIR])



def test_write_dataset_removes_tensor_files_its_manifest_does_not_name(tmp_path, mixed_samples):
    """A smaller dataset written over a larger one reads back as itself; a
    directory under tensors/ is not a tensor file: it stays and is not read."""
    D.write_dataset(mixed_samples[:6], tmp_path)
    (tmp_path / D.TENSOR_DIR / "keep").mkdir()
    D.write_dataset(mixed_samples[:3], tmp_path)
    names = [f"{i:08d}_{m}.gzt" for i in range(3) for m in mixed_samples[0].images]
    assert sorted(os.listdir(tmp_path / D.TENSOR_DIR)) == sorted(names + ["keep"])
    assert [s.sample_id for s in D.read_dataset(tmp_path)] == [0, 1, 2]


def test_symlink_under_tensors_is_neither_read_nor_written_through(tmp_path, mixed_samples):
    """A symlink under tensors/ is not a tensor file: an unnamed one is not
    counted or swept, a named one reads as a missing file, and a write to
    its name fails instead of changing the file it points to."""
    data = tmp_path / "data"
    D.write_dataset(mixed_samples[:3], data)
    tensors = data / D.TENSOR_DIR
    outside = tmp_path / "outside.gzt"
    D.write_tensor(outside, np.zeros((3, 4, 4)))
    before = outside.read_bytes()
    (tensors / "extra.gzt").symlink_to(outside)
    assert len(D.read_dataset(data)) == 3
    D.write_dataset(mixed_samples[:2], data)
    assert (tensors / "extra.gzt").is_symlink()

    named = tensors / "00000001_raw.gzt"
    named.unlink()
    named.symlink_to(outside)
    with pytest.raises(DatasetError, match="missing file tensors/00000001_raw.gzt"):
        D.read_dataset(data)
    with pytest.raises(OSError):
        D.write_dataset(mixed_samples[:3], data)
    assert outside.read_bytes() == before and named.is_symlink()


def test_symlinked_tensor_directory_is_neither_read_nor_written_through(tmp_path,
                                                                         mixed_samples):
    other = tmp_path / "other"
    D.write_dataset(mixed_samples[:2], other)
    before = {p.name: p.read_bytes() for p in (other / D.TENSOR_DIR).iterdir()}
    data = tmp_path / "data"
    data.mkdir()
    (data / D.MANIFEST_NAME).write_bytes((other / D.MANIFEST_NAME).read_bytes())
    (data / D.TENSOR_DIR).symlink_to(other / D.TENSOR_DIR)
    with pytest.raises(DatasetError, match="missing file tensors/00000000_"):
        D.read_dataset(data)
    with pytest.raises(OSError, match="symlink"):
        D.write_dataset(mixed_samples[2:4], data)
    assert {p.name: p.read_bytes() for p in (other / D.TENSOR_DIR).iterdir()} == before


def test_dataset_without_manifest_is_typed_error(tmp_path, mixed_samples):
    D.write_dataset(mixed_samples[:2], tmp_path)
    (tmp_path / D.MANIFEST_NAME).unlink()
    with pytest.raises(DatasetError, match="missing manifest.jsonl"):
        D.read_dataset(tmp_path)


def test_manifest_line_that_is_not_json_is_typed_error(tmp_path, mixed_samples):
    D.write_dataset(mixed_samples[:3], tmp_path)
    manifest = tmp_path / D.MANIFEST_NAME
    lines = manifest.read_text().splitlines()
    lines[1] = lines[1][:-1]   # the closing brace cut off
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match="manifest.jsonl:2: invalid JSON"):
        D.read_dataset(tmp_path)

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
