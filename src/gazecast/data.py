"""Synthetic oracle scenes: correlated raw/depth/pose modalities with the
true gaze target known by construction, plus the on-disk dataset format.

Scene recipe. A subject person looks at a target chosen by ``target_rule``:

  * ``object``            a colored blob at the subject's depth layer;
  * ``depth_distractor``  same, plus a second blob placed exactly on the
                          gaze ray but at a different depth layer -- only
                          the depth modality can tell them apart;
  * ``person``            another person's head;
  * ``hand``              the subject's own extended hand (manipulation);
  * ``mixed``             per-sample random choice among the above.

Every other salient item at the subject's depth layer is kept well outside
the gaze cone, so "nearest in-cone candidate at the subject's layer" has a
unique answer that ``expected_target`` recomputes independently of the
generation path.

Modalities: raw shows everything on a textured background; depth encodes
each item's layer as replicated grayscale intensity (no color or texture);
pose shows only skeleton stick figures with fixed per-limb colors and a
nose line that encodes facing direction. Blob size and color are drawn
independently of depth layer, so raw carries no depth shortcut.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DatasetError, DomainError
from .geometry import EyePoint, GazeVector2D, HeadBox
from .tensor import read_tensor, write_tensor

IN_CONE_COS = 0.5          # checker threshold: candidate counts as "in cone"
CLEAR_MARGIN_COS = 0.35    # generator keeps non-targets below this


@dataclass
class SceneSpec:
    n_objects: int = 3
    n_people: int = 2
    depth_layers: int = 3
    resolution: int = 64
    rng_seed: int = 0
    target_rule: str = "mixed"
    p_out_of_frame: float = 0.0

    def __post_init__(self):
        if self.n_people < 1:
            raise DatasetError("scene needs at least one person")
        if self.resolution < 32:
            raise DatasetError("resolution must be >= 32")
        if self.target_rule not in ("object", "depth_distractor", "person", "hand", "mixed"):
            raise DatasetError(f"unknown target rule {self.target_rule!r}")
        if self.target_rule == "person" and self.n_people < 2:
            raise DatasetError("person rule needs n_people >= 2")
        if self.depth_layers < 2:
            raise DatasetError("need at least two depth layers")


@dataclass
class ObjectInfo:
    center: np.ndarray     # normalized (x, y)
    radius_px: float
    layer: int
    color: np.ndarray      # rgb in [0,1]


@dataclass
class PersonInfo:
    head_center: np.ndarray
    head_radius_px: float
    layer: int
    facing: np.ndarray     # unit vector
    eye_mid: np.ndarray
    neck: np.ndarray
    hip: np.ndarray
    hands: tuple[np.ndarray, np.ndarray]
    body_color: np.ndarray


@dataclass
class SceneLayout:
    objects: list[ObjectInfo]
    persons: list[PersonInfo]
    subject_idx: int
    rule: str
    target_point: np.ndarray | None   # None when the target is off-frame


@dataclass
class SceneSample:
    images: dict[str, np.ndarray]     # modality -> (3, R, R); read via .modality()
    head_box: HeadBox
    eye: EyePoint
    gaze_points: list[tuple[float, float]]
    in_frame: int
    oracle_gaze_dir: GazeVector2D
    sample_id: int
    layout: SceneLayout | None = None  # generation-time only, never serialized

    def modality(self, name: str) -> np.ndarray:
        """Checked accessor: a modality the sample lacks raises DatasetError,
        so a privacy configuration runs on samples that hold no raw image."""
        if name not in self.images:
            raise DatasetError(f"sample {self.sample_id} has no modality {name!r}")
        return self.images[name]

    @property
    def resolution(self) -> int:
        return next(iter(self.images.values())).shape[-1]


# ---------------------------------------------------------------------------
# rasterization helpers
# ---------------------------------------------------------------------------


_GRID_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _grid(res: int) -> tuple[np.ndarray, np.ndarray]:
    if res not in _GRID_CACHE:
        xs = (np.arange(res) + 0.5) / res
        gx, gy = np.meshgrid(xs, xs)
        gx.setflags(write=False)
        gy.setflags(write=False)
        _GRID_CACHE[res] = (gx, gy)
    return _GRID_CACHE[res]  # (X, Y), each (res, res)


def _disk(res: int, center: np.ndarray, radius_px: float) -> np.ndarray:
    gx, gy = _grid(res)
    r = radius_px / res
    return (gx - center[0]) ** 2 + (gy - center[1]) ** 2 <= r * r


def _ring(res: int, center: np.ndarray, radius_px: float, width_px: float) -> np.ndarray:
    gx, gy = _grid(res)
    d = np.hypot(gx - center[0], gy - center[1]) * res
    return np.abs(d - radius_px) <= width_px


def _segment(res: int, p0: np.ndarray, p1: np.ndarray, thickness_px: float) -> np.ndarray:
    gx, gy = _grid(res)
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    den = dx * dx + dy * dy
    if den < 1e-18:
        return _disk(res, p0, thickness_px)
    t = np.clip(((gx - p0[0]) * dx + (gy - p0[1]) * dy) / den, 0.0, 1.0)
    px, py = p0[0] + t * dx, p0[1] + t * dy
    return np.hypot(gx - px, gy - py) * res <= thickness_px


def _paint(img: np.ndarray, mask: np.ndarray, color) -> None:
    img[:, mask] = np.asarray(color, dtype=img.dtype)[:, None]


def _rot(v: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


# fixed per-limb pose colors (same semantics for every person)
POSE_COLORS = {
    "head": (0.9, 0.9, 0.2),
    "nose": (0.95, 0.2, 0.2),
    "eye": (0.2, 0.9, 0.95),
    "spine": (0.2, 0.95, 0.3),
    "arm": (0.3, 0.4, 0.95),
    "hand": (0.95, 0.6, 0.2),
}


def _layer_intensity(layer: int, n_layers: int) -> float:
    # nearer layers brighter, background darkest
    return 0.25 + 0.65 * (layer + 1) / n_layers


def _build_person(head_center: np.ndarray, head_radius_px: float, layer: int,
                  facing: np.ndarray, res: int, rng: np.random.Generator,
                  extended_hand: np.ndarray | None = None,
                  keep_hands_off_gaze: bool = False) -> PersonInfo:
    r = head_radius_px / res
    eye_mid = head_center + 0.35 * r * facing
    neck = head_center + np.array([0.0, 1.3 * r])
    hip = neck + np.array([0.0, 2.6 * r])
    if keep_hands_off_gaze:
        # resting hands rotated well away from the gaze direction so they
        # can never be in-cone candidates themselves
        side_l = neck + _rot(facing, math.radians(135.0)) * 2.2 * r
        side_r = neck + _rot(facing, math.radians(-135.0)) * 2.2 * r
    else:
        down = np.array([0.0, 1.0])
        side_l = neck + _rot(down, math.radians(35.0)) * 2.2 * r
        side_r = neck + _rot(down, math.radians(-35.0)) * 2.2 * r
    if extended_hand is not None:
        hands = (extended_hand.copy(), side_r)
    else:
        hands = (side_l, side_r)
    return PersonInfo(
        head_center=head_center, head_radius_px=head_radius_px, layer=layer,
        facing=facing, eye_mid=eye_mid, neck=neck, hip=hip, hands=hands,
        body_color=rng.uniform(0.45, 1.0, size=3),
    )


def _render_raw(layout: SceneLayout, res: int, rng: np.random.Generator) -> np.ndarray:
    img = np.empty((3, res, res))
    base = rng.uniform(0.08, 0.30, size=3)
    img[:] = base[:, None, None]
    img += rng.uniform(0.0, 0.22, size=(3, res, res))
    for obj in sorted(layout.objects, key=lambda o: o.layer):
        _paint(img, _disk(res, obj.center, obj.radius_px), obj.color)
    for person in layout.persons:
        r = person.head_radius_px
        skin = rng.uniform(0.75, 0.95)
        skin_color = (skin, 0.8 * skin, 0.62 * skin)
        _paint(img, _segment(res, person.neck, person.hip, 1.6), person.body_color)
        for hand in person.hands:
            _paint(img, _segment(res, person.neck, hand, 1.0), person.body_color)
            _paint(img, _disk(res, hand, 1.6), skin_color)
        _paint(img, _disk(res, person.head_center, r), skin_color)
        marker = person.head_center + 0.45 * (r / res) * person.facing
        _paint(img, _disk(res, marker, 0.38 * r), (0.08, 0.08, 0.1))
    return np.clip(img, 0.0, 1.0)


def _render_depth(layout: SceneLayout, res: int, n_layers: int) -> np.ndarray:
    img = np.full((3, res, res), 0.08)
    order = sorted(
        [("obj", o) for o in layout.objects] + [("per", p) for p in layout.persons],
        key=lambda kv: kv[1].layer,
    )
    for kind, item in order:
        val = _layer_intensity(item.layer, n_layers)
        if kind == "obj":
            _paint(img, _disk(res, item.center, item.radius_px), (val, val, val))
        else:
            shape = _disk(res, item.head_center, item.head_radius_px)
            shape |= _segment(res, item.neck, item.hip, 1.6)
            for hand in item.hands:
                shape |= _segment(res, item.neck, hand, 1.0)
                shape |= _disk(res, hand, 1.6)
            _paint(img, shape, (val, val, val))
    return img


def _render_pose(layout: SceneLayout, res: int) -> np.ndarray:
    img = np.zeros((3, res, res))
    for person in layout.persons:
        r = person.head_radius_px
        rn = r / res
        _paint(img, _segment(res, person.neck, person.hip, 1.4), POSE_COLORS["spine"])
        for hand in person.hands:
            _paint(img, _segment(res, person.neck, hand, 1.2), POSE_COLORS["arm"])
            _paint(img, _disk(res, hand, 1.5), POSE_COLORS["hand"])
        _paint(img, _ring(res, person.head_center, r, 1.0), POSE_COLORS["head"])
        nose_tip = person.head_center + 0.9 * rn * person.facing
        _paint(img, _segment(res, person.head_center, nose_tip, 1.1), POSE_COLORS["nose"])
        perp = np.array([-person.facing[1], person.facing[0]])
        for sign in (-1.0, 1.0):
            dot = person.eye_mid + sign * 0.45 * rn * perp
            _paint(img, _disk(res, dot, 0.8), POSE_COLORS["eye"])
    return img


# ---------------------------------------------------------------------------
# scene generation
# ---------------------------------------------------------------------------

_RULE_WEIGHTS = {"object": 0.3, "depth_distractor": 0.4, "person": 0.2, "hand": 0.1}
_MAX_ATTEMPTS = 100


def _cos_to(eye: np.ndarray, gaze_dir: np.ndarray, point: np.ndarray) -> float:
    v = point - eye
    n = np.linalg.norm(v)
    if n < 1e-12:
        return 1.0
    return float(np.dot(v, gaze_dir) / n)


def _far_from(point: np.ndarray, others: list[tuple[np.ndarray, float]],
              radius_px: float, res: int) -> bool:
    for center, r in others:
        if np.linalg.norm(point - center) * res < radius_px + r + 2.0:
            return False
    return True


def generate_scene(spec: SceneSpec, sample_id: int = 0) -> SceneSample:
    """Render one sample; bit-identical for identical (spec, sample_id)."""
    rng = np.random.default_rng(np.random.SeedSequence((spec.rng_seed, sample_id)))
    res = spec.resolution
    n_layers = spec.depth_layers

    rule = spec.target_rule
    if rule == "mixed":
        names = [r for r in _RULE_WEIGHTS if r != "person" or spec.n_people >= 2]
        weights = np.array([_RULE_WEIGHTS[r] for r in names])
        rule = str(rng.choice(names, p=weights / weights.sum()))

    px_scale = res / 64.0  # shape sizes scale with resolution
    subject_center = rng.uniform(0.22, 0.78, size=2)
    head_r = float(rng.uniform(4.0, 6.0)) * px_scale
    subject_layer = int(rng.integers(0, n_layers))
    out_of_frame = bool(rng.random() < spec.p_out_of_frame)

    placed: list[tuple[np.ndarray, float]] = [(subject_center, 2.0 * head_r)]
    objects: list[ObjectInfo] = []
    persons: list[PersonInfo] = []
    target_point: np.ndarray | None = None
    target_person: PersonInfo | None = None
    extended_hand: np.ndarray | None = None

    for attempt in range(_MAX_ATTEMPTS + 1):
        if attempt == _MAX_ATTEMPTS:
            raise DatasetError(
                f"no feasible target placement after {_MAX_ATTEMPTS} attempts "
                f"(rule={rule}, sample={sample_id})"
            )
        theta = rng.uniform(0.0, 2.0 * math.pi)
        direction = np.array([math.cos(theta), math.sin(theta)])
        eye = subject_center + 0.35 * (head_r / res) * direction

        if out_of_frame:
            # gaze aims past the frame border; nothing is placed in the cone
            gaze_dir = direction
            target_point = None
            break

        if rule in ("object", "depth_distractor"):
            delta = rng.uniform(0.20, 0.45)
            candidate = eye + delta * direction
            if not np.all((candidate > 0.08) & (candidate < 0.92)):
                continue
            obj_r = float(rng.uniform(2.5, 4.5)) * px_scale
            if not _far_from(candidate, placed, obj_r, res):
                continue
            gaze_dir = (candidate - eye) / np.linalg.norm(candidate - eye)
            target_point = candidate
            objects.append(ObjectInfo(candidate, obj_r, subject_layer,
                                      rng.uniform(0.5, 1.0, size=3)))
            placed.append((candidate, obj_r))
            if rule == "depth_distractor":
                ok = False
                for _ in range(_MAX_ATTEMPTS):
                    # distance drawn from the same marginal as the target, so
                    # raw-image geometry carries no depth shortcut
                    d2 = rng.uniform(0.20, 0.45)
                    other = eye + d2 * gaze_dir
                    r2 = float(rng.uniform(2.5, 4.5)) * px_scale
                    if not np.all((other > 0.08) & (other < 0.92)):
                        continue
                    if not _far_from(other, placed, r2, res):
                        continue
                    other_layers = [l for l in range(n_layers) if l != subject_layer]
                    layer2 = int(rng.choice(other_layers))
                    objects.append(ObjectInfo(other, r2, layer2,
                                              rng.uniform(0.5, 1.0, size=3)))
                    placed.append((other, r2))
                    ok = True
                    break
                if not ok:
                    objects.clear()
                    placed[:] = [(subject_center, 2.0 * head_r)]
                    continue
            break

        if rule == "person":
            delta = rng.uniform(0.30, 0.55)
            head2 = eye + delta * direction
            r2 = float(rng.uniform(4.0, 6.0)) * px_scale
            if not np.all((head2 > 0.12) & (head2 < 0.88)):
                continue
            if not _far_from(head2, placed, 2.5 * r2, res):
                continue
            gaze_dir = (head2 - eye) / np.linalg.norm(head2 - eye)
            target_point = head2
            facing2 = _unit(rng.normal(size=2), rng)
            target_person = _build_person(head2, r2, subject_layer, facing2, res, rng)
            placed.append((head2, 2.5 * r2))
            break

        if rule == "hand":
            reach = rng.uniform(0.12, 0.20)
            hand = eye + reach * direction
            if not np.all((hand > 0.05) & (hand < 0.95)):
                continue
            gaze_dir = (hand - eye) / np.linalg.norm(hand - eye)
            target_point = hand
            extended_hand = hand
            break

    # subject (built after gaze_dir is fixed so the facing encodes it)
    subject = _build_person(subject_center, head_r, subject_layer, gaze_dir, res, rng,
                            extended_hand=extended_hand, keep_hands_off_gaze=True)
    persons.append(subject)
    subject_idx = 0
    if target_person is not None:
        persons.append(target_person)

    eye = subject.eye_mid

    # remaining persons stay well clear of the cone
    while len(persons) < spec.n_people:
        extra = _place_clear(rng, eye, gaze_dir, placed, res, head_px=5.0 * px_scale)
        if extra is None:
            break
        facing = _unit(rng.normal(size=2), rng)
        persons.append(_build_person(extra, float(rng.uniform(4.0, 6.0)) * px_scale,
                                     int(rng.integers(0, n_layers)), facing, res, rng))
        placed.append((extra, 20.0 * px_scale))

    # remaining objects: same-layer ones must be clearly outside the cone;
    # other-layer ones may fall anywhere that doesn't collide
    while len(objects) < spec.n_objects:
        obj_r = float(rng.uniform(2.5, 4.5)) * px_scale
        layer = int(rng.integers(0, n_layers))
        need_clear = (layer == subject_layer) or out_of_frame
        pos = _place_clear(rng, eye, gaze_dir, placed, res, head_px=obj_r,
                           require_outside_cone=need_clear)
        if pos is None:
            break
        objects.append(ObjectInfo(pos, obj_r, layer, rng.uniform(0.5, 1.0, size=3)))
        placed.append((pos, obj_r))

    layout = SceneLayout(objects=objects, persons=persons, subject_idx=subject_idx,
                         rule=rule, target_point=target_point)

    images = {
        "raw": _render_raw(layout, res, rng),
        "depth": _render_depth(layout, res, n_layers),
        "pose": _render_pose(layout, res),
    }

    margin = (head_r + 2.0) / res
    box = HeadBox(
        x_min=max(0.0, subject_center[0] - margin),
        y_min=max(0.0, subject_center[1] - margin),
        x_max=min(1.0, subject_center[0] + margin),
        y_max=min(1.0, subject_center[1] + margin),
    )
    gaze_points = [] if target_point is None else [(float(target_point[0]), float(target_point[1]))]
    return SceneSample(
        images=images,
        head_box=box,
        eye=EyePoint(float(eye[0]), float(eye[1]), source="annotated"),
        gaze_points=gaze_points,
        in_frame=0 if target_point is None else 1,
        oracle_gaze_dir=GazeVector2D.of(float(gaze_dir[0]), float(gaze_dir[1])),
        sample_id=int(sample_id),
        layout=layout,
    )


def _unit(v: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = np.linalg.norm(v)
    while n < 1e-9:
        v = rng.normal(size=2)
        n = np.linalg.norm(v)
    return v / n


def _exit_distance(origin: np.ndarray, direction: np.ndarray) -> float:
    best = math.inf
    for axis in range(2):
        if abs(direction[axis]) > 1e-12:
            for border in (0.0, 1.0):
                t = (border - origin[axis]) / direction[axis]
                if t > 0:
                    best = min(best, t)
    return best if math.isfinite(best) else 1.5


def _place_clear(rng, eye, gaze_dir, placed, res, head_px,
                 require_outside_cone: bool = True) -> np.ndarray | None:
    for _ in range(_MAX_ATTEMPTS):
        pos = rng.uniform(0.08, 0.92, size=2)
        if require_outside_cone and _cos_to(eye, gaze_dir, pos) >= CLEAR_MARGIN_COS:
            continue
        if not _far_from(pos, placed, head_px, res):
            continue
        return pos
    return None


def generate_dataset(spec: SceneSpec, count: int) -> list[SceneSample]:
    return [generate_scene(spec, sample_id=i) for i in range(count)]


# ---------------------------------------------------------------------------
# independent oracle checker
# ---------------------------------------------------------------------------


def expected_target(layout: SceneLayout, eye: np.ndarray,
                    gaze_dir: np.ndarray) -> np.ndarray | None:
    """Recompute the target from the layout alone: the nearest candidate
    inside the cone (cos >= 0.5) at the subject's depth layer. Candidate set
    depends on the scene's rule. Returns None when the cone is empty."""
    subject = layout.persons[layout.subject_idx]
    if layout.rule in ("object", "depth_distractor"):
        candidates = [o.center for o in layout.objects if o.layer == subject.layer]
    elif layout.rule == "person":
        candidates = [p.head_center for i, p in enumerate(layout.persons)
                      if i != layout.subject_idx]
    elif layout.rule == "hand":
        candidates = list(subject.hands)
    else:
        raise DomainError(f"unknown rule {layout.rule!r}")
    best, best_d = None, math.inf
    for c in candidates:
        d = float(np.linalg.norm(c - eye))
        if d < 1e-12:
            continue
        if _cos_to(eye, gaze_dir, c) >= IN_CONE_COS and d < best_d:
            best, best_d = c, d
    return best


def self_check(samples: list[SceneSample]) -> dict:
    """Generator sanity over a batch: oracle-consistency plus cone containment."""
    checked = mismatches = cone_violations = 0
    for s in samples:
        if s.layout is None:
            continue
        eye = s.eye.xy
        gdir = s.oracle_gaze_dir.xy
        recomputed = expected_target(s.layout, eye, gdir)
        if s.in_frame:
            checked += 1
            if recomputed is None or np.linalg.norm(recomputed - np.asarray(s.gaze_points[0])) > 1e-9:
                mismatches += 1
            if _cos_to(eye, gdir, np.asarray(s.gaze_points[0])) <= 0.0:
                cone_violations += 1
        elif recomputed is not None:
            mismatches += 1
    return {"checked": checked, "mismatches": mismatches, "cone_violations": cone_violations}


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.jsonl"
TENSOR_DIR = "tensors"


def write_dataset(samples: list[SceneSample], path) -> None:
    """Directory layout: manifest.jsonl plus per-modality tensor files."""
    os.makedirs(os.path.join(path, TENSOR_DIR), exist_ok=True)
    lines = []
    for s in samples:
        files = {}
        for m, img in s.images.items():
            rel = os.path.join(TENSOR_DIR, f"{s.sample_id:08d}_{m}.gzt")
            write_tensor(os.path.join(path, rel), img)
            files[m] = rel
        lines.append(json.dumps({
            "sample_id": s.sample_id,
            "head_box": s.head_box.as_list(),
            "eye": {"x": s.eye.x, "y": s.eye.y, "source": s.eye.source},
            "gaze_points": [list(p) for p in s.gaze_points],
            "in_frame": s.in_frame,
            "oracle_gaze_dir": [s.oracle_gaze_dir.x, s.oracle_gaze_dir.y],
            "files": files,
        }))
    with open(os.path.join(path, MANIFEST_NAME), "w") as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))


def read_dataset(path) -> list[SceneSample]:
    manifest = os.path.join(path, MANIFEST_NAME)
    if not os.path.exists(manifest):
        raise DatasetError(f"{path}: missing {MANIFEST_NAME}")
    samples = []
    with open(manifest) as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                samples.append(_sample_from_record(json.loads(line), path))
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{manifest}:{line_no}: invalid JSON ({exc})") from exc
            except (KeyError, TypeError, ValueError, AttributeError, DomainError) as exc:
                # a missing key, a value of the wrong type or out of range
                raise DatasetError(
                    f"{manifest}:{line_no}: malformed record ({type(exc).__name__}: {exc})"
                ) from exc
    tensor_dir = os.path.join(path, TENSOR_DIR)
    n_files = len(os.listdir(tensor_dir)) if os.path.isdir(tensor_dir) else 0
    expected = sum(len(s.images) for s in samples)
    if n_files != expected:
        raise DatasetError(
            f"{path}: manifest lists {expected} tensor files but directory has {n_files}"
        )
    return samples


def _sample_from_record(rec: dict, path) -> SceneSample:
    images = {}
    for m, rel in rec["files"].items():
        full = os.path.join(path, rel)
        if not os.path.exists(full):
            raise DatasetError(f"{path}: manifest references missing file {rel}")
        images[m] = read_tensor(full)
    return SceneSample(
        images=images,
        head_box=HeadBox(*rec["head_box"]),
        eye=EyePoint(rec["eye"]["x"], rec["eye"]["y"], rec["eye"]["source"]),
        gaze_points=[tuple(p) for p in rec["gaze_points"]],
        in_frame=int(rec["in_frame"]),
        oracle_gaze_dir=GazeVector2D(*rec["oracle_gaze_dir"]),
        sample_id=int(rec["sample_id"]),
    )


def train_test_split(samples: list[SceneSample], fraction: float,
                     seed: int) -> tuple[list[SceneSample], list[SceneSample]]:
    """Deterministic disjoint exhaustive split; ``fraction`` is the train share."""
    if not (0.0 < fraction < 1.0):
        raise DatasetError(f"split fraction {fraction} outside (0,1)")
    idx = np.random.default_rng(seed).permutation(len(samples))
    n_train = int(round(len(samples) * fraction))
    if n_train == 0 or n_train == len(samples):
        raise DatasetError(f"fraction {fraction} leaves an empty split for {len(samples)} samples")
    train = [samples[i] for i in idx[:n_train]]
    test = [samples[i] for i in idx[n_train:]]
    return train, test


def resize_nearest(img: np.ndarray, out_res: int) -> np.ndarray:
    """Nearest-neighbor resize of a (C, H, W) image to (C, out_res, out_res)."""
    h, w = img.shape[-2:]
    if (h, w) == (out_res, out_res):
        return img
    rows = np.floor((np.arange(out_res) + 0.5) * h / out_res).astype(int)
    cols = np.floor((np.arange(out_res) + 0.5) * w / out_res).astype(int)
    return img[:, rows][:, :, cols]


def crop_head(sample: SceneSample, source: str = "raw", crop_resolution: int = 64) -> np.ndarray:
    """Axis-aligned head crop of a modality, nearest-resized to a square."""
    img = sample.modality(source)
    res = img.shape[-1]
    box = sample.head_box
    x0 = max(0, min(int(math.floor(box.x_min * res)), res - 1))
    x1 = max(x0 + 1, min(int(math.ceil(box.x_max * res)), res))
    y0 = max(0, min(int(math.floor(box.y_min * res)), res - 1))
    y1 = max(y0 + 1, min(int(math.ceil(box.y_max * res)), res))
    return resize_nearest(img[:, y0:y1, x0:x1], crop_resolution)
