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

import errno
import json
import math
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from .errors import DatasetError, DomainError, GazecastError
from .geometry import EyePoint, GazeVector2D, HeadBox, pixel_centers
from .parallel import usable_cpus
from .serialization import atomic_write
from .tensor import read_tensor, resize_nearest, write_tensor

IN_CONE_COS = 0.5          # checker threshold: candidate counts as "in cone"
CLEAR_MARGIN_COS = 0.35    # generator keeps non-targets below this


MAX_RESOLUTION = 512     # one sample's three f64 modalities then take 18.9 MB
MAX_DEPTH_LAYERS = 64    # neighbouring layers stay >= 0.01 apart in depth intensity
MAX_ITEMS = 64           # bound on n_objects and on n_people

_RULE_WEIGHTS = {"object": 0.3, "depth_distractor": 0.4, "person": 0.2, "hand": 0.1}


@dataclass
class SceneSpec:
    n_objects: int = 3
    n_people: int = 2
    depth_layers: int = 3
    resolution: int = 64
    seed: int = 0
    target_rule: str = "mixed"
    p_out_of_frame: float = 0.0

    def __post_init__(self):
        if not 1 <= self.n_people <= MAX_ITEMS:
            raise DatasetError(f"n_people must lie in [1, {MAX_ITEMS}], got {self.n_people}")
        if not 32 <= self.resolution <= MAX_RESOLUTION:
            raise DatasetError(
                f"resolution must lie in [32, {MAX_RESOLUTION}], got {self.resolution}")
        if self.target_rule not in (*_RULE_WEIGHTS, "mixed"):
            raise DatasetError(f"unknown target rule {self.target_rule!r}")
        if self.target_rule == "person" and self.n_people < 2:
            raise DatasetError("person rule needs n_people >= 2")
        if not 2 <= self.depth_layers <= MAX_DEPTH_LAYERS:
            raise DatasetError(
                f"depth_layers must lie in [2, {MAX_DEPTH_LAYERS}], got {self.depth_layers}")
        if not 0 <= self.n_objects <= MAX_ITEMS:
            raise DatasetError(f"n_objects must lie in [0, {MAX_ITEMS}], got {self.n_objects}")
        if self.seed < 0:
            raise DatasetError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.p_out_of_frame <= 1.0:  # NaN fails too
            raise DatasetError(f"p_out_of_frame must lie in [0, 1], got {self.p_out_of_frame}")


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
    persons: list[PersonInfo]          # persons[0] is the subject
    rule: str


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


# ---------------------------------------------------------------------------
# rasterization helpers
# ---------------------------------------------------------------------------


Window = tuple[slice, slice]       # (rows, columns) of the frame a mask covers
Shape = tuple[Window, np.ndarray]  # a window and the shape's mask on it


def _span(a: float, b: float, res: int, pad_px: float) -> slice:
    lo, hi = sorted((float(a), float(b)))
    return slice(max(0, math.floor(lo * res - pad_px)),
                 min(res, max(0, math.ceil(hi * res + pad_px))))


def _window(res: int, p0: np.ndarray, p1: np.ndarray,
            pad_px: float) -> tuple[Window, np.ndarray, np.ndarray]:
    """The frame's pixel-centre coordinates on the box spanned by the
    normalized points ``p0`` and ``p1``, grown by ``pad_px`` pixels plus one
    and clipped to the frame: a shape within ``pad_px`` of the box is tested
    on these pixels only."""
    rows = _span(p0[1], p1[1], res, pad_px + 1.0)
    cols = _span(p0[0], p1[0], res, pad_px + 1.0)
    gx, gy = pixel_centers(res, res)
    return (rows, cols), gx[rows, cols], gy[rows, cols]


def _disk(res: int, center: np.ndarray, radius_px: float) -> Shape:
    win, gx, gy = _window(res, center, center, radius_px)
    r = radius_px / res
    return win, (gx - center[0]) ** 2 + (gy - center[1]) ** 2 <= r * r


def _ring(res: int, center: np.ndarray, radius_px: float, width_px: float) -> Shape:
    win, gx, gy = _window(res, center, center, radius_px + width_px)
    d = np.hypot(gx - center[0], gy - center[1]) * res
    return win, np.abs(d - radius_px) <= width_px


def _segment(res: int, p0: np.ndarray, p1: np.ndarray, thickness_px: float) -> Shape:
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    den = dx * dx + dy * dy
    if den < 1e-18:
        return _disk(res, p0, thickness_px)
    win, gx, gy = _window(res, p0, p1, thickness_px)
    t = np.clip(((gx - p0[0]) * dx + (gy - p0[1]) * dy) / den, 0.0, 1.0)
    px, py = p0[0] + t * dx, p0[1] + t * dy
    return win, np.hypot(gx - px, gy - py) * res <= thickness_px


def _paint(img: np.ndarray, shape: Shape, color) -> None:
    (rows, cols), mask = shape
    img[:, rows, cols][:, mask] = np.asarray(color, dtype=img.dtype)[:, None]


def _full_frame(res: int, shape: Shape) -> np.ndarray:
    """A windowed shape's mask on the whole ``res x res`` frame."""
    (rows, cols), mask = shape
    full = np.zeros((res, res), dtype=bool)
    full[rows, cols] = mask
    return full


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


def _person_parts(person: PersonInfo, res: int) -> list[Shape]:
    """A person's silhouette in the order raw paints it: body, then arm and
    hand for each hand, then head."""
    parts = [_segment(res, person.neck, person.hip, 1.6)]
    for hand in person.hands:
        parts += [_segment(res, person.neck, hand, 1.0), _disk(res, hand, 1.6)]
    parts.append(_disk(res, person.head_center, person.head_radius_px))
    return parts


def _render_raw(layout: SceneLayout, res: int, rng: np.random.Generator,
                object_shapes: list[Shape], person_parts: list[list[Shape]]) -> np.ndarray:
    img = np.empty((3, res, res))
    base = rng.uniform(0.08, 0.30, size=3)
    img[:] = base[:, None, None]
    img += rng.uniform(0.0, 0.22, size=(3, res, res))
    for obj, shape in sorted(zip(layout.objects, object_shapes), key=lambda pair: pair[0].layer):
        _paint(img, shape, obj.color)
    for person, parts in zip(layout.persons, person_parts):
        r = person.head_radius_px
        skin = rng.uniform(0.75, 0.95)
        skin_color = (skin, 0.8 * skin, 0.62 * skin)
        colors = [person.body_color, *[person.body_color, skin_color] * len(person.hands),
                  skin_color]
        for part, color in zip(parts, colors):
            _paint(img, part, color)
        marker = person.head_center + 0.45 * (r / res) * person.facing
        _paint(img, _disk(res, marker, 0.38 * r), (0.08, 0.08, 0.1))
    return np.clip(img, 0.0, 1.0)


def _render_depth(layout: SceneLayout, res: int, n_layers: int,
                  object_shapes: list[Shape], person_parts: list[list[Shape]]) -> np.ndarray:
    img = np.full((3, res, res), 0.08)
    items = [*zip(layout.objects, ([s] for s in object_shapes)),
             *zip(layout.persons, person_parts)]
    for item, shapes in sorted(items, key=lambda it: it[0].layer):
        val = _layer_intensity(item.layer, n_layers)
        for shape in shapes:   # one grey: part by part paints their union
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


def _toward(eye: np.ndarray, point: np.ndarray) -> np.ndarray:
    v = point - eye
    return v / np.linalg.norm(v)


def generate_scene(spec: SceneSpec, sample_id: int = 0) -> SceneSample:
    """Render one sample; bit-identical for identical (spec, sample_id)."""
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, sample_id)))
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

    for _ in range(_MAX_ATTEMPTS):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        direction = np.array([math.cos(theta), math.sin(theta)])
        eye = subject_center + 0.35 * (head_r / res) * direction

        if out_of_frame:
            # gaze aims past the frame border; nothing is placed in the cone
            gaze_dir = direction
            break

        if rule in ("object", "depth_distractor"):
            delta = rng.uniform(0.20, 0.45)
            candidate = eye + delta * direction
            if not np.all((candidate > 0.08) & (candidate < 0.92)):
                continue
            obj_r = float(rng.uniform(2.5, 4.5)) * px_scale
            if not _far_from(candidate, placed, obj_r, res):
                continue
            gaze_dir = _toward(eye, candidate)
            target_point = candidate
            objects.append(ObjectInfo(candidate, obj_r, subject_layer,
                                      rng.uniform(0.5, 1.0, size=3)))
            placed.append((candidate, obj_r))
            if rule == "depth_distractor":
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
                    break
                else:
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
            gaze_dir = _toward(eye, head2)
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
            gaze_dir = _toward(eye, hand)
            target_point = hand
            extended_hand = hand
            break
    else:
        raise DatasetError(f"no feasible target placement after {_MAX_ATTEMPTS} attempts "
                           f"(rule={rule}, sample={sample_id})")

    # subject (built after gaze_dir is fixed so the facing encodes it)
    subject = _build_person(subject_center, head_r, subject_layer, gaze_dir, res, rng,
                            extended_hand=extended_hand, keep_hands_off_gaze=True)
    persons.append(subject)
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

    layout = SceneLayout(objects=objects, persons=persons, rule=rule)

    # raw and depth paint the same object and person silhouettes
    object_shapes = [_disk(res, o.center, o.radius_px) for o in objects]
    person_parts = [_person_parts(p, res) for p in persons]
    images = {
        "raw": _render_raw(layout, res, rng, object_shapes, person_parts),
        "depth": _render_depth(layout, res, n_layers, object_shapes, person_parts),
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
        eye=EyePoint(float(eye[0]), float(eye[1])),
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
    subject = layout.persons[0]
    if layout.rule in ("object", "depth_distractor"):
        candidates = [o.center for o in layout.objects if o.layer == subject.layer]
    elif layout.rule == "person":
        candidates = [p.head_center for p in layout.persons[1:]]
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
_TENSOR_PREFIX = TENSOR_DIR + "/"


def write_dataset(samples: list[SceneSample], path) -> None:
    """Directory layout: manifest.jsonl plus per-modality tensor files.

    The tensor files are written in place, then the manifest through
    ``atomic_write``: an interrupted write leaves the previous manifest, never
    a new one that names tensors which were not written. Once the manifest
    is in place, the regular files under ``tensors/`` that it does not name,
    such as those of an earlier, larger dataset, are removed.
    """
    _make_tensor_dir(path)
    _write_manifest(path, [_write_sample(s, path) for s in samples])


def write_generated(spec: SceneSpec, count: int, path) -> dict:
    """Generate samples ``0 .. count-1`` of ``spec`` into the dataset
    directory ``path`` and return their ``self_check`` counts.

    The ids are dealt round-robin into one share per CPU this process may run
    on, at most ``count``. This process runs share 0 and a forked child runs
    each other one. A share generates, writes and checks one scene at a time,
    so no process holds more than one scene. Each scene depends on
    ``(spec, sample_id)`` alone, so the bytes written do not depend on the
    number of shares. The manifest is written last, as by
    ``write_dataset``. An error in a child is raised here as the same typed
    error; every child is reaped before this returns or raises.

    Children are forked, not spawned, so they start with this process's
    imports: a spawned one would import numpy and gazecast again, which
    takes longer than a typical request. They use no thread of the parent;
    OpenBLAS stops its thread pool around a fork itself.
    """
    _make_tensor_dir(path)
    n = _share_count(count)
    children: dict[int, int] = {}   # pid -> read end of the pipe it answers on
    try:
        for share in range(1, n):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:   # never return into the caller's code, flush or run atexit
                    os.close(r)
                    payload = _share_payload(spec, range(share, count, n), path)
                    with open(w, "wb") as f:
                        f.write(payload)
                finally:
                    os._exit(0)
            children[pid] = r
            os.close(w)
        lines: list[str] = [""] * count
        lines[0::n], counts = _generate_share(spec, range(0, count, n), path)
        for share, r in enumerate(children.values(), start=1):
            with open(r, "rb", closefd=False) as f:
                payload = f.read()
            if not payload:
                raise GazecastError(f"{path}: a gen process ended without a result")
            result = pickle.loads(payload)
            if isinstance(result, BaseException):
                raise result
            lines[share::n], share_counts = result
            for key, value in share_counts.items():
                counts[key] += value
    finally:
        # a child that has answered has nothing left to do; one that has not
        # is abandoned because this process is raising
        for pid, r in children.items():
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    _write_manifest(path, lines)
    return counts


def _share_count(count: int) -> int:
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(usable_cpus(), count))


def _generate_share(spec: SceneSpec, ids: range, path) -> tuple[list[str], dict]:
    """Manifest lines and ``self_check`` counts of the scenes ``ids``."""
    lines, counts = [], self_check([])
    for i in ids:
        sample = generate_scene(spec, i)
        lines.append(_write_sample(sample, path))
        for key, value in self_check([sample]).items():
            counts[key] += value
    return lines, counts


def _share_payload(spec: SceneSpec, ids: range, path) -> bytes:
    """A child's answer: its share's result, or the error it raised."""
    try:
        return pickle.dumps(_generate_share(spec, ids, path))
    except BaseException as exc:   # an interrupt too: the parent re-raises it
        return pickle.dumps(exc)


def _write_sample(s: SceneSample, path) -> str:
    """Write a sample's tensor files; return its manifest line."""
    files = {}
    for m, img in s.images.items():
        rel = os.path.join(TENSOR_DIR, f"{s.sample_id:08d}_{m}.gzt")
        write_tensor(os.path.join(path, rel), img)
        files[m] = rel
    return json.dumps({
        "sample_id": s.sample_id,
        "head_box": s.head_box.as_list(),
        "eye": {"x": s.eye.x, "y": s.eye.y},
        "gaze_points": [list(p) for p in s.gaze_points],
        "in_frame": s.in_frame,
        "oracle_gaze_dir": [s.oracle_gaze_dir.x, s.oracle_gaze_dir.y],
        "files": files,
    })


def _write_manifest(path, lines: list[str]) -> None:
    with atomic_write(os.path.join(path, MANIFEST_NAME)) as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))
    named = {rel[len(_TENSOR_PREFIX):] for line in lines
             for rel in json.loads(line)["files"].values()}
    for name in _tensor_files(path) - named:
        os.remove(os.path.join(path, TENSOR_DIR, name))


def _make_tensor_dir(path) -> None:
    """Create the dataset's ``tensors/``; a symlink there is refused."""
    tensor_dir = os.path.join(path, TENSOR_DIR)
    if os.path.islink(tensor_dir):
        raise OSError(errno.ELOOP, "refusing to write through a symlink", tensor_dir)
    os.makedirs(tensor_dir, exist_ok=True)


def _tensor_files(path) -> set[str]:
    """Names of the regular files under the dataset's ``tensors/``; a
    symlink or directory, there or as ``tensors`` itself, is not followed."""
    tensor_dir = os.path.join(path, TENSOR_DIR)
    if os.path.islink(tensor_dir) or not os.path.isdir(tensor_dir):
        return set()
    with os.scandir(tensor_dir) as entries:
        return {e.name for e in entries if e.is_file(follow_symlinks=False)}


def read_dataset(path, sample_id: int | None = None) -> list[SceneSample]:
    """Read a dataset directory written by ``write_dataset``.

    Every manifest record is parsed and field-checked. Every file it names
    must be a regular file, not a symlink, and be named by no other record,
    and the tensor directory must hold no other regular file. All samples
    are returned with their tensors decoded; given ``sample_id``, only the
    samples with that id are decoded and returned.
    """
    manifest = os.path.join(path, MANIFEST_NAME)
    if not os.path.exists(manifest):
        raise DatasetError(f"{path}: missing {MANIFEST_NAME}")
    tensor_dir = os.path.join(path, TENSOR_DIR)
    tensor_files = _tensor_files(path)
    samples = []
    named: set[str] = set()
    with open(manifest, "rb") as f:
        for line_no, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
                names = _tensor_names(rec["files"])
                for name in names.values():
                    if name not in tensor_files:
                        raise DatasetError(f"{manifest}:{line_no}: manifest references "
                                           f"missing file {TENSOR_DIR}/{name}")
                    if name in named:
                        raise DatasetError(
                            f"{manifest}:{line_no}: {TENSOR_DIR}/{name} is named twice")
                    named.add(name)
                sample = _sample_from_record(rec, tensor_dir, names, sample_id)
                if sample is not None:
                    samples.append(sample)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{manifest}:{line_no}: invalid JSON ({exc})") from exc
            except (KeyError, TypeError, ValueError, AttributeError, DomainError) as exc:
                # bytes that are not UTF-8, a missing key, a value of the
                # wrong type or out of range
                raise DatasetError(
                    f"{manifest}:{line_no}: malformed record ({type(exc).__name__}: {exc})"
                ) from exc
    stray = tensor_files - named
    if stray:
        raise DatasetError(f"{path}: tensor files the manifest does not name: {sorted(stray)}")
    return samples


def _tensor_names(files: dict) -> dict[str, str]:
    """Modality -> ``name`` for a record's files. Every file must be exactly
    ``tensors/<name>``; the caller checks ``name`` against the directory's
    listing, so nothing outside the dataset is read."""
    names = {}
    for m, rel in files.items():
        name = rel[len(_TENSOR_PREFIX):]
        if not rel.startswith(_TENSOR_PREFIX) or "/" in name:
            raise ValueError(f"file {rel} is not {TENSOR_DIR}/<name>")
        names[m] = name
    return names


def _sample_from_record(rec: dict, tensor_dir, names: dict[str, str],
                        sample_id: int | None) -> SceneSample | None:
    """One checked manifest record, with its files already checked as
    ``names``. Every field is checked; the tensors are decoded and a sample
    returned only when ``sample_id`` is None or the record's id. Decoded
    images must share one (3, R, R) shape with R >= 1 and be finite."""
    rec_id = rec["sample_id"]
    if type(rec_id) is not int:   # also rejects true and false
        raise ValueError(f"sample_id {rec_id!r} is not an integer")
    gaze_points = []
    for p in rec["gaze_points"]:   # NaN fails the range check too
        if len(p) != 2 or not (0.0 <= float(p[0]) <= 1.0 and 0.0 <= float(p[1]) <= 1.0):
            raise ValueError(f"gaze point {p} is not an (x, y) pair in [0,1]^2")
        gaze_points.append((float(p[0]), float(p[1])))
    in_frame = rec["in_frame"]
    if in_frame not in (0, 1) or (in_frame == 1 and not gaze_points):
        raise ValueError(f"in_frame {in_frame!r} is not 0, or 1 with a gaze point")
    head_box = HeadBox(*rec["head_box"])
    eye = EyePoint(rec["eye"]["x"], rec["eye"]["y"])   # an older "source" key is ignored
    gaze_dir = GazeVector2D(*rec["oracle_gaze_dir"])
    if sample_id is not None and sample_id != rec_id:
        return None
    images = {m: read_tensor(os.path.join(tensor_dir, name)) for m, name in names.items()}
    shapes = {img.shape for img in images.values()}
    if len(shapes) > 1 or any(len(s) != 3 or s[0] != 3 or s[1] != s[2] for s in shapes):
        raise ValueError(f"modality images must share one (3, R, R) shape, got {sorted(shapes)}")
    for m, img in images.items():
        if img.size == 0 or not np.isfinite(img).all():
            raise ValueError(f"image {TENSOR_DIR}/{names[m]} is not finite with sides >= 1")
    return SceneSample(images=images, head_box=head_box, eye=eye, gaze_points=gaze_points,
                       in_frame=int(in_frame), oracle_gaze_dir=gaze_dir, sample_id=rec_id)


def crop_head(sample: SceneSample, source: str = "raw", crop_resolution: int = 64) -> np.ndarray:
    """Axis-aligned head crop of a modality, nearest-resized to a square."""
    img = sample.modality(source)
    res = img.shape[-1]
    box = sample.head_box
    x0 = max(0, min(int(math.floor(box.x_min * res)), res - 1))
    x1 = max(x0 + 1, min(int(math.ceil(box.x_max * res)), res))
    y0 = max(0, min(int(math.floor(box.y_min * res)), res - 1))
    y1 = max(y0 + 1, min(int(math.ceil(box.y_max * res)), res))
    return resize_nearest(img[:, y0:y1, x0:x1], crop_resolution, crop_resolution)
