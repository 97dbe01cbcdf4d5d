"""Span tracing of gazecast layers, installed from outside the package.

``Tracer.install()`` replaces the public functions and methods listed in
``LAYERS`` with wrappers that record one span per call: name, start, end,
parent span and the run the span belongs to. Functions are replaced in
every gazecast module that imported them by name, so ``from .x import f``
call sites are traced too. Spans stay in memory until ``write()``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict


def _conv_counts(args, kwargs, result):
    """Forward conv2d work computed from shapes: FLOPs and bytes touched."""
    x, weight = args[0], args[1]
    n = x.shape[0]
    k, c, kh, kw = weight.shape
    ho, wo = result.shape[-2:]
    moved = (x.size + weight.size + result.size) * result.data.dtype.itemsize
    return {"tensor.conv2d.gflop": 2.0 * n * k * c * kh * kw * ho * wo / 1e9,
            "tensor.conv2d.mb": moved / 1e6}


def _gzt_mb(arr) -> float:
    # GZT1 record: 4-byte magic, dtype and rank bytes, u32 dims, payload
    return (6 + 4 * arr.ndim + arr.nbytes) / 1e6


def _read_dataset_counts(args, kwargs, result):
    return {"data.read_dataset.samples": len(result),
            "data.read_dataset.mb": sum(_gzt_mb(img) for s in result for img in s.images.values())}


def _arrays_mb(arrays) -> float:
    return sum(a.nbytes for a in arrays) / 1e6


# (time metric, calls metric or None, module, attribute, class or None,
#  counter or None). The span name is the time metric without "_ms"/".ms";
# a counter maps (args, kwargs, result) to {metric: amount}.
LAYERS = [
    ("cli.main.ms", None, "cli", "main", None, None),
    ("tensor.conv2d.ms", "tensor.conv2d.calls", "tensor", "conv2d", None, _conv_counts),
    ("tensor.backward.ms", None, "tensor", "backward", None, None),
    ("tensor.gzt.read_ms", None, "tensor", "read_tensor", None,
     lambda a, k, r: {"tensor.gzt.read_mb": _gzt_mb(r)}),
    ("tensor.gzt.write_ms", None, "tensor", "write_tensor", None,
     lambda a, k, r: {"tensor.gzt.write_mb": _gzt_mb(a[1])}),
    ("nn.adamw.step_ms", None, "nn", "step", "AdamW", None),
    ("nn.load_state_dict.ms", None, "nn", "load_state_dict", "Module", None),
    ("encoders.gaze_subnet.fwd_ms", "encoders.gaze_subnet.calls",
     "encoders", "forward", "GazeSubnet", None),
    ("encoders.scene_extractor.fwd_ms", "encoders.scene_extractor.calls",
     "encoders", "forward", "SceneExtractor", None),
    ("fusion.attention.fwd_ms", None, "fusion", "forward", "AttentionFusion", None),
    ("fusion.apply_dropout.ms", None, "fusion", "apply_dropout", None, None),
    ("heads.heatmap.fwd_ms", None, "heads", "forward", "HeatmapHead", None),
    ("heads.losses.ms", None, "model", "compute_losses", None, None),
    ("geometry.cone_batch.ms", None, "geometry", "cone_batch", None, None),
    ("geometry.write_pgm.ms", None, "geometry", "write_pgm", None, None),
    ("metrics.auc_score.ms", "metrics.auc_score.calls", "metrics", "auc_score", None, None),
    ("model.init.ms", None, "model", "__init__", "GazeTargetModel", None),
    ("model.forward.ms", None, "model", "forward", "GazeTargetModel", None),
    ("model.build_batch.ms", None, "model", "build_batch", None, None),
    ("model.sample_features.ms", None, "model", "sample_features", None, None),
    ("data.generate_scene.ms", None, "data", "generate_scene", None, None),
    ("data.self_check.ms", None, "data", "self_check", None, None),
    ("data.write_dataset.ms", None, "data", "write_dataset", None, None),
    ("data.read_dataset.ms", None, "data", "read_dataset", None, _read_dataset_counts),
    ("serialization.load_checkpoint.ms", None, "serialization", "load_checkpoint", None,
     lambda a, k, r: {"serialization.load_checkpoint.mb": _arrays_mb(r[0].values())}),
    ("serialization.save_checkpoint.ms", None, "serialization", "save_checkpoint", None,
     lambda a, k, r: {"serialization.save_checkpoint.mb": _arrays_mb(a[1].values())}),
    ("evaluate.evaluate_model.ms", None, "evaluate", "evaluate_model", None, None),
    ("train.train_model.ms", None, "train", "train_model", None, None),
]
COUNTERS = ("tensor.conv2d.gflop", "tensor.conv2d.mb", "tensor.gzt.read_mb",
            "tensor.gzt.write_mb", "data.read_dataset.samples", "data.read_dataset.mb",
            "serialization.load_checkpoint.mb", "serialization.save_checkpoint.mb")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []       # (id, parent, name, start, end, thread)
        self.counts = defaultdict(float)   # counter metric -> total
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, threading.get_ident()))
            if counter is not None:
                with self._lock:
                    for key, val in counter(args, kwargs, result).items():
                        self.counts[key] += val
            return result
        return traced

    def install(self, package) -> None:
        import importlib

        def module(name):
            return importlib.import_module(f"{package.__name__}.{name}")

        importers = [module(m) for m in ("cli", "tensor", "nn", "encoders", "fusion", "heads",
                                         "geometry", "metrics", "model", "data",
                                         "serialization", "evaluate", "train")]
        for metric, _, mod, attr, cls, counter in LAYERS:
            name = metric[:-3]
            owner = getattr(module(mod), cls) if cls else module(mod)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original, counter)
            targets = [owner] if cls else [m for m in importers if m.__dict__.get(attr) is original]
            for target in targets:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def write(self, f) -> None:
        """One JSON line per span to the open text file ``f``."""
        for sid, parent, name, start, end, thread in self.spans:
            f.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                "name": name, "start": start, "end": end,
                                "thread": thread}) + "\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time in seconds.

        Self time is the span's duration minus the union of the intervals its
        child spans cover (children can overlap when evaluation uses threads).
        """
        children = defaultdict(list)
        for sid, parent, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for sid, _, name, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            row = out[name]
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - covered
        return dict(out)

    def coverage(self, root: str) -> float:
        """Share of the time in ``root`` spans that their child spans cover."""
        roots = {sid: end - start for sid, _, name, start, end, _ in self.spans if name == root}
        below = sum(end - start for _, parent, _, start, end, _ in self.spans if parent in roots)
        return below / sum(roots.values())
