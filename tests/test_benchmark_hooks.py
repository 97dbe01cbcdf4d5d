"""The benchmark's hooks into the package. ``perfbench/tracing.py`` patches
the functions and methods its LAYERS table names, and ``perfbench/layers.py``
reads model attributes; a rename in the package would otherwise show only
as a failing ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from gazecast.config import RunConfig
from gazecast.model import GazeTargetModel
from gazecast.tensor import Tensor

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for metric, _, mod, attr, cls, _ in tracing.LAYERS:
        owner = importlib.import_module(f"gazecast.{mod}")
        if cls:
            owner = getattr(owner, cls)
        if attr not in owner.__dict__:
            missing.append(metric)
    assert not missing


def test_model_has_what_layer_probes_read():
    cfg = RunConfig(input_resolution=32, heatmap_resolution=32)
    model = GazeTargetModel(cfg)
    d, fr = cfg.feature_channels, cfg.feature_resolution
    assert model.heatmap_head.factor == 32 // fr
    assert model.heatmap_head.conv1.weight.shape[:2] == (d // 2, d)
    assert tuple(model.extractors) == cfg.modalities
    fmaps = {m: Tensor(np.ones((1, d, fr, fr))) for m in cfg.modalities}
    assert model.fusion(fmaps).combined.shape == (1, d, fr, fr)
    out = model.gaze_subnet(Tensor(np.ones((1, 3, 32, 32))))
    assert out.direction.shape == (1, 2) and out.embedding.shape == (1, cfg.embedding_size)
