"""The benchmark's hooks into the package. ``perfbench/tracing.py`` patches
the functions and methods its LAYERS table names, and ``perfbench/layers.py``
and ``perfbench/worker.py`` import names and read model attributes; a rename
or deletion in the package would otherwise show only as a failing
``perfbench/run.py`` run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gazecast import nn
from gazecast import tensor as T
from gazecast.config import RunConfig
from gazecast.model import GazeTargetModel
from gazecast.tensor import Tensor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


@pytest.mark.parametrize("script", ["layers.py", "worker.py"])
def test_benchmark_imports_resolve(script):
    """Every ``from gazecast... import name`` resolves, and every ``T.name``
    read through the tensor module alias exists."""
    tree = ast.parse((PERFBENCH / script).read_text())
    missing, tensor_aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gazecast"):
            owner = importlib.import_module(node.module)
            for alias in node.names:
                if node.module == "gazecast" and alias.name == "tensor":
                    tensor_aliases.add(alias.asname or alias.name)
                if not hasattr(owner, alias.name):
                    try:
                        importlib.import_module(f"{node.module}.{alias.name}")
                    except ImportError:
                        missing.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in tensor_aliases and not hasattr(T, node.attr)):
            missing.append(f"{node.value.id}.{node.attr}")
    assert not missing


def test_modules_can_clear_their_gradients():
    """``perfbench/layers.py`` calls ``model.zero_grad()`` between probes."""
    assert callable(nn.Module.__dict__.get("zero_grad"))


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
