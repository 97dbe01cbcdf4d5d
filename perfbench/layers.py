"""Per-layer metrics of one workload: the traced set-up, a traced
closed-loop segment, then isolated module measurements at the workload's
batch size and dtype.

Span metrics of the segment are per request (one ``gazecast.cli.main``
call), so they do not depend on how many requests fit in the run.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

from tracing import COUNTERS, LAYERS, Tracer

ISOLATED = ("encoders.gaze_subnet", "encoders.scene_extractor", "fusion.attention",
            "heads.heatmap")
REPS = 3   # isolated forward+backward repetitions; the median is reported
# layers that build a workload's inputs: their time in one set-up
SETUP = ("data.generate_scene", "data.write_dataset", "data.self_check", "model.init",
         "serialization.save_checkpoint")


def layer_metrics(gz, wl, loop, seconds: float, setup_tracer: Tracer, run_id: str,
                  spans_path: str) -> dict:
    untraced = loop.run(seconds / 2)
    tracer = Tracer(f"{run_id}/requests")
    tracer.install(gz)
    try:
        traced = loop.run(seconds / 2)
    finally:
        tracer.uninstall()
    with open(spans_path, "w") as f:
        setup_tracer.write(f)
        tracer.write(f)

    setup_spans = setup_tracer.summary()
    out = {f"setup.{span}.ms": 1000.0 * setup_spans.get(span, {"total": 0.0})["total"]
           for span in SETUP}
    n = len(traced)
    spans = tracer.summary()
    for metric, calls_metric, *_ in LAYERS:
        row = spans.get(metric[:-3], {"calls": 0, "total": 0.0})
        out[metric] = 1000.0 * row["total"] / n
        if calls_metric:
            out[calls_metric] = row["calls"] / n
    for name in COUNTERS:
        out[name] = tracer.counts.get(name, 0.0) / n
    for span in ("cli.main", "evaluate.evaluate_model", "train.train_model"):
        out[f"{span}.self_ms"] = 1000.0 * spans.get(span, {"self": 0.0})["self"] / n

    def rate(requests):
        return statistics.median(samples / elapsed for elapsed, samples in requests)

    plain, with_spans = rate(untraced), rate(traced)
    out["trace.requests"] = n
    out["trace.coverage_pct"] = 100.0 * tracer.coverage("cli.main")
    out["trace.samples_per_s_untraced"] = plain
    out["trace.samples_per_s_traced"] = with_spans
    out["trace.overhead_pct"] = 100.0 * (plain - with_spans) / plain
    out.update(module_probes(gz, wl))
    return out


def module_probes(gz, wl) -> dict:
    """Tape length of one train-mode forward, forward and backward time of
    each module alone, and the tracemalloc peak of HeatmapHead.conv1.

    Workloads without a model report zeros.
    """
    out = {"tensor.tape.nodes": 0, "tensor.conv2d.peak_alloc_mb": 0.0}
    for name in ISOLATED:
        out[f"{name}.iso_fwd_ms"] = out[f"{name}.bwd_ms"] = 0.0
    if not wl.forward_batch:
        return out

    from gazecast import tensor as T
    from gazecast.data import read_dataset
    from gazecast.encoders import concat_modality_inputs
    from gazecast.geometry import cone_batch
    from gazecast.model import GazeTargetModel, build_batch, compute_losses
    from gazecast.tensor import Tensor

    cfg = wl.cfg
    model = GazeTargetModel(cfg)   # also sets the process default dtype
    batch = build_batch(read_dataset(wl.data)[: wl.forward_batch], cfg)

    T.fresh_tape()
    compute_losses(model(batch), batch, cfg)
    out["tensor.tape.nodes"] = len(T.tape())
    T.fresh_tape()

    res = cfg.input_resolution
    with T.no_grad():
        crops = Tensor(batch.head_crops)
        cone = cone_batch(model.gaze_subnet(crops).direction, batch.eyes, res, res, cfg.aperture)
        mask = Tensor(batch.head_masks)
        inputs = {m: concat_modality_inputs(Tensor(batch.modality_images[m]), cone, mask)
                  for m in cfg.modalities}
        fmaps = {m: model.extractors[m](x) for m, x in inputs.items()}
        combined = model.fusion(fmaps).combined
        upsampled = T.upsample_nearest(combined, model.heatmap_head.factor)

    def leaf(t):
        return Tensor(t.data)

    first = cfg.modalities[0]
    cases = {
        "encoders.gaze_subnet": (lambda: model.gaze_subnet(crops),
                                 lambda o: T.add(T.tsum(o.direction), T.tsum(o.embedding))),
        "encoders.scene_extractor": (lambda: model.extractors[first](leaf(inputs[first])), T.tsum),
        "fusion.attention": (lambda: model.fusion({m: leaf(f) for m, f in fmaps.items()}),
                             lambda o: T.tsum(o.combined)),
        "heads.heatmap": (lambda: model.heatmap_head(leaf(combined)), T.tsum),
    }
    for name, (forward, reduce) in cases.items():
        fwd, bwd = [], []
        for _ in range(REPS):
            T.fresh_tape()
            t0 = time.perf_counter()
            result = forward()
            t1 = time.perf_counter()
            loss = reduce(result)
            t2 = time.perf_counter()
            T.backward(loss)
            t3 = time.perf_counter()
            model.zero_grad()
            fwd.append(t1 - t0)
            bwd.append(t3 - t2)
        out[f"{name}.iso_fwd_ms"] = 1000.0 * statistics.median(fwd)
        out[f"{name}.bwd_ms"] = 1000.0 * statistics.median(bwd)
    T.fresh_tape()

    tracemalloc.start()
    try:
        with T.no_grad():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model.heatmap_head.conv1(upsampled)
            out["tensor.conv2d.peak_alloc_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()
    return out
