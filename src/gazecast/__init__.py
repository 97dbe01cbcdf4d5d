"""gazecast: desk-scale multimodal gaze target prediction.

Differentiable gaze-cone geometry, per-modality encoder-decoders with FPN
skips, attention fusion with modality dropout, heatmap/in-out prediction
heads, evaluation metrics, and a synthetic oracle scene generator -- all on
a small numpy autodiff core.
"""

__version__ = "0.1.0"

from .tensor import Tensor, Tape, backward, no_grad  # noqa: F401
