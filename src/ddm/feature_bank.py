"""Clip sampling and the multi-level feature bank.

A clip is T = 2w+1 frames gathered around a centre position at a fixed
stride, clamped at the video edges.  Each frame passes through a small
convolutional backbone (3x3 conv, relu, 2x2 average pool per stage); the
spatially pooled activations of stage i form the level-i frame sequence.
Each spatial sequence then feeds a set of dilated temporal convolutions,
one per dilation in the schedule, yielding m x n sequences in total -- the
feature bank.  The deepest spatial sequence itself (before any temporal
convolution) is kept as the appearance stream ``rgb``.

The backbone sees one frame at a time, so a frame's spatial features do not
depend on the clip it sits in: overlapping clips can share one backbone pass
per frame (:func:`ddm.inference.score_video` does).  Only the temporal levels
see clip borders.  :func:`build_feature_bank` is the two halves in a row,
:meth:`FeatureExtractor.spatial_sequences` then :func:`temporal_bank`.

Temporal convolutions are linear (no activation) and use edge replication
at the clip borders, so a constant sequence stays constant and an identity
kernel reproduces its input exactly.  A temporal bias adds one vector to
every frame of its level, so it cancels in the frame differences of the
euclidean, manhattan and chebyshev maps; the levels feed nothing but the
maps, so the biases matter only under the cosine metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ClipSpec, ModelConfig
from .errors import ContractError, DimensionError
from .synth import VideoRecord


def clip_indices(num_frames: int, center: int, spec: ClipSpec) -> np.ndarray:
    """Frame indices of the clip centred at ``center`` (length 2w+1)."""
    if num_frames < 1:
        raise ContractError("cannot sample a clip from an empty video")
    if not 0 <= center < num_frames:
        raise ContractError(
            f"clip centre {center} outside video of {num_frames} frames")
    offsets = np.arange(-spec.half_window, spec.half_window + 1) * spec.stride
    return np.clip(center + offsets, 0, num_frames - 1)


def sample_clip(video: VideoRecord, center: int, spec: ClipSpec) -> np.ndarray:
    """Gather the clip frames, shape (T, H, W, 3); edges repeat."""
    return video.frames[clip_indices(video.num_frames, center, spec)]


def _avg_pool_2x2(x: T.Tensor) -> T.Tensor:
    n, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    if h2 < 1 or w2 < 1:
        raise DimensionError(
            f"cannot 2x2-pool spatial extent {h}x{w}; input frames too small")
    if (h, w) != (2 * h2, 2 * w2):
        x = x[:, :2 * h2, :2 * w2, :]  # drop the odd last row / column
    return x.reshape(n, h2, 2, w2, 2, c).mean(axis=(2, 4))


class FeatureExtractor:
    """Backbone plus temporal pyramid; owns all their parameters."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.params: dict[str, T.Tensor] = {}
        cin = 3  # RGB frames
        for s, cout in enumerate(cfg.backbone_widths):
            self.params[f"backbone/{s}/w"] = T.uniform_init(
                rng, (3, 3, cin, cout), fan_in=9 * cin)
            self.params[f"backbone/{s}/b"] = T.parameter(np.zeros(cout))
            cin = cout
        k = cfg.temporal_kernel
        for s, width in enumerate(cfg.backbone_widths):
            for d, _ in enumerate(cfg.dilations):
                self.params[f"temporal/{s}/{d}/w"] = T.uniform_init(
                    rng, (k, width, width), fan_in=k * width)
                self.params[f"temporal/{s}/{d}/b"] = T.parameter(np.zeros(width))

    def named_params(self) -> dict[str, T.Tensor]:
        return dict(self.params)

    def spatial_sequences(self, clips) -> list[T.Tensor]:
        """Per-frame pooled activations of every backbone stage.

        ``clips`` is (B, T, H, W, C_in); returns one (B, T, C_s) sequence per
        stage.  All B*T frames go through the convolutions as one batch.
        """
        clips = clips if isinstance(clips, T.Tensor) else T.Tensor(clips)
        if clips.ndim != 5:
            raise DimensionError(
                f"clips must be (B, T, H, W, C), got shape {clips.shape}")
        b, t, h, w, c = clips.shape
        x = clips.reshape(b * t, h, w, c)
        seqs = []
        for s in range(len(self.cfg.backbone_widths)):
            x = T.relu(T.conv2d(x, self.params[f"backbone/{s}/w"],
                                self.params[f"backbone/{s}/b"]))
            x = _avg_pool_2x2(x)
            pooled = x.mean(axis=(1, 2))  # (B*T, C_s)
            seqs.append(pooled.reshape(b, t, pooled.shape[-1]))
        return seqs


@dataclass
class FeatureBank:
    """All level sequences of one clip batch.

    ``levels[s * n + d]`` is spatial stage s refined by temporal branch d,
    shape (B, T, width_s); ``rgb`` is the deepest spatial sequence itself
    (the appearance stream), shared by reference with the branch inputs.
    """

    levels: list[T.Tensor]
    rgb: T.Tensor


def build_feature_bank(extractor: FeatureExtractor, clips) -> FeatureBank:
    return temporal_bank(extractor, extractor.spatial_sequences(clips))


def temporal_bank(extractor: FeatureExtractor, seqs) -> FeatureBank:
    """The bank of per-stage spatial sequences, each (B, T, C_s)."""
    cfg = extractor.cfg
    if len(seqs) != len(cfg.backbone_widths):
        raise DimensionError(
            f"expected {len(cfg.backbone_widths)} stage sequences, got "
            f"{len(seqs)}")
    levels = []
    for s, seq in enumerate(seqs):
        for d, dilation in enumerate(cfg.dilations):
            out = T.conv1d(seq, extractor.params[f"temporal/{s}/{d}/w"],
                           extractor.params[f"temporal/{s}/{d}/b"],
                           dilation=dilation, pad_mode="edge")
            levels.append(out)
    return FeatureBank(levels=levels, rgb=seqs[-1])
