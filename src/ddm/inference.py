"""Scoring videos and turning score curves into boundary predictions.

Every grid position (see :func:`ddm.training.evaluated_positions`) gets a
fused boundary probability from the model.  A position is kept iff its
score clears the threshold, is strictly greater than every score in the
preceding ``window`` positions, and at least as large as every score in
the following ``window`` positions.  The asymmetry (strict left, loose
right) picks the left-most position of a plateau and keeps neighbouring
duplicates out.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import PostConfig, RunConfig
from .errors import ContractError, NumericError
from .feature_bank import clip_indices, sample_clip  # noqa: F401 (re-export)
from .model import BoundaryModel
from .synth import VideoRecord
from .tensor import Tensor, no_grad
from .training import evaluated_positions

log = logging.getLogger("ddm.inference")


def score_video(model: BoundaryModel, video: VideoRecord, cfg: RunConfig,
                batch_size: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Fused boundary probability at every grid position.

    Returns (positions, scores), both 1-d with one entry per evaluated
    frame position.

    The backbone sees one frame at a time, so each distinct frame the clips
    read goes through it once, in chunks of at most ``batch_size`` clips'
    worth of frames; every batch of ``batch_size`` positions then gathers
    its clips' stage sequences and runs the temporal levels, which alone
    see clip borders, and everything after them.  Scores equal per-clip
    ``model.forward``; nothing outlives the call.
    """
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    positions = evaluated_positions(video.num_frames, cfg.eval_stride)
    index = np.stack([clip_indices(video.num_frames, int(pos), cfg.clip)
                      for pos in positions])  # (P, T) frame numbers
    frames, index = np.unique(index, return_inverse=True)
    index = index.reshape(len(positions), cfg.clip.length)
    chunk = batch_size * cfg.clip.length
    with no_grad():
        parts = []
        for lo in range(0, len(frames), chunk):
            batch = video.frames[frames[lo:lo + chunk]][None].astype(np.float64)
            parts.append([seq.data[0]
                          for seq in model.extractor.spatial_sequences(batch)])
        stages = [np.concatenate(s) for s in zip(*parts)]  # (frames, C_s)
        pieces = []
        for lo in range(0, len(positions), batch_size):
            rows = index[lo:lo + batch_size]
            out = model.forward_sequences([Tensor(s[rows]) for s in stages])
            pieces.append(out.fused.data.copy())
    return positions, np.concatenate(pieces)


def select_peaks(scores: np.ndarray, cfg: PostConfig) -> np.ndarray:
    """Indices of local maxima with score >= threshold.

    Kept entries are strictly above each of the previous ``window`` scores
    and >= each of the next ``window``; runs over tens of thousands of
    scores in well under a millisecond.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ContractError(f"scores must be 1-d, got shape {scores.shape}")
    if scores.size and not np.all(np.isfinite(scores)):
        raise NumericError("scores contain non-finite values")
    keep = scores >= cfg.theta
    # offsets reaching outside the array are vacuously satisfied
    limit = min(cfg.window, max(scores.size - 1, 0))
    pad = np.full(limit, -np.inf)
    for k in range(1, limit + 1):
        left = np.concatenate([pad[:k], scores[:-k]])
        right = np.concatenate([scores[k:], pad[:k]])
        keep &= (scores > left) & (scores >= right)
    return np.nonzero(keep)[0]


@dataclass(frozen=True)
class Prediction:
    """One ``predictions.jsonl`` line; its fields are the line's keys.
    Files written by other detectors may leave ``scores`` out."""

    video: str
    positions: tuple[int, ...]  # frame positions of kept peaks
    scores: tuple[float, ...] = ()  # fused probabilities at those positions


def predict_video(model: BoundaryModel, video: VideoRecord,
                  cfg: RunConfig) -> Prediction:
    return score_and_predict(model, video, cfg)[0]


def score_and_predict(model: BoundaryModel, video: VideoRecord,
                      cfg: RunConfig
                      ) -> tuple[Prediction, np.ndarray, np.ndarray, np.ndarray]:
    """(prediction, positions, scores, kept): the prediction together with
    the score curve it was selected from; ``kept`` indexes ``scores``."""
    positions, scores = score_video(model, video, cfg)
    kept = select_peaks(scores, cfg.post)
    prediction = Prediction(video=video.video_id,
                            positions=tuple(int(positions[i]) for i in kept),
                            scores=tuple(float(scores[i]) for i in kept))
    return prediction, positions, scores, kept


def predict_dataset(model: BoundaryModel, videos: list[VideoRecord],
                    cfg: RunConfig, workers: int = 1) -> list[Prediction]:
    """Predictions for each video; identical output for any worker count."""
    if workers < 1:
        raise ContractError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(videos) <= 1:
        return [predict_video(model, video, cfg) for video in videos]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda v: predict_video(model, v, cfg), videos))
