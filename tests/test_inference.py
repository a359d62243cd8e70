"""Score curves, peak selection, and dataset prediction."""

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddm.config import (ABLATIONS, ClipSpec, GenSpec, ModelConfig, PostConfig,
                        RunConfig, TrainConfig)
from ddm.errors import ContractError, NumericError
from ddm.inference import (Prediction, predict_dataset, predict_video,
                           score_video, select_peaks)
from ddm.feature_bank import sample_clip
from ddm.model import BoundaryModel
from ddm.synth import VideoRecord, generate_video
from ddm.tensor import backward, no_grad
from ddm.training import adam_init, adam_step, evaluated_positions
from oracles import select_peaks_ref

# ---------------------------------------------------------------------------
# peak selection


def P(theta=0.5, window=1):
    return PostConfig(theta=theta, window=window)


def test_select_peaks_simple_maximum():
    scores = np.array([0.1, 0.9, 0.1])
    assert select_peaks(scores, P()).tolist() == [1]


def test_select_peaks_threshold_gate():
    scores = np.array([0.1, 0.4, 0.1])
    assert select_peaks(scores, P(theta=0.5)).tolist() == []
    assert select_peaks(scores, P(theta=0.3)).tolist() == [1]


def test_select_peaks_plateau_keeps_left_edge():
    scores = np.array([0.9, 0.9, 0.2])
    assert select_peaks(scores, P()).tolist() == [0]
    scores = np.array([0.2, 0.9, 0.9, 0.9, 0.2])
    assert select_peaks(scores, P(window=3)).tolist() == [1]


def test_select_peaks_window_reach():
    # the higher score two steps away suppresses index 1 only when the
    # window is wide enough to see it
    scores = np.array([0.0, 0.6, 0.0, 0.8, 0.0])
    assert select_peaks(scores, P(window=1)).tolist() == [1, 3]
    assert select_peaks(scores, P(window=2)).tolist() == [3]


def test_select_peaks_edges_and_degenerate_sizes():
    assert select_peaks(np.array([0.7]), P()).tolist() == [0]
    assert select_peaks(np.zeros(0), P()).tolist() == []
    # window far larger than the sequence is fine
    assert select_peaks(np.array([0.3, 0.8, 0.4]), P(window=10)).tolist() == [1]


def test_select_peaks_validation():
    with pytest.raises(ContractError):
        select_peaks(np.zeros((2, 2)), P())
    with pytest.raises(NumericError):
        select_peaks(np.array([0.5, np.nan]), P())


@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                min_size=0, max_size=40),
       st.sampled_from([0.2, 0.5, 0.8]), st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_select_peaks_matches_exhaustive_rule(values, theta, window):
    scores = np.array(values)
    got = select_peaks(scores, P(theta=theta, window=window)).tolist()
    assert got == select_peaks_ref(scores, theta, window)


def test_select_peaks_is_fast_on_long_curves():
    scores = np.random.default_rng(0).random(10_000)
    cfg = P(theta=0.5, window=5)
    select_peaks(scores, cfg)  # warm-up
    start = time.perf_counter()
    select_peaks(scores, cfg)
    assert time.perf_counter() - start < 0.01


# ---------------------------------------------------------------------------
# model scoring

TINY = RunConfig(
    gen=GenSpec(train_videos=1, val_videos=1, min_frames=18, max_frames=20,
                min_events=2, max_events=2, min_event_len=5, height=12,
                width=12, square_size=5, regimes=("color-shift",), seed=0),
    clip=ClipSpec(half_window=2, stride=2),
    model=ModelConfig(backbone_widths=(4, 6), width=6, dilations=(1, 2),
                      queries=2, heads=2, intra_layers=1, cross_layers=1,
                      ffn_hidden=8),
    train=TrainConfig(epochs=1, batch_size=8),
    post=PostConfig(theta=0.4, window=2),
    eval_stride=3,
)


@pytest.fixture(scope="module")
def tiny_model():
    return BoundaryModel(TINY.model, seed=0)


@pytest.fixture(scope="module")
def tiny_video():
    return generate_video(TINY.gen, "val-0000", "val")


def test_score_video_shapes_and_range(tiny_model, tiny_video):
    positions, scores = score_video(tiny_model, tiny_video, TINY)
    expected = evaluated_positions(tiny_video.num_frames, TINY.eval_stride)
    assert np.array_equal(positions, expected)
    assert scores.shape == positions.shape
    assert np.all((scores > 0.0) & (scores < 1.0))


def test_score_video_batch_size_invariant(tiny_model, tiny_video):
    _, small = score_video(tiny_model, tiny_video, TINY, batch_size=3)
    _, large = score_video(tiny_model, tiny_video, TINY, batch_size=64)
    assert np.allclose(small, large, rtol=1e-10, atol=0)


def test_score_video_rejects_bad_batch_size(tiny_model, tiny_video):
    with pytest.raises(ContractError):
        score_video(tiny_model, tiny_video, TINY, batch_size=0)


def test_predict_video_consistent_with_parts(tiny_model, tiny_video):
    pred = predict_video(tiny_model, tiny_video, TINY)
    positions, scores = score_video(tiny_model, tiny_video, TINY)
    kept = select_peaks(scores, TINY.post)
    assert pred.video == tiny_video.video_id
    assert pred.positions == tuple(int(positions[i]) for i in kept)
    assert pred.scores == tuple(float(scores[i]) for i in kept)


def test_predict_dataset_worker_invariance(tiny_model):
    videos = [generate_video(TINY.gen, f"val-{i:04d}", "val")
              for i in range(3)]
    serial = predict_dataset(tiny_model, videos, TINY, workers=1)
    threaded = predict_dataset(tiny_model, videos, TINY, workers=3)
    assert [p.video for p in serial] == [v.video_id for v in videos]
    assert serial == threaded  # dataclass equality covers scores bitwise


def test_predict_dataset_rejects_bad_workers(tiny_model):
    with pytest.raises(ContractError):
        predict_dataset(tiny_model, [], TINY, workers=0)


def test_prediction_is_plain_data():
    p = Prediction("vid", (3, 9), (0.9, 0.8))
    assert p.positions == (3, 9) and p.scores == (0.9, 0.8)


# ---------------------------------------------------------------------------
# frame reuse: score_video runs each distinct frame through the backbone once
# and must give the scores of a per-clip forward


def per_clip_scores(model, video, cfg):
    positions = evaluated_positions(video.num_frames, cfg.eval_stride)
    with no_grad():
        return np.array([
            model.forward(sample_clip(video, int(pos), cfg.clip)[None]
                          .astype(np.float64)).fused.data[0]
            for pos in positions])


def random_video(num_frames, seed=0):
    frames = np.random.default_rng(seed).random(
        (num_frames, TINY.gen.height, TINY.gen.width, 3)).astype(np.float32)
    return VideoRecord("val-rand", frames, (), "val")


def assert_matches_per_clip(model, video, cfg, batch_size=64):
    _, scores = score_video(model, video, cfg, batch_size=batch_size)
    expected = per_clip_scores(model, video, cfg)
    assert scores.shape == expected.shape
    assert np.max(np.abs(scores - expected)) <= 1e-12


def test_reuse_matches_per_clip_when_clips_clamp_at_both_ends(tiny_model):
    # a clip spans 2 * half_window * stride + 1 = 9 frames
    assert_matches_per_clip(tiny_model, random_video(6), TINY)


def test_reuse_matches_per_clip_off_grid_last_frame(tiny_model):
    video = random_video(20)
    assert (video.num_frames - 1) % TINY.eval_stride != 0
    assert_matches_per_clip(tiny_model, video, TINY)


@pytest.mark.parametrize("batch_size", [1, 3])
def test_reuse_matches_per_clip_small_batches(tiny_model, tiny_video,
                                              batch_size):
    assert_matches_per_clip(tiny_model, tiny_video, TINY, batch_size)


def test_reuse_matches_per_clip_across_backbone_chunks(tiny_model):
    # batch_size 2 gives 2 * 5 = 10-frame backbone chunks; 40 frames read
    # by the clips span several of them
    video = random_video(40)
    assert 2 * TINY.clip.length < video.num_frames
    assert_matches_per_clip(tiny_model, video, TINY, batch_size=2)


def test_reuse_matches_per_clip_single_frame_clips():
    cfg = dataclasses.replace(TINY, clip=ClipSpec(half_window=0, stride=2))
    model = BoundaryModel(cfg.model, seed=1)
    assert_matches_per_clip(model, random_video(11), cfg, batch_size=3)


@pytest.mark.parametrize("mode", ABLATIONS)
def test_reuse_matches_per_clip_every_ablation(tiny_video, mode):
    cfg = dataclasses.replace(
        TINY, model=dataclasses.replace(TINY.model, ablate=mode))
    model = BoundaryModel(cfg.model, seed=2)
    assert_matches_per_clip(model, tiny_video, cfg, batch_size=4)


def test_score_video_rerun_is_bit_identical(tiny_model, tiny_video):
    _, first = score_video(tiny_model, tiny_video, TINY, batch_size=4)
    _, second = score_video(tiny_model, tiny_video, TINY, batch_size=4)
    assert np.array_equal(first, second)


def test_score_video_follows_a_parameter_update(tiny_video):
    model = BoundaryModel(TINY.model, seed=3)
    _, before = score_video(model, tiny_video, TINY)
    params = model.named_params()
    clips = np.stack([sample_clip(tiny_video, pos, TINY.clip)
                      for pos in (0, 9)]).astype(np.float64)
    backward(model.loss(model.forward(clips), np.array([1.0, 0.0])))
    adam_step(params, adam_init(params), lr=1e-2)
    _, after = score_video(model, tiny_video, TINY)
    assert not np.array_equal(before, after)
    assert np.max(np.abs(after - per_clip_scores(model, tiny_video, TINY))) \
        <= 1e-12
