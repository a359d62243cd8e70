"""Clip sampling and feature-bank construction."""

import numpy as np
import pytest

from ddm import tensor as T
from ddm.config import ClipSpec, ModelConfig
from ddm.errors import ContractError, DimensionError
from ddm.feature_bank import (FeatureExtractor, build_feature_bank,
                              clip_indices, sample_clip, temporal_bank)
from ddm.synth import VideoRecord

from oracles import check_gradients


TINY = ModelConfig(backbone_widths=(4, 6), width=6, dilations=(1, 2),
                   heads=2, queries=2, intra_layers=1, cross_layers=1)


def _video(rng, e=12, h=8, w=8):
    frames = rng.random((e, h, w, 3), dtype=np.float32)
    return VideoRecord("v", frames, (4,), "train")


def test_clip_indices_clamp_at_start():
    spec = ClipSpec(half_window=2, stride=3)
    assert clip_indices(10, 0, spec).tolist() == [0, 0, 0, 3, 6]


def test_clip_indices_clamp_at_end():
    spec = ClipSpec(half_window=5, stride=6)
    idx = clip_indices(30, 15, spec)
    assert idx.tolist() == [0, 0, 0, 3, 9, 15, 21, 27, 29, 29, 29]


def test_degenerate_window_is_centre_frame():
    assert clip_indices(10, 4, ClipSpec(half_window=0, stride=3)).tolist() == [4]


def test_clip_length_and_centre():
    spec = ClipSpec(half_window=4, stride=2)
    idx = clip_indices(50, 23, spec)
    assert len(idx) == spec.length == 9
    assert idx[len(idx) // 2] == 23
    assert all(0 <= i < 50 for i in idx)
    assert np.all(np.diff(idx) >= 0)


def test_clip_centre_out_of_range_rejected():
    with pytest.raises(ContractError):
        clip_indices(10, 10, ClipSpec())
    with pytest.raises(ContractError):
        clip_indices(0, 0, ClipSpec())


def test_sample_clip_gathers_frames():
    rng = np.random.default_rng(0)
    video = _video(rng)
    spec = ClipSpec(half_window=1, stride=4)
    clip = sample_clip(video, 5, spec)
    assert clip.shape == (3, 8, 8, 3)
    assert np.array_equal(clip[0], video.frames[1])
    assert np.array_equal(clip[1], video.frames[5])
    assert np.array_equal(clip[2], video.frames[9])


def test_bank_shapes_and_level_order():
    rng = np.random.default_rng(1)
    fx = FeatureExtractor(TINY, rng)
    clips = rng.random((2, 5, 8, 8, 3))
    bank = build_feature_bank(fx, clips)
    assert len(bank.levels) == TINY.num_levels == 4
    widths = [level.shape[-1] for level in bank.levels]
    assert widths == [4, 4, 6, 6]  # spatial-major ordering
    for level in bank.levels:
        assert level.shape[:2] == (2, 5)
    assert bank.rgb.shape == (2, 5, 6)


def test_rgb_is_the_deepest_spatial_sequence():
    rng = np.random.default_rng(2)
    fx = FeatureExtractor(TINY, rng)
    clips = rng.random((1, 5, 8, 8, 3))
    bank = build_feature_bank(fx, clips)
    deepest = fx.spatial_sequences(clips)[-1]
    assert bank.rgb.data.tobytes() == deepest.data.tobytes()
    # and it is the live branch input, not a detached copy: gradients reach
    # the backbone through it
    T.backward(bank.rgb.sum())
    assert fx.params["backbone/0/w"].grad is not None


def test_spatial_features_do_not_depend_on_the_clip():
    # the premise of per-video frame reuse: a frame's backbone features are
    # the same whichever clip, or batch of frames, carries it
    rng = np.random.default_rng(5)
    fx = FeatureExtractor(TINY, rng)
    frames = rng.random((7, 8, 8, 3))
    clips = frames[np.array([[0, 1, 2, 3, 4], [2, 3, 4, 5, 6]])]
    per_clip = fx.spatial_sequences(clips)
    per_frame = fx.spatial_sequences(frames[None])
    for clip_seq, frame_seq in zip(per_clip, per_frame):
        assert np.max(np.abs(clip_seq.data[1, :3] - frame_seq.data[0, 2:5])) \
            <= 1e-12


def test_temporal_bank_rejects_wrong_stage_count():
    rng = np.random.default_rng(6)
    fx = FeatureExtractor(TINY, rng)
    seqs = fx.spatial_sequences(rng.random((1, 5, 8, 8, 3)))
    with pytest.raises(DimensionError):
        temporal_bank(fx, seqs[:1])


def test_constant_clip_gives_time_constant_features():
    rng = np.random.default_rng(3)
    fx = FeatureExtractor(TINY, rng)
    frame = rng.random((8, 8, 3))
    clips = np.broadcast_to(frame, (1, 6, 8, 8, 3))
    bank = build_feature_bank(fx, clips)
    for seq in [*bank.levels, bank.rgb]:
        assert np.max(np.abs(seq.data - seq.data[:, :1])) == 0.0


def test_identity_temporal_kernel_reproduces_spatial_sequence():
    rng = np.random.default_rng(4)
    fx = FeatureExtractor(TINY, rng)
    k = TINY.temporal_kernel
    for s, width in enumerate(TINY.backbone_widths):
        ident = np.zeros((k, width, width))
        ident[k // 2] = np.eye(width)
        fx.params[f"temporal/{s}/0/w"].data = ident
        fx.params[f"temporal/{s}/0/b"].data = np.zeros(width)
    clips = rng.random((1, 5, 8, 8, 3))
    seqs = fx.spatial_sequences(clips)
    bank = build_feature_bank(fx, clips)
    n = TINY.temporal_levels
    for s in range(TINY.spatial_levels):
        assert np.array_equal(bank.levels[s * n].data, seqs[s].data)


def test_temporal_receptive_field_matches_dilation():
    rng = np.random.default_rng(5)
    fx = FeatureExtractor(TINY, rng)
    base = rng.random((1, 9, 8, 8, 3))
    bumped = base.copy()
    t0 = 4
    bumped[0, t0] += 0.1
    ref = build_feature_bank(fx, base)
    new = build_feature_bank(fx, bumped)
    n = TINY.temporal_levels
    for idx, (a, b) in enumerate(zip(ref.levels, new.levels)):
        dilation = TINY.dilations[idx % n]
        changed = np.where(np.abs(a.data - b.data).max(axis=(0, 2)) > 0)[0]
        assert set(changed) == {t0 - dilation, t0, t0 + dilation}


def test_too_small_frames_rejected():
    rng = np.random.default_rng(6)
    fx = FeatureExtractor(TINY, rng)  # two stages halve twice: needs >= 4 px
    with pytest.raises(DimensionError):
        fx.spatial_sequences(rng.random((1, 3, 2, 2, 3)))


def test_single_stage_backbone():
    cfg = ModelConfig(backbone_widths=(4,), width=4, dilations=(1,), heads=2,
                      queries=1, intra_layers=1, cross_layers=1)
    rng = np.random.default_rng(7)
    fx = FeatureExtractor(cfg, rng)
    bank = build_feature_bank(fx, rng.random((2, 3, 6, 6, 3)))
    assert len(bank.levels) == 1
    assert bank.rgb.shape == (2, 3, 4)


def test_init_and_forward_deterministic():
    clips = np.random.default_rng(8).random((1, 4, 8, 8, 3))
    outs = []
    for _ in range(2):
        fx = FeatureExtractor(TINY, np.random.default_rng(42))
        outs.append(build_feature_bank(fx, clips))
    for a, b in zip(outs[0].levels, outs[1].levels):
        assert a.data.tobytes() == b.data.tobytes()


def test_feature_bank_gradients():
    def make(rng):
        fx = FeatureExtractor(TINY, rng)
        clips = rng.random((1, 3, 6, 6, 3))
        probes = [rng.standard_normal((1, 3, w)) for w in [4, 4, 6, 6]]

        def forward():
            bank = build_feature_bank(fx, clips)
            total = (bank.levels[0] * probes[0]).sum()
            for level, probe in zip(bank.levels[1:], probes[1:]):
                total = total + (level * probe).sum()
            return total

        return list(fx.params.values()), forward

    check_gradients(make, seeds=range(2))
