"""Synthetic corpus: determinism, boundary structure, recoverability, IO."""

import numpy as np
import pytest

from ddm import synth
from ddm.config import GenSpec
from ddm.errors import ContractError, DataError


COLOR_ONLY = GenSpec(train_videos=4, val_videos=2, min_frames=40,
                     max_frames=60, min_events=2, max_events=3,
                     min_event_len=8, regimes=("color-shift",), seed=7)


def _frame_diffs(frames):
    return np.abs(np.diff(frames.astype(np.float64), axis=0)).mean(axis=(1, 2, 3))


def naive_boundaries(frames, gap=0.05):
    """Thresholded frame differencing, the no-model recovery baseline."""
    return [t + 1 for t, d in enumerate(_frame_diffs(frames)) if d > gap]


def test_generation_is_deterministic():
    a = synth.generate_video(COLOR_ONLY, "train-0000")
    b = synth.generate_video(COLOR_ONLY, "train-0000")
    assert a.frames.tobytes() == b.frames.tobytes()
    assert a.boundaries == b.boundaries


def test_distinct_ids_give_distinct_videos():
    a = synth.generate_video(COLOR_ONLY, "train-0000")
    b = synth.generate_video(COLOR_ONLY, "train-0001")
    assert a.frames.tobytes() != b.frames.tobytes()


def test_seed_argument_overrides_spec_seed():
    a = synth.generate_video(COLOR_ONLY, "train-0000")
    b = synth.generate_video(COLOR_ONLY, "train-0000", seed=COLOR_ONLY.seed + 1)
    assert a.frames.tobytes() != b.frames.tobytes()


def test_boundary_structure():
    for i in range(6):
        rec = synth.generate_video(COLOR_ONLY, f"train-{i:04d}")
        e = rec.num_frames
        assert COLOR_ONLY.min_frames <= e <= COLOR_ONLY.max_frames
        k = len(rec.boundaries) + 1
        assert COLOR_ONLY.min_events <= k <= COLOR_ONLY.max_events
        cuts = [0, *rec.boundaries, e]
        assert all(b2 - b1 >= COLOR_ONLY.min_event_len
                   for b1, b2 in zip(cuts, cuts[1:]))


def test_frames_dtype_and_range():
    rec = synth.generate_video(COLOR_ONLY, "train-0002")
    assert rec.frames.dtype == np.float32
    assert rec.frames.min() >= 0.0 and rec.frames.max() <= 1.0
    assert rec.frames.shape[1:] == (COLOR_ONLY.height, COLOR_ONLY.width, 3)


def test_jitter_free_color_shift_is_piecewise_constant():
    rec = synth.generate_video(COLOR_ONLY, "train-0003")
    diffs = _frame_diffs(rec.frames)
    inside = [d for t, d in enumerate(diffs) if (t + 1) not in rec.boundaries]
    across = [d for t, d in enumerate(diffs) if (t + 1) in rec.boundaries]
    assert max(inside) == 0.0
    assert min(across) > 0.1


def test_naive_differencing_recovers_all_boundaries():
    for i in range(4):
        rec = synth.generate_video(COLOR_ONLY, f"val-{i:04d}", split="val")
        assert naive_boundaries(rec.frames) == list(rec.boundaries)


def test_jitter_breaks_within_event_identity():
    spec = GenSpec(**{**COLOR_ONLY.__dict__, "jitter": 0.05})
    rec = synth.generate_video(spec, "train-0000")
    diffs = _frame_diffs(rec.frames)
    inside = [d for t, d in enumerate(diffs) if (t + 1) not in rec.boundaries]
    assert min(inside) > 0.0


def test_square_regimes_render_a_square():
    spec = GenSpec(train_videos=1, val_videos=0, min_frames=40, max_frames=40,
                   min_events=2, max_events=2, min_event_len=10,
                   regimes=("appear-disappear",), seed=3)
    # with a single appear/disappear boundary, one side must contain a square:
    # some frame then has at least two distinct colours
    rec = synth.generate_video(spec, "train-0000")
    distinct = max(len(np.unique(f.reshape(-1, 3), axis=0)) for f in rec.frames)
    assert distinct == 2


def test_dataset_round_trip_and_order(tmp_path):
    records = synth.generate_dataset(COLOR_ONLY)
    synth.write_dataset(records, tmp_path)
    loaded = synth.read_dataset(tmp_path)
    assert [r.video_id for r in loaded] == [r.video_id for r in records]
    for a, b in zip(records, loaded):
        assert a.frames.tobytes() == b.frames.tobytes()
        assert a.boundaries == b.boundaries and a.split == b.split


def test_dataset_split_filter(tmp_path):
    synth.write_dataset(synth.generate_dataset(COLOR_ONLY), tmp_path)
    val = synth.read_dataset(tmp_path, split="val")
    assert len(val) == COLOR_ONLY.val_videos
    assert all(r.split == "val" for r in val)
    with pytest.raises(DataError, match="no videos"):
        synth.read_dataset(tmp_path, split="test")


def test_dataset_write_is_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    synth.write_dataset(synth.generate_dataset(COLOR_ONLY), d1)
    synth.write_dataset(synth.generate_dataset(COLOR_ONLY), d2)
    assert (d1 / "manifest.jsonl").read_bytes() == (d2 / "manifest.jsonl").read_bytes()
    for f in sorted((d1 / "frames").iterdir()):
        assert f.read_bytes() == (d2 / "frames" / f.name).read_bytes()


def test_worker_count_does_not_change_dataset():
    serial = synth.generate_dataset(COLOR_ONLY, workers=1)
    threaded = synth.generate_dataset(COLOR_ONLY, workers=3)
    for a, b in zip(serial, threaded):
        assert a.video_id == b.video_id
        assert a.frames.tobytes() == b.frames.tobytes()


@pytest.mark.parametrize("workers", [0, -3])
def test_generate_dataset_rejects_bad_workers(workers):
    with pytest.raises(ContractError):
        synth.generate_dataset(COLOR_ONLY, workers=workers)


def test_corrupt_frames_file_rejected(tmp_path):
    synth.write_dataset(synth.generate_dataset(COLOR_ONLY), tmp_path)
    victim = next((tmp_path / "frames").iterdir())
    victim.write_bytes(b"XXXX" + victim.read_bytes()[4:])
    with pytest.raises(DataError, match="magic"):
        synth.read_dataset(tmp_path)


def test_manifest_frame_count_mismatch_rejected(tmp_path):
    synth.write_dataset(synth.generate_dataset(COLOR_ONLY), tmp_path)
    manifest = tmp_path / "manifest.jsonl"
    text = manifest.read_text().replace('"num_frames": ', '"num_frames": 1', 1)
    manifest.write_text(text)
    with pytest.raises(DataError):
        synth.read_dataset(tmp_path)


def test_frames_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    frames = rng.random((5, 6, 7, 3), dtype=np.float32)
    path = tmp_path / "clip.ddmf"
    synth.write_frames(path, frames)
    again = synth.read_frames(path)
    assert again.tobytes() == frames.tobytes()
    assert again.shape == frames.shape
